"""Operator model, truncations, spectra, and Green's columns.

Expected numbers are frozen from closed forms (free chain, two-site period)
or from dense-matrix oracles computed inline.
"""

import json

import numpy as np
import pytest

from conftest import random_operator

from domsplit import (
    JacobiOperator,
    cocycle_map,
    dist_to_spectrum,
    greens_column,
    periodic_operator,
    spectrum,
)
from domsplit.jacobi import (
    apply,
    char_poly,
    cocycle_via_charpoly,
    floquet_bands,
    greens_row_residual,
    normalization_identity_check,
    truncation,
)
from domsplit.mat2 import cocycle_product

GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))  # smaller root of x^2 - 3x + 1


# ---------------------------------------------------------------- operator


def test_range_extensions():
    op = JacobiOperator(j_lo=0, a=np.array([1.0, 2.0, 3.0]), b=np.array([5.0, 6.0, 7.0]))
    # zero extension: couplings and potentials vanish off the data range
    assert op.a_at(-1) == 0.0
    assert op.a_at(3) == 0.0
    assert op.b_at(10) == 0.0
    assert op.a_at(1) == 2.0

    per = JacobiOperator(j_lo=0, a=np.array([1.0, 2.0]), b=np.array([5.0, 6.0]),
                         extension="periodic", period=2)
    assert per.a_at(2) == 1.0
    assert per.a_at(-1) == 2.0
    assert per.b_at(7) == 6.0

    const = JacobiOperator(j_lo=0, a=np.array([1.0, 2.0]), b=np.array([5.0, 6.0]),
                           extension="constant")
    assert const.a_at(-5) == 1.0
    assert const.a_at(9) == 2.0
    assert const.b_at(9) == 6.0


def test_range_vectors_match_scalars():
    rng = np.random.default_rng(11)
    op = random_operator(rng, n=30)
    a = op.a_range(-20, 40)
    b = op.b_range(-20, 40)
    for k, j in enumerate(range(-20, 41)):
        assert a[k] == op.a_at(j)
        assert b[k] == op.b_at(j)


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        JacobiOperator(j_lo=0, a=np.ones(3), b=np.zeros(4))


def test_bound_validation():
    op = JacobiOperator(j_lo=0, a=np.ones(4), b=np.zeros(4))
    assert op.bound > 1.0  # auto bound clears the data
    with pytest.raises(ValueError):
        JacobiOperator(j_lo=0, a=2.0 * np.ones(4), b=np.zeros(4), bound=1.0)


def test_zero_sites():
    op = JacobiOperator(j_lo=0, a=np.array([1.0, 0.0, 2.0, 0.0]), b=np.zeros(4))
    assert op.is_zero_coupling(1)
    assert not op.is_zero_coupling(0)
    assert list(op.zero_sites(0, 3)) == [1, 3]


def test_apply_matches_dense():
    rng = np.random.default_rng(7)
    op = random_operator(rng, n=16, j_lo=0)
    tr = truncation(op, -1, 15)  # sites 0..15
    H = tr.dense()
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = {j: x[j] for j in range(16)}
    y = H @ x
    # interior sites see no truncation effect
    for j in range(1, 15):
        assert abs(apply(op, psi, j) - y[j]) < 1e-12


# ---------------------------------------------------- transfer matrices


def test_cocycle_map_entries():
    rng = np.random.default_rng(3)
    op = random_operator(rng, n=12, j_lo=0)
    E = 0.7 - 0.3j
    seq = cocycle_map(op, E)
    for j in (2, 5, 9):
        m = seq.at(j)
        assert abs(m[0, 0] - (E - op.b_at(j))) < 1e-14
        assert abs(m[0, 1] + np.conj(op.a_at(j - 1))) < 1e-14
        assert m[1, 0] == op.a_at(j) and m[1, 1] == 0.0


def test_cocycle_map_singular_at_zero_coupling():
    from domsplit.mat2 import det2, is_singular

    op = JacobiOperator(j_lo=0, a=np.array([1.0, 0.0, 1.0, 1.0]), b=np.zeros(4),
                        extension="constant")
    seq = cocycle_map(op, 1.0)
    # det of a factor is conj(a(j-1)) * a(j), so both neighbors of the dead
    # bond produce singular factors
    assert is_singular(seq.at(1))
    assert is_singular(seq.at(2))
    assert det2(seq.at(1)) == 0.0
    assert not is_singular(seq.at(3))


def test_char_poly_is_determinant():
    rng = np.random.default_rng(19)
    op = random_operator(rng, n=24, j_lo=-12)
    E = 1.3 + 0.2j
    for j, N in ((-5, 1), (-5, 4), (0, 7)):
        H = truncation(op, j - 1, j + N - 1).dense()
        oracle = np.linalg.det(E * np.eye(N) - H)
        assert abs(char_poly(op, j, N, E) - oracle) < 1e-10 * max(1.0, abs(oracle))


def test_cocycle_via_charpoly_matches_product():
    rng = np.random.default_rng(23)
    op = random_operator(rng, n=40, j_lo=0)
    E = 0.4 + 0.1j
    seq = cocycle_map(op, E)
    for j, N in ((5, 1), (5, 6), (10, 12)):
        direct = cocycle_product(seq, j, N)
        via = cocycle_via_charpoly(op, j, N, E)
        assert np.max(np.abs(via - direct)) < 1e-10 * max(1.0, np.max(np.abs(direct)))


# ---------------------------------------------------------- truncations


def test_truncation_sites_and_dense():
    op = JacobiOperator(j_lo=0, a=np.arange(1.0, 7.0), b=np.arange(10.0, 16.0))
    tr = truncation(op, 1, 4)  # sites 2..4
    assert tr.j_first == 2
    H = tr.dense()
    assert H.shape == (3, 3)
    assert H[0, 0] == 12.0 and H[2, 2] == 14.0
    assert H[0, 1] == 3.0 and H[1, 0] == 3.0


def test_truncation_eigenvalues_match_dense():
    rng = np.random.default_rng(31)
    for trial in range(4):
        op = random_operator(rng, n=50, j_lo=0)
        tr = truncation(op, 4, 44)
        got = tr.eigenvalues()
        ref = np.sort(np.linalg.eigvalsh(tr.dense()))
        assert np.max(np.abs(got - ref)) < 1e-10


def test_truncation_segments_split_at_zeros():
    a = np.ones(9)
    a[3] = 0.0
    op = JacobiOperator(j_lo=0, a=a, b=np.linspace(0, 1, 9))
    tr = truncation(op, -1, 8)
    segs = tr.segments()
    assert len(segs) == 2
    got = tr.eigenvalues()
    ref = np.sort(np.linalg.eigvalsh(tr.dense()))
    assert np.max(np.abs(np.sort(got) - ref)) < 1e-10


# -------------------------------------------------------------- spectra


def test_free_chain_spectrum(free_op):
    sp = spectrum(free_op, sizes=(100, 150, 199))
    assert len(sp.segments) == 1
    lo, hi = sp.segments[0]
    assert abs(lo + 2.0) < 1e-3 and abs(hi - 2.0) < 1e-3
    # interior energies are inside the cover, outside ones are not
    assert dist_to_spectrum(sp, 0.0) == 0.0
    assert dist_to_spectrum(sp, 3.0) > 0.9


def test_spectrum_segments_sorted_disjoint(mod5_op):
    sp = spectrum(mod5_op, sizes=(150, 300))
    segs = sp.segments
    for (l1, h1), (l2, h2) in zip(segs, segs[1:]):
        assert h1 < l2
    for lo, hi in segs:
        assert lo <= hi


def test_periodic_spectrum_matches_floquet(period2_op):
    sp = spectrum(period2_op, sizes=(200, 298))
    bands = floquet_bands(period2_op)
    # every band edge is captured by the approximation cover
    for lo, hi in bands:
        assert dist_to_spectrum(sp, lo) < 2.0 * sp.resolution
        assert dist_to_spectrum(sp, hi) < 2.0 * sp.resolution
    # and every approximate eigenvalue sits inside some band
    for x in np.asarray(sp.merged):
        d = min(max(lo - x, x - hi, 0.0) for lo, hi in bands)
        assert d < 1e-8


def test_ring_truncation_translation_invariance():
    # whole-period ring spectra are identical for translated windows
    op = periodic_operator([1.0, 0.6, 0.9], [0.2, -0.4, 0.7], (-60, 59))
    sp1 = spectrum(op, sizes=(60, 90))
    op2 = periodic_operator([0.6, 0.9, 1.0], [-0.4, 0.7, 0.2], (-60, 59))
    sp2 = spectrum(op2, sizes=(60, 90))
    assert np.max(np.abs(np.asarray(sp1.merged) - np.asarray(sp2.merged))) < 1e-12


def test_dist_to_spectrum_arrays(free_op):
    sp = spectrum(free_op, sizes=(150, 199))
    Es = np.array([0.0, 2.5, 3.0 + 1.0j, -4.0])
    d = dist_to_spectrum(sp, Es)
    assert d.shape == (4,)
    for k, E in enumerate(Es):
        assert abs(d[k] - dist_to_spectrum(sp, complex(E))) < 1e-15
    # off the left edge the distance grows linearly with the offset
    assert abs(d[3] - (dist_to_spectrum(sp, -2.0) + 2.0)) < 1e-12


# ---------------------------------------------------------- band functions


def test_floquet_free_chain():
    op = periodic_operator([1.0], [0.0], (-50, 49))
    bands = floquet_bands(op)
    assert len(bands) == 1
    assert abs(bands[0][0] + 2.0) < 1e-8
    assert abs(bands[0][1] - 2.0) < 1e-8


def test_floquet_period2_frozen_edges(period2_op):
    # closed form: eigenvalues of the two-site cell with discriminant sqrt(18.25)
    r = np.sqrt(18.25)
    expect = [(-(r - 1.5) / 2.0, 0.0), (1.5, (1.5 + r) / 2.0)]
    bands = floquet_bands(period2_op)
    assert len(bands) == 2
    for (lo, hi), (elo, ehi) in zip(bands, expect):
        assert abs(lo - elo) < 1e-8
        assert abs(hi - ehi) < 1e-8


def test_floquet_requires_period():
    op = JacobiOperator(j_lo=0, a=np.ones(4), b=np.zeros(4))
    with pytest.raises(ValueError):
        floquet_bands(op)


def test_floquet_rejects_pinched_cell():
    op = JacobiOperator(j_lo=0, a=np.array([1.0, 0.0]), b=np.zeros(2),
                        extension="periodic", period=2)
    with pytest.raises(ValueError):
        floquet_bands(op)


# ---------------------------------------------------------- Green's data


def test_free_chain_greens_frozen(free_op):
    g = greens_column(free_op, 3.0, 0)
    # closed form for the constant chain at energy 3: decay rate and center value
    assert abs(g.gamma_fit + np.log(GOLDEN)) < 1e-10
    assert abs(g.value_at(0) + 1.0 / np.sqrt(5.0)) < 1e-10
    assert abs(g.value_at(4) - g.value_at(0) * GOLDEN ** 4) < 1e-10
    assert g.residual < 1e-10
    assert g.delta > 0.9


def test_greens_matches_dense_resolvent():
    rng = np.random.default_rng(41)
    op = random_operator(rng, n=21, j_lo=-10)
    E = 1.3 + 0.9j
    g = greens_column(op, E, 0)
    H = truncation(op, -31, 30).dense()  # covers the whole coupled component
    n = H.shape[0]
    sol = np.linalg.solve(H - E * np.eye(n), np.eye(n)[:, 30])
    for k in range(-20, 21):
        assert abs(g.value_at(k) - sol[k + 30]) < 1e-10


def test_greens_identities():
    rng = np.random.default_rng(43)
    op = random_operator(rng, n=40, j_lo=-20)
    E = 0.2 + 0.6j
    g = greens_column(op, E, 3)
    assert normalization_identity_check(g) < 1e-12
    res = greens_row_residual(op, E, 3)
    assert res < 1e-9


def test_greens_decay_envelope():
    rng = np.random.default_rng(47)
    op = random_operator(rng, n=60, j_lo=-30)
    E = 0.1 + 0.5j
    g = greens_column(op, E, 0)
    delta = g.delta
    assert delta >= 0.45
    rate = g.gamma_fit
    assert rate > 0.0
    for n in range(-15, 16):
        assert abs(g.value_at(n)) <= (2.0 / delta) * np.exp(-rate * abs(n)) + 1e-12


def test_greens_rejects_spectral_energy(free_op):
    with pytest.raises(ValueError):
        greens_column(free_op, 1.0, 0)  # inside the band


def test_greens_exact_column_accepted_at_fixed_margin():
    # every padding site past the first on the right, and all on the left,
    # are cut off by exactly zero couplings, so margin 64 is already exact
    op = JacobiOperator(j_lo=-300, a=np.ones(600, complex), b=np.zeros(600))
    E = 0.319 + 0.390j
    g = greens_column(op, E, 94, margin=64)
    wide = greens_column(op, E, 94, margin=111)
    adaptive = greens_column(op, E, 94)
    assert np.exp(-g.gamma_fit * 64) > 1e-8  # the decay fit alone would refuse
    for other in (wide, adaptive):
        k = other.margin
        assert np.array_equal(g.values[64:664], other.values[k:k + 600])


def test_value_at_outside_window(free_op):
    g = greens_column(free_op, 3.0, 0)
    with pytest.raises(IndexError):
        g.value_at(g.j_first - 5)


# ------------------------------------------------------------- round trip


def test_operator_json_roundtrip(tmp_path):
    from domsplit.jacobi import load_operator, save_operator

    rng = np.random.default_rng(53)
    op = random_operator(rng, n=12, j_lo=-4)
    path = tmp_path / "op.json"
    save_operator(op, path)
    back = load_operator(path)
    assert back.j_lo == op.j_lo
    assert np.array_equal(back.a, op.a)
    assert np.array_equal(back.b, op.b)
    assert back.extension == op.extension
    assert abs(back.bound - op.bound) < 1e-15
    # the file content is stable JSON
    doc = json.loads(path.read_text())
    assert doc["window"] == [-4, 7]


def test_periodic_roundtrip_keeps_period(tmp_path, period2_op):
    from domsplit.jacobi import load_operator, save_operator

    path = tmp_path / "per.json"
    save_operator(period2_op, path)
    back = load_operator(path)
    assert back.period == 2
    assert floquet_bands(back) == floquet_bands(period2_op)
