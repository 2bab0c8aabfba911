"""Operator model, truncations, spectra, and Green's columns.

Expected numbers are frozen from closed forms (free chain, two-site period)
or from dense-matrix oracles computed inline.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import eigh_tridiagonal
from scipy.linalg import solve_banded as scipy_solve_banded

from conftest import random_operator

from domsplit import jacobi

from domsplit import (
    JacobiOperator,
    Truncation,
    cocycle_map,
    dist_to_spectrum,
    greens_column,
    periodic_operator,
    spectrum,
)
from domsplit.jacobi import (
    _ring_eigenvalues,
    apply,
    char_poly,
    cocycle_via_charpoly,
    floquet_bands,
    greens_row_residual,
    load_operator,
    normalization_identity_check,
    operator_from_json,
    operator_to_json,
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


def test_zero_sites():
    # a coupling is zero iff it is exactly 0.0: 1e-300 and -0.0 are told apart
    op = JacobiOperator(j_lo=0, a=np.array([1.0, 0.0, 1e-300, -0.0]), b=np.zeros(4))
    assert op.a_at(1) == 0.0 and op.a_at(2) != 0.0
    assert op.zero_sites() == [1, 3]
    assert op.zero_sites(-2, 5) == [-2, -1, 1, 3, 4, 5]  # the zero extension


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
    assert tr.segments() == [(0, 4), (4, 9)]
    assert truncation(op, 3, 8).segments() == [(0, 5)]
    got = tr.eigenvalues()
    ref = np.sort(np.linalg.eigvalsh(tr.dense()))
    assert np.max(np.abs(np.sort(got) - ref)) < 1e-10


# The bisection calls LAPACK dstebz through ctypes, which releases the
# GIL.  scipy's eigh_tridiagonal(..., lapack_driver="stebz") calls the
# same routine with the same arguments, and is its oracle byte for byte.


def _scipy_stebz(d, e):
    "scipy's eigenvalues of the tridiagonal, or None where scipy raises LinAlgError"
    try:
        return eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="stebz")
    except LinAlgError:
        return None


def _scipy_eigenvalues(tr):
    "Truncation.eigenvalues as computed through scipy's wrapper"
    e_mag = np.abs(tr.offdiag)
    return np.sort(np.concatenate([
        tr.diag[s:t] if t - s == 1 else _scipy_stebz(tr.diag[s:t], e_mag[s:t - 1])
        for s, t in tr.segments()
    ]))


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "repeated", "constant"]))
    if shape == "repeated":
        # copies of one block split by exact zeros: every eigenvalue repeats
        k = draw(st.integers(1, 9))
        d = np.resize(rng.uniform(-2.0, 2.0, k), n)
        e = np.resize(np.r_[rng.uniform(0.1, 2.0, k - 1), 0.0], n - 1)
    elif shape == "constant":
        d = np.full(n, rng.uniform(-2.0, 2.0))
        e = np.full(n - 1, rng.uniform(0.1, 2.0))
    else:
        d, e = rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 2.0, n - 1)
    # tiny and huge couplings, on some sites or on all
    scale = draw(st.sampled_from([1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e200]))
    e[rng.random(n - 1) < draw(st.sampled_from([0.2, 1.0]))] *= scale
    # exact-zero splits
    e[rng.random(n - 1) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = 0.0
    return d, e


@settings(max_examples=150, deadline=None)
@given(_tridiagonals())
def test_stebz_is_scipys_stebz_byte_for_byte(de):
    d, e = de
    want = _scipy_stebz(d, e)
    if want is None:
        with pytest.raises(LinAlgError, match="dstebz did not converge"):
            jacobi._stebz(d, e)
    else:
        assert jacobi._stebz(d, e).tobytes() == want.tobytes()


def test_stebz_raises_on_a_nonzero_info():
    # couplings of 1e200 overflow dstebz's bounds (INFO = 1); scipy's
    # wrapper raises LinAlgError there, and so do the truncation and the
    # spectrum cover
    d, e = np.zeros(3), np.full(2, 1e200)
    with pytest.raises(LinAlgError):
        eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="stebz")
    with pytest.raises(LinAlgError, match=r"dstebz did not converge \(LAPACK info=1\)"):
        jacobi._stebz(d, e)
    with pytest.raises(LinAlgError, match="dstebz"):
        Truncation(j_first=0, diag=d, offdiag=e.astype(complex)).eigenvalues()
    op = JacobiOperator(j_lo=0, a=np.full(40, 1e200), b=np.zeros(40))
    with pytest.raises(LinAlgError, match="dstebz"):
        spectrum(op, sizes=(20, 40))


def test_truncations_on_four_threads_are_scipys():
    # four threads solve four different truncations at once, three times
    # over: each result is scipy's, byte for byte
    rng = np.random.default_rng(29)
    a = (0.5 + rng.random(800)) * np.exp(2j * np.pi * rng.random(800))
    a[[150, 151, 420]] = 0.0
    op = JacobiOperator(j_lo=-400, a=a, b=rng.uniform(-1.0, 1.0, 800))
    trs = [truncation(op, -400 + k, -400 + k + s) for k, s in ((0, 800), (50, 600), (100, 400), (7, 300))]
    want = [_scipy_eigenvalues(tr).tobytes() for tr in trs]
    start = threading.Barrier(4)

    def solve(tr):
        start.wait()
        return [tr.eigenvalues().tobytes() for _ in range(3)]

    with ThreadPoolExecutor(max_workers=4) as ex:
        got = list(ex.map(solve, trs))
    assert got == [[w] * 3 for w in want]


# Resolvent columns solve by LAPACK zgtsv, bound the same way.  scipy's
# solve_banded((1, 1), ...) calls the same routine on copies of the same
# rows, and is its oracle byte for byte, errors included.


def _scipy_solve_banded(ab, rhs):
    "scipy's solution, or the class of the error it raises"
    try:
        return scipy_solve_banded((1, 1), ab, rhs)
    except (LinAlgError, ValueError) as exc:
        return type(exc)


@st.composite
def _banded_systems(draw):
    n, k = draw(st.integers(2, 200)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def z(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    ab, rhs = z(3, n), z(n, k)
    ab[0, 0] = ab[2, -1] = 0.0  # the corners outside the matrix
    # exact-zero couplings, on both sides of the diagonal or on one
    p = draw(st.sampled_from([0.0, 0.1, 0.5]))
    ab[0, 1:][rng.random(n - 1) < p] = 0.0
    ab[2, :-1][rng.random(n - 1) < p] = 0.0
    kind = draw(st.sampled_from(["regular", "singular", "nan", "inf"]))
    if kind == "singular":
        ab[:, rng.integers(n)] = 0.0  # a zero column of the matrix: no pivot is left for it
    elif kind != "regular":
        bad = np.nan if kind == "nan" else np.inf
        target = ab if rng.random() < 0.5 else rhs
        target[tuple(rng.integers(s) for s in target.shape)] = bad
    return kind, ab, rhs


@settings(max_examples=150, deadline=None)
@given(_banded_systems())
def test_solve_banded_is_scipys_solve_banded_byte_for_byte(system):
    kind, ab, rhs = system
    want = _scipy_solve_banded(ab, rhs)
    if kind == "regular":
        got = jacobi.solve_banded(ab, rhs)
        assert got.flags.f_contiguous and got.shape == want.shape
        assert got.tobytes(order="F") == want.tobytes(order="F")
    else:
        error, match = {
            "singular": (LinAlgError, "singular matrix"),
            "nan": (ValueError, "array must not contain infs or NaNs"),
            "inf": (ValueError, "array must not contain infs or NaNs"),
        }[kind]
        assert want is error
        with pytest.raises(error, match=match):
            jacobi.solve_banded(ab, rhs)


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
    # they are the merge loop over the sorted eigenvalues: a segment ends
    # where the next eigenvalue lies more than the gap above it
    gap, x = max(4.0 * sp.resolution, 1e-9), sp.merged
    want, lo = [], x[0]
    for a, b in zip(x, x[1:]):
        if b - a > gap:
            want.append((float(lo), float(a)))
            lo = b
    want.append((float(lo), float(x[-1])))
    assert len(want) > 1 and segs == want
    assert all(type(v) is float for seg in segs for v in seg)


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


def dense_ring_eigenvalues(op, j1, j2):
    # the whole (j1, j2] ring as one dense Hermitian matrix
    m = j2 - j1
    b = op.b_range(j1 + 1, j2)
    a = op.a_range(j1 + 1, j2)
    H = np.diag(b.astype(complex))
    idx = np.arange(m - 1)
    H[idx, idx + 1] = a[:-1]
    H[idx + 1, idx] = np.conj(a[:-1])
    H[m - 1, 0] += a[-1]
    H[0, m - 1] += np.conj(a[-1])
    return np.sort(np.linalg.eigvalsh(H))


@pytest.mark.parametrize("q", [1, 2, 3, 5, 21])
def test_bloch_ring_matches_the_dense_ring(q):
    rng = np.random.default_rng(q)
    a_cyc = (0.5 + rng.random(q)) * np.exp(2j * np.pi * rng.random(q))
    a_cyc[rng.random(q) < 0.2] = 0.0
    b_cyc = rng.uniform(-1.0, 1.0, q)
    op = periodic_operator(a_cyc, b_cyc, (-3 * q, 60 * q - 1))
    for r in (1, 2, 7, 30):
        for cut in (-3 * q - 1, 0, q // 2, 5 * q + 1):
            j1, j2 = cut, cut + r * q
            ring = _ring_eigenvalues(op, j1, j2)
            assert ring.shape == (r * q,)
            assert np.max(np.abs(ring - dense_ring_eigenvalues(op, j1, j2))) < 1e-12


def test_ring_needs_periodic_data():
    with pytest.raises(ValueError, match="2-periodic"):
        JacobiOperator(j_lo=0, a=np.array([1.0, 1.0, 1.0, 0.5]), b=np.zeros(4),
                       extension="periodic", period=2)
    with pytest.raises(ValueError, match="multiple of the period 2"):
        JacobiOperator(j_lo=0, a=np.ones(3), b=np.zeros(3), extension="periodic", period=2)
    d = operator_to_json(periodic_operator([1.0, 0.5], [0.0, 0.0], (0, 5)))
    d["b"][3] = 0.25
    with pytest.raises(ValueError, match="2-periodic"):
        operator_from_json(d)


@pytest.mark.parametrize("field, value", [
    ("j_lo", 2.5), ("j_lo", True), ("j_lo", "0"),
    ("period", 2.5), ("period", True), ("period", "2"), ("period", 0),
])
def test_operator_refuses_counts_that_are_not_integers(field, value):
    # period=2.5 used to raise a bare numpy TypeError from the reshape
    kw = {"j_lo": 0, "extension": "periodic", "period": 2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be "):
        JacobiOperator(a=np.ones(4), b=np.zeros(4), **kw)


def test_operator_stores_numpy_counts_as_ints():
    op = JacobiOperator(j_lo=np.int64(-2), a=np.ones(4), b=np.zeros(4),
                        extension="periodic", period=np.int32(2))
    assert type(op.j_lo) is int and type(op.period) is int
    assert (op.j_lo, op.period) == (-2, 2)


@pytest.mark.parametrize("key, value, match", [
    ("period", 2.5, "period must be"), ("period", "2", "period must be"),
    ("period", True, "period must be"),
    ("window", [-2.0, 1], "window start must be"), ("window", [-2.5, 1], "window start must be"),
    ("window", [-2, 1.0], "window end must be"), ("window", [-2, "1"], "window end must be"),
    ("window", [-2, 1, 7], "too many values"),
])
def test_load_refuses_counts_that_are_not_integers(tmp_path, key, value, match):
    # a count that is no JSON integer is refused, not truncated: a window
    # of [-2.5, 1] used to load as (-2, 1), and one of [-2, 1, 7] as (-2, 1)
    d = operator_to_json(periodic_operator([1.0, 0.5], [0.0, 0.0], (-2, 1)))
    d[key] = value
    path = tmp_path / "op.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=match):
        load_operator(path)


@pytest.mark.parametrize("key, k, value, match", [
    ("a", 0, [None, 0.0], r"a\[0\] must hold numbers, got None"),
    ("a", 2, [1.0, True], r"a\[2\] must hold numbers, got True"),
    ("a", 3, 1.0, r"a\[3\] must be a pair \[re, im\], got 1.0"),
    ("a", 1, [1.0, 0.0, 0.0], r"a\[1\] must be a pair"),
    ("b", 1, "0.5", r"b\[1\] must hold numbers, got '0.5'"),
    ("b", 3, [0.5], r"b\[3\] must hold numbers"),
])
def test_load_refuses_coefficients_that_are_not_numbers(key, k, value, match):
    # a null coupling used to escape as TypeError from complex(), and the
    # string "0.5" to load as the number 0.5
    d = operator_to_json(periodic_operator([1.0, 0.5], [0.0, 0.0], (-2, 1)))
    d[key][k] = value
    with pytest.raises(ValueError, match=match):
        operator_from_json(d)


@pytest.mark.parametrize("key, value, match", [
    ("window", None, "window must be a list, got None"),
    ("a", None, "a must be a list, got None"),
    ("b", 0.0, "b must be a list, got 0.0"),
])
def test_load_refuses_fields_that_are_not_lists(key, value, match):
    # each used to escape as TypeError, and so did a config that is no object
    d = operator_to_json(periodic_operator([1.0, 0.5], [0.0, 0.0], (-2, 1)))
    d[key] = value
    with pytest.raises(ValueError, match=match):
        operator_from_json(d)
    with pytest.raises(ValueError, match="an operator must be a JSON object"):
        operator_from_json([d])


def test_dist_to_spectrum_arrays(free_op):
    sp = spectrum(free_op, sizes=(150, 199))
    Es = np.array([0.0, 2.5, 3.0 + 1.0j, -4.0])
    d = dist_to_spectrum(sp, Es)
    assert d.shape == (4,)
    for k, E in enumerate(Es):
        assert d[k] == dist_to_spectrum(sp, complex(E))
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


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 13, 21, 34, 55])
def test_floquet_edges_do_not_depend_on_the_scaling(q, monkeypatch):
    # The two scalings round log |discriminant| differently in the last
    # bits (and by up to ~1e-12 near |discriminant| = 2 at long periods);
    # no inside/outside test they feed may flip.
    rng = np.random.default_rng(q)
    op = periodic_operator(0.5 + rng.random(q), rng.uniform(-1.0, 1.0, q), (0, 2 * q - 1))
    bands = floquet_bands(op)
    calls = []

    def division_renorm(P, out=None):
        # each row divided by its largest entry modulus m, where
        # mat2._renorm scales it by a power of two; the removed scale
        # comes back as -log2(m), a fractional exponent
        calls.append(len(P))
        m = np.max(np.abs(P), axis=(1, 2))
        m = np.where(m > 0, m, 1.0)
        return np.divide(P, m[:, None, None], out=out), -np.log2(m)

    monkeypatch.setattr(jacobi, "_renorm", division_renorm)
    assert floquet_bands(op) == bands
    assert calls  # the loop scaled its rows through the patched step


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


@pytest.mark.parametrize("E", [3.0, 1.0])
@pytest.mark.parametrize("args", [dict(j=0, margin=0), dict(j=10**6), dict(j=-101)])
def test_greens_column_checks_its_inputs_before_the_cover(free_op, monkeypatch, E, args):
    # a bad margin or column is refused before the spectrum cover is
    # built, with the ValueError it names, also at an energy in the band
    def no_cover(*_args, **_kwargs):
        raise AssertionError("spectrum cover built for a refused call")

    monkeypatch.setattr(jacobi, "spectrum", no_cover)
    with pytest.raises(ValueError, match="margin must be >= 1|outside window") as info:
        greens_column(free_op, E, **args)
    assert type(info.value) is ValueError


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
    assert back.period == op.period
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


# couplings drawn so that exact zeros (of both signs), values below the
# 1e-13 scale of a former load tolerance and ordinary values all occur
_TINY = [0.0, -0.0, 5e-324, 1e-300, 1e-14, -3e-14, 9e-14]
_coupling_part = st.one_of(st.sampled_from(_TINY), st.floats(-2.0, 2.0, allow_nan=False))
_couplings = st.builds(complex, _coupling_part, st.sampled_from([0.0, -0.0, 1e-14, 0.5]))
_diagonals = st.one_of(st.sampled_from([0.0, -0.0, 1e-14]), st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def _operators(draw):
    j_lo = draw(st.integers(-30, 30))
    extension = draw(st.sampled_from(["zero", "constant", "periodic", "periodic with period"]))
    if extension == "periodic with period":
        q, r = draw(st.integers(1, 6)), draw(st.integers(1, 5))
        a = np.tile(draw(st.lists(_couplings, min_size=q, max_size=q)), r)
        b = np.tile(draw(st.lists(_diagonals, min_size=q, max_size=q)), r)
        return JacobiOperator(j_lo=j_lo, a=a, b=b, extension="periodic", period=q)
    n = draw(st.integers(1, 40))
    a = draw(st.lists(_couplings, min_size=n, max_size=n))
    b = draw(st.lists(_diagonals, min_size=n, max_size=n))
    return JacobiOperator(j_lo=j_lo, a=np.array(a), b=np.array(b), extension=extension)


@settings(max_examples=80, deadline=None)
@given(_operators())
def test_json_roundtrip_returns_the_saved_operator(op):
    # a coupling is zero iff it is exactly 0.0, and no tolerance is added
    # on loading, so the loaded operator is the saved one field for field,
    # bit for bit, and splits and solves the same way
    back = operator_from_json(json.loads(json.dumps(operator_to_json(op))))
    assert [f.name for f in fields(back)] == [f.name for f in fields(op)]
    for f in fields(op):
        x, y = getattr(op, f.name), getattr(back, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        else:
            assert x == y
    assert back.zero_sites() == op.zero_sites()
    sp, sp_back = spectrum(op), spectrum(back)
    assert sp_back.segments == sp.segments
    assert sp_back.resolution == sp.resolution


@pytest.mark.parametrize("margin", [2.5, True, 64.9, np.float64(64.0), 0])
def test_greens_column_refuses_a_margin_that_is_not_a_count(free_op, monkeypatch, margin):
    # 2.5 used to run at margin 2, True at margin 1 and 64.9 at margin 64
    def no_cover(*_args, **_kwargs):
        raise AssertionError("spectrum cover built for a refused call")

    monkeypatch.setattr(jacobi, "spectrum", no_cover)
    with pytest.raises(ValueError, match="margin must be >= 1 and an integer"):
        greens_column(free_op, 3.0, 0, margin=margin)


def test_greens_column_takes_a_numpy_integer_margin(free_op):
    g = greens_column(free_op, 3.0, 0, margin=np.int64(64))
    assert g.margin == 64
    assert g.values.tobytes() == greens_column(free_op, 3.0, 0, margin=64).values.tobytes()


@pytest.mark.parametrize("sizes", [(2.7, 150.9), (0.5, 100), (True, 100), (0, 100), (-5,)])
def test_spectrum_refuses_sizes_that_are_not_counts(free_op, sizes):
    # (2.7, 150.9) used to give the sizes [2, 150], and 0.5 was dropped
    with pytest.raises(ValueError, match="truncation size must be >= 1 and an integer"):
        spectrum(free_op, sizes=sizes)


def test_spectrum_takes_numpy_integer_sizes(free_op):
    sp = spectrum(free_op, sizes=np.array([100, 150]))
    assert sp.sizes == [100, 150]
    assert sp.merged.tobytes() == spectrum(free_op, sizes=(100, 150)).merged.tobytes()
    with pytest.raises(ValueError, match="no usable truncation sizes"):
        spectrum(free_op, sizes=())
