"""Dominated-splitting certification pipeline.

Closed-form anchors: the constant chain at energy 3 has transfer
eigenvalues (3 +- sqrt(5))/2, so the splitting data is known exactly.
The two diagonal-model counterexamples each break exactly one of the
four conditions by construction.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import doubling_oracle, random_matseq, random_operator, ref_matmul

from domsplit import (
    JacobiOperator,
    certify,
    certify_operator,
    cocycle_map,
    greens_directions,
    periodic_operator,
    power_directions,
)
from domsplit import certifier, jacobi, mat2
from domsplit.certifier import (
    DegenerateCocycle,
    InternalInconsistency,
    stability_radius,
    subsample_equivalence_check,
    verify_domination,
    verify_invariance,
    verify_separation,
)
from domsplit.harness import perturb_sequence
from domsplit.jacobi import IllConditioned
from domsplit.mat2 import MatSequence, norm_floor, op_norm, span_products
from domsplit.sphere import (
    ProjPoint,
    act,
    chordal_dist,
    chordal_rows,
    disk_image_margins,
    unit_rows,
)

PHI_BIG = 0.5 * (3.0 + np.sqrt(5.0))


def example_one():
    # diag(2^-|j|, 2^-|j|-1): split with separation 2 everywhere, but the
    # factor norms die off, so no positive norm floor exists
    js = np.arange(-20, 21)
    vals = np.zeros((41, 2, 2), complex)
    vals[:, 0, 0] = 2.0 ** (-np.abs(js))
    vals[:, 1, 1] = 2.0 ** (-np.abs(js) - 1)
    return MatSequence(-20, vals)


def example_two():
    # upper-triangular with fixed -3 corner: norms stay above 3 and the
    # growth gap is wide, but the two direction fields collapse onto each
    # other like 2^-|j| toward the window ends
    js = np.arange(-20, 21)
    vals = np.zeros((41, 2, 2), complex)
    vals[:, 0, 0] = 2.0 ** (2 - np.abs(js))
    vals[:, 0, 1] = -3.0
    vals[:, 1, 1] = 2.0 ** (-np.abs(js + 1))
    return MatSequence(-20, vals)


# ------------------------------------------------------------ free chain


def test_free_chain_certificate(free_op):
    cert = certify_operator(free_op, 3.0)
    assert cert.verdict == "verified"
    assert cert.ok
    assert cert.conditions == {1: True, 2: True, 3: True, 4: True}
    assert cert.failed_condition is None
    assert cert.N == 1
    assert abs(cert.domination_margin - 4.854101966249686) < 1e-12
    assert abs(cert.delta_sep - 1.4907119849998596) < 1e-12
    assert abs(cert.epsilon - 0.12125055457500268) < 1e-12


def test_free_chain_cone_data(free_op):
    cert = certify_operator(free_op, 3.0)
    cone = cert.cone
    # worst expansion along u is the large transfer eigenvalue
    assert abs(cone.gamma - PHI_BIG) < 1e-12
    assert abs(cone.cond - np.sqrt(5.0)) < 1e-12
    b = cone.budget()
    a = cone.alpha
    expect = min(
        cone.gamma / (2.0 * (1.0 + a)),
        cone.clearance * cone.gamma / ((1.0 + a) * (2.0 + a)),
    )
    assert b == expect


def test_free_chain_directions_are_transfer_eigenvectors(free_op):
    seq = cocycle_map(free_op, 3.0)
    cert = certify_operator(free_op, 3.0)
    fld = power_directions(seq, cert.burn)
    u_ref = ProjPoint((PHI_BIG, 1.0))
    s_ref = ProjPoint((3.0 - PHI_BIG, 1.0))
    for j in fld.sites():
        assert chordal_dist(fld.u_at(j), u_ref) < 1e-12
        assert chordal_dist(fld.s_at(j), s_ref) < 1e-12


def test_fields_are_invariant(free_op):
    rng = np.random.default_rng(61)
    op = random_operator(rng, n=80, j_lo=-40)
    E = 0.3 + 1.2j
    seq = cocycle_map(op, E)
    cert = certify_operator(op, E)
    assert cert.ok
    fld = power_directions(seq, cert.burn)
    for j in list(fld.sites())[:-1]:
        assert chordal_dist(act(seq.at(j), fld.u_at(j)), fld.u_at(j + 1)) < 1e-9
        assert chordal_dist(act(seq.at(j), fld.s_at(j)), fld.s_at(j + 1)) < 1e-9


def test_field_sites_outside_the_field_are_refused():
    # a site below the field used to index from the other end: u_at(9) of
    # a field that starts at site 10 gave the row of site 110
    rng = np.random.default_rng(67)
    seq = cocycle_map(random_operator(rng, n=120, j_lo=0), 3.5)
    fld = power_directions(seq, 10)
    assert (fld.j_first, fld.j_last) == (10, 110)
    for at, rows in ((fld.u_at, fld.u), (fld.s_at, fld.s)):
        for j in (fld.j_first - 1, fld.j_last + 1, -5):
            with pytest.raises(IndexError, match=r"site .* outside field sites \(10, 110\)"):
                at(j)
        for j in (fld.j_first, fld.j_last):
            assert np.array_equal(at(j).v, ProjPoint(rows[j - fld.j_first]).v)


def test_stability_radius_solves_budget_equation(free_op):
    cert = certify_operator(free_op, 3.0)
    cone = cert.cone
    eps = cert.epsilon
    seq = cocycle_map(free_op, 3.0)
    M = seq.sup_bound
    T = cone.budget() / cone.cond
    lhs = (M + eps) ** cone.N - M ** cone.N
    assert abs(lhs - T) < 1e-12 * max(1.0, T)
    assert stability_radius(None, M) is None


@pytest.mark.parametrize("n_steps", [50, 1500, 2000])
def test_stability_radius_survives_an_underflowing_power(n_steps):
    # 0.6**n_steps leaves float64 from about 1,390 steps on; the radius
    # does not, and matches the budget equation solved in mpmath
    import mpmath

    seq = MatSequence(0, np.repeat(np.diag([3.0, 0.5])[None], 200, axis=0))
    cone = certify(seq).cone
    eps = stability_radius(replace(cone, N=n_steps), 0.6)
    with mpmath.workdps(60):
        M, T = mpmath.mpf(0.6), mpmath.mpf(cone.budget() / cone.cond)
        ref = M * ((1 + T / M**n_steps) ** (mpmath.mpf(1) / n_steps) - 1)
    assert eps == pytest.approx(float(ref), rel=1e-14, abs=0.0)


# --------------------------------------------------------- counterexamples


def test_example_one_fails_only_norm_floor():
    cert = certify(example_one())
    assert cert.verdict == "failed"
    assert cert.conditions == {1: True, 2: True, 3: True, 4: False}
    assert cert.failed_condition == 4
    assert cert.N == 2
    assert abs(cert.norm_floor_value - 1.8189894035458565e-12) < 1e-24
    assert cert.norm_floor_value < cert.norm_floor_threshold
    # the split itself is as clean as it gets: antipodal coordinate axes
    assert abs(cert.delta_sep - 2.0) < 1e-12


def test_example_two_fails_only_separation():
    cert = certify(example_two())
    assert cert.verdict == "failed"
    assert cert.conditions == {1: True, 2: True, 3: False, 4: True}
    assert cert.failed_condition == 3
    # the collapse shows up on the full window, not the burned core
    assert cert.delta_sep < 2.0 ** -18
    assert abs(cert.delta_sep - 2.5431315104154133e-06) < 1e-18
    assert abs(cert.delta_sep_core - 0.8944271910013799) < 1e-12


def test_elliptic_has_no_domination():
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], complex)
    cert = certify(MatSequence(0, np.repeat(R[None], 60, axis=0)))
    assert cert.verdict == "failed"
    assert cert.failed_condition == 2


def test_parabolic_has_no_domination():
    P = np.array([[1.0, 1.0], [0.0, 1.0]], complex)
    cert = certify(MatSequence(0, np.repeat(P[None], 60, axis=0)))
    assert cert.verdict == "failed"
    assert cert.failed_condition == 2


def test_zero_factor_degenerates():
    vals = np.repeat(np.diag([2.0, 0.5])[None], 30, axis=0).astype(complex)
    vals[13] = 0.0
    with pytest.raises(DegenerateCocycle):
        certify(MatSequence(0, vals))


def test_marginal_verdict(free_op):
    # at E = 2.13 the free chain dominates at N = 1, but by a margin under
    # MARGINAL_MARGIN
    cert = certify(cocycle_map(free_op, 2.13))
    assert cert.verdict == "marginal"
    assert cert.N == 1 and 0.0 < cert.domination_margin < certifier.MARGINAL_MARGIN
    assert cert.ok  # marginal still counts as certified


# ------------------------------------------------------ singular couplings


def test_singular_sites_pin_coordinate_axes(mod5_op):
    E = 2.6
    cert = certify_operator(mod5_op, E)
    assert cert.ok
    fld = power_directions(cocycle_map(mod5_op, E), cert.burn)
    e1 = ProjPoint((1.0, 0.0))
    e2 = ProjPoint((0.0, 1.0))
    hit = 0
    for j0 in mod5_op.zero_sites(fld.j_first, fld.j_last - 1):
        assert chordal_dist(fld.u_at(j0 + 1), e1) == 0.0
        assert chordal_dist(fld.s_at(j0 + 1), e2) == 0.0
        hit += 1
    assert hit > 10


# --------------------------------------------- resolvent direction fields


def test_greens_directions_inside_the_cover_raise_with_delta(free_op, monkeypatch):
    # the probe column checks the distance to the cover, once
    calls = []

    def counting(sp, E):
        calls.append(E)
        return orig(sp, E)

    orig = jacobi.dist_to_spectrum
    monkeypatch.setattr(jacobi, "dist_to_spectrum", counting)
    monkeypatch.setattr(certifier, "dist_to_spectrum", counting)
    with pytest.raises(IllConditioned, match="of the spectrum cover") as info:
        greens_directions(free_op, 0.5)
    assert info.value.delta == 0.0 and len(calls) == 1
    greens_directions(free_op, 3.0)
    assert len(calls) == 2
    with pytest.raises(IllConditioned) as info:
        greens_directions(free_op, 1.0 + 1e-5j)
    assert 0.0 < info.value.delta < certifier.DELTA_MIN


def test_greens_directions_match_power_directions():
    rng = np.random.default_rng(67)
    for trial in range(3):
        op = random_operator(rng, n=100, j_lo=-50)
        E = complex(rng.uniform(-1, 1), 1.0 + rng.random())
        cert = certify_operator(op, E)
        assert cert.ok
        pow_fld = power_directions(cocycle_map(op, E), cert.burn)
        grn_fld = greens_directions(op, E)
        lo = max(pow_fld.j_first, grn_fld.j_first)
        hi = min(pow_fld.j_last, grn_fld.j_last)
        assert hi - lo >= 20
        js = np.arange(lo, hi + 1)
        pu = np.array([pow_fld.u_at(j).v for j in js])
        gu = np.array([grn_fld.u_at(j).v for j in js])
        ps = np.array([pow_fld.s_at(j).v for j in js])
        gs = np.array([grn_fld.s_at(j).v for j in js])
        assert np.max(chordal_rows(pu, gu)) < 1e-6
        assert np.max(chordal_rows(ps, gs)) < 1e-6


# --------------------------------------------------------------- openness


def test_small_perturbations_keep_the_verdict(free_op):
    cert = certify_operator(free_op, 3.0)
    seq = cocycle_map(free_op, 3.0)
    rng = np.random.default_rng(71)
    for trial in range(10):
        bumped = perturb_sequence(seq, 0.9 * cert.epsilon, rng)
        again = certify(bumped)
        assert again.ok, f"trial {trial} lost the splitting"


def test_subsample_equivalence(free_op):
    seq = cocycle_map(free_op, 3.0)
    out = subsample_equivalence_check(seq, 3)
    assert out["consistent"]
    assert out["base"].ok and out["block"].ok

    out2 = subsample_equivalence_check(example_two(), 2)
    assert out2["consistent"]
    assert not out2["base"].ok


# ---------------------------------------------------- component verifiers


def test_verify_separation_threshold(monkeypatch):
    seq = cocycle_map(
        JacobiOperator(j_lo=0, a=np.ones(60, complex), b=np.zeros(60)), 3.0
    )
    fld = power_directions(seq, 8)
    ok, delta = verify_separation(fld)
    assert ok and delta > 1.0
    monkeypatch.setattr(certifier, "DELTA_MIN", delta + 1.0)
    ok2, _ = verify_separation(fld)
    assert not ok2


def test_verify_separation_refuses_an_empty_field():
    # a one-factor window leaves no site in [lo + 1, hi] for the extended
    # field; the check names the empty field, as verify_invariance names
    # a field of fewer than two sites
    fld = power_directions(MatSequence(0, np.eye(2)[None]), 1, extend=True)
    assert len(fld) == 0
    with pytest.raises(ValueError, match="empty field"):
        verify_separation(fld)
    with pytest.raises(ValueError, match="at least two sites"):
        verify_invariance(MatSequence(0, np.eye(2)[None]), fld, certifier.RES_MAX)


def test_verify_domination_factor(monkeypatch):
    seq = cocycle_map(
        JacobiOperator(j_lo=0, a=np.ones(60, complex), b=np.zeros(60)), 3.0
    )
    fld = power_directions(seq, 8)
    dom = verify_domination(seq, fld)
    assert dom.ok and dom.N == 1
    # demanding more growth than the eigenvalue ratio provides pushes N up
    ratio = PHI_BIG / (3.0 - PHI_BIG)
    monkeypatch.setattr(certifier, "FACTOR", ratio * 1.5)
    dom2 = verify_domination(seq, fld)
    assert dom2.ok and dom2.N == 2


def test_verify_invariance_residual():
    rng = np.random.default_rng(73)
    op = random_operator(rng, n=60, j_lo=0)
    seq = cocycle_map(op, 0.2 + 1.5j)
    cert = certify(seq)
    assert cert.ok
    fld = power_directions(seq, cert.burn)
    ok, res = verify_invariance(seq, fld, cert.invariance_threshold)
    assert ok and res <= cert.invariance_threshold
    ok2, _ = verify_invariance(seq, fld, res / 10.0)
    assert not ok2


# ------------------------------------------------------------- reporting


def test_certificate_json(free_op):
    cert = certify_operator(free_op, 3.0)
    doc = cert.to_json()
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["verdict"] == "verified"
    assert back["conditions"] == {"1": True, "2": True, "3": True, "4": True}
    assert back["cone"]["N"] == cert.cone.N
    # energy is stored as a [re, im] pair
    assert back["notes"]["energy"] == [3.0, 0.0]


def test_certificate_json_keys_follow_the_fields(free_op):
    # the key order of the JSON form is part of the CLI's output
    cert = certify_operator(free_op, 3.0)
    doc = cert.to_json()
    assert list(doc) == [
        "verdict", "window", "burn", "convergence_gap", "conditions",
        "failed_condition", "failure_detail", "invariance_residual",
        "invariance_threshold", "N", "domination_margin", "delta_sep",
        "delta_sep_core", "norm_floor_value", "norm_floor_threshold",
        "epsilon", "notes", "cone",
    ]
    assert list(doc["cone"]) == [
        "N", "alpha", "alpha_prime", "clearance", "gamma", "cond", "n_sites"
    ]
    assert doc["cone"]["gamma"] == cert.cone.gamma
    assert doc["conditions"] == {"1": True, "2": True, "3": True, "4": True}
    # the notes do not repeat fields
    assert sorted(doc["notes"]) == ["energy", "n_core_sites"]
    failed = certify(example_two()).to_json()
    assert list(failed) == list(doc) and failed["cone"] is None


def test_certify_is_deterministic(free_op):
    a = json.dumps(certify_operator(free_op, 3.0).to_json(), sort_keys=True)
    b = json.dumps(certify_operator(free_op, 3.0).to_json(), sort_keys=True)
    assert a == b


def test_summary_line_styles(free_op):
    good = certify_operator(free_op, 3.0).summary_line()
    assert good.startswith("verified: N=1")
    bad = certify(example_one()).summary_line()
    assert bad.startswith("failed: condition (4)")


def test_failed_certificate_roundtrips():
    doc = certify(example_two()).to_json()
    assert doc["failed_condition"] == 3
    json.dumps(doc)  # everything is plain


# ------------------------------------------------------ one product sweep


def _padded(vals, js, bu, bs, lo):
    """vals with the end factors repeated as far as the rows of sites js
    with burns bu (into the past) and bs (into the future) reach, and the
    index of the padded vals' first factor."""
    below = max(0, lo - int(np.min(js - bu)))
    above = max(0, int(np.max(js + bs)) - lo - len(vals))
    vals = np.concatenate((np.repeat(vals[:1], below, 0), vals, np.repeat(vals[-1:], above, 0)))
    return vals, lo - below


def doubling_field_products(vals, js, bu, bs, lo):
    """Reference per-site products, one site and one 2x2 at a time in
    doubling order (doubling_oracle): S of site j the product of the bs
    factors from j, U that of the bu factors below j, both read forward
    from their first factor.  A product that runs past the window
    repeats the end factor there."""
    vals, lo = _padded(vals, js, bu, bs, lo)
    forward = doubling_oracle(vals)
    U = [forward(j - lo - b, b)[0] for j, b in zip(js.tolist(), bu.tolist())]
    S = [forward(j - lo, b)[0] for j, b in zip(js.tolist(), bs.tolist())]
    return np.array(U), np.array(S)


def cut_burns(seq, js, bu, bs):
    """The burns of sites js cut at the first exactly singular factor each
    side meets, site by site, with the masks of the sides that stopped:
    the oracle of certifier._cut_burns.  A u row reads the factors
    j - 1, j - 2, ..., j - bu, an s row j, j + 1, ..., j + bs - 1.  A
    factor is singular when its determinant is exactly 0, in rationals."""
    zeros = {j for j, m in zip(range(seq.j_lo, seq.j_hi + 1), seq.values) if exact_det(m) == (0, 0)}
    cu, cs = np.array(bu), np.array(bs)
    stop_u, stop_s = np.zeros(len(js), bool), np.zeros(len(js), bool)
    for i, j in enumerate(js.tolist()):
        for t in range(int(bu[i])):
            if j - 1 - t in zeros:
                cu[i], stop_u[i] = t + 1, True
                break
        for t in range(int(bs[i])):
            if j + t in zeros:
                cs[i], stop_s[i] = t + 1, True
                break
    return cu, cs, stop_u, stop_s


def exact_det(m):
    """The determinant of a 2x2 of floats or complex numbers, exactly, as
    a pair of Fractions (real and imaginary parts)."""
    (a, b), (c, d) = ([(Fraction(z.real), Fraction(z.imag)) for z in map(complex, r)] for r in m)

    def times(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    (p, q), (r, t) = times(a, d), times(b, c)
    return p - r, q - t


def window_products(vals, js, bu, bs, lo, first=()):
    """The per-site products U and S behind certifier._directions for one
    window whose factor vals[0] sits at lo, at sites js (absolute
    indices), as a one-window _Batch (field_sweep).  The burns are cut
    at the window's exactly singular factors, which leaves burns cut
    already as they are.  The batch first runs the directions of each
    pair of shorter burns in first, which build part of its tables.  A
    product that runs past the window repeats the end factor there, as
    doubling_field_products does."""
    vals, lo = _padded(vals, js, bu, bs, lo)
    batch = certifier._Batch([MatSequence(lo, vals)], [vals])
    for fu, fs in first:
        certifier._directions(batch, [(0, js, fu, fs)])
    return heads_products(*field_sweep(batch, [(0, js, bu, bs)]))


def field_sweep(batch, jobs):
    """The one row sweep of certifier._directions on jobs, as (H, idx): H
    its class heads, and idx the u and s head of each site, the jobs'
    sites end to end."""
    seen = []

    def recording(*args):
        seen.append(mat2._row_sweep(*args))
        return seen[-1]

    with mock.patch.object(certifier, "_row_sweep", recording):
        certifier._directions(batch, jobs)
    ((H, _, at),) = seen
    return H, at.reshape(2, -1)


def heads_products(H, idx):
    """The per-site products U and S that the heads H and their site map
    idx of a field sweep stand for (field_sweep)."""
    return H[idx[0]], H[idx[1]]


def site_directions(seq, js, bu, bs, vals=None):
    """certifier._directions for one window's sites js (absolute indices),
    sweeping vals (by default the window's _sweep_values): the rows (u,
    s), or the exception that ends the window."""
    batch = certifier._Batch([seq], None if vals is None else [vals])
    ((d),) = certifier._directions(batch, [(0, js, bu, bs)])
    if isinstance(d, Exception):
        raise d
    return d[:2]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    offset=st.integers(-3, 43),
    m=st.integers(1, 42),
    bu0=st.integers(1, 41),
    bs0=st.integers(1, 41),
    uniform=st.booleans(),
)
@example(n=5, seed=0, offset=0, m=3, bu0=1, bs0=1, uniform=True)
def test_field_products_match_the_masked_sweep(n, seed, offset, m, bu0, bs0, uniform):
    # sites may sit near or past the window ends, where indices clip
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    lo = int(rng.integers(-50, 50))
    js = np.arange(lo + offset, lo + offset + m)
    if uniform:
        bu, bs = np.full(m, bu0), np.full(m, bs0)
    else:
        bu, bs = rng.integers(1, bu0 + 1, m), rng.integers(1, bs0 + 1, m)
    U, S = window_products(vals, js, bu, bs, lo)
    U_ref, S_ref = doubling_field_products(vals, js, bu, bs, lo)
    assert np.array_equal(U, U_ref) and np.array_equal(S, S_ref)


def _repeating(rng, vals, factors):
    """vals made to repeat exactly, or not: "random" keeps them,
    "periodic" repeats their first p factors (p from 1 to 7), "defect"
    then redraws one factor, and "signed_zero" zeroes one entry of one
    residue's factors, with -0.0 at one of them.  _row_sweep shares the
    rows of factors that repeat bit for bit; the two zeros compare equal
    as floats but must not share a row."""
    if factors == "random":
        return vals
    n = len(vals)
    p = int(rng.integers(1, 8))
    out = vals[np.arange(n) % p]
    if factors == "defect":
        out[rng.integers(n)] = rng.standard_normal((2, 2))
    elif factors == "signed_zero":
        r, i, k = int(rng.integers(min(p, n))), int(rng.integers(2)), int(rng.integers(2))
        out[r::p, i, k] = 0.0
        out[rng.choice(np.arange(r, n, p)), i, k] = -0.0
    return out


FACTORS = st.sampled_from(["random", "periodic", "defect", "signed_zero"])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    complex_vals=st.booleans(),
    singular=st.booleans(),
    factors=FACTORS,
    data=st.data(),
)
def test_burn_ladder_rungs_are_bitwise_the_fields_alone(
    n, seed, complex_vals, singular, factors, data
):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, 2, 2)).astype(complex)
    if complex_vals:
        vals += 1j * rng.standard_normal((n, 2, 2))
    vals = _repeating(rng, vals, factors)
    if singular:
        k = int(rng.integers(n))
        vals[k, :, 1] = 2.0 * vals[k, :, 0]
    seq = MatSequence(int(rng.integers(-50, 50)), vals)
    lo, hi = seq.window
    ladder = sorted(
        data.draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=6))
    )
    # the rungs of a ladder on one batch, whose tables the earlier rungs
    # built, as _certify_batch asks _directions for them: each is the
    # field of its burn computed alone
    batch = certifier._Batch([seq])
    for b in ladder:
        js = np.arange(lo + b, hi + 2 - b)
        full = np.full(len(js), b)
        u, s, _ = certifier._one(certifier._directions(batch, [(0, js, full, full)]))
        fresh = power_directions(seq, b)
        assert u.tobytes() == fresh.u.tobytes() and s.tobytes() == fresh.s.tobytes()
        # the products stop at the first singular factor on either side
        cu, cs, _, _ = cut_burns(seq, js, full, full)
        U, S = doubling_field_products(seq.values, js, cu, cs, lo)
        assert np.array_equal(window_products(seq.values, js, cu, cs, lo), (U, S))
        u_alone, s_alone = site_directions(seq, js, full, full)
        assert fresh.j_first == js[0]
        assert np.array_equal(u, u_alone) and np.array_equal(s, s_alone)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    burn=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    singular=st.booleans(),
    factors=FACTORS,
)
def test_extended_field_is_bitwise_the_full_sweep(n, burn, seed, singular, factors):
    # the extended field is one _directions call over [lo + 1, hi], the
    # burns cut short near the ends
    rng = np.random.default_rng(seed)
    seq = random_matseq(rng, n=n, j_lo=int(rng.integers(-50, 50)))
    seq = MatSequence(seq.j_lo, _repeating(rng, seq.values, factors))
    if singular:
        # second column exactly twice the first: det is exactly zero
        k = int(rng.integers(n))
        seq.values[k, :, 1] = 2.0 * seq.values[k, :, 0]
    ext = power_directions(seq, burn, extend=True)
    lo, hi = seq.window
    js = np.arange(lo + 1, hi + 1)
    bu = np.minimum(burn, js - lo)
    bs = np.minimum(burn, hi + 1 - js)
    cu, cs, _, _ = cut_burns(seq, js, bu, bs)
    U_ref, S_ref = doubling_field_products(seq.values, js, cu, cs, lo)
    U, S = window_products(seq.values, js, cu, cs, lo)
    u, s = site_directions(seq, js, bu, bs)
    assert np.array_equal(U, U_ref) and np.array_equal(S, S_ref)
    assert ext.j_first == lo + 1
    assert np.array_equal(ext.u, u) and np.array_equal(ext.s, s)


@pytest.mark.dispatch
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(6, 80),
    seed=st.integers(0, 2**32 - 1),
    complex_vals=st.booleans(),
    factors=FACTORS,
    burn=st.one_of(st.just(1), st.integers(2, 40), st.none()),
)
@example(n=12, seed=0, complex_vals=False, factors="random", burn=1)
def test_delta_sep_is_the_extended_field_separation(n, seed, complex_vals, factors, burn):
    # certify reads condition 3 off the core field and the end sites
    # alone; that is the separation of the whole extended field at the
    # certificate's burn, bit for bit, on windows with exactly singular
    # factors too, and at burn 1, where the core covers every site.  The
    # end sites sit at other stack positions than in the whole field
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, 2, 2)).astype(complex)
    if complex_vals:
        vals += 1j * rng.standard_normal((n, 2, 2))
    vals = _repeating(rng, vals, factors)
    for k in rng.choice(n, int(rng.integers(1, 5)), replace=False).tolist():
        vals[k, :, 1] = 2.0 * vals[k, :, 0]  # det exactly zero
    seq = MatSequence(int(rng.integers(-50, 50)), vals)
    (cert,) = certifier._certify_each([seq], burn=burn)
    if isinstance(cert, Exception) or cert.delta_sep is None:
        return
    ok, delta = verify_separation(power_directions(seq, cert.burn, extend=True))
    assert np.float64(cert.delta_sep).tobytes() == np.float64(delta).tobytes()
    assert cert.conditions[3] is ok
    assert cert.delta_sep <= cert.delta_sep_core
    if cert.burn == 1:
        assert cert.delta_sep == cert.delta_sep_core


def test_nan_end_site_separation_raises(free_seq, monkeypatch):
    # one NaN among the end sites' distances reaches the NaN check through
    # the minimum with the core's separation
    orig = certifier.chordal_rows
    ends = []

    def nan_at_the_ends(x, y):
        out = orig(x, y)
        if sys._getframe(1).f_code.co_name == "_certify_batch":
            ends.append(len(out))
            out = out.copy()
            out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(certifier, "chordal_rows", nan_at_the_ends)
    with pytest.raises(InternalInconsistency, match="extended field separation is nan"):
        certify(free_seq)
    assert len(ends) == 1 and ends[0] > 1


# ------------------------------------------------------ real product sweep


def _real_window(rng, kind, n):
    """A window whose factors are all real: a Jacobi cocycle at a real
    energy (some couplings exactly zero, some with imaginary part -0.0,
    which -conj(a) carries into the factors), or raw real factors with
    an exactly singular factor or an exactly zero row."""
    if kind == "jacobi":
        a = ((0.5 + rng.random(n)) * rng.choice([-1.0, 1.0], n)).astype(complex)
        a[rng.random(n) < 0.1] = 0.0
        a.imag[rng.random(n) < 0.5] = -0.0
        op = JacobiOperator(j_lo=int(rng.integers(-50, 50)), a=a, b=rng.uniform(-1, 1, n))
        return cocycle_map(op, float(rng.uniform(-3.5, 3.5)))
    vals = rng.standard_normal((n, 2, 2))
    k = int(rng.integers(n))
    if kind == "singular":
        vals[k, :, 1] = 2.0 * vals[k, :, 0]
    else:
        vals[k, int(rng.integers(2)), :] = 0.0
    return MatSequence(int(rng.integers(-50, 50)), vals)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["jacobi", "singular", "zero_row"]),
    burn=st.integers(1, 30),
    extend=st.booleans(),
)
def test_real_sweep_equals_the_complex_sweep(n, seed, kind, burn, extend):
    rng = np.random.default_rng(seed)
    seq = _real_window(rng, kind, n)
    lo, hi = seq.window
    if extend:
        js = np.arange(lo + 1, hi + 1)
        bu, bs = np.minimum(burn, js - lo), np.minimum(burn, hi + 1 - js)
    else:
        burn = min(burn, n // 2)
        js = np.arange(lo + burn, hi + 2 - burn)
        bu = bs = np.full(len(js), burn)
    vals = certifier._sweep_values(seq)
    assert vals.dtype == np.float64
    # the rows laid out as _directions lays them, uncut, through the
    # singular factors, and the products _directions sweeps, which stop
    # at them
    m = len(js)
    Q, _, at = mat2._row_sweep(mat2._Tables(vals), np.concatenate((js - lo - bu, js - lo)),
                               np.concatenate((bu, bs)))
    U_ref, S_ref = doubling_field_products(seq.values, js, bu, bs, lo)
    assert Q.dtype == np.float64
    assert np.array_equal(Q[at[:m]], U_ref) and np.array_equal(Q[at[m:]], S_ref)
    cu, cs, _, _ = cut_burns(seq, js, bu, bs)
    U, S = window_products(vals, js, cu, cs, lo)
    U_ref, S_ref = doubling_field_products(seq.values, js, cu, cs, lo)
    assert U.dtype == np.float64
    assert np.array_equal(U, U_ref) and np.array_equal(S, S_ref)
    # and the directions, those pinned at singular factors included, are
    # float64 rows, the real parts of the complex sweep's bit for bit
    u, s = site_directions(seq, js, bu, bs)
    u_ref, s_ref = site_directions(seq, js, bu, bs, seq.values)
    assert u.dtype == s.dtype == np.float64 and u_ref.dtype == complex
    assert_real_part_bits(u, u_ref)
    assert_real_part_bits(s, s_ref)


def assert_real_part_bits(x, z):
    """x holds the bits of the real parts of z, whose imaginary parts are
    all zero."""
    assert not z.imag.any()
    assert x.tobytes() == np.ascontiguousarray(z.real).tobytes()


@pytest.mark.parametrize(
    "seq",
    [
        cocycle_map(JacobiOperator(j_lo=-100, a=np.ones(200), b=np.zeros(200)), E)
        for E in (3.0, 2.1, 1.0)
    ]
    + [
        cocycle_map(
            periodic_operator(
                [0.0, 1.0, 1.0, 1.0, 1.0], [0.3, -0.2, 0.5, 0.0, 0.1], (-100, 99)
            ),
            2.5,
        ),
        _real_window(np.random.default_rng(5), "singular", 80),
        _real_window(np.random.default_rng(6), "jacobi", 120),
    ],
    ids=["free3", "free2.1", "free1", "dead", "singular", "jacobi"],
)
def test_certify_is_the_same_without_the_real_sweep(seq, monkeypatch):
    assert certifier._sweep_values(seq).dtype == np.float64
    real = certify(seq)
    monkeypatch.setattr(certifier, "_sweep_values", lambda seq: seq.values)
    monkeypatch.setattr(mat2, "_sweep_values", lambda seq: seq.values)
    cplx = certify(seq)
    assert json.dumps(real.to_json()) == json.dumps(cplx.to_json())
    assert real.core_field.u.dtype == np.float64 and cplx.core_field.u.dtype == complex
    assert_real_part_bits(real.core_field.u, cplx.core_field.u)
    assert_real_part_bits(real.core_field.s, cplx.core_field.s)


def test_complex_windows_sweep_in_complex(free_op):
    assert certifier._sweep_values(cocycle_map(free_op, 3.0 + 1e-9j)).dtype == complex


try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as _umath

# numpy's run-time SIMD targets from AVX2 (X86_V3) up, all of which have FMA
SIMD_TARGETS = [
    t for t in getattr(_umath, "__cpu_dispatch__", [])
    if t in ("X86_V3", "X86_V4") or t.startswith("AVX512")
]

BLOCK_PRODUCTS_BYTES = """
import sys
import numpy as np
from domsplit import certifier, mat2
rng = np.random.default_rng(97)
vals = rng.standard_normal((300, 2, 2)) + 1j * rng.standard_normal((300, 2, 2))
vals *= rng.uniform(0.1, 10.0, (300, 1, 1))
tables = mat2._Tables(vals)
Q, exps, at = mat2._row_sweep(tables, np.arange(260), np.full(260, 40))
out = Q[at].tobytes() + exps[at].tobytes()
# the doubling tables, blocks of every length up to 40 read off them, and
# the field rows of a batch of the window, read off its products
out += b"".join(T.tobytes() + E.tobytes() for T, E in map(tables.level, range(6)))
Q, exps, at = mat2._row_sweep(tables, np.arange(260), np.arange(260) % 41)
out += Q[at].tobytes() + exps[at].tobytes()
batch = certifier._Batch([mat2.MatSequence(0, vals)])
js, bu, bs = np.arange(40, 260), np.arange(220) % 40 + 1, np.full(220, 40)
H, _, at = mat2._row_sweep(batch.tables, np.concatenate((js - bu, js)), np.concatenate((bu, bs)),
                           batch.repeats)
((u, s, ids),) = certifier._directions(batch, [(0, js, bu, bs)])
out += H.tobytes() + at.tobytes() + u.tobytes() + s.tobytes() + np.array(ids).tobytes()
# domination margins of one-site fields whose frames come straight from
# rng (unit rows would read numpy's complex modulus), at block lengths
# up to 64, each against its own FACTOR
seq = mat2.MatSequence(0, vals)
u, s = (rng.standard_normal((40, 1, 2)) + 1j * rng.standard_normal((40, 1, 2)) for _ in range(2))
factor, doms = certifier.FACTOR, []
for k, (j, f) in enumerate(zip(range(0, 200, 5), np.linspace(0.5, 3.0, 40))):
    certifier.FACTOR = f
    doms.append(certifier.verify_domination(seq, certifier.SplittingField(j, u[k], s[k])))
certifier.FACTOR = factor
out += np.array([d.margin for d in doms] + [d.N for d in doms]).tobytes()
# certificates of complex Jacobi windows at x + 0.3i, JSON and core
# fields, and the resolvent fields of one (inputs drawn without numpy's
# SIMD exp and cos)
import json
from domsplit import JacobiOperator, certify_operator
for k in range(3):
    a = rng.uniform(0.5, 1.5, 150) + 1j * rng.uniform(-1.0, 1.0, 150)
    op = JacobiOperator(j_lo=-75, a=a, b=rng.uniform(-1.0, 1.0, 150))
    E = complex(rng.uniform(-3.0, 3.0), 0.3)
    cert = certify_operator(op, E)
    out += json.dumps(cert.to_json()).encode()
    out += cert.core_field.u.tobytes() + cert.core_field.s.tobytes()
fld = certifier.greens_directions(op, E)
out += fld.u.tobytes() + fld.s.tobytes()
"""


@pytest.mark.dispatch
@pytest.mark.skipif(
    not SIMD_TARGETS or not getattr(_umath, "__cpu_features__", {}).get("FMA3"),
    reason="numpy dispatches no FMA target on this CPU",
)
def test_complex_window_bits_do_not_depend_on_simd_dispatch():
    # the renormalization reads |re| and |im|, and every later stage
    # follows mat2's arithmetic rule, not numpy's complex multiply and
    # modulus, whose SIMD loops round differently with and without FMA;
    # with numpy's AVX2 and AVX-512 loops disabled the bits stay the same
    here = {}
    exec(BLOCK_PRODUCTS_BYTES, here)
    src = os.path.dirname(os.path.dirname(certifier.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(SIMD_TARGETS))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", BLOCK_PRODUCTS_BYTES + "sys.stdout.buffer.write(out)\n"],
        env=env, capture_output=True, check=True,
    )
    assert run.stdout == here["out"]


def test_real_renorm_is_the_complex_division():
    rng = np.random.default_rng(11)
    P = rng.standard_normal((4000, 2, 2)) * np.exp(rng.uniform(-700.0, 700.0, (4000, 2, 2)))
    zero = rng.random(P.shape) < 0.3
    P[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    P[::17] = 0.0
    P[5::19] = -0.0
    P[7::23, 0] = -0.0  # zero rows under a nonzero one
    out, s = mat2._renorm(P)
    assert out.dtype == np.float64
    # the removed scale is the power of two 2**(e - 1) at or below the
    # largest part
    m = mat2._row_max(P)
    scale = np.where(m > 0.0, 2.0 ** (np.frexp(m)[1] - 1), 1.0)
    assert np.array_equal(np.ldexp(1.0, -s)[m > 0.0], scale[m > 0.0])
    # the real part of the complex division by that scale, which rounds
    # only where a part falls below the normal range, zeros' signs
    # included when the imaginary parts are -0.0 as cocycle_map makes them
    Pc = P.astype(complex)
    Pc.imag = -0.0
    ref = np.ascontiguousarray((Pc / scale[:, None, None]).real)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert mat2._renorm(Pc)[0].real.tobytes() == out.tobytes()
    # and by value when they are +0.0
    assert np.array_equal(out, (P.astype(complex) / scale[:, None, None]).real)


@pytest.mark.dispatch
@pytest.mark.parametrize("which", ["free", "random", "example_one"])
def test_norm_floors_are_the_least_span_product_norms(free_seq, which):
    # the floors at n = 1..20 are the least norms of the n-factor products
    # (span_products), and the certificate's floor is norm_floor at its N;
    # the floors take singular_values of complex heads at stack positions
    # of their own
    seq = {
        "free": free_seq,
        "random": cocycle_map(
            random_operator(np.random.default_rng(79), n=60, j_lo=0), 0.2 + 1.5j
        ),
        "example_one": example_one(),
    }[which]
    for n in range(1, 21):
        js = np.arange(seq.j_lo, seq.j_hi + 2 - n)
        assert norm_floor(seq, n) == float(np.min(op_norm(span_products(seq, js, n))))
    cert = certify(seq)
    assert cert.N is not None
    assert cert.norm_floor_value == norm_floor(seq, cert.N)


def count_table_work(monkeypatch):
    """Patch mat2 to count table work: returns (tables, muls), tables the
    _Tables the certifier makes (whose levels are the levels built) and
    muls a one-item list counting the _mul calls of table folds (those
    _row_sweep makes)."""
    tables, muls = [], [0]
    orig_mul, orig_tables = mat2._mul, mat2._Tables

    def counting_mul(*args, **kw):
        if sys._getframe(1).f_code.co_name == "_row_sweep":
            muls[0] += 1
        return orig_mul(*args, **kw)

    class Recorded(orig_tables):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            tables.append(self)

    monkeypatch.setattr(mat2, "_mul", counting_mul)
    monkeypatch.setattr(certifier, "_Tables", Recorded)
    return tables, muls


def test_certify_builds_each_field_once(free_op, monkeypatch):
    calls, floors, own_muls = [], [], []
    tables, muls = count_table_work(monkeypatch)
    orig_sweep, orig_mul = certifier._row_sweep, certifier._mul

    def counting_sweep(tables, base, steps, repeats=None):
        before = muls[0]
        out = orig_sweep(tables, base, steps, repeats)
        caller = sys._getframe(1).f_code.co_name
        if caller == "_directions":  # one window's field rows
            n = len(steps) // 2  # the u rows, then the s rows
            calls.append((n, int(steps[:n].max()), int(steps[n:].max()), muls[0] - before))
        elif caller == "_floors":
            floors.append((int(steps.max()), muls[0] - before))
        return out

    def counting_mul(*args, **kw):  # the certifier's own kernel calls
        own_muls.append(sys._getframe(1).f_code.co_name)
        return orig_mul(*args, **kw)

    monkeypatch.setattr(certifier, "_row_sweep", counting_sweep)
    monkeypatch.setattr(mat2, "_row_sweep", counting_sweep)
    monkeypatch.setattr(certifier, "_mul", counting_mul)
    assert not hasattr(certifier, "norm_floor")
    cert = certify_operator(free_op, 3.0)
    assert cert.N == 1 and len(calls) >= 3
    *core, ends = calls
    # each burn on the ladder is computed once, afresh from the batch's
    # tables: at most one table _mul per bit of the burn, the rows that
    # stopped at the singular first factor included
    burns = [bu for _, bu, _, _ in core]
    assert len(set(burns)) == len(burns) and burns[-1] == cert.burn
    assert all(bu == bs for _, bu, bs, _ in core)
    assert [rows for rows, *_ in core] == [len(free_op) + 1 - 2 * b for b in burns]
    assert all(0 < n <= bu.bit_length() for _, bu, _, n in core)
    # then only the 2 (burn - 1) end sites of the extended field
    assert ends[:3] == (2 * (cert.burn - 1), cert.burn, cert.burn)
    assert 0 < ends[3] <= cert.burn.bit_length()
    # the floor at N is one fold of N-factor rows, at most one table _mul
    # per bit of N, and only the domination frames step one factor at a
    # time: one _mul per block length up to N, beside the one _mul of the
    # invariance check and those of the cone blocks
    assert len(floors) == 1 and floors[0][0] == cert.N
    assert 0 < floors[0][1] <= cert.N.bit_length()
    assert own_muls.count("_dominations") == cert.N and own_muls.count("verify_invariance") == 1
    assert set(own_muls) <= {"_dominations", "verify_invariance", "_cone_certificates"}
    # one batch, whose tables hold at most one level per bit of the burn cap
    b_cap = (len(free_op) - 1) // 2
    assert len(tables) == 1 and 0 < len(tables[0].levels) <= b_cap.bit_length()


# ----------------------------------------- bit-exact cuts after the ladder


def test_nan_norm_floor_raises_instead_of_failing(free_op, monkeypatch):
    # a NaN floor at N reaches no threshold comparison; the free chain at
    # E = 3 certifies at N = 1, so its floor at N = 1 is made a NaN
    orig = certifier._floors

    def nan_floor(*args):
        f, x = orig(*args)
        f[0] = math.nan
        return f, x

    monkeypatch.setattr(certifier, "_floors", nan_floor)
    with pytest.raises(InternalInconsistency, match="norm floor at N=1 is nan"):
        certify_operator(free_op, 3.0)


SCALED = [((3.0, 0.5), 200, c) for c in (1e50, 1e100, 1e150, 1e-170, 1e-300, 1e300)] + [
    ((1.2, 1.0), 200, c) for c in (1e80, 1e-100, 1e150)
] + [((1.03, 1.0), 300, c) for c in (1e-80, 1e-20, 1e20, 1e80, 1e-300, 1e300)]


@pytest.mark.parametrize(
    "diag, n, c", SCALED,
    ids=[f"{c:.0e}" if d == (3.0, 0.5) else f"{d[0]}-{c:.0e}" for d, _, c in SCALED],
)
def test_scaled_window_certifies_as_the_unscaled_one(diag, n, c):
    # the floor products are renormalized and scaled back with ldexp, so
    # a scale neither overflows them nor makes a floor NaN, and the floor
    # at N is held against FLOOR_REL * sup_bound**N in binary exponents,
    # so no floor or threshold beyond the float64 range (inf against inf,
    # 0 against 0) decides it: the verdict, N and the floor decision are
    # those at scale 1, and so is epsilon, times the
    # scale: the cone's pick and epsilon read gamma / sup_bound**N in
    # binary exponents, though c**4 * gamma leaves float64 for diag(1.2, 1)
    def cert_at(scale):
        seq = MatSequence(0, np.repeat((scale * np.diag(diag))[None], n, axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return certify(seq)

    one, cert = cert_at(1.0), cert_at(c)
    assert (cert.verdict, cert.N) == (one.verdict, one.N)
    assert cert.conditions == one.conditions
    if diag == (3.0, 0.5):
        assert one.verdict == "verified" and one.N == 1
        assert cert.epsilon == pytest.approx(c * one.epsilon, rel=1e-15, abs=0.0)
    elif diag == (1.2, 1.0):
        assert one.verdict == "verified" and one.N == 4
        beyond = (math.inf, math.inf) if c > 1.0 else (0.0, 0.0)
        assert (cert.norm_floor_value, cert.norm_floor_threshold) == beyond
        assert (cert.cone.alpha, cert.cone.alpha_prime) == (one.cone.alpha, one.cone.alpha_prime)
        assert cert.epsilon == pytest.approx(c * one.epsilon, rel=1e-12, abs=0.0)
    else:
        # 1.03**24 is the first power above 2
        assert one.verdict == "marginal" and one.N == 24


@pytest.mark.parametrize("c", [1e-170, 1e-300, 1e170, 1e300])
def test_scaled_hyperbolic_window_has_no_singular_factor(c):
    # the determinant of [[2.5, -1], [1, 0]] is 1, and times 1e-170 its
    # det2 underflows to 0; read off the factors renormalized by powers
    # of two it does not, so no factor counts as exactly singular, and
    # the window certifies as at scale 1, epsilon scaled by c
    def cert_at(scale):
        seq = MatSequence(0, np.repeat((scale * np.array([[2.5, -1.0], [1.0, 0.0]]))[None], 200,
                                       axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return seq, certify(seq)

    (_, one), (seq, cert) = cert_at(1.0), cert_at(c)
    assert certifier._Batch([seq]).zeros.size == 0
    assert (cert.verdict, cert.N, cert.conditions) == (one.verdict, one.N, one.conditions)
    assert one.verdict == "verified" and one.N == 1
    assert cert.epsilon == pytest.approx(c * one.epsilon, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("complex_vals", [False, True])
def test_exact_zero_test_confirms_each_rounded_zero(complex_vals):
    # det2 of [[1+2^-30, 1+2^-29], [1, 1+2^-30]] rounds to 0, but its
    # determinant is 2^-60: not singular.  [[3, 6], [1, 2]] is.
    near = np.array([[1 + 2.0**-30, 1 + 2.0**-29], [1.0, 1 + 2.0**-30]])
    flat = np.array([[3.0, 6.0], [1.0, 2.0]])
    vals = np.tile(np.array([[2.0, 1.0], [1.0, 1.0]]), (30, 1, 1))
    vals[7], vals[19] = near, flat
    if complex_vals:
        vals = vals * (1 - 1j)
    assert mat2.det2(vals[7]) == 0.0 and exact_det(vals[7]) != (0, 0)
    assert mat2.det2(vals[19]) == 0.0 and exact_det(vals[19]) == (0, 0)
    seqs = [MatSequence(-4, vals), MatSequence(5, vals[::-1].copy())]
    # site 15 of both: slab position 15 + 4 of the first window, and
    # 15 - 5 after the second's offset of 30
    assert certifier._Batch(seqs).zeros.tolist() == [19, 40]


def test_field_products_stay_finite_far_from_the_spectrum(free_op):
    # the zero extension makes the first factor singular, and at E = 1e8
    # the products from it grow like 1e8**n; renormalized, they stay
    # finite, and the free chain certifies there as at any |E| > 2
    with np.errstate(all="ignore"):
        cert = certify_operator(free_op, 1e8)
    assert cert.verdict == "verified" and cert.N == 1
    # at E = 1e160 the squares of the factor entries would overflow; the
    # invariance check reads the factors scaled by powers of two, so it
    # passes there too, and no step warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = certify_operator(free_op, 1e160)
    assert cert.verdict == "verified" and cert.N == 1 and cert.conditions[1]


def test_infinite_domination_margin_is_legal():
    # s is annihilated at once, so the growth ratio is infinite
    vals = np.repeat(np.array([[[2.0, 0.0], [0.0, 0.0]]]), 30, axis=0)
    dom = verify_domination(MatSequence(0, vals), power_directions(MatSequence(0, vals), 4))
    assert dom.ok and dom.margin == np.inf


def column_norm(P, k):
    """The 2-norm of column k of one 2x2 in Python floats: its real and
    imaginary parts scaled by 2**-x, x the frexp exponent of the largest
    of their moduli, sqrt of the sum of their squares, entry by entry,
    scaled back by 2**x (NaN where a part is NaN)."""
    parts = [P[0, k].real, P[0, k].imag, P[1, k].real, P[1, k].imag]
    if any(map(math.isnan, parts)):
        return math.nan
    x = math.frexp(max(map(abs, parts)))[1]
    a, b, c, d = (math.ldexp(p, -x) for p in parts)
    return math.ldexp(math.sqrt((a * a + b * b) + (c * c + d * d)), x)


def domination_oracle(seq, fld, n_max=64, factor=2.0):
    """verify_domination site by site, as (ok, N, margin, tried): each
    frame [u(j) s(j)] is multiplied by one factor per step with
    mat2._mul, and the growth ratio is the quotient of its column norms
    (column_norm); a dead u image gives the ratio 0, a dead s image
    (with a live u) inf."""
    lo, hi = seq.window
    frames = [np.stack([u, s], axis=-1)[None] for u, s in zip(fld.u, fld.s)]
    best, tried = (-math.inf, 0), 0
    for N in range(1, n_max + 1):
        active = [i for i, j in enumerate(fld.sites()) if j + N - 1 <= hi]
        if not active:
            break
        tried, ratios = N, []
        for i in active:
            frames[i] = mat2._mul(seq.values[fld.j_first + i + N - 1 - lo][None], frames[i])
            P = frames[i][0]
            nu, ns = column_norm(P, 0), column_norm(P, 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios.append(0.0 if nu == 0.0 else float(np.float64(nu) / ns))
        worst = math.nan if any(map(math.isnan, ratios)) else min(ratios)
        if math.isnan(worst):
            return False, N, math.nan, N
        if worst > factor:
            return True, N, worst - factor, N
        if worst - factor > best[0]:
            best = (worst - factor, N)
    return False, best[1], best[0], tried


def _dom_key(dom):
    return dom.ok, dom.N, repr(dom.margin), dom.tried


def _oracle_key(seq, fld, *args):
    return _dom_key(certifier.DominationCheck(*domination_oracle(seq, fld, *args)))


def _frame_field(seq, u, s, j_first=None):
    """A SplittingField over seq's sites from j_first on with the given
    rows, unnormalized."""
    j_first = seq.j_lo if j_first is None else j_first
    return certifier.SplittingField(j_first, np.asarray(u, complex), np.asarray(s, complex))


def _domination_cases(free_op):
    """(seq, fld) pairs: the free chain at E = 3 (dominated at N = 1) and
    at E = 0 (never dominated), random complex windows with and without
    unnormalized frames, a dead u image and an annihilated s."""
    cases = []
    for E in (3.0, 0.0):
        seq = cocycle_map(free_op, E)
        cases.append((seq, power_directions(seq, 8)))
    rng = np.random.default_rng(41)
    for n in (20, 90, 150):
        seq = cocycle_map(random_operator(rng, n=n, j_lo=int(rng.integers(-40, 40))),
                          complex(rng.uniform(-3, 3), rng.uniform(0.1, 1.0)))
        cases.append((seq, power_directions(seq, 4)))
        raw = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        seq = MatSequence(int(rng.integers(-40, 40)), raw)
        u, s = (rng.standard_normal((n - 5, 2)) + 1j * rng.standard_normal((n - 5, 2))
                for _ in range(2))
        cases.append((seq, _frame_field(seq, u, s, seq.j_lo + 2)))
    e1, e2 = np.eye(2)
    for d in ([0.0, 2.0], [2.0, 0.0]):  # u dies at once; s dies at once
        seq = MatSequence(0, np.repeat(np.diag(d)[None], 40, axis=0).astype(complex))
        cases.append((seq, _frame_field(seq, [e1] * 40, [e2] * 40)))
    return cases


@pytest.mark.dispatch
def test_domination_is_the_per_site_frame_loop(free_op, monkeypatch):
    # verify_domination and one _dominations sweep over all the windows
    # give the bits of the loop that multiplies each frame on its own,
    # though the sweep steps a shrinking prefix of its class heads and
    # takes column norms of it
    cases = _domination_cases(free_op)
    want = [_oracle_key(seq, fld) for seq, fld in cases]
    assert [_dom_key(verify_domination(seq, fld)) for seq, fld in cases] == want
    batch = certifier._Batch([seq for seq, _ in cases])
    jobs = [(w, fld, None) for w, (_, fld) in enumerate(cases)]  # every site its own class
    doms = certifier._dominations(batch, jobs)
    assert [_dom_key(d) for d in doms] == want
    free3, free0, *_, dead_u, dead_s = doms
    assert free3.ok and free3.N == 1
    assert not free0.ok and free0.tried == 64
    assert not dead_u.ok and dead_u.margin == -2.0
    assert dead_s.ok and dead_s.N == 1 and dead_s.margin == math.inf
    # other factors and bounds
    seq, fld = cases[2]
    for n_max, factor in ((1, 2.0), (5, 1.5), (64, 40.0)):
        monkeypatch.setattr(certifier, "N_MAX", n_max)
        monkeypatch.setattr(certifier, "FACTOR", factor)
        assert _dom_key(verify_domination(seq, fld)) == _oracle_key(seq, fld, n_max, factor)


@pytest.mark.dispatch
@pytest.mark.parametrize("failing_first", [False, True])
def test_domination_stop_waits_for_every_window(free_op, failing_first):
    # a window dominated at N = 1 beside one whose ratio 1.01**N grows
    # through all 64 steps without passing 2: the sweep ends only when no
    # window is left searching, so the best margin is the one at N = 64
    dominated = cocycle_map(free_op, 3.0)
    failing = MatSequence(5, np.repeat(np.diag([1.01, 1.0])[None], 100, axis=0).astype(complex))
    e1, e2 = np.eye(2)
    cases = [(dominated, power_directions(dominated, 8)),
             (failing, _frame_field(failing, [e1] * 100, [e2] * 100))][:: -1 if failing_first else 1]
    doms = certifier._dominations(certifier._Batch([seq for seq, _ in cases]),
                                  [(w, fld, None) for w, (_, fld) in enumerate(cases)])
    assert [_dom_key(d) for d in doms] == [_oracle_key(seq, fld) for seq, fld in cases]
    assert sorted((d.ok, d.N, d.tried) for d in doms) == [(False, 64, 64), (True, 1, 1)]


def test_nan_frame_gives_a_nan_margin_and_certify_raises(free_op, monkeypatch):
    seq = cocycle_map(free_op, 3.0)
    fld = power_directions(seq, 8)
    fld.u[5] = np.nan
    assert _dom_key(verify_domination(seq, fld)) == _oracle_key(seq, fld) == (False, 1, "nan", 1)
    orig = certifier._dominations

    def nan_frames(batch, jobs):
        # without the field classes: the site's frame is its own
        jobs = [(w, certifier.SplittingField(**{**vars(fld), "u": fld.u.copy()}), None)
                for w, fld, _ in jobs]
        for _, fld, _ in jobs:
            fld.u[5] = np.nan
        return orig(batch, jobs)

    monkeypatch.setattr(certifier, "_dominations", nan_frames)
    with pytest.raises(InternalInconsistency, match="domination margin is nan"):
        certify(seq)


def test_floor_at_n_24_is_norm_floor(monkeypatch):
    # 1.03**24 is the first power above 2, so N = 24: the floor there is
    # one fold of 24-factor rows, one table _mul per set bit of 24
    seq = MatSequence(0, np.repeat(np.diag([1.03, 1.0])[None], 300, axis=0).astype(complex))
    _, muls = count_table_work(monkeypatch)
    orig = mat2._floors
    floor_muls = []

    def counting_floors(*args):
        before = muls[0]
        out = orig(*args)
        floor_muls.append(muls[0] - before)
        return out

    monkeypatch.setattr(certifier, "_floors", counting_floors)
    cert = certify(seq)
    assert cert.N == 24 and floor_muls == [2]
    assert cert.norm_floor_value == norm_floor(seq, 24)
    assert cert.domination_margin == pytest.approx(1.03**24 - 2.0, rel=1e-12)


def range_direction(P, side="expanding"):
    """The larger column of one 2x2 over its 2-norm (column_norm, the
    first column on a tie): the scalar oracle of the batched rank-1
    rule."""
    norms = [column_norm(P, 0), column_norm(P, 1)]
    k = 0 if norms[0] >= norms[1] else 1
    if norms[k] == 0.0:
        raise DegenerateCocycle(f"zero product pins no {side} direction")
    # times the reciprocal, part by part
    col, r = P[:, k], 1.0 / norms[k]
    if not np.iscomplexobj(col):
        return col * r
    out = np.empty_like(col)
    out.real, out.imag = col.real * r, col.imag * r
    return out


def kernel_direction(P):
    r = range_direction(P.T, "contracting")
    return np.array([-r[1], r[0]])


def per_site_overrides(seq, js, bu, bs, U, u_vecs, s_vecs):
    """The singular overrides site by site, s side first: the kernel of
    one cocycle_product per site through its first singular factor, and
    the range of U, the products of the cut burns (cut_burns)."""
    _, cs, stop_u, stop_s = cut_burns(seq, js, bu, bs)
    real = mat2._sweep_values(seq).dtype == np.float64
    for i in range(len(js)):
        if stop_s[i]:
            P = mat2.cocycle_product(seq, int(js[i]), int(cs[i]))
            s_vecs[i] = kernel_direction(P.real if real else P)
        if stop_u[i]:
            u_vecs[i] = range_direction(U[i])


def per_site_directions(seq, js, bu, bs):
    cu, cs, _, _ = cut_burns(seq, js, bu, bs)
    U, S = doubling_field_products(mat2._sweep_values(seq), js, cu, cs, seq.j_lo)
    u = mat2.sv_left_vectors(U)
    s = certifier._perp_rows(mat2.sv_right_vectors(S))
    per_site_overrides(seq, js, bu, bs, U, u, s)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(s))):
        raise InternalInconsistency("non-finite direction estimate")
    return unit_rows(u), unit_rows(s)


def _directions_outcome(fn, *args):
    try:
        u, s = fn(*args)
    except (DegenerateCocycle, InternalInconsistency) as exc:
        return type(exc), str(exc)
    return u.tobytes(), s.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 110),
    seed=st.integers(0, 2**32 - 1),
    complex_vals=st.booleans(),
    ends=st.sampled_from(["none", "left", "right", "both"]),
    inside=st.integers(0, 4),
    burn=st.integers(1, 50),
    extend=st.booleans(),
)
def test_cut_field_rows_are_bitwise_the_per_site_loop(
    n, seed, complex_vals, ends, inside, burn, extend
):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, 2, 2)).astype(complex)
    if complex_vals:
        vals += 1j * rng.standard_normal((n, 2, 2))
    sing = list(rng.integers(0, n, inside))
    sing += {"none": [], "left": [0], "right": [n - 1], "both": [0, n - 1]}[ends]
    for k in sing:
        if rng.random() < 0.5:
            vals[k, :, 1] = 2.0 * vals[k, :, 0]  # det exactly zero
        else:
            vals[k, int(rng.integers(2)), :] = 0.0
    seq = MatSequence(int(rng.integers(-50, 50)), vals)
    lo, hi = seq.window
    if extend:
        js = np.arange(lo + 1, hi + 1)
        bu, bs = np.minimum(burn, js - lo), np.minimum(burn, hi + 1 - js)
    else:
        burn = max(1, min(burn, n // 2))
        js = np.arange(lo + burn, hi + 2 - burn)
        bu = bs = np.full(len(js), burn)
    if len(js) == 0:
        return
    got = _directions_outcome(site_directions, seq, js, bu, bs)
    assert got == _directions_outcome(per_site_directions, seq, js, bu, bs)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    n_sing=st.integers(0, 6),
    burn=st.integers(1, 40),
)
def test_cut_burns_are_the_per_site_loop(n, seed, n_sing, burn):
    # singular factors anywhere, sites and burns at random, rows that
    # reach past the window included
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, 2, 2))
    for k in rng.integers(0, n, n_sing):
        vals[k, int(rng.integers(2)), :] = 0.0
    seq = MatSequence(int(rng.integers(-50, 50)), vals)
    lo, hi = seq.window
    js = np.sort(rng.integers(lo - 3, hi + 4, int(rng.integers(1, 2 * n + 2))))
    bu, bs = rng.integers(1, burn + 1, len(js)), rng.integers(1, burn + 1, len(js))
    zpos = np.flatnonzero(mat2.det2(seq.values) == 0.0) + lo
    for got, want in zip(certifier._cut_burns(zpos, js, bu, bs), cut_burns(seq, js, bu, bs)):
        assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    complex_vals=st.booleans(),
    pattern=st.sampled_from(["ends", "random", "steps", "gappy"]),
    burn=st.integers(1, 40),
    warm=st.booleans(),
)
def test_field_products_are_bitwise_the_doubling_loop(
    n, seed, complex_vals, pattern, burn, warm
):
    # rows finish at different steps, on both sides, in any site order
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, 2, 2))
    if complex_vals:
        vals = vals + 1j * rng.standard_normal((n, 2, 2))
    lo = int(rng.integers(-50, 50))
    if pattern == "gappy":
        # non-contiguous sites with one burn
        js = np.sort(rng.choice(np.arange(lo - 2, lo + n + 3), size=min(n, 5), replace=False))
        bu = bs = np.full(len(js), burn)
    else:
        js = np.arange(lo + 1, lo + n + 1)
        if pattern == "ends":
            bu, bs = np.minimum(burn, js - lo), np.minimum(burn, lo + n + 1 - js)
        elif pattern == "random":
            bu, bs = rng.integers(1, burn + 1, n), rng.integers(1, burn + 1, n)
        else:
            bu = np.repeat(rng.integers(1, burn + 1, 3), n)[:n]
            bs = bu[::-1].copy()
    # a batch whose tables a sweep of shorter burns built in part gives
    # the same products
    first = []
    if warm:
        t0 = int(rng.integers(0, min(bu.max(), bs.max()) + 1))
        first.append((np.minimum(bu, t0), np.minimum(bs, t0)))
    U, S = window_products(vals, js, bu, bs, lo, first)
    U_ref, S_ref = doubling_field_products(vals, js, bu, bs, lo)
    assert U.dtype == vals.dtype
    if complex_vals:
        assert U.tobytes() == U_ref.tobytes() and S.tobytes() == S_ref.tobytes()
    else:  # the real sweep equals the complex one by value
        assert np.array_equal(U, U_ref) and np.array_equal(S, S_ref)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    T=st.integers(1, 8),
    complex_vals=st.booleans(),
)
@example(seed=0, n=3, T=2, complex_vals=False)
def test_renorm_is_idempotent_and_exact(seed, n, T, complex_vals):
    # a second pass changes nothing, and a row scaled after every step is
    # the same row scaled once at the end, bit for bit: so a row's bits do
    # not depend on the scales of the rows beside it
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((T, n, 2, 2)) * 2.0 ** rng.integers(-40, 41, (T, n, 1, 1))
    if complex_vals:
        F = F + 1j * rng.standard_normal((T, n, 2, 2)) * 2.0 ** rng.integers(-40, 41, (T, n, 1, 1))
    F[rng.random((T, n)) < 0.05] = 0.0  # some rows die
    P = np.tile(np.eye(2, dtype=F.dtype), (n, 1, 1))
    scaled, e = P, np.zeros(n, dtype=np.int64)  # the step loop, renormalized
    for f in F:
        scaled = mat2._mul(f, scaled)
        e -= mat2._renorm(scaled, out=scaled)[1]
    raw = P  # the plain product loop, unnormalized
    for f in F:
        raw = mat2._mul(f, raw)
    once, s = mat2._renorm(raw)
    assert scaled.tobytes() == once.tobytes()
    twice, s2 = mat2._renorm(once)
    live = np.any(raw != 0.0, axis=(1, 2))
    assert twice.tobytes() == once.tobytes() and not s2[live].any()
    assert e.dtype == np.int64 and e[live].tolist() == (-s[live]).tolist()


def test_renorm_keeps_zero_and_nan_rows_at_scale_one():
    P = np.array([
        [[0.0, -0.0], [0.0, 0.0]],
        [[np.nan, 2.0], [3.0, -4.0]],
        [[np.inf, 2.0], [3.0, -4.0]],
        [[1.0, 2.0], [4.0, -8.0]],
        [[1.5, -1.0], [0.25, 1.0]],
    ])
    m = mat2._row_max(P)
    assert m[0] == 0.0 and np.isnan(m[1]) and m[2] == np.inf and m[3] == 8.0 and m[4] == 1.5
    out, s = mat2._renorm(P)
    assert s[1:].tolist() == [0, 0, -3, 0]  # the zero row's s changes nothing
    for i in (0, 1, 2, 4):  # zero, NaN, inf, and already in [1, 2)
        assert out[i].tobytes() == P[i].tobytes()
    assert np.array_equal(out[3], P[3] / 8.0)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(mat2._renorm(P.astype(complex))[0], out, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["jacobi", "singular", "zero_row"]),
    length=st.integers(1, 20),
)
def test_real_floor_and_block_products_equal_the_complex_runs(n, seed, kind, length):
    rng = np.random.default_rng(seed)
    seq = _real_window(rng, kind, n)
    ns = range(1, min(n, 20) + 1)
    floors = [norm_floor(seq, k) for k in ns]
    with mock.patch.object(mat2, "_sweep_values", lambda seq: seq.values):
        assert floors == [norm_floor(seq, k) for k in ns]
    length = min(length, n)
    starts = np.arange(0, n - length + 1)
    lengths = np.full(len(starts), length)
    P, exps, at = mat2._row_sweep(mat2._Tables(mat2._sweep_values(seq)), starts, lengths)
    Pc, exps_c, at_c = mat2._row_sweep(mat2._Tables(seq.values), starts, lengths)
    assert P.dtype == np.float64
    assert np.array_equal(P[at], Pc[at_c]) and exps[at].tobytes() == exps_c[at_c].tobytes()


def modulus(z):
    """|z| in Python floats, as mat2._abs takes it: abs of a real z; for a
    complex z, sqrt(re*re + im*im), or where that leaves (2**-500,
    2**500), the same of its parts scaled by 2**-x, x the frexp exponent
    of the larger, scaled back by 2**x."""
    if not isinstance(z, complex):
        return abs(z)
    m = math.sqrt(z.real * z.real + z.imag * z.imag)
    if 2.0**-500 < m < 2.0**500:
        return m
    x = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    a, b = math.ldexp(z.real, -x), math.ldexp(z.imag, -x)
    return math.ldexp(math.sqrt(a * a + b * b), x)


def cone_per_pair(seq, fld, N, alphas=(1.0, 0.75, 1.25, 0.5, 1.5, 2.0),
                  ratios=(0.5, 0.25, 0.75)):
    """cone_certificate with one disk_image_margins call per pair, kept
    as the oracle of the batched search; gamma is scaled back one product
    at a time, each modulus taken in Python floats (modulus)."""
    lo, hi = seq.window
    D, Dinv = certifier._frame_matrices(fld)
    best = None
    for mult in (1, 2, 4):
        n_blk = N * mult
        last = min(fld.j_last - n_blk, hi + 1 - n_blk)
        if last < fld.j_first:
            continue
        js = np.arange(fld.j_first, last + 1)
        k = js - fld.j_first
        Q, exps, at = mat2._row_sweep(mat2._Tables(mat2._sweep_values(seq)), js - lo,
                                      np.full(len(js), n_blk))
        P, exps = Q[at], exps[at]
        Lam = ref_matmul(ref_matmul(Dinv[k + n_blk], P), D[k])
        # the least |Lam[:, 0, 0]| of the unscaled products, one at a time
        gamma = min(map(math.ldexp, map(modulus, Lam[:, 0, 0].tolist()), exps.tolist()))
        cond = float(np.max(mat2.op_norm(Dinv[k + n_blk]) * mat2.op_norm(D[k])))
        for a in alphas:
            for r in ratios:
                ap = a * r
                clearance = float(np.min(disk_image_margins(Lam, a, ap)))
                if clearance <= 0.0 or not np.isfinite(clearance):
                    continue
                cand = certifier.ConeCertificate(
                    N=n_blk, alpha=a, alpha_prime=ap, clearance=clearance,
                    gamma=gamma, cond=cond, n_sites=len(js),
                )
                if best is None or cand.budget() > best.budget():
                    best = cand
        if best is not None:
            return best
    return best


def test_batched_cone_margins_are_bitwise_the_per_pair_calls():
    rng = np.random.default_rng(83)
    Lam = rng.standard_normal((300, 2, 2)) + 1j * rng.standard_normal((300, 2, 2))
    Lam[::7] *= np.array([[0.05, 1.0], [0.05, 1.0]])
    Lam[3::11, :, 1] = 3.0 * Lam[3::11, :, 0]  # rank 1
    Lam[5::13, 0, :] = 0.0  # rank 1 with a vertical range
    alphas, ratios = (1.0, 0.75, 1.25, 0.5, 1.5, 2.0), (0.5, 0.25, 0.75)
    pairs = [(a, a * r) for a in alphas for r in ratios]
    a_grid = np.array(alphas)[:, None, None]
    grid = disk_image_margins(Lam, a_grid, a_grid * np.array(ratios)[:, None])
    assert grid.shape == (len(alphas), len(ratios), len(Lam))
    flat = disk_image_margins(
        Lam, np.array([a for a, _ in pairs])[:, None], np.array([p for _, p in pairs])[:, None]
    )
    for batched in (grid.reshape(len(pairs), len(Lam)), flat):
        for row, (a, ap) in zip(batched, pairs):
            assert row.tobytes() == disk_image_margins(Lam, a, ap).tobytes()


@pytest.mark.parametrize("which", ["free", "random", "mod5", "real_random"])
def test_cone_certificate_picks_the_per_pair_winner(which, free_op, mod5_op):
    rng = np.random.default_rng(89)
    seq = {
        "free": lambda: cocycle_map(free_op, 3.0),
        "random": lambda: cocycle_map(random_operator(rng, n=90, j_lo=-40), 0.3 + 1.1j),
        "mod5": lambda: cocycle_map(mod5_op, 2.6),
        "real_random": lambda: cocycle_map(
            random_operator(rng, n=150, complex_a=False, j_lo=0), 2.9
        ),
    }[which]()
    cert = certify(seq)
    assert cert.ok
    for N in (cert.N, cert.N + 1, 3 * cert.N):
        got = certifier.cone_certificate(seq, cert.core_field, N)
        assert got is not None
        assert got == cone_per_pair(seq, cert.core_field, N)


# ---------------------------------------------- many windows in one sweep


def _batch_window(rng, kind, n, factors="random"):
    """One window of a certify_many batch: a Jacobi cocycle at a real or
    complex energy (some couplings exactly zero), raw real or complex
    factors (repeating as factors says, _repeating) with exactly singular
    ones, or a window that raises."""
    if kind == "degenerate":
        vals = np.repeat(np.diag([2.0, 0.5])[None], max(n, 12), axis=0).astype(complex)
        vals[len(vals) // 2] = 0.0
        return MatSequence(int(rng.integers(-9, 9)), vals)
    if kind == "overflow":
        # the squared factor entries would overflow in the invariance
        # check, which reads the factors scaled by powers of two
        return MatSequence(0, np.repeat((1e160 * np.diag([3.0, 0.5]))[None], 200, axis=0))
    if kind in ("real_jacobi", "complex_jacobi"):
        a = (0.5 + rng.random(n)) * rng.choice([-1.0, 1.0], n)
        if kind == "complex_jacobi":
            a = a * np.exp(2j * np.pi * rng.random(n))
        a = a.astype(complex)
        a[rng.random(n) < 0.08] = 0.0
        op = JacobiOperator(j_lo=int(rng.integers(-50, 50)), a=a, b=rng.uniform(-1, 1, n))
        E = complex(rng.uniform(-3.5, 3.5), 0.0 if kind == "real_jacobi" else rng.uniform(-1, 1))
        return cocycle_map(op, E)
    vals = rng.standard_normal((n, 2, 2)).astype(complex)
    if kind == "complex_raw":
        vals += 1j * rng.standard_normal((n, 2, 2))
    vals = _repeating(rng, vals, factors)
    for k in rng.integers(0, n, int(rng.integers(0, 3))):
        if rng.random() < 0.5:
            vals[k, :, 1] = 2.0 * vals[k, :, 0]  # det exactly zero
        else:
            vals[k, int(rng.integers(2)), :] = 0.0
    return MatSequence(int(rng.integers(-50, 50)), vals)


def _outcome(res):
    if isinstance(res, Exception):
        return type(res), str(res)
    f = res.core_field
    return json.dumps(res.to_json()), f.u.tobytes(), f.s.tobytes()


def _alone(seq, kw):
    try:
        with np.errstate(all="ignore"):
            return _outcome(certify(seq, **kw))
    except (DegenerateCocycle, InternalInconsistency) as exc:
        return _outcome(exc)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(
        st.sampled_from(["real_jacobi", "complex_jacobi", "real_raw", "complex_raw"]),
        min_size=2,
        max_size=6,
    ),
    bad=st.sampled_from([None, "degenerate", "overflow"]),
    burn=st.sampled_from([None, None, 1, 7, 30]),
    factors=FACTORS,
)
@example(seed=3, kinds=["real_jacobi", "complex_jacobi"], bad="degenerate", burn=None,
         factors="random")
@example(seed=4, kinds=["real_raw", "complex_raw", "real_jacobi"], bad="overflow", burn=7,
         factors="signed_zero")
def test_certify_many_is_certify_window_by_window(seed, kinds, bad, burn, factors):
    # mixed dtypes and lengths, exactly singular factors, burn hints,
    # repeating raw factors, and a window in the middle of the batch that
    # raises
    rng = np.random.default_rng(seed)
    seqs = [_batch_window(rng, kind, int(rng.integers(5, 140)), factors) for kind in kinds]
    if bad is not None:
        seqs.insert(len(seqs) // 2, _batch_window(rng, bad, 30))
    kw = {} if burn is None else {"burn": burn}
    alone = [_alone(seq, kw) for seq in seqs]
    with np.errstate(all="ignore"):
        slots = certifier._certify_each(seqs, **kw)
    assert [_outcome(res) for res in slots] == alone
    errors = [res for res in alone if isinstance(res[0], type)]
    if errors:
        kind, message = errors[0]
        with np.errstate(all="ignore"), pytest.raises(kind) as info:
            certifier.certify_many(seqs, **kw)
        assert str(info.value) == message
    else:
        certs = certifier.certify_many(seqs, **kw)
        assert [_outcome(c) for c in certs] == alone


def test_certify_many_splits_batches_at_the_row_bound(monkeypatch):
    # windows of one dtype run as batches of at most BATCH_ROWS product
    # rows (two per site, three times that for a complex window), a longer
    # window alone: wherever the bound cuts, each certificate is that of
    # its window certified alone
    rng = np.random.default_rng(43)
    kinds = ["real_jacobi", "real_raw", "complex_jacobi", "real_jacobi", "complex_raw",
             "real_raw", "complex_jacobi", "real_jacobi"]
    lengths = [50, 60, 30, 150, 45, 40, 20, 70]
    seqs = [_batch_window(rng, kind, n) for kind, n in zip(kinds, lengths)]
    alone = [_alone(seq, {}) for seq in seqs]
    batches, batch = [], certifier._Batch

    def recording_batch(seqs, vals):
        batches.append([len(seq) for seq in seqs])
        return batch(seqs, vals)

    monkeypatch.setattr(certifier, "BATCH_ROWS", 240)
    monkeypatch.setattr(certifier, "_Batch", recording_batch)
    with np.errstate(all="ignore"):
        slots = certifier._certify_each(seqs)
    assert [_outcome(res) for res in slots] == alone
    # real: 100 + 120 rows, then 300 alone, then 80 + 140; complex: 180,
    # then 270 alone, then 120
    assert batches == [[50, 60], [150], [40, 70], [30], [45], [20]]


@pytest.mark.parametrize("burn", [0, -5, 0.5])
def test_certify_many_refuses_a_burn_hint_below_1(free_op, burn):
    # a hint below 1 is refused before any window runs, not clamped to 1,
    # where the free chain at E = 3 fails condition 1; a malformed window
    # beside it does not mask the refusal
    seqs = [cocycle_map(free_op, 3.0), cocycle_map(free_op, 2.5)]
    for call in (lambda: certifier.certify_many(seqs, burn=burn),
                 lambda: certifier.certify_many([seqs[0], "not a window"], burn=burn),
                 lambda: certify(seqs[0], burn=burn),
                 lambda: certify_operator(free_op, 3.0, burn=burn)):
        with pytest.raises(ValueError, match="burn must be >= 1"):
            call()
    assert certify(seqs[0], burn=1).burn == 1


@pytest.mark.parametrize("burn", [2.5, True, np.float64(3.0)])
def test_a_burn_hint_that_is_not_an_integer_is_refused(free_op, burn):
    # 2.5 is not truncated to 2, nor True read as 1 (where the free chain
    # at E = 3 fails condition 1); numpy integers are integers
    seq = cocycle_map(free_op, 3.0)
    for call in (lambda: certifier.certify_many([seq], burn=burn),
                 lambda: certify(seq, burn=burn),
                 lambda: power_directions(seq, burn)):
        with pytest.raises(ValueError, match="burn must be >= 1 and an integer"):
            call()
    assert certify(seq, burn=np.int64(3)).burn == certify(seq, burn=3).burn == 3
    assert power_directions(seq, np.int32(3)).j_first == power_directions(seq, 3).j_first


def _field_arrays(cert):
    f = cert.core_field
    return [f.u, f.s]


def test_batched_core_fields_own_their_arrays(free_op, mod5_op):
    # a certificate kept after its batch pins no slab of the batch
    seqs = [cocycle_map(free_op, E) for E in (3.0, 2.5, 1.0, 2.1 + 0.2j, -3.5)]
    seqs.append(cocycle_map(mod5_op, 2.6))
    sub = subsample_equivalence_check(cocycle_map(free_op, 3.0), 3)
    for certs in (certifier.certify_many(seqs), [sub["base"], sub["block"]]):
        for i, ci in enumerate(certs):
            for x in _field_arrays(ci):
                assert x.base is None and x.flags.owndata
            for cj in certs[i + 1 :]:
                for x in _field_arrays(ci):
                    for y in _field_arrays(cj):
                        assert not np.shares_memory(x, y)


def test_a_batch_climbs_its_ladders_in_lockstep(monkeypatch):
    # K windows with equal burns make as many table _mul calls per rung as
    # one window does, at most one per bit of the rung's burn, on one
    # batch's tables, and the growth ratios read the tables without a
    # _row_sweep call; a silent fallback to a loop over windows would
    # multiply the rungs' calls by K
    seq = MatSequence(0, np.repeat(np.array([[[3.0, -1.0], [1.0, 0.0]]]), 200, axis=0))
    tables, muls = count_table_work(monkeypatch)
    rungs, blocks = [], [0]
    orig_dirs, orig_ratios, orig_blocks = (
        certifier._directions, certifier._ratio_estimates, certifier._row_sweep
    )

    def dirs(batch, jobs):
        # the ladders' rungs, and last the end sites of the extended field
        before = muls[0]
        out = orig_dirs(batch, jobs)
        if sys._getframe(1).f_code.co_name == "_certify_batch":
            rungs.append((sorted({int(bu[0]) for _, _, bu, _ in jobs}), len(jobs), muls[0] - before))
        return out

    def ratios(batch, ws):
        monkeypatch.setattr(certifier, "_row_sweep", counting_blocks)
        try:
            return orig_ratios(batch, ws)
        finally:
            monkeypatch.setattr(certifier, "_row_sweep", orig_blocks)

    def counting_blocks(*args):
        blocks[0] += 1
        return orig_blocks(*args)

    monkeypatch.setattr(certifier, "_directions", dirs)
    monkeypatch.setattr(certifier, "_ratio_estimates", ratios)
    one = certify(seq)
    (*alone, _), rungs[:] = rungs[:], []
    many = certifier.certify_many([seq] * 5)
    rungs.pop()
    assert all(json.dumps(c.to_json()) == json.dumps(one.to_json()) for c in many)
    assert one.burn >= 40 and alone[-1][0] == [one.burn]
    assert all(len(b) == 1 and 0 < n <= b[0].bit_length() for b, _, n in alone)
    assert [(b, n) for b, _, n in rungs] == [(b, n) for b, _, n in alone]
    assert all(k == 5 for _, k, _ in rungs)
    assert len(tables) == 2 and all(0 < len(t.levels) <= (199 // 2).bit_length() for t in tables)
    assert blocks[0] == 0


def _row_sweep_ratio_estimates(batch, ws):
    """certifier._ratio_estimates as it was when it read its blocks off
    one mat2._row_sweep call, kept verbatim as the oracle of the table
    read."""
    plans = []
    for w in ws:
        winlen = len(batch.seqs[w])
        m = min(16, winlen)
        starts = np.unique(np.linspace(0, winlen - m, min(5, winlen - m + 1), dtype=int))
        plans.append((m, batch.offsets[w] + starts))
    P, _, at = mat2._row_sweep(
        batch.tables,
        np.concatenate([starts for _, starts in plans]),
        np.concatenate([np.full(len(starts), m) for m, starts in plans]),
        batch.repeats,
    )
    s1, s2 = mat2.singular_values(P)
    with np.errstate(divide="ignore"):
        ratios = np.where(s2 > 0.0, s1 / np.where(s2 > 0.0, s2, 1.0), np.inf)[at]
    out, a = [], 0
    for m, starts in plans:
        r = ratios[a : a + len(starts)]
        a += len(starts)
        r = np.maximum(r[np.isfinite(r)], 1.0).tolist()
        if not r:
            out.append(math.inf)
        else:
            out.append(math.exp(sum(map(math.log, r)) / len(r)) ** (1.0 / m))
    return out


def _ratio_windows(rng, lengths, complex_vals):
    """Windows of the given lengths, every fourth kind of _repeating in
    turn, every third with an exactly singular factor, and one whose
    blocks all hold one (no finite ratio)."""
    kinds = ["random", "periodic", "defect", "signed_zero"]
    seqs = []
    for i, n in enumerate(lengths):
        v = rng.standard_normal((n, 2, 2)).astype(complex)
        if complex_vals:
            v += 1j * rng.standard_normal((n, 2, 2))
        v = _repeating(rng, v, kinds[i % 4])
        if i % 3 == 0:
            k = int(rng.integers(n))
            v[k, :, 1] = 2.0 * v[k, :, 0]
        seqs.append(MatSequence(int(rng.integers(-50, 50)), v))
    v = np.repeat(np.array([[[1.0, 2.0], [2.0, 4.0]]]), 40, axis=0)
    seqs.append(MatSequence(0, v * (1 + 1j) if complex_vals else v))
    return seqs


@pytest.mark.parametrize("complex_vals", [False, True])
def test_growth_ratios_are_the_row_sweep_blocks(complex_vals, monkeypatch):
    # each 16-factor block is one level-4 table entry, whose singular
    # values are those of the block's _row_sweep row bit for bit: the
    # ratios equal the row-sweep oracle's, alone and batched, and take no
    # _row_sweep call.  Catches a block read off another level or start
    # (level(3), or starts from n - 17) and a root other than the 16th.
    # Windows below 16 factors in the batch get inf and change nothing.
    rng = np.random.default_rng(23 + complex_vals)
    seqs = _ratio_windows(rng, [16, 17, 19, 20, 31, 32, 33, 47, 64, 100, 299, 300], complex_vals)
    short = _ratio_windows(rng, [5, 9, 15], complex_vals)[:-1]

    def hexes(xs):
        return [x.hex() for x in xs]

    want = [_row_sweep_ratio_estimates(certifier._Batch([seq]), [0])[0] for seq in seqs]
    assert math.inf in want and any(math.isfinite(r) for r in want)

    def no_sweep(*args):
        raise AssertionError("_ratio_estimates called _row_sweep")

    monkeypatch.setattr(certifier, "_row_sweep", no_sweep)
    alone = [certifier._ratio_estimates(certifier._Batch([seq]), [0])[0] for seq in seqs]
    assert hexes(alone) == hexes(want)
    batch = certifier._Batch(short + seqs)
    both = certifier._ratio_estimates(batch, range(len(short + seqs)))
    assert hexes(both) == hexes([math.inf] * len(short) + want)
    # a subset of the batch's windows reads the same entries
    ws = list(range(len(short), len(short) + len(seqs), 2))
    assert hexes(certifier._ratio_estimates(batch, ws)) == hexes(want[::2])


def test_short_windows_need_no_growth_ratio(monkeypatch):
    # a window of 5 to 15 factors has a burn cap of at most 7, below the
    # ladder's least start of 40, so whatever its ratio, it certifies to
    # the same JSON (1 + 1e-12 and inf start the ladder at 40, 1.01 at
    # 560, 1e300 at 40 again).  Certified alone, such a window's slab has
    # no level-4 table: dropping the guard in _ratio_estimates that reads
    # level 4 only for a window of 16 factors fails inside mat2._mul.
    rng = np.random.default_rng(31)
    seqs = []
    for n in range(5, 16):
        for complex_vals, singular in ((False, False), (True, False), (False, True)):
            v = np.array([[20.0, -1.0], [1.0, 0.0]]) + 0.3 * rng.standard_normal((n, 2, 2))
            v = v.astype(complex)
            if complex_vals:
                v += 0.3j * rng.standard_normal((n, 2, 2))
            if singular:
                k = int(rng.integers(n))
                v[k, :, 1] = 2.0 * v[k, :, 0]
            seqs.append(MatSequence(int(rng.integers(-20, 20)), v))

    def outcomes():
        with np.errstate(all="ignore"):
            alone = [_outcome(certifier._certify_each([seq])[0]) for seq in seqs]
            chunks = [_outcome(c) for i in range(0, len(seqs), 7)
                      for c in certifier._certify_each(seqs[i : i + 7])]
        assert chunks == alone
        return alone

    want = outcomes()
    assert sum(isinstance(o[0], str) and '"verified"' in o[0] for o in want) > len(seqs) // 3
    for ratio in (1 + 1e-12, 1.01, 1e300, math.inf):
        monkeypatch.setattr(certifier, "_ratio_estimates",
                            lambda batch, ws, r=ratio: [r] * len(ws))
        assert outcomes() == want


@pytest.mark.parametrize("complex_vals", [False, True])
def test_singular_factors_at_a_seam_stay_in_their_windows(complex_vals, monkeypatch):
    # two windows end to end in one slab, the first ending and the second
    # starting with an exactly singular factor: every field row stays in
    # its window, so the one _cut_burns call that cuts both windows' burns
    # on slab positions gives each the rows and the certificate it gets
    # alone.  Catches a cut on positions one off (sites + 1 stops the last
    # site of the first window at the second's singular factor, in the
    # batch only).
    rng = np.random.default_rng(13)
    seqs = []
    for j_lo, k in ((-7, -1), (100, 0)):
        v = (np.array([[3.0, -1.0], [1.0, 0.0]]) + 0.3 * rng.standard_normal((40, 2, 2))).astype(complex)
        if complex_vals:
            v += 0.3j * rng.standard_normal((40, 2, 2))
        v[k, :, 1] = 2.0 * v[k, :, 0]
        seqs.append(MatSequence(j_lo, v))
    batch = certifier._Batch(seqs)
    assert batch.zeros.tolist() == [39, 40]
    cuts, orig_cut = [], certifier._cut_burns

    def cut_burns(*args):
        cuts.append(args[0])
        return orig_cut(*args)

    monkeypatch.setattr(certifier, "_cut_burns", cut_burns)
    for b in (1, 3, 8, 20):
        jobs = []
        for w, seq in enumerate(seqs):
            lo, hi = seq.window
            js = np.arange(lo + 1, hi + 1)
            jobs.append((w, js, np.minimum(b, js - lo), np.minimum(b, hi + 1 - js)))
        cuts.clear()
        both = certifier._directions(batch, jobs)
        assert len(cuts) == 1
        for (w, js, bu, bs), d in zip(jobs, both):
            (alone,) = certifier._directions(certifier._Batch([seqs[w]]), [(0, js, bu, bs)])
            assert d[0].tobytes() == alone[0].tobytes() and d[1].tobytes() == alone[1].tobytes()
    with np.errstate(all="ignore"):
        assert [_outcome(c) for c in certifier._certify_each(seqs)] == [
            _outcome(certifier._certify_each([seq])[0]) for seq in seqs
        ]


def _core_sweep_rows(seqs, monkeypatch):
    """For each window of seqs, the table levels certify on it builds and
    (burn, class heads, table _mul calls) for each of its core field
    product sweeps."""
    seen = []
    tables, muls = count_table_work(monkeypatch)
    orig_sweep = certifier._row_sweep

    def sweep(tables, base, steps, repeats=None):
        # the field sweep of one window: its u rows, then its s rows
        before = muls[0]
        H, e, at = orig_sweep(tables, base, steps, repeats)
        if sys._getframe(1).f_code.co_name == "_directions":
            seen.append((int(steps[: len(steps) // 2].max()), len(H), muls[0] - before))
        return H, e, at

    monkeypatch.setattr(certifier, "_row_sweep", sweep)
    out = []
    for seq in seqs:
        assert certify(seq).ok  # so its end sites were swept
        (t,) = tables
        out.append((len(t.levels), seen[:-1]))  # the last sweep is the end sites'
        seen.clear()
        tables.clear()
    return out


def test_periodic_windows_share_their_core_rows(monkeypatch):
    free = JacobiOperator(j_lo=-300, a=np.ones(600, dtype=complex), b=np.zeros(600))
    op = random_operator(np.random.default_rng(7), n=120)
    (levels_p, periodic), (levels, plain) = _core_sweep_rows(
        [cocycle_map(free, 3.0), cocycle_map(op, 0.4 + 0.3j)], monkeypatch
    )
    # every interior factor of the free chain is the same, so each side of
    # a core field sweeps a few rows and copies the rest
    assert len(periodic) >= 2 and all(rows <= 2 * 4 for _, rows, _ in periodic)
    # factors that do not repeat are swept row by row, both sides of
    # every core site, but the u row of site j is the s row of site
    # j - burn
    assert len(plain) >= 2
    cores = [(burn, rows, len(op) + 1 - 2 * burn) for burn, rows, _ in plain]
    assert all(rows == 2 * n - max(0, n - burn) for burn, rows, n in cores)
    assert any(n > burn for burn, _, n in cores)
    # either way a rung takes at most one table _mul per bit of its burn,
    # and a window's tables at most one level per bit of its burn cap
    assert all(0 < n <= burn.bit_length() for burn, _, n in periodic + plain)
    assert 0 < levels_p <= (599 // 2).bit_length() and 0 < levels <= (119 // 2).bit_length()


def test_a_signed_zero_breaks_a_repeat():
    # +0.0 == -0.0 as floats, but the repeat map compares bit patterns:
    # factor 17 differs from factor 16 and factor 18 from factor 17
    vals = np.tile(np.array([[2.0, 0.0], [1.0, 0.5]]), (40, 1, 1))
    vals[17, 0, 1] = -0.0
    q, last = certifier._repeat_map(certifier._slab([vals]), [40])
    assert set(q.tolist()) == {1}
    assert np.flatnonzero(last == np.arange(40)).tolist() == [0, 17, 18]
    assert last.tolist() == [0] * 17 + [17] + [18] * 22
    # a window without repeats has no map
    rng = np.random.default_rng(3)
    assert certifier._repeat_map(certifier._slab([rng.standard_normal((40, 2, 2))]), [40]) is None


@pytest.mark.dispatch
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complex_vals=st.booleans(),
    factors=FACTORS,
)
def test_shared_rows_are_bitwise_the_rows_swept_alone(seed, complex_vals, factors):
    # rows a few steps long, several at one base with equal or unequal
    # steps, and frames from one of two starts: a row that copies another
    # must match every one of these, since the same factors from another
    # start or over another length give other bits; a head's bits must
    # not depend on its position in the stack of heads
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 50))
    vals = rng.standard_normal((n, 2, 2))
    if complex_vals:
        vals = vals + 1j * rng.standard_normal((n, 2, 2))
    vals = _repeating(rng, vals, factors)
    batch = certifier._Batch([MatSequence(0, vals)], [vals])
    base = rng.integers(0, n + 1, int(rng.integers(n + 2, 2 * n + 3)))  # some base twice
    steps = rng.choice(rng.choice([0, 1, 2, 5, 9], 2), len(base))
    steps = np.minimum(steps, n - base)
    # the rows from the identity in doubling order (_row_sweep), with and
    # without the repeats
    Q, e, at = mat2._row_sweep(batch.tables, base, steps, batch.repeats)
    Q1, e1, at1 = mat2._row_sweep(batch.tables, base, steps)
    assert Q[at].tobytes() == Q1[at1].tobytes() and e[at].tobytes() == e1[at1].tobytes()
    # without the repeats, rows share a head where their base (none
    # without steps) and steps agree
    assert len(Q1) == len(set(zip(np.where(steps > 0, base, -1).tolist(), steps.tolist())))
    # the domination frames from one of two starts, one field class
    # each, stepped one factor at a time: the checks with and without
    # the repeats are those of the per-site frame loop
    seq = MatSequence(0, vals)
    starts = np.stack([np.eye(2), [[49.0, 3.0], [-5.0, 7.0]]])
    cls = (rng.random(n) < 0.5).astype(np.intp)
    fld = _frame_field(seq, starts[cls, :, 0], starts[cls, :, 1])
    n_max, factor = int(rng.choice([1, 2, 5, 9, 64])), float(rng.choice([1.5, 2.0, 40.0]))
    jobs = [(0, fld, mat2._classes(cls))]
    with mock.patch.object(certifier, "N_MAX", n_max), mock.patch.object(certifier, "FACTOR", factor):
        (shared,) = certifier._dominations(batch, jobs)
        batch.repeats = None
        (alone,) = certifier._dominations(batch, jobs)
    assert (_dom_key(shared), shared.detail) == (_dom_key(alone), alone.detail)
    assert _dom_key(shared) == _oracle_key(seq, fld, n_max, factor)


@pytest.mark.dispatch
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    windows=st.lists(st.tuples(FACTORS, st.booleans()), min_size=1, max_size=3),
)
@example(seed=2, windows=[("signed_zero", False), ("periodic", True)])
def test_row_classes_hold_equal_factor_spans(seed, windows):
    # windows of repeating factors (_repeating), signed zeros included,
    # laid end to end in one slab as a batch lays them, and rows a few
    # steps long within each window, from one of two start classes: rows
    # share a head only where they read equal factor bits
    rng = np.random.default_rng(seed)
    vals, base, steps = [], [], []
    for factors, complex_vals in windows:
        n = int(rng.integers(4, 60))
        v = rng.standard_normal((n, 2, 2))
        if complex_vals:
            v = v + 1j * rng.standard_normal((n, 2, 2))
        vals.append(_repeating(rng, v, factors))
        b = rng.integers(0, n + 1, int(rng.integers(n + 2, 3 * n)))
        base.append(sum(len(x) for x in vals[:-1]) + b)
        steps.append(np.minimum(rng.choice([0, 1, 2, 3, 5, 9, 17], len(b)), n - b))
    dtype = np.result_type(*vals)
    slab = certifier._slab([mat2._plane_major(v.astype(dtype)) for v in vals])
    repeats = certifier._repeat_map(slab, [len(v) for v in vals])
    base, steps = np.concatenate(base), np.concatenate(steps)
    start = (rng.random(len(base)) < 0.3).astype(np.intp)
    heads, at = mat2._row_classes(start, base, steps, repeats)
    assert np.array_equal(at[heads], np.arange(len(heads)))
    # rows that share a head read bitwise equal factors from one start
    bits = mat2._bits(slab)
    h = heads[at]
    assert np.array_equal(start, start[h]) and np.array_equal(steps, steps[h])
    for i, j in zip(range(len(base)), h.tolist()):
        span = bits[:, base[i] : base[i] + steps[i]]
        assert np.array_equal(span, bits[:, base[j] : base[j] + steps[j]])
    # rows of one base (none without steps), steps and start always share
    keys = np.stack([np.where(steps > 0, base, -1), steps, start])
    _, first, inv = np.unique(keys, axis=1, return_index=True, return_inverse=True)
    assert np.array_equal(at, at[first][inv.ravel()])
    # the heads come longest first
    assert np.all(np.diff(steps[heads]) <= 0)
    # in a fully periodic window of shift q (q = 0 where it is too short
    # to repeat half its factors), the rows of one steps and start have
    # at most q heads
    offsets = np.cumsum([0] + [len(v) for v in vals])
    for w, (factors, _) in enumerate(windows):
        inside = (offsets[w] <= base) & (base < offsets[w + 1]) & (steps > 0)
        q = 0 if repeats is None else int(repeats[0][offsets[w]])
        if factors == "periodic" and q:
            for key in set(zip(steps[inside].tolist(), start[inside].tolist())):
                rows = inside & (steps == key[0]) & (start == key[1])
                assert len(np.unique(at[rows])) <= q


def _certify_many_outcome(seqs, kw):
    """certify_many's certificates as JSON and core-field bytes, or the
    error it raises."""
    try:
        with np.errstate(all="ignore"):
            certs = certifier.certify_many(seqs, **kw)
    except (DegenerateCocycle, InternalInconsistency, ValueError) as exc:
        return type(exc), str(exc)
    return [(json.dumps(c.to_json()), *(x.tobytes() for x in _field_arrays(c))) for c in certs]


@pytest.mark.dispatch
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    windows=st.lists(st.tuples(FACTORS, st.booleans(), st.booleans()), min_size=2, max_size=5),
    burn=st.sampled_from([None, None, 3, 12]),
)
@example(seed=5, windows=[("periodic", False, True), ("signed_zero", True, False)], burn=None)
def test_row_sharing_does_not_change_certificates(seed, windows, burn):
    # windows of repeating factors (_repeating), real and complex, some
    # with an exactly singular factor, in one batch: every stage reads
    # its rows once per class, and gathers them to the sites at the end,
    # so the certificates are those of the same batch without repeats,
    # where every row is its own class.  A head sits at another position,
    # in a stack of another length, than its row in the stack of every
    # site, so its bits must not depend on the SIMD loop numpy runs there
    rng = np.random.default_rng(seed)
    seqs = []
    for factors, complex_vals, singular in windows:
        n = int(rng.integers(12, 120))
        vals = rng.standard_normal((n, 2, 2)).astype(complex)
        if complex_vals:
            vals += 1j * rng.standard_normal((n, 2, 2))
        vals = _repeating(rng, vals, factors)
        if singular:
            k = int(rng.integers(n))
            vals[k, :, 1] = 2.0 * vals[k, :, 0]  # det exactly zero
        seqs.append(MatSequence(int(rng.integers(-50, 50)), vals))
    kw = {} if burn is None else {"burn": burn}
    shared = _certify_many_outcome(seqs, kw)
    with mock.patch.object(certifier, "_repeat_map", lambda slab, lengths: None):
        assert _certify_many_outcome(seqs, kw) == shared


def test_certify_reads_each_distinct_row_once(monkeypatch):
    # the singular vectors are taken once per distinct (head, stop) pair
    # of each side and the cone margins once per class head, not once per
    # site, and factor bits are compared only by the repeat map
    free = JacobiOperator(j_lo=-300, a=np.ones(600, dtype=complex), b=np.zeros(600))
    mod5 = periodic_operator([0.0, 1.0, 1.0, 1.0, 1.0], [0.3, -0.2, 0.5, 0.0, 0.1], (-200, 199))
    rows, bits_callers, stops = {}, [], []

    def count(key, fn, n):
        def run(*args):
            rows[key] = rows.get(key, 0) + n(args, out := fn(*args))
            return out
        return run

    def cut_burns(*args):
        out = orig_cut(*args)
        stops.append(out[2:])
        return out

    def field_rows(args, out):
        # the distinct (head, stop) pairs of each side of a field sweep
        # (its u rows, then its s rows), the stops those of the
        # _cut_burns calls for this sweep's jobs
        rows["sites"] = rows.get("sites", 0) + len(args[2]) // 2
        side_stops = [np.concatenate(x) for x in zip(*stops)]
        stops.clear()
        return sum(len(set(zip(i.tolist(), t.tolist())))
                   for i, t in zip(out[2].reshape(2, -1), side_stops))

    def sweep(*args):
        # the field sweeps, and the block heads of the cone search alone
        out = orig_sweep(*args)
        caller = sys._getframe(1).f_code.co_name
        if caller == "_directions":
            rows["pairs"] = rows.get("pairs", 0) + field_rows(args, out)
        elif caller == "_cone_certificates":
            rows["cone heads"] = rows.get("cone heads", 0) + len(out[0])
        return out

    def bits(X):
        bits_callers.append(sys._getframe(1).f_code.co_name)
        return orig_bits(X)

    orig_bits, orig_sweep, orig_cut = mat2._bits, certifier._row_sweep, certifier._cut_burns
    for name in ("sv_left_vectors", "sv_right_vectors"):
        sv = count("sv", getattr(certifier, name), lambda a, o: len(a[0]))
        monkeypatch.setattr(certifier, name, sv)
    monkeypatch.setattr(certifier, "disk_image_margins",
                        count("disk", certifier.disk_image_margins, lambda a, o: len(a[0])))
    monkeypatch.setattr(certifier, "_cut_burns", cut_burns)
    monkeypatch.setattr(certifier, "_row_sweep", sweep)
    monkeypatch.setattr(mat2, "_bits", bits)
    monkeypatch.setattr(certifier, "_bits", bits)
    for op, E in ((free, 2.01), (mod5, 2.6)):
        rows.clear()
        cert = certify_operator(op, E)
        assert cert.ok
        assert rows["sv"] == rows["pairs"] < rows["sites"] / 3
        assert rows.get("disk", 0) == rows.get("cone heads", 0)
    assert rows["disk"] == 5 and cert.cone.n_sites == 320  # mod5: one row per residue
    assert bits_callers and set(bits_callers) == {"_repeat_map"}
    # every row reads forward, so the u row of site j (b factors from
    # j - b) is the s row of site j - b (b factors from j - b): laid out
    # as _directions lays them, uncut, they share a head on the repeating
    # window
    seq, b = cocycle_map(mod5, 2.6), cert.burn
    js = np.arange(b, len(seq) + 1 - b)
    full = np.full(len(js), b)
    batch = certifier._Batch([seq])
    _, _, at = orig_sweep(batch.tables, np.concatenate((js - b, js)), np.concatenate((full, full)),
                          batch.repeats)
    u, s = at.reshape(2, -1)
    assert len(js) > b and np.array_equal(u[b:], s[:-b])
