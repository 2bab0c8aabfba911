"""Dominated-splitting certification pipeline.

Closed-form anchors: the constant chain at energy 3 has transfer
eigenvalues (3 +- sqrt(5))/2, so the splitting data is known exactly.
The two diagonal-model counterexamples each break exactly one of the
four conditions by construction.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_matseq, random_operator

from domsplit import (
    JacobiOperator,
    certify,
    certify_operator,
    cocycle_map,
    greens_directions,
    periodic_operator,
    power_directions,
)
from domsplit import certifier, mat2
from domsplit.certifier import (
    DegenerateCocycle,
    stability_radius,
    subsample_equivalence_check,
    verify_domination,
    verify_invariance,
    verify_separation,
)
from domsplit.harness import perturb_sequence
from domsplit.mat2 import MatSequence, norm_floor
from domsplit.sphere import ProjPoint, act, chordal_dist, chordal_rows

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
    cert = certify(cocycle_map(free_op, 3.0), marginal_margin=10.0)
    assert cert.verdict == "marginal"
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


def test_verify_separation_threshold():
    seq = cocycle_map(
        JacobiOperator(j_lo=0, a=np.ones(60, complex), b=np.zeros(60)), 3.0
    )
    fld = power_directions(seq, 8)
    ok, delta = verify_separation(fld, 1e-4)
    assert ok and delta > 1.0
    ok2, _ = verify_separation(fld, delta + 1.0)
    assert not ok2


def test_verify_domination_factor():
    seq = cocycle_map(
        JacobiOperator(j_lo=0, a=np.ones(60, complex), b=np.zeros(60)), 3.0
    )
    fld = power_directions(seq, 8)
    dom = verify_domination(seq, fld)
    assert dom.ok and dom.N == 1
    # demanding more growth than the eigenvalue ratio provides pushes N up
    ratio = PHI_BIG / (3.0 - PHI_BIG)
    dom2 = verify_domination(seq, fld, factor=ratio * 1.5)
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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    burn=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    singular=st.booleans(),
)
def test_spliced_extended_field_is_bitwise_the_full_sweep(n, burn, seed, singular):
    rng = np.random.default_rng(seed)
    seq = random_matseq(rng, n=n, j_lo=int(rng.integers(-50, 50)))
    if singular:
        # second column exactly twice the first: det is exactly zero
        k = int(rng.integers(n))
        seq.values[k, :, 1] = 2.0 * seq.values[k, :, 0]
    ext = power_directions(seq, burn, extend=True)
    lo, hi = seq.window
    js = np.arange(lo + 1, hi + 1)
    bu = np.minimum(burn, js - lo)
    bs = np.minimum(burn, hi + 1 - js)
    u, s = certifier._site_directions(seq, js, bu, bs)
    assert ext.j_first == lo + 1
    assert np.array_equal(ext.u, u) and np.array_equal(ext.s, s)
    assert np.array_equal(ext.burn_u, bu) and np.array_equal(ext.burn_s, bs)


@pytest.mark.parametrize("which", ["free", "random", "example_one"])
def test_floor_curve_equals_norm_floor(free_seq, which):
    seq = {
        "free": free_seq,
        "random": cocycle_map(
            random_operator(np.random.default_rng(79), n=60, j_lo=0), 0.2 + 1.5j
        ),
        "example_one": example_one(),
    }[which]
    cert = certify(seq)
    curve = cert.notes["floor_curve"]
    assert [n for n, _, _ in curve] == list(range(1, 21))
    for n, v, _ in curve:
        assert v == norm_floor(seq, n)
    if cert.N is not None:
        assert cert.norm_floor_value == norm_floor(seq, cert.N)


def test_certify_builds_each_field_once(free_op, monkeypatch):
    burns, floors, rows = [], [], []
    orig_pd = certifier.power_directions
    orig_site = certifier._site_directions

    def counting_pd(seq, burn, extend=False):
        burns.append((burn, extend))
        return orig_pd(seq, burn, extend)

    def counting_site(seq, js, bu, bs):
        rows.append(len(js))
        return orig_site(seq, js, bu, bs)

    def counting_floor(seq, n):
        floors.append(n)
        return mat2.norm_floor(seq, n)

    monkeypatch.setattr(certifier, "power_directions", counting_pd)
    monkeypatch.setattr(certifier, "_site_directions", counting_site)
    monkeypatch.setattr(certifier, "norm_floor", counting_floor)
    cert = certify_operator(free_op, 3.0)
    assert cert.N == 1 and len(burns) >= 2
    assert len(set(burns)) == len(burns)
    assert all(not extend for _, extend in burns)
    assert floors == []
    # one core sweep per distinct burn, then only the 2 (burn - 1) end sites
    core_rows = [len(free_op) + 1 - 2 * b for b, _ in burns]
    assert rows == core_rows + [2 * (cert.burn - 1)]
