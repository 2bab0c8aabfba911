"""End-to-end acceptance gate.

Nine scenario checks, each recorded as one pass/fail line in the
terminal summary.  Tolerances are part of the contract: loosening any
of them is a behavior change, not a cleanup.
"""

import time

import numpy as np
import pytest

from conftest import record_acceptance, random_operator

from domsplit import (
    JacobiOperator,
    RationalRotation,
    almost_mathieu,
    certify,
    certify_operator,
    cocycle_map,
    cosine_coupling,
    dist_to_spectrum,
    dynamical_ds_check,
    greens_column,
    greens_directions,
    orbit_spectrum_inclusion,
    periodic_operator,
    power_directions,
    realize,
    spectrum,
)
from domsplit.harness import johnson_scan, perturbation_experiment
from domsplit.jacobi import (
    char_poly,
    cocycle_via_charpoly,
    floquet_bands,
    greens_row_residual,
    normalization_identity_check,
    truncation,
)
from domsplit.mat2 import MatSequence, cocycle_product, norm_floor
from domsplit.sphere import (
    ProjPoint,
    chordal_dist,
    chordal_rows,
    mobius,
    schwarz_pick_rho,
)


def wide_free_chain():
    return JacobiOperator(j_lo=-300, a=np.ones(600, complex), b=np.zeros(600))


def two_site_operator():
    return periodic_operator([1.0, 1.0], [0.0, 1.5], (-150, 149))


def block_operator():
    return periodic_operator(
        [0.0, 1.0, 1.0, 1.0, 1.0], [0.3, -0.2, 0.5, 0.0, 0.1], (-200, 199)
    )


def decaying_diagonal_pair():
    # splits cleanly but the factor norms die toward the window ends
    js = np.arange(-20, 21)
    vals = np.zeros((41, 2, 2), complex)
    vals[:, 0, 0] = 2.0 ** (-np.abs(js))
    vals[:, 1, 1] = 2.0 ** (-np.abs(js) - 1)
    return MatSequence(-20, vals)


def collapsing_fields_pair():
    # norms stay above 3 but the two direction fields merge like 2^-|j|
    js = np.arange(-20, 21)
    vals = np.zeros((41, 2, 2), complex)
    vals[:, 0, 0] = 2.0 ** (2 - np.abs(js))
    vals[:, 0, 1] = -3.0
    vals[:, 1, 1] = 2.0 ** (-np.abs(js + 1))
    return MatSequence(-20, vals)


def test_01_free_chain_scan():
    """Real-axis sweep of the constant chain: prediction matches verdicts."""
    op = wide_free_chain()
    h = 0.02
    energies = np.linspace(-4.0, 4.0, 401)
    t0 = time.monotonic()
    rep = johnson_scan(op, energies, jobs=4)
    elapsed = time.monotonic() - t0
    hard = len(rep.hard_disagreements)
    marg = [rep.rows[i]["E_re"] for i in range(rep.n_total) if rep.marginal[i]]
    off_edge = [e for e in marg if abs(abs(e) - 2.0) > 2.0 * h]
    ok = hard == 0 and not off_edge and elapsed < 60.0
    record_acceptance(
        "free-chain scan",
        ok,
        f"{rep.summary()}; marginal at {sorted(marg)}; {elapsed:.1f}s at jobs=4",
    )
    assert hard == 0
    assert not off_edge, f"marginal energies {off_edge} are not at the band edges"
    assert elapsed < 60.0


def test_02_two_site_bands():
    """Certificates agree with the closed-form band set of a 2-cycle."""
    op = two_site_operator()
    bands = floquet_bands(op)
    grid = np.linspace(-2.5, 4.0, 400)
    h = float(grid[1] - grid[0])
    mismatches = []
    for E in grid:
        in_band = any(lo <= E <= hi for lo, hi in bands)
        cert = certify_operator(op, float(E))
        certified = cert.verdict != "failed"
        if certified == in_band:
            edge = min(min(abs(E - lo), abs(E - hi)) for lo, hi in bands)
            if edge > 2.0 * h:
                mismatches.append(float(E))
    # 2-step closed-loop products pin the splitting directions
    worst_dir = 0.0
    outside = [E for E in grid if dist_to_spectrum_pts(E, bands) > 0.1]
    for E in outside[:: max(1, len(outside) // 10)]:
        seq = cocycle_map(op, float(E))
        cert = certify_operator(op, float(E))
        fld = power_directions(seq, cert.burn)
        for j in (0, 1):
            M = cocycle_product(seq, j, 2)
            w, V = np.linalg.eig(M)
            big, small = np.argsort(-np.abs(w))
            worst_dir = max(
                worst_dir,
                chordal_dist(ProjPoint(V[:, big]), fld.u_at(j)),
                chordal_dist(ProjPoint(V[:, small]), fld.s_at(j)),
            )
    ok = not mismatches and worst_dir < 1e-6
    record_acceptance(
        "two-site band set",
        ok,
        f"0 mismatches on {len(grid)} energies (band edges excused to 2h); "
        f"closed-loop direction error {worst_dir:.1e}",
    )
    assert mismatches == []
    assert worst_dir < 1e-6


def dist_to_spectrum_pts(E, bands):
    return min(max(lo - E, E - hi, 0.0) for lo, hi in bands)


def test_03_block_diagonal_split():
    """Dead couplings cut the chain into 5-site blocks with point spectrum."""
    op = block_operator()
    H = truncation(op, 0, 5).dense()
    block_eigs = np.sort(np.linalg.eigvalsh(H))

    sp = spectrum(op)
    merged = np.asarray(sp.merged)
    haus = max(
        float(np.max(np.abs(merged[:, None] - block_eigs[None, :]).min(axis=1))),
        float(np.max(np.abs(block_eigs[:, None] - merged[None, :]).min(axis=1))),
    )

    grid = np.linspace(-2.5, 2.5, 51)
    away = [E for E in grid if np.min(np.abs(E - block_eigs)) >= 0.1]
    fails = [E for E in away if certify_operator(op, float(E)).verdict == "failed"]

    # after each dead bond the splitting directions are the coordinate axes
    cert = certify_operator(op, 2.6)
    fld = power_directions(cocycle_map(op, 2.6), cert.burn)
    e1, e2 = ProjPoint((1.0, 0.0)), ProjPoint((0.0, 1.0))
    axis_err = 0.0
    for j0 in op.zero_sites(fld.j_first, fld.j_last - 1):
        axis_err = max(
            axis_err,
            chordal_dist(fld.u_at(j0 + 1), e1),
            chordal_dist(fld.s_at(j0 + 1), e2),
        )

    # the polynomial form of a block-spanning product vanishes at its
    # eigenvalues
    span = max(
        float(np.max(np.abs(cocycle_via_charpoly(op, 1, 5, complex(E0)))))
        for E0 in block_eigs
    )

    ok = haus <= 1e-10 and not fails and axis_err == 0.0 and span < 1e-10
    record_acceptance(
        "block-diagonal operator",
        ok,
        f"spectrum matches block eigenvalues to {haus:.1e}; "
        f"{len(away)}/{len(away) - len(fails)} gap energies certify; "
        f"axis pin error {axis_err:.1e}; spanning product {span:.1e}",
    )
    assert haus <= 1e-10
    assert fails == []
    assert axis_err == 0.0
    assert span < 1e-10


def test_04_resolvent_direction_fields():
    """Resolvent-column directions equal power-iterated directions."""
    rng = np.random.default_rng(2024)
    ops = [
        wide_free_chain(),
        two_site_operator(),
        block_operator(),
        random_operator(rng, n=150),
        realize(almost_mathieu(0.5), RationalRotation(8, 21, 0.15), (-105, 104)),
    ]
    worst = 0.0
    checked = 0
    for op in ops:
        for _ in range(4):
            E = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 1.5))
            cert = certify_operator(op, E)
            assert cert.verdict != "failed"
            pow_fld = power_directions(cocycle_map(op, E), cert.burn)
            grn_fld = greens_directions(op, E)
            lo = max(pow_fld.j_first, grn_fld.j_first)
            hi = min(pow_fld.j_last, grn_fld.j_last)
            js = np.arange(lo, hi + 1)
            pu = np.array([pow_fld.u_at(j).v for j in js])
            gu = np.array([grn_fld.u_at(j).v for j in js])
            ps = np.array([pow_fld.s_at(j).v for j in js])
            gs = np.array([grn_fld.s_at(j).v for j in js])
            worst = max(
                worst,
                float(np.max(chordal_rows(pu, gu))),
                float(np.max(chordal_rows(ps, gs))),
            )
            checked += 1
    ok = checked == 20 and worst < 1e-6
    record_acceptance(
        "resolvent direction fields",
        ok,
        f"{checked} energies over 5 operator families, worst chordal gap {worst:.1e}",
    )
    assert checked == 20
    assert worst < 1e-6


def test_05_resolvent_decay():
    """Off-diagonal resolvent decay with the fitted exponential rate."""
    rng = np.random.default_rng(404)
    worst_res = 0.0
    min_rate = np.inf
    worst_excess = -np.inf
    for k in range(10):
        op = random_operator(rng, n=120)
        if k % 2 == 0:
            E = complex(rng.uniform(-1, 1), 0.2 + rng.random())
        else:
            sp = spectrum(op, sizes=(60, 90, 119))
            E = complex(sp.segments[-1][1] + 0.2 + rng.random(), 0.0)
        j = int(rng.integers(-20, 20))
        g = greens_column(op, E, j)
        assert g.delta >= 0.2
        min_rate = min(min_rate, g.gamma_fit)
        bound = 2.0 / g.delta
        for n in range(g.j_first, g.j_first + len(g.values)):
            env = bound * np.exp(-g.gamma_fit * abs(n - j))
            worst_excess = max(worst_excess, abs(g.value_at(n)) - env)
        worst_res = max(
            worst_res,
            float(normalization_identity_check(g)),
            float(greens_row_residual(op, E, j)),
        )
    envelope_ok = worst_excess <= 1e-12
    ok = envelope_ok and min_rate > 0.0 and worst_res < 1e-9
    record_acceptance(
        "resolvent decay",
        ok,
        f"10 energies at distance >= 0.2: envelope excess {worst_excess:.1e}, "
        f"slowest rate {min_rate:.3f}, worst identity residual {worst_res:.1e}",
    )
    assert envelope_ok
    assert min_rate > 0.0
    assert worst_res < 1e-9


def _random_disk_map(rng, alpha, alpha_prime, shrink=0.9):
    # random Moebius map taking the alpha-disk strictly inside the
    # alpha_prime-disk: scale in, rotate by a disk automorphism, scale out
    p = (rng.random() * 0.9) * np.exp(2j * np.pi * rng.random())
    into = np.array([[1.0, 0.0], [0.0, 1.0 / alpha]], complex)
    auto = np.array([[1.0, -np.conj(p)], [-p, 1.0]], complex)
    mu = shrink * np.exp(2j * np.pi * rng.random())
    out = np.array([[1.0, 0.0], [0.0, mu * alpha_prime]], complex)
    return out @ auto @ into


def _pseudo_hyperbolic(z, w, alpha):
    return abs(z - w) / abs(alpha * alpha - np.conj(w) * z)


def test_06_disk_contraction():
    """Maps into a strictly smaller disk contract the disk metric by rho.

    Both sides are measured in the source disk's weighted metric; the
    contraction comes from the image being confined to the inner disk.
    """
    rng = np.random.default_rng(606)
    details = []
    all_ok = True
    for alpha, alpha_prime in ((1.0, 0.5), (1.0, 0.9), (0.3, 0.2)):
        rho = schwarz_pick_rho(alpha, alpha_prime)
        worst = 0.0
        for _ in range(1000):
            m = _random_disk_map(rng, alpha, alpha_prime, shrink=1.0)
            z = alpha * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
            w = alpha * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
            for z1, z2 in zip(z, w):
                denom = _pseudo_hyperbolic(z1, z2, alpha)
                if denom == 0.0:
                    continue
                num = _pseudo_hyperbolic(mobius(m, z1), mobius(m, z2), alpha)
                worst = max(worst, num / denom)
        all_ok = all_ok and worst <= rho + 1e-9
        details.append(f"({alpha},{alpha_prime}): max {worst:.6f} vs rho {rho:.6f}")
    record_acceptance("disk contraction bound", all_ok, "; ".join(details))
    assert all_ok


def test_07_openness():
    """Certified windows absorb perturbations inside the stated radius."""
    rng = np.random.default_rng(707)
    pairs = [
        (wide_free_chain(), 3.0),
        (two_site_operator(), 3.5),
        (two_site_operator(), -2.0),
        (block_operator(), 2.6),
        (realize(almost_mathieu(0.5), RationalRotation(8, 21, 0.15), (-105, 104)), 4.0),
        (realize(cosine_coupling(0.5), RationalRotation(5, 13, 0.3), (-104, 103)), 3.0),
    ]
    while len(pairs) < 10:
        pairs.append(
            (random_operator(rng, n=150), complex(rng.uniform(-1, 1), 1.0))
        )
    lost = []
    for k, (op, E) in enumerate(pairs):
        cert = certify_operator(op, E)
        assert cert.verdict != "failed" and cert.epsilon
        seq = cocycle_map(op, E)
        rep = perturbation_experiment(seq, 0.9 * cert.epsilon, trials=100, seed=k)
        if not rep.all_ok:
            lost.append((k, rep.n_ok))

    c_floor = certify(decaying_diagonal_pair())
    c_sep = certify(collapsing_fields_pair())
    floor_exact = c_floor.conditions == {1: True, 2: True, 3: True, 4: False}
    sep_exact = c_sep.conditions == {1: True, 2: True, 3: False, 4: True}

    ok = not lost and floor_exact and sep_exact
    record_acceptance(
        "openness of the splitting",
        ok,
        f"10 pairs x 100 perturbations at 0.9*epsilon all recertify; "
        f"norm-floor example breaks only (4), collapse example only (3)",
    )
    assert lost == []
    assert floor_exact, c_floor.conditions
    assert sep_exact, c_sep.conditions


def test_08_polynomial_products():
    """Products through the three-term polynomial recursion."""
    rng = np.random.default_rng(808)
    worst_prod = 0.0
    for _ in range(100):
        op = random_operator(rng, n=40, j_lo=0)
        E = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        seq = cocycle_map(op, E)
        for N in range(1, 13):
            j = int(rng.integers(0, 40 - N))
            direct = cocycle_product(seq, j, N)
            via = cocycle_via_charpoly(op, j, N, E)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst_prod = max(worst_prod, float(np.max(np.abs(via - direct))) / scale)

    worst_det = 0.0
    for _ in range(20):
        op = random_operator(rng, n=24, j_lo=0)
        E = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        for N in range(1, 11):
            j = int(rng.integers(0, 24 - N))
            H = truncation(op, j - 1, j + N - 1).dense()
            ref = np.linalg.det(E * np.eye(N) - H)
            worst_det = max(
                worst_det, abs(char_poly(op, j, N, E) - ref) / max(1.0, abs(ref))
            )

    min_floor = np.inf
    for _ in range(20):
        op = random_operator(rng, n=60, j_lo=-30)
        E = complex(rng.uniform(-1, 1), 1.0)
        seq = cocycle_map(op, E)
        for n in range(1, 21):
            min_floor = min(min_floor, norm_floor(seq, n))

    ok = worst_prod <= 1e-10 and worst_det <= 1e-9 and min_floor >= 1e-6
    record_acceptance(
        "polynomial product forms",
        ok,
        f"products to N=12 match to {worst_prod:.1e}; recursion vs determinants "
        f"{worst_det:.1e}; resolvent norm floor {min_floor:.2e} for n <= 20",
    )
    assert worst_prod <= 1e-10
    assert worst_det <= 1e-9
    assert min_floor >= 1e-6


def test_09_quasiperiodic_family():
    """Sampled cosine family at a deep rational approximant."""
    pair = almost_mathieu(0.5)
    rot = RationalRotation(233, 377, omega0=0.15)
    omega = (rot.omega0 + 0.5 / 377.0) % 1.0
    inc = orbit_spectrum_inclusion(pair, rot, omega, eps=0.05)
    inc_ok = inc.ok and not inc.inconclusive

    rep = dynamical_ds_check(pair, rot, 2.3, n_phases=24, periods=2)
    ratio = rep.max_adjacent_jump / rep.grid_step if rep.grid_step else np.inf
    dyn_ok = rep.all_ok and rep.continuity_ok()

    ok = inc_ok and dyn_ok
    record_acceptance(
        "quasiperiodic phase family",
        ok,
        f"inclusion at eps=0.05: excess {inc.worst_excess:.1e} with orbit gap "
        f"{inc.orbit_dist:.2e} <= delta {inc.delta:.2e}; 24-phase check at "
        f"E=2.3: uniform N={rep.uniform_N}, direction motion "
        f"{ratio:.2f}x the grid step",
    )
    assert inc_ok
    assert dyn_ok
