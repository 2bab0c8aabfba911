"""Quasi-periodic sampling models and phase-family checks."""

import numpy as np
import pytest

from domsplit import (
    JacobiOperator,
    RationalRotation,
    almost_mathieu,
    certify_operator,
    cocycle_map,
    constant_pair,
    cosine_coupling,
    dist_to_spectrum,
    dynamical_ds_check,
    make_family,
    orbit_spectrum_inclusion,
    pair_lipschitz,
    periodic_operator,
    power_directions,
    realize,
    spectrum,
)
from domsplit import certifier, models
from domsplit.sphere import chordal_rows

TWO_PI = 2.0 * np.pi


# -------------------------------------------------------------- rotations


def test_rotation_is_exactly_periodic():
    rot = RationalRotation(8, 21, omega0=0.15)
    for n in (-40, -1, 0, 7, 100):
        assert rot.theta_at(n + 21) == rot.theta_at(n)
        assert 0.0 <= rot.theta_at(n) < 1.0


def test_rotation_thetas_vectorized():
    rot = RationalRotation(5, 13, omega0=0.4)
    ts = rot.thetas(-10, 15)
    assert len(ts) == 26
    for k, n in enumerate(range(-10, 16)):
        assert ts[k] == rot.theta_at(n)


def test_rotation_phase_normalization():
    rot = RationalRotation(1, 4, omega0=2.3)
    assert abs(rot.omega0 - 0.3) < 1e-15
    assert rot.with_phase(0.9).omega0 == 0.9
    with pytest.raises(ValueError):
        RationalRotation(1, 0)


def test_rotation_orbit_is_full_when_coprime():
    rot = RationalRotation(8, 21)
    pts = {rot.theta_at(n) for n in range(21)}
    assert len(pts) == 21


# --------------------------------------------------------------- families


def test_almost_mathieu_values():
    pair = almost_mathieu(0.5)
    t = np.linspace(0, 1, 9)
    assert np.all(pair.a_fn(t) == 1.0)
    b = pair.b_fn(t)
    assert abs(b[0] - 1.0) < 1e-15  # 2*lambda*cos(0)
    assert np.max(np.abs(b)) <= 1.0 + 1e-15


def test_constant_pair_values():
    pair = constant_pair(a=0.7, b=-0.2)
    t = np.array([0.1, 0.9])
    assert np.all(pair.a_fn(t) == 0.7)
    assert np.all(pair.b_fn(t) == -0.2)


def test_cosine_coupling_values():
    pair = cosine_coupling(mu=0.5, base=1.0)
    t = np.array([0.0, 0.5])
    a = pair.a_fn(t)
    assert abs(a[0] - 1.5) < 1e-15
    assert abs(a[1] - 0.5) < 1e-15


def test_make_family():
    pair = make_family("almost_mathieu", coupling=0.3)
    assert pair.name == "almost_mathieu"
    with pytest.raises(ValueError):
        make_family("nope")


# ---------------------------------------------------------------- realize


def test_realize_samples_the_orbit():
    rot = RationalRotation(8, 21, omega0=0.15)
    pair = almost_mathieu(0.5)
    op = realize(pair, rot, (-21, 20))
    assert op.extension == "periodic"
    assert op.period == 21
    assert op.j_lo == -21
    for j in (-21, -5, 0, 13):
        assert op.b_at(j) == pair.b_fn(np.array([rot.theta_at(j)]))[0]
    # periodic extension continues the orbit with the right phase
    assert op.b_at(30) == op.b_at(30 - 42)


def test_realize_rejects_partial_periods():
    rot = RationalRotation(8, 21)
    with pytest.raises(ValueError):
        realize(almost_mathieu(), rot, (0, 30))
    with pytest.raises(ValueError):
        realize(almost_mathieu(), rot, (5, 4))


def test_realize_snaps_near_zero_couplings():
    # coupling 1 + mu*cos hits -1e-15 of zero at theta = 1/2
    pair = cosine_coupling(mu=1.0 + 1e-15, base=1.0)
    rot = RationalRotation(1, 4, omega0=0.0)
    op = realize(pair, rot, (0, 7))
    assert op.a_at(2) == 0.0
    assert op.zero_sites() == [2, 6]
    assert op.a_at(0) != 0.0


def test_realize_shift_covariance():
    rot = RationalRotation(8, 21, omega0=0.15)
    pair = almost_mathieu(0.5)
    k = 5
    base = realize(pair, rot, (0, 41))
    moved = realize(pair, rot.with_phase(rot.theta_at(k)), (0, 41))
    for j in range(0, 42 - k):
        assert abs(base.b_at(j + k) - moved.b_at(j)) < 1e-15


# ------------------------------------------------------ periodic operator


def test_periodic_operator_phase_lock():
    a = [1.0, 0.6, 0.9]
    b = [0.2, -0.4, 0.7]
    op1 = periodic_operator(a, b, (-6, 5))
    op2 = periodic_operator(a, b, (0, 11))
    for j in range(0, 6):
        assert op1.a_at(j) == a[j % 3]
        assert op1.a_at(j) == op2.a_at(j)
        assert op1.b_at(j) == op2.b_at(j)


def test_periodic_operator_validation():
    with pytest.raises(ValueError):
        periodic_operator([1.0, 2.0], [0.0], (0, 3))
    with pytest.raises(ValueError):
        periodic_operator([1.0, 2.0], [0.0, 0.0], (0, 4))


# ------------------------------------------------------------ rate bounds


def test_pair_lipschitz_constant_is_zero():
    assert pair_lipschitz(constant_pair()) == 0.0


def test_pair_lipschitz_sampled_rates():
    # diagonal 2*0.5*cos(2 pi t) has peak slope 2 pi; coupling is flat
    rate = pair_lipschitz(almost_mathieu(0.5))
    assert rate <= TWO_PI + 1e-9
    assert rate > TWO_PI - 0.01
    # coupling slope counts twice (two matrix entries per factor)
    rate2 = pair_lipschitz(cosine_coupling(mu=0.5, base=1.0))
    assert abs(rate2 - TWO_PI) < 0.01


# ------------------------------------------------------ spectrum inclusion


def test_inclusion_exact_translate():
    rot = RationalRotation(8, 21, omega0=0.15)
    pair = almost_mathieu(0.5)
    rep = orbit_spectrum_inclusion(
        pair, rot, rot.theta_at(7), eps=1e-3, window=(0, 209), sizes=(105, 210)
    )
    assert rep.orbit_dist == 0.0
    assert not rep.inconclusive
    assert rep.worst_excess < 1e-10
    assert rep.ok


def test_inclusion_near_orbit_point():
    rot = RationalRotation(8, 21, omega0=0.15)
    pair = almost_mathieu(0.5)
    omega = (rot.theta_at(3) + 1e-4) % 1.0
    rep = orbit_spectrum_inclusion(
        pair, rot, omega, eps=0.05, window=(0, 209), sizes=(105, 210)
    )
    assert rep.orbit_dist <= 1e-4 + 1e-12
    assert not rep.inconclusive
    assert rep.included and rep.ok
    assert rep.worst_excess < 0.01
    assert abs(rep.lipschitz - TWO_PI) < 0.01
    assert abs(rep.delta - 0.5 * 0.05 / rep.lipschitz) < 1e-15


def test_inclusion_inconclusive_when_orbit_misses():
    rot = RationalRotation(8, 21, omega0=0.15)
    pair = almost_mathieu(0.5)
    omega = (rot.omega0 + 0.5 / 21.0) % 1.0  # midway between orbit points
    rep = orbit_spectrum_inclusion(
        pair, rot, omega, eps=1e-6, m_max=5, window=(0, 209), sizes=(105, 210)
    )
    assert rep.inconclusive
    assert not rep.ok
    assert rep.orbit_dist > rep.delta


# ---------------------------------------------------------- phase families


def test_dyncheck_constant_family():
    # phase-independent coefficients: every certificate identical, no motion
    rot = RationalRotation(1, 3)
    rep = dynamical_ds_check(constant_pair(), rot, 3.0, n_phases=6, periods=20)
    assert rep.all_ok
    assert rep.uniform_N == 1
    assert rep.max_adjacent_jump == 0.0
    assert rep.continuity_ok()
    assert len(rep.certs) == 6
    assert abs(rep.grid_step - 1.0 / 6.0) < 1e-15


def test_dyncheck_above_the_hull():
    # energy far above every phase's spectrum: uniform splitting with slow
    # phase dependence
    rot = RationalRotation(8, 21, omega0=0.15)
    rep = dynamical_ds_check(almost_mathieu(0.5), rot, 4.0, n_phases=12, periods=4)
    assert rep.all_ok
    assert rep.uniform_N == 1
    assert rep.min_delta_sep > 0.5
    assert rep.continuity_ok()
    assert rep.max_adjacent_jump < rep.grid_step


def test_dyncheck_failure_is_reported():
    # energy inside the spectrum of some phase cannot certify everywhere
    rot = RationalRotation(1, 2, omega0=0.0)
    rep = dynamical_ds_check(almost_mathieu(0.5), rot, 0.0, n_phases=8, periods=30)
    assert not rep.all_ok


def test_dyncheck_explicit_grid():
    rot = RationalRotation(1, 3)
    grid = [0.9, 0.1, 0.5]
    rep = dynamical_ds_check(constant_pair(), rot, 3.0, omega_grid=grid, periods=10)
    assert np.array_equal(rep.omegas, np.array([0.1, 0.5, 0.9]))
    assert abs(rep.grid_step - 0.4) < 1e-15  # widest gap, 0.1 -> 0.5


@pytest.mark.parametrize("grid", [dict(n_phases=0), dict(n_phases=-2), dict(omega_grid=[])])
def test_dyncheck_refuses_an_empty_phase_grid(grid):
    # no phase would pass every check vacuously, with NaN margins
    with pytest.raises(ValueError, match="phase grid is empty"):
        dynamical_ds_check(constant_pair(), RationalRotation(1, 3), 3.0, periods=10, **grid)


@pytest.mark.parametrize("n_phases", [2.5, 3.0, True])
def test_dyncheck_refuses_a_phase_count_that_is_not_an_integer(n_phases):
    # 2.5 phases used to check the phases 0, 0.4 and 0.8, and True one
    # phase; numpy integers are integers
    rot = RationalRotation(1, 3)
    with pytest.raises(ValueError, match="n_phases must be an integer"):
        dynamical_ds_check(constant_pair(), rot, 3.0, n_phases=n_phases, periods=10)
    rep = dynamical_ds_check(constant_pair(), rot, 3.0, n_phases=np.int64(3), periods=10)
    assert np.array_equal(rep.omegas, [0.0, 1 / 3, 2 / 3])


@pytest.mark.parametrize(
    "coupling, energy, n_phases",
    [(0.5, 4.0, 12), (1.0, 2.5, 8)],  # all phases certify; some fail
)
def test_dyncheck_reads_the_certified_fields(monkeypatch, coupling, energy, n_phases):
    # the window-centre directions come from each certificate's own field;
    # the report equals the one built from fresh power_directions calls
    rot = RationalRotation(8, 21, omega0=0.15)
    pair = almost_mathieu(coupling)
    calls = []

    def counting_power_directions(*args, **kwargs):
        calls.append(args)
        return power_directions(*args, **kwargs)

    monkeypatch.setattr(certifier, "power_directions", counting_power_directions)
    monkeypatch.setattr(models, "power_directions", counting_power_directions, raising=False)
    rep = dynamical_ds_check(pair, rot, energy, n_phases=n_phases, periods=4)
    monkeypatch.undo()
    assert calls == []

    j_mid = (0 + 4 * 21 - 1) // 2
    dirs = []
    for w, cert in zip(rep.omegas, rep.certs):
        op = realize(pair, rot.with_phase(float(w)), (0, 4 * 21 - 1))
        fresh = certify_operator(op, energy)
        assert fresh.verdict == cert.verdict and fresh.N == cert.N
        if cert.verdict == "failed":
            dirs.append(None)
            continue
        fld = power_directions(cocycle_map(op, energy), cert.burn)
        dirs.append((fld.u[j_mid - fld.j_first], fld.s[j_mid - fld.j_first]))
    jump = 0.0
    for d0, d1 in zip(dirs, dirs[1:] + dirs[:1]):
        if d0 is not None and d1 is not None:
            jump = max(
                jump,
                float(chordal_rows(d0[0], d1[0])),
                float(chordal_rows(d0[1], d1[1])),
            )
    assert rep.max_adjacent_jump == jump
    ns = [c.N for c in rep.certs if c.N is not None]
    assert rep.uniform_N == (max(ns) if ns else None)


# ----------------------------------------------------------- cross checks


def test_realized_am_spectrum_is_symmetric():
    # coupling 0.5 diagonal is cos-sampled; with the orbit symmetric about
    # zero the ring spectrum is symmetric too
    rot = RationalRotation(8, 21, omega0=0.0)
    op = realize(almost_mathieu(0.5), rot, (0, 209))
    sp = spectrum(op, sizes=(105, 210))
    merged = np.asarray(sp.merged)
    assert abs(float(np.max(merged)) + float(np.min(merged))) < 0.2
    assert dist_to_spectrum(sp, 4.0) > 1.0


def test_realize_matches_periodic_operator():
    rot = RationalRotation(1, 3, omega0=0.0)
    pair = almost_mathieu(0.5)
    thetas = [rot.theta_at(n) for n in range(3)]
    cyc_b = [float(pair.b_fn(np.array([t]))[0]) for t in thetas]
    via_pair = realize(pair, rot, (0, 8))
    via_cycle = periodic_operator([1.0, 1.0, 1.0], cyc_b, (0, 8))
    assert np.array_equal(via_pair.b, via_cycle.b)
    assert np.array_equal(via_pair.a, via_cycle.a)
