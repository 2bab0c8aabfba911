"""Operator families sampled along circle rotations.

A sampling pair maps an angle to one coupling and one diagonal value;
composing it with a rational rotation orbit produces periodic Jacobi
operators whose phase can be swept.  The checks in this module ask
dynamical questions: do spectra stay inside the base phase's spectrum
under phase changes, and do splitting certificates hold uniformly over
the phase grid at a fixed energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certifier import certify_many
from .jacobi import JacobiOperator, cocycle_map, dist_to_spectrum, spectrum
from .mat2 import _count
from .sphere import chordal_rows

__all__ = [
    "RationalRotation",
    "SamplingPair",
    "FAMILIES",
    "almost_mathieu",
    "constant_pair",
    "cosine_coupling",
    "make_family",
    "realize",
    "periodic_operator",
    "pair_lipschitz",
    "InclusionReport",
    "orbit_spectrum_inclusion",
    "DynCheckReport",
    "dynamical_ds_check",
]


@dataclass(frozen=True)
class RationalRotation:
    """Rotation of the circle by p/q, started at omega0.

    Orbit angles are computed with integer arithmetic mod q before the
    final division, so the sampled sequence is exactly q-periodic.
    """

    p: int
    q: int
    omega0: float = 0.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        object.__setattr__(self, "omega0", float(self.omega0) % 1.0)

    def theta_at(self, n):
        k = (int(n) * self.p) % self.q
        return (self.omega0 + k / self.q) % 1.0

    def thetas(self, lo, hi):
        n = np.arange(int(lo), int(hi) + 1, dtype=np.int64)
        k = (n * self.p) % self.q
        return (self.omega0 + k / self.q) % 1.0

    def with_phase(self, omega0):
        return replace(self, omega0=omega0)


@dataclass(frozen=True)
class SamplingPair:
    """Angle-to-coefficients map: a_fn gives couplings, b_fn diagonals."""

    name: str
    a_fn: object
    b_fn: object


def almost_mathieu(coupling=0.5):
    """Constant coupling 1 with diagonal 2*coupling*cos(2 pi theta)."""
    lam = float(coupling)
    return SamplingPair(
        "almost_mathieu",
        lambda t: np.ones_like(t, dtype=complex),
        lambda t: 2.0 * lam * np.cos(2.0 * np.pi * t),
    )


def constant_pair(a=1.0, b=0.0):
    """Angle-independent coefficients; realizes the free chain by default."""
    av, bv = complex(a), float(b)
    return SamplingPair(
        "constant",
        lambda t: np.full(t.shape, av, dtype=complex),
        lambda t: np.full(t.shape, bv),
    )


def cosine_coupling(mu=0.5, base=1.0, b=0.0):
    """Coupling base + mu*cos(2 pi theta), flat diagonal."""
    m, c, bv = float(mu), float(base), float(b)
    return SamplingPair(
        "cosine_coupling",
        lambda t: (c + m * np.cos(2.0 * np.pi * t)).astype(complex),
        lambda t: np.full(t.shape, bv),
    )


FAMILIES = {
    "almost_mathieu": almost_mathieu,
    "constant": constant_pair,
    "cosine_coupling": cosine_coupling,
}


def make_family(name, **params):
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; have {sorted(FAMILIES)}")
    return FAMILIES[name](**params)


def realize(pair, rotation, window):
    """Sample the pair along the rotation orbit over the window.

    The window length must be a whole number of periods so the periodic
    extension continues the orbit with the right phase.  Couplings
    within 1e-14 of zero (relative to the largest) snap to exact zeros,
    which downstream code treats as structural decouplings.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi < lo:
        raise ValueError("empty window")
    t = rotation.thetas(lo, hi)
    a = np.asarray(pair.a_fn(t), dtype=complex)
    b = np.asarray(pair.b_fn(t), dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))))
    a = np.where(np.abs(a) < 1e-14 * scale, 0.0, a)
    return JacobiOperator(
        j_lo=lo, a=a, b=b, extension="periodic", period=rotation.q
    )


def periodic_operator(a_cycle, b_cycle, window):
    """Tile explicit coefficient cycles over a window, phase-locked to n=0.

    The value at site n is cycle[n mod q]; the window length must be a
    multiple of the cycle length.
    """
    a_cycle = np.asarray(a_cycle, dtype=complex)
    b_cycle = np.asarray(b_cycle, dtype=float)
    q = len(a_cycle)
    if len(b_cycle) != q or q < 1:
        raise ValueError("cycles must share a positive length")
    lo, hi = int(window[0]), int(window[1])
    idx = np.arange(lo, hi + 1) % q
    return JacobiOperator(
        j_lo=lo,
        a=a_cycle[idx],
        b=b_cycle[idx],
        extension="periodic",
        period=q,
    )


def pair_lipschitz(pair):
    """Sampled rate bound: how fast the operator moves per unit of angle.

    A coefficient change of (da, db) moves the operator norm by at most
    2*|da| + |db|, so the returned constant times an angle distance
    bounds the spectral displacement.  The coefficients are sampled at
    4096 equal steps of the circle.
    """
    t = np.linspace(0.0, 1.0, 4097)
    a = np.asarray(pair.a_fn(t), dtype=complex)
    b = np.asarray(pair.b_fn(t), dtype=float)
    h = 1.0 / 4096
    la = float(np.max(np.abs(np.diff(a)))) / h
    lb = float(np.max(np.abs(np.diff(b)))) / h
    return 2.0 * la + lb


@dataclass
class InclusionReport:
    """Whether one phase's spectrum sits inside the base phase's cover.

    inconclusive means no orbit point landed close enough to the target
    phase for the continuity argument to apply; the excess is still
    measured and reported but ok stays False.
    """

    eps: float
    omega: float
    omega0: float
    m: int
    orbit_dist: float
    delta: float
    lipschitz: float
    worst_excess: float
    included: bool
    inconclusive: bool

    @property
    def ok(self):
        return self.included and not self.inconclusive


def orbit_spectrum_inclusion(
    pair, rotation, omega, eps, m_max=None, window=None, sizes=(200, 400, 800)
):
    """Test spectral inclusion of the phase-omega operator in the base cover.

    Finds the orbit point of the base phase nearest to omega within
    m_max steps; if that point is within delta = eps / (2 * rate) the
    orbit spectra transplant to omega up to eps/2 and the check is
    conclusive.  Then every truncation eigenvalue of the phase-omega
    operator must lie within eps of the base spectrum cover.
    """
    q = rotation.q
    if m_max is None:
        m_max = q
    if window is None:
        reps = max(1, -(-400 // q))
        window = (0, reps * q - 1)
    base = realize(pair, rotation, window)
    sp0 = spectrum(base, sizes=sizes)
    rate = pair_lipschitz(pair)
    delta = 0.5 * float(eps) / max(rate, 1e-300)
    ms = np.arange(0, int(m_max) + 1, dtype=np.int64)
    pts = (rotation.omega0 + ((ms * rotation.p) % q) / q) % 1.0
    gaps = np.abs(pts - (float(omega) % 1.0))
    gaps = np.minimum(gaps, 1.0 - gaps)
    best = int(np.argmin(gaps))
    orbit_dist = float(gaps[best])
    inconclusive = orbit_dist > delta
    op = realize(pair, rotation.with_phase(omega), window)
    sp = spectrum(op, sizes=sizes)
    worst = max(
        float(np.max(dist_to_spectrum(sp0, sp.merged))),
        float(np.max(dist_to_spectrum(sp, sp0.merged))),
    )
    return InclusionReport(
        eps=float(eps),
        omega=float(omega) % 1.0,
        omega0=rotation.omega0,
        m=best,
        orbit_dist=orbit_dist,
        delta=delta,
        lipschitz=rate,
        worst_excess=worst,
        included=worst <= float(eps),
        inconclusive=inconclusive,
    )


@dataclass
class DynCheckReport:
    """Certificates at one energy across a phase grid, with uniform bounds."""

    energy: complex
    omegas: np.ndarray
    certs: list
    all_ok: bool
    uniform_N: int | None
    min_margin: float
    min_delta_sep: float
    max_adjacent_jump: float
    grid_step: float

    def continuity_ok(self):
        """The direction fields should move no faster than the grid: at
        most 10 grid steps between neighboring phases."""
        return self.max_adjacent_jump <= 10.0 * self.grid_step


def dynamical_ds_check(pair, rotation, energy, omega_grid=None, n_phases=24, periods=2):
    """Certify one energy for every phase on a grid around the circle.

    Each phase's window is (0, periods * q - 1), q the rotation's
    period, and the windows are certified as one certify_many batch,
    each choosing its own burn-in.  Reports whether every phase
    certifies, the largest block length needed (a uniform N over the
    grid), the worst margins, and a sampled continuity modulus: the
    largest chordal motion of the stable or unstable direction at the
    window center between neighboring phases, wrapping around.  An
    empty phase grid raises ValueError: no phase would make every check
    vacuously pass, and so does an n_phases that is not an integer.
    """
    window = (0, periods * rotation.q - 1)
    if omega_grid is None:
        n_phases = _count("n_phases", n_phases)
        omegas = np.sort((rotation.omega0 + np.arange(n_phases) / n_phases) % 1.0)
    else:
        omegas = np.sort(np.asarray(omega_grid, dtype=float) % 1.0)
    if not len(omegas):
        raise ValueError("the phase grid is empty")
    steps = np.diff(np.concatenate([omegas, omegas[:1] + 1.0]))
    dirs = []
    j_mid = window[1] // 2
    ops = [realize(pair, rotation.with_phase(float(w)), window) for w in omegas]
    certs = certify_many([cocycle_map(op, energy) for op in ops])
    for cert in certs:
        cert.notes["energy"] = complex(energy)
        if cert.burn is not None and cert.verdict != "failed":
            fld = cert.core_field
            i = j_mid - fld.j_first
            dirs.append((fld.u[i], fld.s[i]))
        else:
            dirs.append(None)
    all_ok = all(c.verdict != "failed" for c in certs)
    ns = [c.N for c in certs if c.N is not None]
    seps = [c.delta_sep for c in certs if c.delta_sep is not None]
    margins = [
        c.domination_margin for c in certs if c.domination_margin is not None
    ]
    jump = 0.0
    n = len(omegas)
    for i in range(n):
        d0, d1 = dirs[i], dirs[(i + 1) % n]
        if d0 is None or d1 is None or (n == 1):
            continue
        jump = max(
            jump,
            float(chordal_rows(d0[0], d1[0])),
            float(chordal_rows(d0[1], d1[1])),
        )
    return DynCheckReport(
        energy=complex(energy),
        omegas=omegas,
        certs=certs,
        all_ok=all_ok,
        uniform_N=max(ns) if ns else None,
        min_margin=float(min(margins)) if margins else math.nan,
        min_delta_sep=float(min(seps)) if seps else math.nan,
        max_adjacent_jump=jump,
        grid_step=float(np.max(steps)) if n else 0.0,
    )
