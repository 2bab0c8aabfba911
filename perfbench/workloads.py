"""Inputs, operations and independent output checks of the three workloads.

Every operation is one call into the public domsplit API, made through
the module attribute (``harness.johnson_scan``, not a saved reference),
so that the traced run's wrappers see it.  Inputs are drawn from the
workload seed with numpy before the program sees them.  The checks
recompute what they need with numpy (closed forms, Bloch matrices,
dense solves, transfer matrices built from the generated coefficients)
instead of comparing with a saved copy of earlier output.

A round is the fixed list of operations a workload repeats; every run
attempts whole rounds, so the share of failed operations does not depend
on the run length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from domsplit import certifier, harness, jacobi, mat2, models

# Energies this far from every band edge have a settled verdict: clear
# of the bands they must certify, inside a band they must fail.
CLEAR = 0.1
AM_COUPLING = 0.5
AM_P, AM_Q = 8, 21
SCAN_WINDOW = (-315, 314)  # 630 sites, 30 periods of the approximant
# Sizes johnson_scan and greens_column use for their spectrum cover by
# default, as the CLI calls them.
COVER_SIZES = (200, 400, 800)


class SetupError(RuntimeError):
    """Generated inputs the program cannot serve (e.g. a window that does
    not certify); the run stops before measuring anything."""


@dataclass
class Call:
    """One operation of a round: `units` of work done by `fn()`."""

    units: int
    fn: Callable


def free_chain_coeffs(n=600):
    return -(n // 2), np.ones(n, dtype=complex), np.zeros(n)


def random_jacobi_coeffs(rng, n):
    """Complex couplings of modulus in [0.5, 1.5) and diagonal in [-1, 1)."""
    a = (0.5 + rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    b = rng.uniform(-1.0, 1.0, n)
    return -(n // 2), a, b


def operator(coeffs):
    j_lo, a, b = coeffs
    return jacobi.JacobiOperator(j_lo=j_lo, a=a.copy(), b=b.copy())


def approximant(omega0, window):
    return models.realize(
        models.almost_mathieu(AM_COUPLING),
        models.RationalRotation(AM_P, AM_Q, omega0),
        window,
    )


def generic_factors(rng, n):
    """n full complex 2x2 factors with an exactly invariant splitting.

    M_j = F_{j+1} diag(l_j, m_j) F_j^{-1}, where the frame F_j has unit
    columns u_j, s_j with |det F_j| >= 1/3, |l_j| in [2.5, 3.5] and
    |m_j| in [0.25, 0.5], so u expands over s by at least 5 per step.
    """

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = unit(cplx(n + 1, 2))
    perp = np.stack([-np.conj(u[:, 1]), np.conj(u[:, 0])], axis=-1)
    s = unit(perp + 0.5 * unit(cplx(n + 1, 2)))
    F = np.stack([u, s], axis=-1)
    lam = rng.uniform(2.5, 3.5, n) * np.exp(2j * np.pi * rng.random(n))
    mu = rng.uniform(0.25, 0.5, n) * np.exp(2j * np.pi * rng.random(n))
    D = np.zeros((n, 2, 2), dtype=complex)
    D[:, 0, 0], D[:, 1, 1] = lam, mu
    return F[1:] @ D @ np.linalg.inv(F[:-1])


def bloch_bands(b_period, n_phi=65):
    """Band set of the period-q chain with unit couplings and diagonal
    b_period, from dense eigenvalues of its q x q Bloch matrices.

    Band edges of a periodic Jacobi operator sit at Bloch phase 0 or pi,
    both on the grid."""
    q = len(b_period)
    idx = np.arange(q - 1)
    eigs = []
    for phi in np.linspace(0.0, np.pi, n_phi):
        H = np.diag(np.asarray(b_period, dtype=complex))
        H[idx, idx + 1] = 1.0
        H[idx + 1, idx] = 1.0
        H[q - 1, 0] += np.exp(1j * phi)
        H[0, q - 1] += np.exp(-1j * phi)
        eigs.append(np.linalg.eigvalsh(H))
    eigs = np.array(eigs)
    return list(zip(eigs.min(axis=0), eigs.max(axis=0)))


def approximant_diagonal(omega0, j_lo):
    """One period of 2*coupling*cos(2 pi theta_n) along the 8/21 orbit."""
    n = np.arange(j_lo, j_lo + AM_Q)
    theta = (omega0 + ((n * AM_P) % AM_Q) / AM_Q) % 1.0
    return 2.0 * AM_COUPLING * np.cos(2.0 * np.pi * theta)


def band_position(E, bands):
    """(inside a band, distance to the band set, distance to the nearest edge)."""
    inside = any(lo <= E <= hi for lo, hi in bands)
    dist = min(max(lo - E, E - hi, 0.0) for lo, hi in bands)
    edge = min(min(abs(E - lo), abs(E - hi)) for lo, hi in bands)
    return inside, dist, edge


def chordal(v, w):
    """Chordal distance between paired rows of two (n, 2) stacks."""
    det = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
    return 2.0 * np.abs(det) / (np.linalg.norm(v, axis=1) * np.linalg.norm(w, axis=1))


def dense_column(coeffs, E, lo, hi, j):
    """(J - E)^{-1} delta_j on the sites lo..hi by a dense solve, with the
    coefficients extended by zero outside the window."""
    j_lo, a, b = coeffs
    sites = np.arange(lo, hi + 1)
    inside = (sites >= j_lo) & (sites < j_lo + len(a))
    k = np.clip(sites - j_lo, 0, len(a) - 1)
    bb = np.where(inside, b[k], 0.0)
    aa = np.where(inside, a[k], 0.0)[:-1]  # coupling between n and n+1
    H = np.diag(bb.astype(complex) - E)
    i = np.arange(len(sites) - 1)
    H[i, i + 1] = aa
    H[i + 1, i] = np.conj(aa)
    rhs = np.zeros(len(sites), dtype=complex)
    rhs[j - lo] = 1.0
    return np.linalg.solve(H, rhs)


def transfer_matrices(coeffs, E):
    """Factors [[E - b(j), -conj(a(j-1))], [a(j), 0]] over the window."""
    _, a, b = coeffs
    T = np.zeros((len(a), 2, 2), dtype=complex)
    T[:, 0, 0] = E - b
    T[1:, 0, 1] = -np.conj(a[:-1])
    T[:, 1, 0] = a
    return T


def gershgorin_top(coeffs):
    _, a, b = coeffs
    left = np.concatenate([[0.0], np.abs(a[:-1])])
    return float(np.max(b + left + np.abs(a)))


class Workload:
    name = ""
    unit = ""

    def build(self):
        """Turn the generated inputs into program objects."""

    def warm_up(self):
        """One untimed pass over every code path the round takes."""

    def round_calls(self, serial=False):
        raise NotImplementedError

    def check(self, call_index, out):
        """Mismatch messages for the output of round_calls()[call_index]."""
        raise NotImplementedError

    def fingerprint(self, out):
        """Exact, comparable form of an output: equal iff bitwise equal."""
        raise NotImplementedError


class Scan(Workload):
    """johnson_scan over the free chain and the 8/21 approximant, alternating."""

    name, unit = "scan", "energy"
    jobs = 2

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.omega0 = float(rng.random())
        self.free_coeffs = free_chain_coeffs(600)

    def build(self):
        free = operator(self.free_coeffs)
        approx = approximant(self.omega0, SCAN_WINDOW)
        top = max(2.0 * math.cos(math.pi / (min(s, 600) + 1)) for s in COVER_SIZES)
        self.cases = [
            ("free_chain", free, np.linspace(-4.0, 4.0, 41), [(-2.0, 2.0)], top),
            (
                "approximant",
                approx,
                np.linspace(-3.5, 3.5, 41),
                bloch_bands(approximant_diagonal(self.omega0, SCAN_WINDOW[0])),
                None,
            ),
        ]

    def warm_up(self):
        for _, op, grid, _, _ in self.cases:
            harness.johnson_scan(op, grid[::20], jobs=self.jobs)

    def round_calls(self, serial=False):
        jobs = 1 if serial else self.jobs
        return [
            Call(len(grid), lambda op=op, grid=grid: harness.johnson_scan(op, grid, jobs=jobs))
            for _, op, grid, _, _ in self.cases
        ]

    def check(self, call_index, rep):
        label, _, grid, bands, top = self.cases[call_index]
        errs = []
        if len(rep.rows) != len(grid):
            return [f"{label}: {len(rep.rows)} rows for {len(grid)} energies"]
        if rep.hard_disagreements:
            errs.append(f"{label}: {len(rep.hard_disagreements)} hard disagreements")
        for row, E in zip(rep.rows, grid):
            if row["E_re"] != E or row["E_im"] != 0.0:
                errs.append(f"{label}: row for E={row['E_re']} where {E} was asked")
                continue
            inside, dist, edge = band_position(E, bands)
            certified = row["ds_status"] in ("verified", "marginal")
            if not inside and dist > CLEAR and not certified:
                errs.append(f"{label}: E={E:+.4f}, {dist:.3f} clear of the bands, {row['ds_status']}")
            if inside and edge > CLEAR and certified:
                errs.append(f"{label}: E={E:+.4f}, {edge:.3f} inside a band, certified")
            if top is not None:
                # free chain: the cover is the hull of 2cos(k pi/(n+1))
                want = max(abs(E) - top, 0.0)
            elif dist > CLEAR or (inside and edge > CLEAR):
                want = dist
            else:
                continue
            if abs(row["delta_spec"] - want) > 1e-9:
                errs.append(f"{label}: E={E:+.4f} delta_spec {row['delta_spec']!r}, expected {want!r}")
        return errs

    def fingerprint(self, rep):
        return json.dumps(rep.to_json(), sort_keys=True)


class Perturb(Workload):
    """perturbation_experiment at 0.9 epsilon over six certified windows."""

    name, unit = "perturb", "trial"
    trials = 20

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.omega0 = float(rng.random())
        self.random_coeffs = random_jacobi_coeffs(rng, 150)
        self.random_E = complex(rng.uniform(-1.0, 1.0), 1.0)
        self.generic = generic_factors(rng, 120)
        self.trial_seeds = [int(s) for s in rng.integers(0, 2**31, size=6)]

    def build(self):
        two_site = models.periodic_operator([1.0, 1.0], [0.0, 1.5], (-150, 149))
        block = models.periodic_operator(
            [0.0, 1.0, 1.0, 1.0, 1.0], [0.3, -0.2, 0.5, 0.0, 0.1], (-200, 199)
        )
        cases = [
            ("two_site E=3.5", two_site, 3.5),
            ("two_site E=-2.0", two_site, -2.0),
            ("block E=2.6", block, 2.6),
            ("approximant E=4.0", approximant(self.omega0, SCAN_WINDOW), 4.0),
            (f"random150 E={self.random_E:.3f}", operator(self.random_coeffs), self.random_E),
        ]
        windows = []
        for label, op, E in cases:
            windows.append((label, jacobi.cocycle_map(op, E), certifier.certify_operator(op, E)))
        seq = mat2.MatSequence(-60, self.generic)
        windows.append(("generic120", seq, certifier.certify(seq)))
        self.windows = []
        self.certificates = [json.dumps(cert.to_json(), sort_keys=True) for _, _, cert in windows]
        for (label, seq, cert), seed in zip(windows, self.trial_seeds):
            if cert.verdict == "failed" or not cert.epsilon:
                raise SetupError(f"{label}: base window does not certify ({cert.summary_line()})")
            self.windows.append((label, seq, 0.9 * cert.epsilon, seed))

    def warm_up(self):
        _, seq, size, seed = self.windows[0]
        harness.perturbation_experiment(seq, size, trials=2, seed=seed)

    def round_calls(self, serial=False):
        return [
            Call(
                self.trials,
                lambda seq=seq, size=size, seed=seed: harness.perturbation_experiment(
                    seq, size, trials=self.trials, seed=seed
                ),
            )
            for _, seq, size, seed in self.windows
        ]

    def check(self, call_index, rep):
        label, seq, size, seed = self.windows[call_index]
        errs = []
        if rep.trials != self.trials or rep.n_ok != self.trials or rep.failed_trials:
            errs.append(f"{label}: {rep.n_ok}/{rep.trials} trials recertified, lost {rep.failed_trials}")
        for t in range(self.trials):
            pert = harness.perturb_sequence(seq, size, harness.trial_rng(seed, t))
            norms = np.linalg.norm(pert.values - seq.values, ord=2, axis=(1, 2))
            worst = float(np.max(np.abs(norms - size)))
            if worst > 1e-12 + 1e-9 * size:
                errs.append(f"{label}: trial {t} bump norm off the size {size:.3e} by {worst:.2e}")
        return errs

    def fingerprint(self, rep):
        return json.dumps(rep.to_json(), sort_keys=True)


class Resolvent(Workload):
    """greens_column without a precomputed cover, plus greens_directions."""

    name, unit = "resolvent", "call"
    sizes = (150, 400, 800)

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.coeffs = [random_jacobi_coeffs(rng, n) for n in self.sizes]
        self.coeffs.append(free_chain_coeffs(600))
        self.columns = []  # (operator index, E, j)
        self.fields = []  # (operator index, E)
        for k, (j_lo, a, _) in enumerate(self.coeffs):
            off_axis = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 0.8))
            in_gap = complex(gershgorin_top(self.coeffs[k]) + 0.2 + rng.uniform(0.0, 0.5), 0.0)
            for E in (off_axis, in_gap):
                for j in rng.integers(j_lo, j_lo + len(a), size=2):
                    self.columns.append((k, E, int(j)))
            if k in (0, len(self.coeffs) - 1):
                self.fields.append((k, off_axis))

    def build(self):
        self.ops = [operator(c) for c in self.coeffs]

    def warm_up(self):
        k, E, j = self.columns[0]
        jacobi.greens_column(self.ops[k], E, j)
        k, E = self.fields[0]
        certifier.greens_directions(self.ops[k], E)

    def round_calls(self, serial=False):
        calls = [
            Call(1, lambda k=k, E=E, j=j: jacobi.greens_column(self.ops[k], E, j))
            for k, E, j in self.columns
        ]
        calls += [
            Call(1, lambda k=k, E=E: certifier.greens_directions(self.ops[k], E))
            for k, E in self.fields
        ]
        return calls

    def _delta_floor(self, k, E):
        # the cover lies on the real axis below the Gershgorin bound
        return max(abs(E.imag), E.real - gershgorin_top(self.coeffs[k]))

    def check(self, call_index, out):
        if call_index < len(self.columns):
            return self._check_column(*self.columns[call_index], out)
        return self._check_fields(*self.fields[call_index - len(self.columns)], out)

    def _check_column(self, k, E, j, g):
        label = f"column n={len(self.coeffs[k][1])} E={E:.3f} j={j}"
        errs = []
        if g.j != j or g.E != E:
            return [f"{label}: answered for j={g.j}, E={g.E}"]
        if not g.delta >= self._delta_floor(k, E) - 1e-12:
            errs.append(f"{label}: delta {g.delta} below the distance to the real axis/Gershgorin bound")
        lo, hi = g.j_first, g.j_first + len(g.values) - 1
        ref = dense_column(self.coeffs[k], E, lo, hi, j)
        err = float(np.max(np.abs(ref - g.values)))
        if not err <= 1e-10 * float(np.max(np.abs(ref))):
            errs.append(f"{label}: differs from the dense solve by {err:.2e}")
        if not g.gamma_fit > 0.0:
            errs.append(f"{label}: decay rate {g.gamma_fit}")
        env = (2.0 / g.delta) * np.exp(-g.gamma_fit * np.abs(np.arange(lo, hi + 1) - j))
        excess = float(np.max(np.abs(g.values) - env))
        if not excess <= 1e-12:
            errs.append(f"{label}: a solved value exceeds the envelope by {excess:.2e}")
        return errs

    def _check_fields(self, k, E, fld):
        label = f"fields n={len(self.coeffs[k][1])} E={E:.3f}"
        n = len(self.coeffs[k][1])
        if fld.j_first != self.coeffs[k][0] or len(fld) != n:
            return [f"{label}: fields over {fld.j_first}+{len(fld)} sites"]
        T = transfer_matrices(self.coeffs[k], E)[:-1]
        scale = np.linalg.norm(T, axis=(1, 2))
        errs = []
        for side, V in (("u", fld.u), ("s", fld.s)):
            W = np.einsum("nij,nj->ni", T, V[:-1])
            # a factor that annihilates s (the first site, where the zero
            # extension cuts the chain) leaves nothing to compare
            dead = np.linalg.norm(W, axis=1) <= 1e-14 * scale
            if side == "u" and np.any(dead):
                errs.append(f"{label}: a factor annihilates the u field")
                continue
            res = float(np.max(chordal(W[~dead], V[1:][~dead])))
            if not res <= 1e-6:
                errs.append(f"{label}: {side} field not invariant, residual {res:.2e}")
        sep = float(np.min(chordal(fld.u, fld.s)))
        if not sep > 1e-4:
            errs.append(f"{label}: fields separated by only {sep:.2e}")
        return errs

    def fingerprint(self, out):
        if isinstance(out, jacobi.GreensData):
            return (out.j_first, out.values.tobytes(), out.gamma_fit, out.delta, out.margin)
        return (out.j_first, out.u.tobytes(), out.s.tobytes())


WORKLOADS = {w.name: w for w in (Scan, Perturb, Resolvent)}
