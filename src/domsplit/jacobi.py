"""Two-sided complex Jacobi operators on finite integer windows.

The operator acts by

    (J psi)(n) = conj(a(n-1)) psi(n-1) + a(n) psi(n+1) + b(n) psi(n)

with complex couplings a and real diagonal b.  A window plus an
extension policy (periodic, constant, or zero) stands in for the full
line.  The module provides the tridiagonal action, energy transfer
cocycles, characteristic polynomials, truncation spectra through an
eigenvalue ladder, resolvent columns with exponential-decay fits, and
band computation for periodic data.

Eigenvalues of Hermitian truncations are computed after a diagonal
phase gauge that replaces each coupling by its modulus; the gauge is
unitary, so the spectrum is untouched and the real symmetric
tridiagonal solver (Sturm bisection) applies.  Whole-period truncations
of periodic operators are closed into rings instead; a ring of r
periods of length q commutes with the shift by one period, so its
spectrum is that of r Hermitian q x q Bloch blocks, whose wrap coupling
carries the phase e^{2 pi i k / r}, solved in one batched call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .mat2 import MatSequence, _abs, _cmul, _max_abs, sweep

REFINE_TOL = 1e-10  # the width floquet_bands bisects band edges to
DELTA_MIN = 1e-4  # the least distance to the spectrum cover, and between u and s

__all__ = [
    "IllConditioned",
    "JacobiOperator",
    "Truncation",
    "SpectrumApprox",
    "GreensData",
    "apply",
    "cocycle_map",
    "char_poly",
    "cocycle_via_charpoly",
    "truncation",
    "spectrum",
    "dist_to_spectrum",
    "greens_column",
    "normalization_identity_check",
    "greens_row_residual",
    "floquet_bands",
    "operator_to_json",
    "operator_from_json",
    "save_operator",
    "load_operator",
]


class IllConditioned(ValueError):
    """Resolvent data requested too close to the spectrum, or with too
    little truncation padding for the requested accuracy."""

    def __init__(self, msg, delta=None):
        self.delta = delta
        super().__init__(msg)


@dataclass
class JacobiOperator:
    """Window of couplings and diagonal entries plus an extension policy.

    zero_tol controls which couplings count as exact zeros when the
    chain is split into decoupled blocks: 0.0 (the default for
    model-built data) means literal zeros, while loaded data uses a
    small multiple of the bound.  With the periodic extension, a given
    period must divide the window length and the window data must repeat
    with it.
    """

    j_lo: int
    a: np.ndarray
    b: np.ndarray
    extension: str = "zero"
    bound: float | None = None
    zero_tol: float = 0.0
    period: int | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or len(a) != len(b) or len(a) < 1:
            raise ValueError("a and b must be 1d arrays of equal positive length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        if self.extension not in ("periodic", "constant", "zero"):
            raise ValueError(f"unknown extension {self.extension!r}")
        if self.extension == "periodic" and self.period is not None:
            # the ring spectrum solves one period per Bloch block
            q = self.period
            if q < 1 or len(a) % q:
                raise ValueError(f"window length {len(a)} is not a multiple of the period {q}")
            if np.any(a.reshape(-1, q) != a[:q]) or np.any(b.reshape(-1, q) != b[:q]):
                raise ValueError(f"window data is not {q}-periodic")
        self.a, self.b = a, b
        top = float(max(np.max(np.abs(a)), np.max(np.abs(b))))
        if self.bound is None:
            # strict upper bound for sup of the data
            self.bound = max(top * (1.0 + 1e-9), 1e-12)
        elif self.bound <= top:
            raise ValueError(f"bound {self.bound} does not dominate the data")

    @property
    def j_hi(self):
        return self.j_lo + len(self.a) - 1

    @property
    def window(self):
        return (self.j_lo, self.j_hi)

    def __len__(self):
        return len(self.a)

    def _indices(self, lo, hi):
        idx = np.arange(lo, hi + 1) - self.j_lo
        n = len(self.a)
        if self.extension == "periodic":
            return idx % n, None
        if self.extension == "constant":
            return np.clip(idx, 0, n - 1), None
        inside = (idx >= 0) & (idx < n)
        return np.clip(idx, 0, n - 1), inside

    def a_range(self, lo, hi):
        """Couplings on [lo, hi] honoring the extension policy."""
        idx, inside = self._indices(lo, hi)
        out = self.a[idx]
        if inside is not None:
            out = np.where(inside, out, 0.0)
        return out

    def b_range(self, lo, hi):
        idx, inside = self._indices(lo, hi)
        out = self.b[idx]
        if inside is not None:
            out = np.where(inside, out, 0.0)
        return out

    def a_at(self, j):
        return complex(self.a_range(j, j)[0])

    def b_at(self, j):
        return float(self.b_range(j, j)[0])

    def is_zero_coupling(self, j):
        return abs(self.a_at(j)) <= self.zero_tol

    def zero_sites(self, lo=None, hi=None):
        """Window sites whose coupling counts as an exact zero."""
        lo = self.j_lo if lo is None else lo
        hi = self.j_hi if hi is None else hi
        av = np.abs(self.a_range(lo, hi))
        return (np.nonzero(av <= self.zero_tol)[0] + lo).tolist()


def apply(op, psi, j):
    """(J psi)(j) for psi given as a mapping or a callable; missing sites read 0."""
    if callable(psi):
        val = psi
    else:
        val = lambda n: psi.get(n, 0.0)
    return (
        np.conj(op.a_at(j - 1)) * val(j - 1)
        + op.a_at(j) * val(j + 1)
        + op.b_at(j) * val(j)
    )


def cocycle_map(op, E):
    """Transfer cocycle at energy E over the operator window.

    The factor at j is [[E - b(j), -conj(a(j-1))], [a(j), 0]]; it moves
    solution data (psi(j), psi(j-1)) to a(j) * (psi(j+1), psi(j)).
    """
    lo, hi = op.window
    aj = op.a_range(lo, hi)
    ajm1 = op.a_range(lo - 1, hi - 1)
    bj = op.b_range(lo, hi)
    n = len(op)
    vals = np.zeros((n, 2, 2), dtype=complex)
    vals[:, 0, 0] = E - bj
    vals[:, 0, 1] = -np.conj(ajm1)
    vals[:, 1, 0] = aj
    return MatSequence(lo, vals)


def _charpoly_pair(op, j, N, E):
    """(p_N at j, p_{N-1} at j+1) for the blocks [j, j+N) and [j+1, j+N).

    One backward recursion over the sites j+N-1 down to j.  E may be an
    array.  N = 0 returns (1, 0).
    """
    E = np.asarray(E, dtype=complex)
    p_prev = np.zeros(E.shape, dtype=complex)  # p_{m-1} convention start
    p = np.ones(E.shape, dtype=complex)
    sub = np.zeros(E.shape, dtype=complex)
    for m in range(1, N + 1):
        site = j + N - m
        b = op.b_at(site)
        a2 = abs(op.a_at(site)) ** 2
        p_new = (E - b) * p - a2 * p_prev
        sub = p
        p, p_prev = p_new, p
    return p, sub


def char_poly(op, j, N, E):
    """det(E - block) for the N-site block starting at j; N = 0 gives 1.

    Satisfies p_N(j) = (E - b(j)) p_{N-1}(j+1) - |a(j)|^2 p_{N-2}(j+2).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    val, _ = _charpoly_pair(op, j, N, E)
    return val if val.shape else complex(val)


def cocycle_via_charpoly(op, j, N, E):
    """Length-N transfer product assembled from characteristic polynomials.

    Agrees with the ordered product of cocycle_map factors.  When the
    block [j, j+N) is pinched by zero couplings at both ends and E is an
    eigenvalue of the enclosed block, the result is the zero matrix.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pN_j, pNm1_j1 = _charpoly_pair(op, j, N, E)
    pNm1_j, pNm2_j1 = _charpoly_pair(op, j, N - 1, E)
    aL = np.conj(op.a_at(j - 1))
    aR = op.a_at(j + N - 1)
    return np.array(
        [
            [pN_j, -aL * pNm1_j1],
            [aR * pNm1_j, -aL * aR * pNm2_j1],
        ],
        dtype=complex,
    )


@dataclass
class Truncation:
    """Hermitian restriction to the sites (j1, j2], i.e. j1+1 .. j2."""

    j_first: int
    diag: np.ndarray
    offdiag: np.ndarray
    zero_tol: float = 0.0

    def __len__(self):
        return len(self.diag)

    def dense(self):
        n = len(self.diag)
        m = np.diag(self.diag.astype(complex))
        for k in range(n - 1):
            m[k, k + 1] = self.offdiag[k]
            m[k + 1, k] = np.conj(self.offdiag[k])
        return m

    def segments(self):
        """Maximal runs of sites not separated by a zero coupling."""
        cuts = np.nonzero(np.abs(self.offdiag) <= self.zero_tol)[0]
        out, start = [], 0
        for c in cuts:
            out.append((start, c + 1))
            start = c + 1
        out.append((start, len(self.diag)))
        return out

    def eigenvalues(self):
        """All eigenvalues, via the modulus gauge and Sturm bisection.

        The chain is split at exact-zero couplings first so each block
        is solved on its own.
        """
        eigs = []
        e_mag = np.abs(self.offdiag)
        for s, t in self.segments():
            if t - s == 1:
                eigs.append(np.array([self.diag[s]]))
            else:
                eigs.append(
                    eigh_tridiagonal(
                        self.diag[s:t],
                        e_mag[s:t - 1],
                        eigvals_only=True,
                        lapack_driver="stebz",
                    )
                )
        return np.sort(np.concatenate(eigs))


def truncation(op, j1, j2):
    """Restriction of op to the sites (j1, j2]."""
    if j2 <= j1:
        raise ValueError("need j2 > j1")
    return Truncation(
        j_first=j1 + 1,
        diag=op.b_range(j1 + 1, j2).astype(float),
        offdiag=op.a_range(j1 + 1, j2 - 1),
        zero_tol=op.zero_tol,
    )


def _hausdorff_1d(x, y):
    """Hausdorff distance of two nonempty sorted 1d point clouds."""

    def sup_dist(p, q):
        pos = np.searchsorted(q, p)
        lo = np.clip(pos - 1, 0, len(q) - 1)
        hi = np.clip(pos, 0, len(q) - 1)
        return float(np.max(np.minimum(np.abs(p - q[lo]), np.abs(p - q[hi]))))

    return max(sup_dist(x, y), sup_dist(y, x))


@dataclass
class SpectrumApprox:
    """Eigenvalue ladder of growing truncations plus a merged interval cover.

    sizes are the truncation sizes used, merged all their eigenvalues in
    one sorted array.  resolution is the measured cross-size instability (Hausdorff
    distance between consecutive ladder clouds); segments join merged
    eigenvalues closer than the merge gap.  Boundary artifacts are not
    filtered, they are visible as cross-size disagreement and inflate
    the resolution.
    """

    sizes: list
    merged: np.ndarray
    segments: list
    resolution: float


def _ring_eigenvalues(op, j1, j2):
    # Whole-period truncation closed into a ring: the wrap bond continues
    # the periodic pattern, so no artificial boundary states appear and
    # translates of the same operator give identical spectra.  The ring
    # is solved as r Bloch blocks of one period each (module docstring).
    q = op.period
    r = (j2 - j1) // q
    b = op.b_range(j1 + 1, j2)
    a = op.a_range(j1 + 1, j2)
    H = np.zeros((r, q, q), dtype=complex)
    idx = np.arange(q)
    H[:, idx, idx] = b[:q]
    H[:, idx[:-1], idx[1:]] = a[: q - 1]
    H[:, idx[1:], idx[:-1]] = np.conj(a[: q - 1])
    wrap = a[q - 1] * np.exp(2j * np.pi * np.arange(r) / r)
    H[:, q - 1, 0] += wrap
    H[:, 0, q - 1] += np.conj(wrap)
    return np.sort(np.linalg.eigvalsh(H).ravel())


def _snap_to_zeros(op, j1, j2):
    # Shrink the cut points onto dead bonds so no retained block is severed;
    # a stub can survive only when a side has no zero to snap to.
    zeros = op.zero_sites()
    if not zeros:
        return j1, j2
    zs = np.asarray(zeros)
    inward_lo = zs[zs >= j1]
    inward_hi = zs[zs <= j2]
    j1s = int(inward_lo[0]) if len(inward_lo) else j1
    j2s = int(inward_hi[-1]) if len(inward_hi) else j2
    if j2s <= j1s:
        return j1, j2
    return j1s, j2s


def spectrum(op, sizes=(200, 400, 800)):
    """Eigenvalue ladder over centered truncations of the given sizes.

    Sizes are clipped to the window and, for periodic operators with a
    known period, rounded to whole periods so truncations of different
    sizes sample the same band structure.  When the window contains
    exact zero couplings the truncation endpoints snap inward to them,
    so the cuts happen across already dead bonds and the blocks stay
    whole.
    """
    n = len(op)
    use = sorted({min(int(s), n) for s in sizes if int(s) >= 1})
    q = op.period if (op.extension == "periodic" and op.period) else None
    if q and q < n:
        snapped = {min(n, max(q, (s // q) * q)) for s in use}
        top = max(snapped)
        while len(snapped) < min(2, n // q) and top + q <= n:
            top += q
            snapped.add(top)
        use = sorted(snapped)
    if not use:
        raise ValueError("no usable truncation sizes")
    per_size = {}
    for s in use:
        start = op.j_lo + (n - s) // 2
        if q and s % q == 0 and s >= 2:
            j1, j2 = start - 1, start - 1 + s
            per_size[s] = _ring_eigenvalues(op, j1, j2)
        else:
            j1, j2 = _snap_to_zeros(op, start - 1, start - 1 + s)
            per_size[s] = truncation(op, j1, j2).eigenvalues()
    merged = np.sort(np.concatenate([per_size[s] for s in use]))
    if len(use) >= 2:
        h = max(
            _hausdorff_1d(per_size[use[k]], per_size[use[k + 1]])
            for k in range(len(use) - 1)
        )
    elif len(merged) >= 2:
        h = 0.5 * float(np.max(np.diff(per_size[use[0]])))
    else:
        h = 0.0
    h = max(h, 1e-12)
    gap = max(4.0 * h, 1e-9)
    # a segment ends where the next eigenvalue lies more than gap above it
    cut = np.flatnonzero(np.diff(merged) > gap)
    los, his = merged[np.r_[0, cut + 1]].tolist(), merged[np.r_[cut, -1]].tolist()
    segments = list(zip(los, his))
    return SpectrumApprox(sizes=use, merged=merged, segments=segments, resolution=h)


def dist_to_spectrum(sp, E):
    """Distance from E (complex scalars or arrays) to the cover of sp."""
    E = np.asarray(E, dtype=complex)
    lo = np.array([s[0] for s in sp.segments])
    hi = np.array([s[1] for s in sp.segments])
    dx = np.maximum(np.maximum(lo - E.real[..., None], E.real[..., None] - hi), 0.0)
    d = np.hypot(dx, E.imag[..., None]).min(axis=-1)
    return float(d) if E.ndim == 0 else d


@dataclass
class GreensData:
    """One resolvent column g = (J - E)^{-1} delta_j on a padded truncation."""

    j: int
    E: complex
    j_first: int
    values: np.ndarray
    gamma_fit: float
    delta: float
    residual: float
    margin: int
    a_left: complex
    a_right: complex
    b_center: float

    def value_at(self, n):
        i = n - self.j_first
        if not 0 <= i < len(self.values):
            raise IndexError(f"site {n} outside solved region")
        return complex(self.values[i])


def _solve_columns(op, E, lo, hi, cols):
    """Solve (J - E) g = delta_col on [lo, hi] for each col: (g, the
    largest modulus of the residual)."""
    nR = hi - lo + 1
    a_up = op.a_range(lo, hi - 1)
    ab = np.zeros((3, nR), dtype=complex)
    ab[0, 1:] = a_up
    ab[1, :] = op.b_range(lo, hi) - E
    ab[2, :-1] = np.conj(a_up)
    ones = np.asarray(cols) - lo  # the row of each column's 1
    rhs = np.zeros((nR, len(cols)), dtype=complex)
    rhs[ones, np.arange(len(cols))] = 1.0
    g = solve_banded((1, 1), ab, rhs)
    # residual of the tridiagonal action, in blocks of 32 columns (rows of
    # g.T, as g comes in Fortran order), whose temporaries stay in cache
    res, gt = [], g.T
    for a in range(0, len(cols), 32):
        s = slice(a, a + 32)
        r = _cmul(ab[1], gt[s])
        r[:, 1:] += _cmul(ab[2, :-1], gt[s, :-1])
        r[:, :-1] += _cmul(ab[0, 1:], gt[s, 1:])
        r[np.arange(len(r)), ones[s]] -= 1.0
        res.append(_max_abs(r))
    return g, float(np.max(res))


def _fit_gamma(dist, logmag):
    if len(np.unique(dist)) < 2:
        return float("nan")
    slope = np.polyfit(dist, logmag, 1)[0]
    return float(-slope)


def greens_column(op, E, j, margin=None, spectrum_approx=None):
    """Resolvent column at site j on the window padded by margin sites.

    The energy must sit at distance >= DELTA_MIN from the spectrum
    cover.  The decay rate gamma_fit comes from a log-linear fit of
    |g| against the distance to j (transient sites closer than 3 and
    values at the noise floor are excluded), capped so that
    (2/delta) * exp(-gamma_fit * |n - j|) bounds every solved value;
    the reported envelope is therefore a certificate.  The column is
    accepted only when the fitted boundary influence exp(-gamma * margin)
    is below 1e-8, or when an exactly zero coupling lies between j and
    each end of the padded solve, which leaves the boundary no influence
    at all; with margin=None the padding grows automatically until one
    of these holds.
    """
    sp = spectrum_approx if spectrum_approx is not None else spectrum(op)
    delta = dist_to_spectrum(sp, E)
    if delta < DELTA_MIN:
        raise IllConditioned(
            f"energy within {delta:.3e} of the spectrum cover", delta=delta
        )
    adaptive = margin is None
    m = 64 if adaptive else int(margin)
    if m < 1:
        raise ValueError("margin must be >= 1")
    if not op.j_lo <= j <= op.j_hi:
        raise ValueError(f"column {j} outside window {op.window}")
    for _ in range(4):
        lo, hi = op.j_lo - m, op.j_hi + m
        g, res = _solve_columns(op, E, lo, hi, [j])
        g = g[:, 0]
        ag = _abs(g)
        gmax = float(np.max(ag))
        if not res < 1e-10 * max(gmax, 1e-300):
            raise IllConditioned(
                f"banded solve residual {res:.3e} too large", delta=delta
            )
        dist = np.abs(np.arange(lo, hi + 1) - j)
        keep = ag >= 1e-13 * gmax
        far = keep & (dist >= 3)
        fit = far if np.count_nonzero(far) >= 4 else keep & (dist >= 1)
        gamma = _fit_gamma(dist[fit], np.log(ag[fit]))
        # cap the rate so (2/delta) * exp(-gamma * dist) dominates every
        # solved value, making the reported envelope a certificate rather
        # than a regression line
        signal = (dist >= 1) & (ag > 0.0)
        if np.isfinite(gamma) and np.any(signal):
            cap = float(np.min(
                (math.log(2.0 / delta) - np.log(ag[signal])) / dist[signal]
            ))
            gamma = min(gamma, cap)
        # an exactly zero coupling between j and each end of the solve
        # cuts the boundary off: the padded column is then exact
        cut = np.any(op.a_range(lo - 1, j - 1) == 0.0) and np.any(
            op.a_range(j, hi) == 0.0
        )
        ok = np.isfinite(gamma) and gamma > 0 and (
            cut or math.exp(-gamma * m) < 1e-8
        )
        if ok or not adaptive:
            break
        if np.isfinite(gamma) and gamma > 0:
            m = int(math.ceil(18.5 / gamma)) + 16
        else:
            m *= 4
    if not ok:
        raise IllConditioned(
            f"boundary influence not resolved below 1e-8 at margin {m} "
            f"(gamma_fit {gamma:.3e})",
            delta=delta,
        )
    return GreensData(
        j=j,
        E=complex(E),
        j_first=lo,
        values=g,
        gamma_fit=float(gamma),
        delta=float(delta),
        residual=res,
        margin=m,
        a_left=op.a_at(j - 1),
        a_right=op.a_at(j),
        b_center=op.b_at(j),
    )


def normalization_identity_check(g):
    """Residual of the defining row at the column site.

    |conj(a(j-1)) g(j-1) + a(j) g(j+1) + (b(j) - E) g(j) - 1|.
    """
    j = g.j
    lhs = (
        np.conj(g.a_left) * g.value_at(j - 1)
        + g.a_right * g.value_at(j + 1)
        + (g.b_center - g.E) * g.value_at(j)
    )
    return abs(lhs - 1.0)


def greens_row_residual(op, E, j):
    """Residual of the transposed identity at site j, from three columns.

    |conj(a(j)) g_{j+1}(j) + a(j-1) g_{j-1}(j) + (b(j) - E) g_j(j) - 1|,
    the columns padded automatically and sharing one spectrum cover.
    """
    sp = spectrum(op)
    cols = {c: greens_column(op, E, c, spectrum_approx=sp) for c in (j - 1, j, j + 1)}
    lhs = (
        np.conj(op.a_at(j)) * cols[j + 1].value_at(j)
        + op.a_at(j - 1) * cols[j - 1].value_at(j)
        + (op.b_at(j) - E) * cols[j].value_at(j)
    )
    return abs(lhs - 1.0)


def floquet_bands(op):
    """Spectral bands of the periodic extension, via the discriminant.

    Requires a periodic operator (op.period) with nonvanishing couplings
    over one period.  The discriminant is the trace of the one-period
    transfer product in the modulus gauge; bands are the energies where
    its magnitude is at most 2.  Band edges are located on a grid of
    max(4001, 16 * period + 1) energies and refined by bisection to
    REFINE_TOL.
    """
    q = op.period
    if not q or q < 1:
        raise ValueError("period required")
    alpha = np.abs(op.a_range(op.j_lo, op.j_lo + q - 1))
    if np.any(alpha <= max(op.zero_tol, 0.0)):
        raise ValueError("zero coupling inside the period; no transfer bands")
    beta = op.b_range(op.j_lo, op.j_lo + q - 1)
    alpha_prev = np.roll(alpha, 1)  # coupling entering site k, periodic wrap

    def log_disc(E):
        E = np.atleast_1d(np.asarray(E, dtype=float))

        def step(k):  # a plane-major factor stack, as mat2's kernel reads it
            F = np.zeros((2, 2, len(E)))
            F[0, 0] = (E - beta[k]) / alpha[k]
            F[0, 1] = -alpha_prev[k] / alpha[k]
            F[1, 0] = 1.0
            return F.transpose(2, 0, 1)

        P = np.tile(np.eye(2), (len(E), 1, 1))
        P, e = sweep(P, map(step, range(q)))
        tr = P[:, 0, 0] + P[:, 1, 1]
        mag = np.where(np.abs(tr) > 0, np.abs(tr), 1e-300)
        return np.log(mag) + e * math.log(2.0)  # log |discriminant|

    G = float(np.max(np.abs(beta)) + 2.0 * np.max(alpha)) + 0.1
    Es = np.linspace(-G, G, max(4001, 16 * q + 1))
    inside = log_disc(Es) <= math.log(2.0)
    # locate edges between neighboring grid points, then bisect them all
    flips = np.nonzero(inside[:-1] != inside[1:])[0]
    lo_arr, hi_arr = Es[flips].copy(), Es[flips + 1].copy()
    lo_in = inside[flips]
    while np.any(hi_arr - lo_arr > REFINE_TOL):
        mid = 0.5 * (lo_arr + hi_arr)
        mid_in = log_disc(mid) <= math.log(2.0)
        take_lo = mid_in == lo_in
        lo_arr = np.where(take_lo, mid, lo_arr)
        hi_arr = np.where(take_lo, hi_arr, mid)
    edges = 0.5 * (lo_arr + hi_arr)
    # assemble [lo, hi] runs from the inside mask and refined edges
    bands = []
    open_lo = Es[0] if inside[0] else None
    for f, e in zip(flips, edges):
        if inside[f]:  # leaving a band
            bands.append((open_lo if open_lo is not None else Es[f], float(e)))
            open_lo = None
        else:  # entering a band
            open_lo = float(e)
    if open_lo is not None:
        bands.append((open_lo, float(Es[-1])))
    return bands


def operator_to_json(op):
    """JSON-ready dict; couplings as [re, im] pairs, floats exact."""
    d = {
        "window": [int(op.j_lo), int(op.j_hi)],
        "a": [[float(z.real), float(z.imag)] for z in op.a],
        "b": [float(x) for x in op.b],
        "extension": op.extension,
    }
    if op.period is not None:
        d["period"] = int(op.period)
    return d


def operator_from_json(d):
    """Inverse of operator_to_json.

    Data coming through this path counts as loaded, so zero detection
    uses the tolerance 1e-13 times the bound instead of exact zeros.
    """
    j_lo, j_hi = int(d["window"][0]), int(d["window"][1])
    a = np.array([complex(re, im) for re, im in d["a"]])
    b = np.array([float(x) for x in d["b"]])
    if len(a) != j_hi - j_lo + 1:
        raise ValueError("window length does not match coefficient arrays")
    period = d.get("period")
    op = JacobiOperator(j_lo=j_lo, a=a, b=b, extension=d["extension"],
                        period=None if period is None else int(period))
    op.zero_tol = 1e-13 * op.bound
    return op


def save_operator(op, path):
    with open(path, "w") as f:
        json.dump(operator_to_json(op), f, indent=1)
        f.write("\n")


def load_operator(path):
    with open(path) as f:
        return operator_from_json(json.load(f))
