"""Dominated splitting certificates for finite windows of 2x2 cocycles.

A certificate rests on four checks against a candidate pair of
direction fields u (expanding) and s (contracting):

  1. invariance    each factor carries u(j) to u(j+1) and s(j) to s(j+1);
  2. domination    some block length N makes every N-step image of u
                   strictly more than twice longer than that of s;
  3. separation    the two fields keep a uniform chordal distance;
  4. norm floor    N-step products do not collapse toward zero.

Candidate fields come from singular directions of long products
(power_directions) or from resolvent columns of a Jacobi operator
(greens_directions).  certify() drives the full pipeline: it picks a
burn-in adaptively, detects oscillatory (elliptic) behavior, runs the
four checks, and on success builds an invariant-cone certificate with
an explicit perturbation radius.

Only the window is ever inspected; a verdict is a statement about the
given finite data, not about any infinite extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .jacobi import (
    IllConditioned,
    _solve_columns,
    cocycle_map,
    dist_to_spectrum,
    greens_column,
    spectrum,
)
from .mat2 import (
    MatSequence,
    _live_rows,
    _mul,
    _plane_major,
    _sweep_values,
    _take,
    det2,
    norm_floor,
    norm_floor_curve,
    op_norm,
    singular_values,
    span_products,
    sv_left_vectors,
    sv_right_vectors,
    sweep,
)
from .sphere import ProjPoint, chordal_rows, disk_image_margins, unit_rows

__all__ = [
    "DegenerateCocycle",
    "InternalInconsistency",
    "SplittingField",
    "DominationCheck",
    "ConeCertificate",
    "DSCertificate",
    "power_directions",
    "greens_directions",
    "verify_invariance",
    "verify_domination",
    "verify_separation",
    "cone_certificate",
    "stability_radius",
    "certify",
    "certify_operator",
    "subsample_equivalence_check",
]

DELTA_MIN = 1e-4
RES_MAX = 1e-6
FLOOR_REL = 1e-8
MARGINAL_MARGIN = 0.05


class DegenerateCocycle(ValueError):
    """The window pins no direction at some site (e.g. a zero block)."""


class InternalInconsistency(RuntimeError):
    """A quantity that must be finite by construction came out otherwise."""


@dataclass
class SplittingField:
    """Candidate direction pair per site, as unit rows.

    burn_u/burn_s record how many factors backed each site's estimate;
    greens-based fields use 0 there.
    """

    j_first: int
    u: np.ndarray
    s: np.ndarray
    method: str
    burn: int
    burn_u: np.ndarray
    burn_s: np.ndarray

    def __len__(self):
        return len(self.u)

    @property
    def j_last(self):
        return self.j_first + len(self.u) - 1

    def sites(self):
        return np.arange(self.j_first, self.j_first + len(self.u))

    def separation(self):
        """Chordal distance between u and s at every site."""
        return chordal_rows(self.u, self.s)

    def u_at(self, j):
        return ProjPoint(self.u[j - self.j_first])

    def s_at(self, j):
        return ProjPoint(self.s[j - self.j_first])


def _block_products(vals, starts, length):
    """Normalized ordered products of `length` factors from each start.

    Row i holds vals[starts[i]+length-1] @ ... @ vals[starts[i]] scaled
    to unit max entry; the log of the removed scale is returned so the
    true product is P * exp(logs).  Each step gathers one plane-major
    factor stack (_take) for mat2's kernel.  The products come out in the
    dtype of vals: float64 for real factors (_sweep_values), equal by
    value to the complex run, as the two forms of the kernel make them.
    """
    P = np.tile(np.eye(2, dtype=vals.dtype), (len(starts), 1, 1))
    steps = (_take(vals, starts + t) for t in range(length))
    return sweep(P, steps, renorm=True, logs=True)


def _field_products(vals, js, bu, bs, lo, start=None):
    """Per-site window products behind the direction fields.

    The u side is right-multiplied into the past and the s side
    left-multiplied into the future, renormalized after every step;
    burns may differ by site.  start=(U, S, t0) holds products that are
    already t0 factors long at the same sites, and only steps t0 on are
    computed.  Each row's arithmetic is its own, so resuming reproduces
    the products of one longer sweep bit for bit.  A product that runs
    past the window repeats the end factor there.  When every site has
    the same burn on both sides (always so for core fields), both sides
    run as one sweep whose factors are two slices of the plane-major
    window (_plane_major) per step; otherwise each side runs
    _prefix_sweep.

    The products come out in the dtype of vals.  Callers pass the real
    parts (_sweep_values) when every factor is real: the kernel's
    float64 form, a*e + b*g, gives the real part of its complex128
    split-accumulator form, and _renorm scales both alike, so the real
    sweep equals the complex sweep by value at a fraction of its cost.
    """
    n = len(js)
    if start is None:
        U = np.tile(np.eye(2, dtype=vals.dtype), (n, 1, 1))
        S = U.copy()
        t0 = 0
    else:
        U, S, t0 = start
    # pad with copies of the end factors so that every step indexes in range
    below = max(0, lo - int(np.min(js - bu)))
    above = max(0, int(np.max(js + bs)) - lo - len(vals))
    if below or above:
        vals = np.concatenate(
            (np.repeat(vals[:1], below, 0), vals, np.repeat(vals[-1:], above, 0))
        )
        lo -= below
    vals = _plane_major(vals)
    if js[-1] - js[0] == n - 1 and np.all(bu == bu[0]) and np.all(bs == bu[0]):
        # Both sides in one left sweep of 2n rows: U @ F is the transpose of
        # F^T @ U^T, whose entries sum the same products in the same order.
        # A transpose of a plane-major stack is a view (two planes swap).
        a = int(js[0]) - lo
        fwd = vals.transpose(1, 2, 0)
        back = fwd.transpose(1, 0, 2)
        steps = (
            np.concatenate(
                (back[..., a - 1 - t : a - 1 - t + n], fwd[..., a + t : a + t + n]), axis=-1
            ).transpose(2, 0, 1)
            for t in range(t0, int(bu[0]))
        )
        P = sweep(np.concatenate((U.transpose(0, 2, 1), S)), steps, renorm=True)
        return P[:n].transpose(0, 2, 1), P[n:]
    return (
        _prefix_sweep(U, vals, js - 1 - lo, bu, t0, left=False),
        _prefix_sweep(S, vals, js - lo, bs, t0, left=True),
    )


def _prefix_sweep(P, vals, base, burns, t0, left):
    """One side of a mixed-burn sweep: row i takes burns[i] steps, step t
    multiplying vals[base[i] + t] in from the left or vals[base[i] - t]
    from the right.

    Rows are sorted by burn, longest first, so the rows still
    multiplying at step t are a prefix, and only it is gathered (_take)
    and multiplied.  Every row is renormalized at every step while any row
    multiplies, as in a masked loop over all rows: _renorm is not
    idempotent, and the finished rows must come out of the same number
    of passes.
    """
    if len(burns) == 0 or int(burns.max()) <= t0:
        return P
    order = np.argsort(-burns, kind="stable")
    base, sign = base[order], 1 if left else -1
    live = zip(range(t0, int(burns.max())), _live_rows(burns[order], t0))
    steps = (_take(vals, base[:r] + sign * t) for t, r in live)
    P = sweep(_take(P, order), steps, left, renorm=True)
    out = np.empty_like(P)
    out[order] = P
    return out


def _perp_rows(v):
    out = np.empty_like(v)
    out[..., 0] = -np.conj(v[..., 1])
    out[..., 1] = np.conj(v[..., 0])
    return out


def _kernel_direction(P):
    # exact null direction of a rank-1 product, from its larger row
    r0, r1 = P[0], P[1]
    row = r0 if abs(r0[0]) + abs(r0[1]) >= abs(r1[0]) + abs(r1[1]) else r1
    n = math.hypot(abs(row[0]), abs(row[1]))
    if n == 0.0:
        raise DegenerateCocycle("zero product pins no contracting direction")
    return np.array([-row[1], row[0]]) / n


def _range_direction(P):
    c0, c1 = P[:, 0], P[:, 1]
    col = c0 if abs(c0[0]) + abs(c0[1]) >= abs(c1[0]) + abs(c1[1]) else c1
    n = math.hypot(abs(col[0]), abs(col[1]))
    if n == 0.0:
        raise DegenerateCocycle("zero product pins no expanding direction")
    return col / n


def _apply_singular_overrides(seq, js, bu, bs, u_vecs, s_vecs):
    """Replace estimates with exact directions where factors are singular.

    A factor with exactly zero determinant inside a site's burn range
    pins the direction there: the contracting one is the kernel of the
    shortest forward product through the first such factor, the
    expanding one is the range of the product from the nearest such
    factor in the past.  Array masks pick the sites, one span_products
    call builds the products of both sides, and the directions are read
    off site by site in site order.
    """
    dets = det2(seq.values)
    zpos = np.nonzero(dets == 0.0)[0] + seq.j_lo
    if len(zpos) == 0:
        return
    nxt = np.searchsorted(zpos, js, side="left")
    k_s = zpos[np.minimum(nxt, len(zpos) - 1)]
    s_rows = np.nonzero((nxt < len(zpos)) & (k_s <= js + bs - 1))[0]
    k_u = zpos[np.maximum(nxt - 1, 0)]
    u_rows = np.nonzero((nxt > 0) & (k_u >= js - bu))[0]
    P = span_products(
        seq,
        np.concatenate((js[s_rows], k_u[u_rows])),
        np.concatenate((k_s[s_rows] + 1 - js[s_rows], js[u_rows] - k_u[u_rows])),
    )
    kernels = dict(zip(s_rows.tolist(), P[: len(s_rows)]))
    ranges = dict(zip(u_rows.tolist(), P[len(s_rows) :]))
    for i in sorted(kernels.keys() | ranges.keys()):
        if i in kernels:
            s_vecs[i] = _kernel_direction(kernels[i])
        if i in ranges:
            u_vecs[i] = _range_direction(ranges[i])


def _site_directions(seq, js, bu, bs, U, S):
    """Unit u and s rows at sites js from their bu/bs-factor products U, S.

    Each site's rows depend only on its own products and burns, so any
    subset of sites reproduces the rows a larger call computes for them.
    Real products from a real sweep are cast to complex here, once.
    """
    U, S = U.astype(complex, copy=False), S.astype(complex, copy=False)
    u_vecs = sv_left_vectors(U)
    s_vecs = _perp_rows(sv_right_vectors(S))
    _apply_singular_overrides(seq, js, bu, bs, u_vecs, s_vecs)
    if not (np.all(np.isfinite(u_vecs)) and np.all(np.isfinite(s_vecs))):
        raise InternalInconsistency("non-finite direction estimate")
    return unit_rows(u_vecs), unit_rows(s_vecs)


def _core_field(seq, burn, prev=None):
    """Core field at `burn` with the raw products behind it.

    Returns (field, (burn, U, S)).  prev is such a triple for a smaller
    burn on the same window: its products are sliced to the core(burn)
    sites and continued, so no factor step is computed twice.  U and S
    stay in the dtype of the sweep, so resuming casts nothing.
    """
    lo, hi = seq.window
    js = np.arange(lo + burn, hi + 2 - burn)
    full = np.full(len(js), burn)
    start = None
    if prev is not None:
        b0, U0, S0 = prev
        rows = slice(burn - b0, burn - b0 + len(js))
        start = (U0[rows], S0[rows], b0)
    U, S = _field_products(_sweep_values(seq), js, full, full, lo, start)
    u, s = _site_directions(seq, js, full, full, U, S)
    fld = SplittingField(
        j_first=int(js[0]), u=u, s=s, method="power", burn=burn,
        burn_u=full, burn_s=full,
    )
    return fld, (burn, U, S)


def _extend_field(seq, burn, core):
    """The extended field of power_directions, spliced around `core`.

    Core sites carry the full burn on both sides in either mode, so
    their rows are copied from the core field (None when the window is
    too short for one); only the sites within one burn of either end
    need new products.
    """
    lo, hi = seq.window
    js = np.arange(lo + 1, hi + 1)
    bu = np.minimum(burn, js - lo)
    bs = np.minimum(burn, hi + 1 - js)
    u = np.empty((len(js), 2), dtype=complex)
    s = np.empty_like(u)
    new = np.ones(len(js), dtype=bool)
    if core is not None:
        new[core.j_first - lo - 1 : core.j_last - lo] = False
        u[~new], s[~new] = core.u, core.s
    if np.any(new):
        U, S = _field_products(_sweep_values(seq), js[new], bu[new], bs[new], lo)
        u[new], s[new] = _site_directions(seq, js[new], bu[new], bs[new], U, S)
    return SplittingField(
        j_first=lo + 1, u=u, s=s, method="power", burn=burn, burn_u=bu, burn_s=bs
    )


def power_directions(seq, burn, extend=False):
    """Direction fields from singular vectors of burn-long products.

    u(j) is the leading output direction of the product over the burn
    factors before j; s(j) is the most-contracted input direction of
    the product over the burn factors from j on.  The core mode keeps
    only sites with the full burn available on both sides; extend=True
    covers [j_lo+1, j_hi] instead, shrinking the burn near the ends to
    whatever room is left.
    """
    lo, hi = seq.window
    burn = int(burn)
    if burn < 1:
        raise ValueError("burn must be >= 1")
    core = None
    if lo + burn <= hi + 1 - burn:
        core, _ = _core_field(seq, burn)
    if extend:
        return _extend_field(seq, burn, core)
    if core is None:
        raise ValueError(f"window too short for burn {burn}")
    return core


def greens_directions(op, E, spectrum_approx=None, margin=None, delta_min=DELTA_MIN):
    """Direction fields for a Jacobi cocycle read off resolvent columns.

    The pair (g(j), g(j-1)) of a column supported to the left of j
    solves the difference equation there and decays backward, so it
    represents the expanding direction; columns supported to the right
    give the contracting one.  Each site prefers the adjacent column
    and falls back to the next one over only when that pair is more
    than twice longer, or is forced to the adjacent column when a zero
    coupling cuts the fallback off.
    """
    sp = spectrum_approx if spectrum_approx is not None else spectrum(op)
    delta = dist_to_spectrum(sp, E)
    if delta < delta_min:
        raise IllConditioned(
            f"energy within {delta:.3e} of the spectrum cover", delta=delta
        )
    probe = greens_column(
        op, E, (op.j_lo + op.j_hi) // 2, margin=margin, spectrum_approx=sp
    )
    m = probe.margin
    lo, hi = op.j_lo - m, op.j_hi + m
    cols = list(range(op.j_lo - 2, op.j_hi + 2))
    G, res = _solve_columns(op, E, lo, hi, cols)
    if not res < 1e-10 * max(float(np.max(np.abs(G))), 1e-300):
        raise IllConditioned(f"banded solve residual {res:.3e} too large")
    jj = np.arange(len(op))
    row = jj + m  # row index of site j; columns are offset by j_lo - 2

    def pair(col_idx):
        return np.stack([G[row, col_idx], G[row - 1, col_idx]], axis=-1)

    sP, sF = pair(jj + 1), pair(jj)         # columns j-1 and j-2
    uP, uF = pair(jj + 2), pair(jj + 3)     # columns j and j+1
    zt = op.zero_tol
    force_s = np.abs(op.a_range(op.j_lo - 2, op.j_hi - 2)) <= zt
    force_u = np.abs(op.a_range(op.j_lo, op.j_hi)) <= zt

    def pick(primary, fallback, force):
        np_, nf = (
            np.linalg.norm(primary, axis=-1),
            np.linalg.norm(fallback, axis=-1),
        )
        use_fb = (~force) & (nf > 2.0 * np_)
        out = np.where(use_fb[:, None], fallback, primary)
        if np.any(np.linalg.norm(out, axis=-1) == 0.0):
            raise DegenerateCocycle("resolvent columns pin no direction")
        return unit_rows(out)

    n = len(op)
    return SplittingField(
        j_first=op.j_lo,
        u=pick(uP, uF, force_u),
        s=pick(sP, sF, force_s),
        method="greens",
        burn=0,
        burn_u=np.zeros(n, dtype=int),
        burn_s=np.zeros(n, dtype=int),
    )


def verify_invariance(seq, fld, threshold):
    """Largest chordal mismatch between pushed-forward and stored directions.

    A factor that annihilates u counts as a maximal violation; one that
    annihilates s is vacuously invariant (the image line degenerated).
    Returns (passed, residual).
    """
    sites = fld.sites()
    if len(sites) < 2:
        raise ValueError("need at least two sites")
    B = seq.values[sites[:-1] - seq.j_lo]
    scale = np.sqrt(np.sum(np.abs(B) ** 2, axis=(1, 2)))
    Wu = np.einsum("nij,nj->ni", B, fld.u[:-1])
    Ws = np.einsum("nij,nj->ni", B, fld.s[:-1])
    nu = np.linalg.norm(Wu, axis=-1)
    ns = np.linalg.norm(Ws, axis=-1)
    dead_u = nu <= 1e-14 * scale
    dead_s = ns <= 1e-14 * scale
    ru = np.where(dead_u, 2.0, chordal_rows(Wu, fld.u[1:]))
    rs = np.where(dead_s, 0.0, chordal_rows(Ws, fld.s[1:]))
    residual = float(max(np.max(ru), np.max(rs)))
    return residual <= threshold, residual


@dataclass
class DominationCheck:
    ok: bool
    N: int
    margin: float
    tried: int
    detail: str = ""


def verify_domination(seq, fld, n_max=64, factor=2.0):
    """Smallest block length N whose images of u beat those of s everywhere.

    The test at length N runs over every field site with N factors
    still inside the window and asks for |B_N u| / |B_N s| strictly
    above `factor`; norms are tracked in log scale, so a contracting
    image hitting exact zero counts as an infinite ratio while a dead u
    image fails the site outright.  A NaN ratio ends the search with a
    NaN margin, which certify refuses.
    """
    vals, lo, hi = seq.values, seq.j_lo, seq.j_hi
    sites = fld.sites()
    U, S = fld.u.copy(), fld.s.copy()
    logU = np.zeros(len(sites))
    logS = np.zeros(len(sites))
    log_factor = math.log(factor)
    best_margin, best_n, tried = -math.inf, 0, 0
    for N in range(1, n_max + 1):
        fidx = sites + N - 1 - lo
        active = fidx <= hi - lo
        if not np.any(active):
            break
        tried = N
        idx = np.clip(fidx, 0, hi - lo)
        W = np.einsum("nij,nj->ni", vals[idx], U)
        nz = np.linalg.norm(W, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logU = np.where(active, logU + np.log(nz), logU)
        U = np.where(active[:, None], W / np.where(nz > 0, nz, 1.0)[:, None], U)
        W = np.einsum("nij,nj->ni", vals[idx], S)
        nz = np.linalg.norm(W, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logS = np.where(active, logS + np.log(nz), logS)
        S = np.where(active[:, None], W / np.where(nz > 0, nz, 1.0)[:, None], S)
        with np.errstate(invalid="ignore"):
            logratio = np.where(np.isneginf(logU), -math.inf, logU - logS)
        worst = float(np.min(logratio[active]))
        if math.isnan(worst):
            return DominationCheck(
                ok=False, N=N, margin=math.nan, tried=N,
                detail=f"nan growth ratio at block length {N}",
            )
        with np.errstate(over="ignore"):
            margin = math.exp(worst) - factor if worst < 700 else math.inf
        if margin > best_margin:
            best_margin, best_n = margin, N
        if worst > log_factor:
            return DominationCheck(ok=True, N=N, margin=margin, tried=N)
    return DominationCheck(
        ok=False,
        N=best_n,
        margin=best_margin,
        tried=tried,
        detail=f"no block length up to {tried} dominates by factor {factor}",
    )


def verify_separation(fld, delta_min=DELTA_MIN):
    """(passed, min chordal distance between the fields)."""
    delta = float(np.min(fld.separation()))
    return delta > delta_min, delta


@dataclass
class ConeCertificate:
    """Invariant-cone data in the frame adapted to the fields.

    Every N-step product, rewritten in the (u, s) bases at its ends,
    maps the closed cone of half-aperture alpha strictly inside the one
    of half-aperture alpha_prime with the stated clearance; gamma is
    the worst expansion along u in that frame and cond the worst frame
    conditioning, both of which enter the perturbation budget.
    """

    N: int
    alpha: float
    alpha_prime: float
    clearance: float
    gamma: float
    cond: float
    n_sites: int

    def budget(self):
        a = self.alpha
        return min(
            self.gamma / (2.0 * (1.0 + a)),
            self.clearance * self.gamma / ((1.0 + a) * (2.0 + a)),
        )


def _frame_matrices(fld):
    D = np.stack([fld.u, fld.s], axis=-1)
    dets = det2(D)
    if np.any(dets == 0.0):
        raise DegenerateCocycle("coincident fields give no frame")
    Dinv = np.empty_like(D)
    Dinv[:, 0, 0] = D[:, 1, 1]
    Dinv[:, 0, 1] = -D[:, 0, 1]
    Dinv[:, 1, 0] = -D[:, 1, 0]
    Dinv[:, 1, 1] = D[:, 0, 0]
    Dinv /= dets[:, None, None]
    return D, Dinv


def cone_certificate(
    seq,
    fld,
    N,
    alphas=(1.0, 0.75, 1.25, 0.5, 1.5, 2.0),
    ratios=(0.5, 0.25, 0.75),
):
    """Search a small (alpha, alpha_prime) grid for an invariant cone.

    Block lengths N, 2N, 4N are tried in turn; among admissible pairs
    the one with the largest perturbation budget wins, the first in
    grid order on a tie.  Each block length scores every pair in one
    broadcast disk_image_margins call, which finds each alpha's disk
    images once for all its ratios.  Returns None when no tried pair
    certifies.
    """
    lo, hi = seq.window
    D, Dinv = _frame_matrices(fld)
    pairs = [(a, a * r) for a in alphas for r in ratios]
    a_grid = np.array(alphas)[:, None, None]
    ap_grid = a_grid * np.array(ratios)[:, None]
    best = None
    for mult in (1, 2, 4):
        n_blk = N * mult
        last = min(fld.j_last - n_blk, hi + 1 - n_blk)
        if last < fld.j_first:
            continue
        js = np.arange(fld.j_first, last + 1)
        k = js - fld.j_first
        P, logs = _block_products(_sweep_values(seq), js - lo, n_blk)
        if not np.all(np.isfinite(P)):
            raise InternalInconsistency("non-finite block product")
        Lam = _mul(_mul(Dinv[k + n_blk], P), D[k])
        with np.errstate(divide="ignore"):
            gam_log = np.log(np.abs(Lam[:, 0, 0])) + logs
        gamma = float(np.exp(np.min(gam_log)))
        cond = float(
            np.max(op_norm(Dinv[k + n_blk]) * op_norm(D[k]))
        )
        clearances = np.min(disk_image_margins(Lam, a_grid, ap_grid), axis=-1)
        for (a, ap), clearance in zip(pairs, clearances.ravel().tolist()):
            if clearance <= 0.0 or not math.isfinite(clearance):
                continue
            cand = ConeCertificate(
                N=n_blk,
                alpha=a,
                alpha_prime=ap,
                clearance=clearance,
                gamma=gamma,
                cond=cond,
                n_sites=len(js),
            )
            if best is None or cand.budget() > best.budget():
                best = cand
        if best is not None:
            return best
    return best


def stability_radius(cone, sup_bound, n_steps=None):
    """Largest per-factor perturbation size the cone data absorbs.

    Solves cond * ((M + eps)^N - M^N) = budget for eps, where M bounds
    the factor norms; evaluated in log form to survive tiny budgets.
    """
    if cone is None:
        return None
    N = n_steps or cone.N
    T = cone.budget() / cone.cond
    M = float(sup_bound)
    if not (T > 0.0 and math.isfinite(T) and M > 0.0):
        return None
    try:
        eps = M * math.expm1(math.log1p(T / M**N) / N)
    except OverflowError:
        return None
    return eps if eps > 0.0 and math.isfinite(eps) else None


def _field_gap(f1, f2):
    """Largest chordal movement of either field from f1 to f2 (f2 inside f1)."""
    off = f2.j_first - f1.j_first
    n = len(f2)
    gu = chordal_rows(f1.u[off : off + n], f2.u)
    gs = chordal_rows(f1.s[off : off + n], f2.s)
    return float(max(np.max(gu), np.max(gs)))


def _ratio_estimate(seq):
    lo, hi = seq.window
    winlen = hi - lo + 1
    m = min(16, winlen)
    if m < 4:
        return None
    starts = np.unique(np.linspace(0, winlen - m, min(5, winlen - m + 1), dtype=int))
    P, _ = _block_products(_sweep_values(seq), starts, m)
    s1, s2 = singular_values(P)
    with np.errstate(divide="ignore"):
        r = np.where(s2 > 0.0, s1 / np.where(s2 > 0.0, s2, 1.0), np.inf)
    r = r[np.isfinite(r)]
    if len(r) == 0:
        return math.inf
    return float(np.exp(np.mean(np.log(np.maximum(r, 1.0)))) ** (1.0 / m))


def _resolve_burn(seq, burn_hint):
    """Pick a burn-in: (burn, gap, failure_detail or None, core field).

    The gap is the largest chordal movement of either field under the
    last doubling of the burn-in.  A gap that refuses to decay flags
    rotation-like behavior; a gap still above 1e-3 at the window cap
    means the window cannot resolve the directions.  Each burn's core
    field is built once and shared by the doublings that compare it;
    the one returned is power_directions(seq, burn) for the chosen burn.
    The ladder only grows, so each new burn resumes the products of the
    previous one and every factor step is computed once per side.
    """
    lo, hi = seq.window
    b_cap = (hi - lo) // 2
    if b_cap < 2:
        raise ValueError("window too short to resolve direction fields")
    fields = {}
    last = None

    def gap(b1, b2):
        nonlocal last
        for b in (b1, b2):
            if b not in fields:
                fields[b], last = _core_field(seq, b, last)
        return _field_gap(fields[b1], fields[b2])

    if burn_hint is not None:
        b = max(1, min(int(burn_hint), b_cap))
        return b, gap(max(b // 2, 1), b), None, fields[b]
    r = _ratio_estimate(seq)
    if r is None or not math.isfinite(r) or r <= 1.0 + 1e-9:
        b0 = 40
    else:
        b0 = max(40, 8 * math.ceil(1.0 / max(math.log2(r), 1e-6)))
    b = min(b0, b_cap)
    g_prev = gap(max(b // 2, 1), b)
    while g_prev > 1e-8 and b < b_cap:
        b_next = min(2 * b, b_cap)
        g = gap(b, b_next)
        if g > 0.6 * g_prev and g > 1e-7:
            return b_next, g, (
                "direction fields oscillate as the burn-in doubles; "
                "the window behaves like a rotation and pins no splitting"
            ), fields[b_next]
        b, g_prev = b_next, g
    if g_prev > 1e-3:
        return b, g_prev, (
            f"direction fields still moved by {g_prev:.2e} at the largest "
            "burn-in this window allows"
        ), fields[b]
    return b, g_prev, None, fields[b]


@dataclass
class DSCertificate:
    """Outcome of the four-condition pipeline plus cone data on success.

    core_field is the power field at the chosen burn, the one the checks
    read; it is not part of the JSON form.
    """

    verdict: str
    window: tuple
    burn: int
    convergence_gap: float
    conditions: dict
    failed_condition: int | None
    failure_detail: str
    invariance_residual: float | None = None
    invariance_threshold: float | None = None
    N: int | None = None
    domination_margin: float | None = None
    delta_sep: float | None = None
    delta_sep_core: float | None = None
    norm_floor_value: float | None = None
    norm_floor_threshold: float | None = None
    epsilon: float | None = None
    notes: dict = field(default_factory=dict)
    cone: ConeCertificate | None = None
    core_field: SplittingField | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self):
        return self.verdict != "failed"

    def to_json(self):
        """Every field but core_field, in field order, as plain JSON values."""
        return {
            f.name: _plain(getattr(self, f.name))
            for f in fields(self)
            if f.name != "core_field"
        }

    def summary_line(self):
        if self.verdict == "failed":
            return (
                f"failed: condition ({self.failed_condition}) "
                f"{self.failure_detail}"
            )
        parts = [f"{self.verdict}: N={self.N}"]
        if self.domination_margin is not None:
            parts.append(f"margin={self.domination_margin:.4g}")
        if self.delta_sep is not None:
            parts.append(f"delta_sep={self.delta_sep:.4g}")
        if self.epsilon is not None:
            parts.append(f"epsilon={self.epsilon:.4g}")
        return " ".join(parts)


def _plain(x):
    if isinstance(x, ConeCertificate):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


def certify(
    seq,
    *,
    delta_min=DELTA_MIN,
    res_max=RES_MAX,
    floor_rel=FLOOR_REL,
    n_max=64,
    burn=None,
    factor=2.0,
    marginal_margin=MARGINAL_MARGIN,
    want_cone=True,
):
    """Run the full dominated-splitting pipeline on a matrix window.

    Returns a DSCertificate.  The verdict is "verified", "marginal"
    (all conditions hold but the domination margin is thin), or
    "failed" with the first broken condition recorded.  A failed
    verdict still carries every measured quantity that was reachable.
    A NaN invariance residual, domination margin, extended separation
    or norm floor at N raises InternalInconsistency instead of reaching
    a threshold (an infinite margin is a legal value).
    Each burn's direction field is built once, and the extended field
    reuses the core field's rows.
    """
    if not isinstance(seq, MatSequence):
        seq = MatSequence(0, np.asarray(seq, dtype=complex))
    lo, hi = seq.window
    b, gap, no_field, core = _resolve_burn(seq, burn)
    if no_field is not None:
        return DSCertificate(
            verdict="failed",
            window=(lo, hi),
            burn=b,
            convergence_gap=gap,
            conditions={1: None, 2: False, 3: None, 4: None},
            failed_condition=2,
            failure_detail=no_field,
            core_field=core,
        )
    res_eff = max(res_max, 8.0 * gap)
    ext = _extend_field(seq, b, core)

    inv_ok, inv_res = verify_invariance(seq, core, res_eff)
    dom = verify_domination(seq, core, n_max=n_max, factor=factor)
    sep_ok, delta_ext = verify_separation(ext, delta_min)
    _, delta_core = verify_separation(core, delta_min)

    floors = norm_floor_curve(seq, min(20, hi - lo + 1))
    curve = [
        (n, v, floor_rel * seq.sup_bound**n) for n, v in enumerate(floors, 1)
    ]
    floor_val = floor_thr = None
    floor_ok = None
    if dom.N >= 1:
        floor_val = (
            floors[dom.N - 1] if dom.N <= len(floors) else norm_floor(seq, dom.N)
        )
        floor_thr = floor_rel * seq.sup_bound**dom.N
        floor_ok = floor_val > floor_thr
    for name, value in (
        ("invariance residual", inv_res),
        ("domination margin", dom.margin),
        ("extended field separation", delta_ext),
        (f"norm floor at N={dom.N}", floor_val),
    ):
        if value is not None and math.isnan(value):
            raise InternalInconsistency(f"{name} is nan")
    notes = {
        "floor_curve": curve,
        "floor_curve_ok": all(v > t for _, v, t in curve),
        "n_core_sites": len(core),
    }

    conditions = {1: bool(inv_ok), 2: bool(dom.ok), 3: bool(sep_ok), 4: floor_ok}
    failed = next((k for k in (1, 2, 3, 4) if conditions[k] is False), None)
    details = {
        1: f"invariance residual {inv_res:.3e} above {res_eff:.3e}",
        2: dom.detail,
        3: f"field separation {delta_ext:.3e} at or below {delta_min:.3e}",
        4: (
            f"norm floor {floor_val:.3e} at N={dom.N} below "
            f"{floor_thr:.3e}"
            if floor_val is not None
            else "norm floor unavailable"
        ),
    }

    cert = DSCertificate(
        verdict="failed" if failed is not None else "verified",
        window=(lo, hi),
        burn=b,
        convergence_gap=gap,
        conditions=conditions,
        failed_condition=failed,
        failure_detail=details[failed] if failed is not None else "",
        invariance_residual=inv_res,
        invariance_threshold=res_eff,
        N=dom.N if dom.ok else None,
        domination_margin=dom.margin if dom.tried else None,
        delta_sep=delta_ext,
        delta_sep_core=delta_core,
        norm_floor_value=floor_val,
        norm_floor_threshold=floor_thr,
        notes=notes,
        core_field=core,
    )
    if failed is not None:
        return cert

    if want_cone:
        cone = cone_certificate(seq, core, dom.N)
        cert.cone = cone
        cert.epsilon = stability_radius(cone, seq.sup_bound)
    if 0.0 < dom.margin < marginal_margin:
        cert.verdict = "marginal"
    return cert


def certify_operator(op, E, spectrum_approx=None, **kwargs):
    """certify() on the energy-E transfer cocycle of a Jacobi operator.

    When a spectrum approximation is supplied, the distance from E to
    its interval cover is recorded in the certificate notes.
    """
    cert = certify(cocycle_map(op, E), **kwargs)
    cert.notes["energy"] = complex(E)
    if spectrum_approx is not None:
        cert.notes["delta_spec"] = dist_to_spectrum(spectrum_approx, E)
    return cert


def subsample_equivalence_check(seq, N, **certify_kwargs):
    """Certify a window and its N-step block resampling; verdicts must agree.

    The block sequence multiplies each group of N consecutive factors
    into one; a dominated window stays dominated at the coarser scale
    and vice versa, so disagreement signals a pipeline defect rather
    than a property of the data.
    """
    base = certify(seq, **certify_kwargs)
    starts = np.arange(seq.j_lo, seq.j_hi + 2 - N, N)
    block = certify(MatSequence(0, span_products(seq, starts, N)), **certify_kwargs)
    return {
        "consistent": (base.verdict != "failed") == (block.verdict != "failed"),
        "base": base,
        "block": block,
    }
