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

certify_many() runs that pipeline over many windows at once, and
certify(seq) is certify_many([seq])[0].  Windows of one sweep dtype
(mat2._sweep_values) form a batch, whose factors lie end to end in one
slab (_slab); every later number stays in that dtype and follows mat2's
arithmetic rule, so no certificate depends on the SIMD loops numpy
picks.  The growth ratios that start the burn ladders read their
16-factor blocks straight off the batch's level-4 table
(_ratio_estimates).  Every product stage of a batch (the burn ladders,
climbed in lockstep, the end sites of the extended field, the
domination frames, the norm floors at N and the cone blocks) runs over
the rows of all its live windows at once, on one of mat2's two product
paths.  The domination frames, the one stage that reads every step,
step one factor at a time from their start rows in a loop of their own
(_dominations); the others run from the identity in doubling
order on the batch's tables (mat2._row_sweep on mat2._Tables), so each
rung of a burn ladder is computed afresh from the tables and the floors
at N take at most bit_length(N) kernel calls (mat2._floors).
Condition 3 reads the extended field's separation as the minimum of
the core field's and that of the end sites, the sites within one burn
of either end, whose burns are cut short there; every other site of the
extended field is a core site with the core field's rows.  A field row
stops at the first exactly singular factor it meets, whose product pins
the direction exactly: the range of a u product, the kernel of an s
product (_cut_burns, _directions).  Every row is renormalized by exact
powers of two (mat2._renorm), so every certificate is bit for bit that
of its window alone.  The other checks run per window.

A row's bits depend on nothing but its start row and its factors, so
rows that agree bitwise on both are one computation, and a row sweep
sweeps one row of each such class, its head (mat2._row_classes).  Rows
of one base, steps and start are one class in every window: as every
row is read forward from its first factor, the u row of site j is the s
row of site j - burn.  Where a window's factors repeat with a shift q (a
periodic orbit, the free chain's interior), a row also joins the row q
sites back over the same factors; _repeat_map finds those repeats once
per batch, the one place that compares factor bits.  The classes travel
from stage to stage as integer ids, every one found by mat2._classes:
singular vectors and unit rows are taken of heads only, cone margins
once per distinct (block, frame, frame) triple, and only the rows that
leave the pipeline are gathered to every site.

Only the window is ever inspected; a verdict is a statement about the
given finite data, not about any infinite extension.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

import numpy as np

from .jacobi import (
    DELTA_MIN,
    IllConditioned,
    _solve_columns,
    cocycle_map,
    dist_to_spectrum,
    greens_column,
)
from .mat2 import (
    MatSequence,
    _abs,
    _abs2,
    _bits,
    _classes,
    _cmul,
    _column_norms,
    _floors,
    _larger_columns,
    _max_abs,
    _mul,
    _renorm,
    _row_classes,
    _row_norms,
    _row_sweep,
    _sweep_values,
    _Tables,
    _take,
    det2,
    op_norm,
    singular_values,
    span_products,
    sv_left_vectors,
    sv_right_vectors,
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
    "certify_many",
    "certify_operator",
    "subsample_equivalence_check",
]

RES_MAX = 1e-6
FLOOR_REL = 1e-8
N_MAX = 64
FACTOR = 2.0
MARGINAL_MARGIN = 0.05


class DegenerateCocycle(ValueError):
    """The window pins no direction at some site (e.g. a zero block)."""


class InternalInconsistency(RuntimeError):
    """A quantity that must be finite by construction came out otherwise."""


@dataclass
class SplittingField:
    """Candidate direction pair per site, as unit rows.

    Power fields hold their rows in the window's sweep dtype
    (mat2._sweep_values), float64 for a real window, and greens fields
    in complex128.
    """

    j_first: int
    u: np.ndarray
    s: np.ndarray

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


def _slab(vals):
    """The sweep values of windows laid end to end, as one plane-major
    stack."""
    return np.concatenate([v.transpose(1, 2, 0) for v in vals], axis=-1).transpose(2, 0, 1)


def _repeat_map(slab, lengths):
    """The exact repeats of a _slab of windows of the given lengths, as
    (q, last) for _row_sweep, or None when no window repeats.

    q[p] is the shift of the window that slab position p belongs to: the
    smallest d at which at least half of its factors are bitwise the
    factor d earlier, tried among the shifts from its middle factor to
    the later repeats of it (0 when there are none; the choice decides
    only how much a row sweep shares).  A break is a position whose
    factor is not bitwise the one q[p] earlier in the same window (every
    position of a window with q = 0), and last[p] the last break at or
    before p, so the factors over [b, b + n) are those over [b - q[b], b
    - q[b] + n) bit for bit whenever last[b + n - 1] < b and n > 0.
    """
    bits = _bits(slab)
    offsets = np.cumsum([0] + list(lengths[:-1]))
    shifts = []
    for o, n in zip(offsets.tolist(), lengths):
        B, m = bits[:, o : o + n], n // 2
        q = 0
        for d in (np.flatnonzero((B[:, m + 1 :] == B[:, m, None]).all(axis=0)) + 1).tolist():
            if 2 * np.count_nonzero((B[:, d:] == B[:, :-d]).all(axis=0)) >= n:
                q = d
                break
        shifts.append(q)
    if not any(shifts):
        return None
    q = np.repeat(shifts, lengths)
    win = np.repeat(np.arange(len(lengths)), lengths)
    p = np.arange(len(q))
    prev = np.maximum(p - q, 0)
    same = (q > 0) & (p >= q) & (win[prev] == win) & (bits[:, prev] == bits).all(axis=0)
    return q, np.maximum.accumulate(np.where(same, -1, p))


class _Batch:
    """Windows of one sweep dtype, certified together.

    slab (_slab) holds their sweep values end to end, window w from
    offsets[w] on, tables (mat2._Tables) its doubling tables, built as
    the stages ask for them and freed with the batch, and repeats its
    _repeat_map.  zeros holds the slab positions of the exactly singular
    factors, sorted: the candidates have det2 0 on the renormalized
    factors (the tables' level 0), which underflows only where an exact
    determinant would, and each is confirmed exactly (_exact_zero_det).
    """

    def __init__(self, seqs, vals=None):
        self.seqs = seqs
        self.slab = _slab([_sweep_values(s) for s in seqs] if vals is None else vals)
        self.tables = _Tables(self.slab)
        self.repeats = _repeat_map(self.slab, [len(s) for s in seqs])
        self.offsets = np.cumsum([0] + [len(s) for s in seqs[:-1]])
        T, _ = self.tables.level(0)
        zeros = np.flatnonzero(det2(T) == 0.0)
        self.zeros = zeros[[_exact_zero_det(self.slab[p]) for p in zeros.tolist()]]


def _exact_zero_det(m):
    """Whether det m is exactly 0, real and imaginary parts, summed in
    fractions.Fraction (terms with a zero factor left out)."""
    (a, b), (c, d) = (map(complex, r) for r in m)
    re = ((a.real, d.real), (-a.imag, d.imag), (-b.real, c.real), (b.imag, c.imag))
    im = ((a.real, d.imag), (a.imag, d.real), (-b.real, c.imag), (-b.imag, c.real))
    return all(sum(Fraction(x) * Fraction(y) for x, y in part if x and y) == 0 for part in (re, im))


def _one(outcomes):
    """The outcome of a one-job batch call, raised if it is an exception."""
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def _perp_rows(v):
    out = np.empty_like(v)
    out[..., 0] = -np.conj(v[..., 1])
    out[..., 1] = np.conj(v[..., 0])
    return out


def _cut_burns(zpos, js, bu, bs):
    """The burns of sites js cut at the first exactly singular factor
    each side meets, the singular factors sitting at the sorted indices
    zpos on the line of js: (bu, bs, stop_u, stop_s), stop_u and stop_s
    marking the sites whose u and s rows stopped.

    A u row reads the factors j - 1, j - 2, ..., j - bu and stops at the
    nearest singular factor k >= j - bu, after j - k steps; an s row
    reads j, j + 1, ..., j + bs - 1 and stops at the first singular
    factor k <= j + bs - 1, after k + 1 - j steps.  A product through a
    singular factor has rank at most one, and so does every longer one
    through it: the shorter product pins the same direction, the range
    of U and the kernel of S.
    """
    far = np.iinfo(np.int64).max // 4
    z = np.concatenate(([-far], zpos, [far]))
    nxt = np.searchsorted(z, js)  # z[nxt] is the first singular factor at or after j
    stop_u = z[nxt - 1] >= js - bu
    stop_s = z[nxt] <= js + bs - 1
    return (
        np.where(stop_u, js - z[nxt - 1], bu), np.where(stop_s, z[nxt] + 1 - js, bs),
        stop_u, stop_s,
    )


def _unit_columns(P):
    """The larger column of each rank-1 2x2 of P (mat2._larger_columns)
    over its norm, and whether the matrix is zero."""
    col, n = _larger_columns(P)
    return _cmul(col, (1.0 / np.where(n > 0.0, n, 1.0))[:, None]), n == 0.0


def _directions(batch, jobs):
    """Unit u and s rows for each job (w, js, bu, bs): window w's sites
    js (absolute indices) with burns bu/bs.  Returns per job the triple
    (u, s, ids) or the exception that ends window w: u and s arrays of
    its own, and ids the pair of the sites' u and s row ids, sites of
    equal ids having bitwise equal rows on that side.

    The products are those of the burns cut at the exactly singular
    factors (_cut_burns, one call on slab positions for all jobs: no row
    leaves its window, bu <= j - lo and bs <= hi + 1 - j, so no cut
    reaches another window's factor), for all jobs from one row sweep in
    doubling order on the batch's tables (mat2._row_sweep).  The U of
    site j is the product of the bu factors before j, A(j-1) ...
    A(j-bu), and its S that of the bs factors from j on, A(j+bs-1) ...
    A(j): both are rows read forward from their first factor, so the U
    of site j is the S of site j - bu when the burns agree.  A row's bits
    depend only on its factors and its burn, so any rung of a burn
    ladder, in any batch, reproduces the products of its window's sites
    alone.  A row that stopped at a singular factor pins its direction
    exactly: u is the range of U, s the kernel of S, both read off the
    larger column (of S's transpose) by mat2._larger_columns.  Every
    other row takes the singular vectors of its product.  Both are read
    once per distinct pair of a head and a stop, from one call per side
    for all jobs, in the dtype of the heads, and gathered to the sites
    once: each site's rows depend only on its own product and stop, so
    any subset of sites, in any batch, reproduces the rows a larger call
    computes.
    """
    if not jobs:
        return []
    # slab positions of the sites; the U rows first, then the S rows
    sites = np.concatenate([batch.offsets[w] - batch.seqs[w].j_lo + js for w, js, _, _ in jobs])
    _, _, bu, bs = zip(*jobs)
    bu, bs, *stops = _cut_burns(batch.zeros, sites, np.concatenate(bu), np.concatenate(bs))
    H, _, at = _row_sweep(batch.tables, np.concatenate((sites - bu, sites)),
                          np.concatenate((bu, bs)), batch.repeats)
    # one row per side and distinct (head, stop)
    sides = []
    for i, stop in zip(at.reshape(2, -1), stops):
        first, at = _classes(i, stop)
        sides.append((i[first], stop[first], at))
    (hu, stop_u, iu), (hs, stop_s, is_) = sides
    U, S = _take(H, hu), _take(H, hs)
    u = sv_left_vectors(U)
    s = _perp_rows(sv_right_vectors(S))
    dead_u, dead_s = np.zeros_like(stop_u), np.zeros_like(stop_s)
    u[stop_u], dead_u[stop_u] = _unit_columns(U[stop_u])
    row, dead_s[stop_s] = _unit_columns(S[stop_s].transpose(0, 2, 1))
    s[stop_s] = np.stack([-row[:, 1], row[:, 0]], axis=-1)
    good_u = ~dead_u & np.isfinite(u).all(axis=1)
    good_s = ~dead_s & np.isfinite(s).all(axis=1)
    # the rows of a window that fails are never read; 1s keep unit_rows
    # from a zero row
    u[~good_u] = 1.0
    s[~good_s] = 1.0
    u, s = unit_rows(u), unit_rows(s)
    dead, good = dead_u[iu] | dead_s[is_], good_u[iu] & good_s[is_]
    out, a = [], 0
    for _, js, *_ in jobs:
        r = slice(a, a + len(js))
        a += len(js)
        if dead[r].any():  # the first such site, its s side first
            side = "contracting" if dead_s[is_[r][np.argmax(dead[r])]] else "expanding"
            d = DegenerateCocycle(f"zero product pins no {side} direction")
        elif not good[r].all():
            d = InternalInconsistency("non-finite direction estimate")
        else:
            d = (u[iu[r]], s[is_[r]], (iu[r], is_[r]))
        out.append(d)
    return out


def power_directions(seq, burn, extend=False):
    """Direction fields from singular vectors of burn-long products.

    u(j) is the leading output direction of the product over the burn
    factors before j; s(j) is the most-contracted input direction of
    the product over the burn factors from j on.  The core mode keeps
    only sites with the full burn available on both sides; extend=True
    covers [j_lo+1, j_hi] instead, shrinking the burn near the ends to
    whatever room is left.  Either mode is one _directions call over its
    sites, with burns min(burn, j - lo) and min(burn, hi + 1 - j).
    """
    lo, hi = seq.window
    burn = int(burn)
    if burn < 1:
        raise ValueError("burn must be >= 1")
    j_first = lo + 1 if extend else lo + burn
    js = np.arange(j_first, hi + 1 if extend else hi + 2 - burn)
    if not (extend or len(js)):
        raise ValueError(f"window too short for burn {burn}")
    bu, bs = np.minimum(burn, js - lo), np.minimum(burn, hi + 1 - js)
    u, s, _ = _one(_directions(_Batch([seq]), [(0, js, bu, bs)]))
    return SplittingField(j_first=j_first, u=u, s=s)


def greens_directions(op, E):
    """Direction fields for a Jacobi cocycle read off resolvent columns.

    The pair (g(j), g(j-1)) of a column supported to the left of j
    solves the difference equation there and decays backward, so it
    represents the expanding direction; columns supported to the right
    give the contracting one.  Each site prefers the adjacent column
    and falls back to the next one over only when that pair is more
    than twice longer, or is forced to the adjacent column when a zero
    coupling cuts the fallback off.  The padding is that of the
    resolvent column at the window's middle site, grown automatically
    (greens_column).
    """
    probe = greens_column(op, E, (op.j_lo + op.j_hi) // 2)
    m = probe.margin
    lo, hi = op.j_lo - m, op.j_hi + m
    cols = list(range(op.j_lo - 2, op.j_hi + 2))
    G, res = _solve_columns(op, E, lo, hi, cols)
    if not res < 1e-10 * max(_max_abs(G), 1e-300):
        raise IllConditioned(f"banded solve residual {res:.3e} too large")
    jj = np.arange(len(op))
    row = jj + m  # row index of site j; columns are offset by j_lo - 2

    def pair(col_idx):
        return np.stack([G[row, col_idx], G[row - 1, col_idx]], axis=-1)

    sP, sF = pair(jj + 1), pair(jj)         # columns j-1 and j-2
    uP, uF = pair(jj + 2), pair(jj + 3)     # columns j and j+1
    zt = op.zero_tol
    force_s = _abs(op.a_range(op.j_lo - 2, op.j_hi - 2)) <= zt
    force_u = _abs(op.a_range(op.j_lo, op.j_hi)) <= zt

    def pick(primary, fallback, force):
        np_, nf = _row_norms(primary), _row_norms(fallback)
        use_fb = (~force) & (nf > 2.0 * np_)
        if np.any(np.where(use_fb, nf, np_) == 0.0):
            raise DegenerateCocycle("resolvent columns pin no direction")
        return unit_rows(np.where(use_fb[:, None], fallback, primary))

    return SplittingField(j_first=op.j_lo, u=pick(uP, uF, force_u), s=pick(sP, sF, force_s))


def verify_invariance(seq, fld, threshold):
    """Largest chordal mismatch between pushed-forward and stored directions.

    A factor that annihilates u counts as a maximal violation; one that
    annihilates s is vacuously invariant (the image line degenerated).
    Returns (passed, residual).  The factors are read scaled by exact
    powers of two (mat2._renorm), which leaves every image line and
    every quotient of norms as it is, so no overall scale of the window
    over- or underflows the squares and makes images look dead; a norm
    that is still not finite raises InternalInconsistency.
    """
    sites = fld.sites()
    if len(sites) < 2:
        raise ValueError("need at least two sites")
    B, _ = _renorm(_sweep_values(seq)[sites[:-1] - seq.j_lo])
    W = _mul(B, np.stack([fld.u[:-1], fld.s[:-1]], axis=-1)).transpose(2, 0, 1)  # B u, B s
    scale = np.sqrt(np.sum(_abs2(B), axis=(1, 2)))
    nu, ns = _row_norms(W)
    if not np.isfinite(scale.max() + nu.max() + ns.max()):
        raise InternalInconsistency("factor norms overflow in the invariance check")
    dead_u = nu <= 1e-14 * scale
    dead_s = ns <= 1e-14 * scale
    ru, rs = chordal_rows(W, np.stack((fld.u[1:], fld.s[1:])))
    residual = float(max(np.max(np.where(dead_u, 2.0, ru)), np.max(np.where(dead_s, 0.0, rs))))
    return residual <= threshold, residual


@dataclass
class DominationCheck:
    ok: bool
    N: int
    margin: float
    tried: int
    detail: str = ""


def verify_domination(seq, fld):
    """Smallest block length N whose images of u beat those of s everywhere.

    The test at length N (_dominations, of one window) runs over every
    field site with N factors still inside the window and asks for
    |B_N u| / |B_N s| strictly above FACTOR, for N up to N_MAX; a
    contracting image hitting exact zero counts as an infinite ratio
    while a dead u image fails the site outright.  A NaN ratio ends the
    search with a NaN margin, which certify refuses.
    """
    return _dominations(_Batch([seq]), [(0, fld, None)])[0]


def _dominations(batch, jobs):
    """verify_domination for each job (w, fld, classes) of a batch, each
    window at most once, in one step loop over all their frames.

    The row of site j starts at the frame [u(j) s(j)] and reads the
    factors j, j + 1, ... for min(N_MAX, sites left) steps.  After step
    N its columns are B_N u and B_N s times one power of two, so the
    quotient of their norms (mat2._column_norms) is the growth ratio.
    The frames of the sites of one field class (classes, (first, ids) of
    mat2._classes; None for every site its own) are one start class, and
    rows of one class (mat2._row_classes) have one row's bits, so one
    head per class steps.  The heads run longest first, so the heads
    that take step N are a prefix Q[:k]: each step is one _mul of their
    factors into Q[:k] and one exact _renorm.  The loop ends once no
    window is left searching.
    """
    if not jobs:
        return []
    base, steps, start, frames, o = [], [], [], [], 0
    for w, fld, classes in jobs:
        seq, js = batch.seqs[w], fld.sites()
        base.append(batch.offsets[w] - seq.j_lo + js)
        steps.append(np.minimum(N_MAX, seq.j_hi + 1 - js))
        first, ids = (np.arange(len(js)),) * 2 if classes is None else classes
        frames.append(np.stack([fld.u[first], fld.s[first]], axis=-1))
        start.append(o + ids)
        o += len(first)
    win = np.repeat(np.arange(len(jobs)), [len(b) for b in base])
    tried = [int(s.max()) for s in steps]  # for a window that runs to its end
    base, steps, start = (np.concatenate(a) for a in (base, steps, start))
    heads, _ = _row_classes(start, base, steps, batch.repeats)
    b, n, win = base[heads], steps[heads], win[heads]
    X = np.concatenate(frames)
    Q = _take(X.astype(np.result_type(X, batch.slab)), start[heads])
    out, best = [None] * len(jobs), [(-math.inf, 0)] * len(jobs)  # best (margin, N)
    for N in range(1, int(n[0]) + 1):
        k = int(np.count_nonzero(n >= N))
        _mul(_take(batch.slab, b[:k] + N - 1), Q[:k], out=Q[:k])
        _renorm(Q[:k], out=Q[:k])
        keep = np.array([d is None for d in out])[win[:k]]
        wins, worst = win[:k][keep], np.full(len(jobs), math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN frames give NaN
            nu, ns = _column_norms(Q[:k][keep]).T
            np.minimum.at(worst, wins, np.where(nu == 0.0, 0.0, nu / ns))  # dead u 0, dead s inf
        for w in np.unique(wins).tolist():
            r = float(worst[w])
            if math.isnan(r):
                detail = f"nan growth ratio at block length {N}"
                out[w] = DominationCheck(False, N, math.nan, N, detail)
            elif r > FACTOR:
                out[w] = DominationCheck(True, N, r - FACTOR, N)
            elif r - FACTOR > best[w][0]:
                best[w] = (r - FACTOR, N)
        if None not in out:
            break
    fail = "no block length up to {} dominates by factor {}"
    return [d or DominationCheck(False, n, m, t, fail.format(t, FACTOR))
            for d, (m, n), t in zip(out, best, tried)]


def verify_separation(fld):
    """(passed, min chordal distance between the fields) of a nonempty
    field; it passes above DELTA_MIN."""
    if not len(fld):
        raise ValueError("empty field: no site to separate")
    delta = float(np.min(fld.separation()))
    return delta > DELTA_MIN, delta


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
    (u0, u1), (s0, s1) = fld.u.T, fld.s.T
    D = np.stack([fld.u, fld.s], axis=-1)
    dets = det2(D)
    if np.any(dets == 0.0):
        raise DegenerateCocycle("coincident fields give no frame")
    adj = np.stack([s1, -s0, -u1, u0], axis=-1).reshape(-1, 2, 2)
    return D, _cmul(adj, (1.0 / dets)[:, None, None])


ALPHAS = (1.0, 0.75, 1.25, 0.5, 1.5, 2.0)
RATIOS = (0.5, 0.25, 0.75)


def cone_certificate(seq, fld, N):
    """Search a small (alpha, alpha_prime) grid for an invariant cone.

    Block lengths N, 2N, 4N are tried in turn; among admissible pairs
    the one with the largest perturbation budget wins, the first in
    grid order on a tie.  Each block length scores every pair in one
    broadcast disk_image_margins call, which finds each alpha's disk
    images once for all its ratios.  Returns None when no tried pair
    certifies.
    """
    return _one(_cone_certificates(_Batch([seq]), [(0, fld, N, None)]))[0]


def _cone_certificates(batch, jobs):
    """cone_certificate for each job (w, fld, N, classes) of a batch,
    classes the field's site classes as _dominations takes them, with
    its stability_radius: (cone, epsilon), None for either where no pair
    certifies, or the exception that ends window w.

    At each block length, the products of every job still searching come
    from one _row_sweep call; each job then scores its own rows.
    A site's frame change and margins read its block's head and the
    classes of the frames at the block's two ends, so they are computed
    once per distinct triple of these: gamma, cond and the clearances
    are minima and maxima over the sites, which the distinct triples
    give as they are.  The pick and epsilon read gamma / sup_bound**N in
    binary exponents (stability_radius), free of the window's scale.
    """
    pairs = [(a, a * r) for a in ALPHAS for r in RATIOS]
    a_grid = np.array(ALPHAS)[:, None, None]
    ap_grid = a_grid * np.array(RATIOS)[:, None]
    out = [(None, None)] * len(jobs)
    frames = {}
    for i, (_, fld, _, classes) in enumerate(jobs):
        try:
            frames[i] = (*_frame_matrices(fld), np.arange(len(fld)) if classes is None else classes[1])
        except DegenerateCocycle as exc:
            out[i] = exc
    for mult in (1, 2, 4):
        rows = []
        for i in frames:
            w, fld, N, _ = jobs[i]
            n_blk = N * mult
            last = min(fld.j_last - n_blk, batch.seqs[w].j_hi + 1 - n_blk)
            if last >= fld.j_first:
                rows.append((i, n_blk, np.arange(fld.j_first, last + 1)))
        if not rows:
            continue
        P, exps, at = _row_sweep(
            batch.tables,
            np.concatenate([batch.offsets[jobs[i][0]] - batch.seqs[jobs[i][0]].j_lo + js
                            for i, _, js in rows]),
            np.concatenate([np.full(len(js), n_blk) for _, n_blk, js in rows]),
            batch.repeats,
        )
        end = 0
        for i, n_blk, js in rows:
            seg = at[end : end + len(js)]
            end += len(js)
            # each window's frame change and margins on its own: the
            # margin stacks of a whole batch would be its largest arrays
            D, Dinv, ids = frames[i]
            k = js - jobs[i][1].j_first
            first, _ = _classes(seg, ids[k + n_blk], ids[k])
            seg, k = seg[first], k[first]
            Pk = _take(P, seg)
            if not np.all(np.isfinite(Pk)):
                out[i] = InternalInconsistency("non-finite block product")
                del frames[i]
                continue
            Lam = _mul(_mul(Dinv[k + n_blk], Pk), D[k])
            # the least |Lam[:, 0, 0]| of the unscaled products, scaled back
            # exactly, as g * 2**(k_M n_blk): gamma is inf or 0 where it
            # leaves float64, as a norm floor is, g is not
            m, k_M = math.frexp(batch.seqs[jobs[i][0]].sup_bound)
            with np.errstate(over="ignore", under="ignore"):
                g = float(np.min(np.ldexp(_abs(Lam[:, 0, 0]), exps[seg] - k_M * n_blk)))
                gamma = float(np.ldexp(g, k_M * n_blk))
            cond = float(np.max(op_norm(Dinv[k + n_blk]) * op_norm(D[k])))
            clearances = np.min(disk_image_margins(Lam, a_grid, ap_grid), axis=-1)
            best = None
            for (al, ap), clearance in zip(pairs, clearances.ravel().tolist()):
                if clearance <= 0.0 or not math.isfinite(clearance):
                    continue
                cand = ConeCertificate(
                    N=n_blk,
                    alpha=al,
                    alpha_prime=ap,
                    clearance=clearance,
                    gamma=g,
                    cond=cond,
                    n_sites=len(js),
                )
                if best is None or cand.budget() > best.budget():
                    best = cand
            if best is not None:
                eps = stability_radius(best, m)  # < m / 2: gamma <= cond m**N
                out[i] = replace(best, gamma=gamma), eps and math.ldexp(eps, k_M)
                del frames[i]
    return out


def stability_radius(cone, sup_bound):
    """Largest per-factor perturbation size the cone data absorbs.

    Solves cond * ((M + eps)^N - M^N) = budget for eps, where N is the
    cone's block length and M bounds the factor norms; evaluated in log
    form to survive tiny budgets, with T = budget / cond = t * 2**y,
    M = m * 2**k and m**N = f * 2**z (as 2**(N log2 m) below the normal
    range), T / M**N as (t / f) * 2**(y - z - k N), so neither M**N nor
    the quotient need lie in float64.
    """
    if cone is None:
        return None
    N = cone.N
    T = cone.budget() / cone.cond
    M = float(sup_bound)
    if not (T > 0.0 and math.isfinite(T) and M > 0.0):
        return None
    (t, y), (m, k) = math.frexp(T), math.frexp(M)
    lg = N * math.log2(m)
    f, z = math.frexp(m**N) if m**N >= sys.float_info.min else (2.0 ** (lg % 1 - 1), math.floor(lg) + 1)
    x = y - z - k * N  # (t / f) * 2**x < 2**1024 for x < 1023, and log1p is log above
    lx = math.log1p(math.ldexp(t / f, x)) if x < 1023 else math.log(t / f) + x * math.log(2.0)
    try:
        eps = M * math.expm1(lx / N)
    except OverflowError:
        return None
    return eps if eps > 0.0 and math.isfinite(eps) else None


def _field_gap(f1, f2):
    """Largest chordal movement of either field from f1 to f2 (f2 inside f1)."""
    off, n = f2.j_first - f1.j_first, len(f2)
    g = chordal_rows(np.concatenate((f1.u[off : off + n], f1.s[off : off + n])),
                     np.concatenate((f2.u, f2.s)))
    return float(np.max(g))


def _ratio_estimates(batch, ws):
    """Per-factor growth ratio s1/s2 of each window w in ws: the
    geometric mean over up to five blocks of 16 factors, spread over the
    window.  A block's product is one entry of the batch's level-4 table
    (mat2._Tables), whose singular values are those of the block's row
    sweep bit for bit.  A window gets inf when no block has a finite
    ratio, and so does one of fewer than 16 factors, which has no block:
    its burn cap (len - 1) // 2 is at most 7, below the ladder's least
    start of 40, so no ratio moves its burn (_burn_ladder).  The logs and
    the exp are math's, per window, whose bits do not depend on the SIMD
    loops numpy picks for the CPU."""
    pos = []  # the slab positions of each window's blocks
    for w in ws:
        n = len(batch.seqs[w])
        starts = np.linspace(0, n - 16, max(0, min(5, n - 15)), dtype=int)
        pos.append(batch.offsets[w] + np.unique(starts))
    ratios = [np.empty(0)] * len(ws)
    if any(map(len, pos)):  # no level-4 table below 16 factors
        T, _ = batch.tables.level(4)
        s1, s2 = singular_values(_take(T, np.concatenate(pos)))
        with np.errstate(divide="ignore"):
            r = np.where(s2 > 0.0, s1 / np.where(s2 > 0.0, s2, 1.0), np.inf)
        ratios = np.split(r, np.cumsum(list(map(len, pos)))[:-1])
    out = []
    for r in ratios:
        r = np.maximum(r[np.isfinite(r)], 1.0).tolist()
        out.append(math.exp(sum(map(math.log, r)) / len(r)) ** (1.0 / 16) if r else math.inf)
    return out


def _burn_ladder(window, burn_hint, ratio):
    """Pick a burn-in: (burn, gap, failure_detail or None, core field).

    The gap is the largest chordal movement of either field under the
    last doubling of the burn-in.  A gap that refuses to decay flags
    rotation-like behavior; a gap still above 1e-3 at the window cap
    means the window cannot resolve the directions.  Without a hint, the
    ladder starts from the growth ratio (_ratio_estimates).  The ladder
    is a generator, so that the windows of a batch climb theirs in
    lockstep: it yields each burn whose core field it needs, in order,
    and is sent that field, whose rows _certify_batch asks _directions
    for.  Each field is built once and shared by the doublings that
    compare it.
    """
    lo, hi = window
    b_cap = (hi - lo) // 2
    fields = {}

    def gap(b1, b2):
        for b in (b1, b2):
            if b not in fields:
                fields[b] = yield b
        return _field_gap(fields[b1], fields[b2])

    if burn_hint is not None:
        b = min(int(burn_hint), b_cap)
        g = yield from gap(max(b // 2, 1), b)
        return b, g, None, fields[b]
    if not math.isfinite(ratio) or ratio <= 1.0 + 1e-9:
        b0 = 40
    else:
        b0 = max(40, 8 * math.ceil(1.0 / max(math.log2(ratio), 1e-6)))
    b = min(b0, b_cap)
    g_prev = yield from gap(max(b // 2, 1), b)
    while g_prev > 1e-8 and b < b_cap:
        b_next = min(2 * b, b_cap)
        g = yield from gap(b, b_next)
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


# Product rows one batch may hold expanded, in float64 rows (two per
# site).  The value was set from the cost of a sweep step per row before
# rows were shared: on a 2-core AVX-512 Xeon with a 1 MB L2 cache, a
# renormalized float64 step cost about 11 ns a row from 6,000 to 10,000
# rows and 20 ns at 12,000, where its stacks fall out of the cache; a
# complex128 step about 70 ns a row from 1,500 to 3,500 rows and 85 ns at
# 4,000, so a complex row counts three.  The sweeps and the per-row reads
# now touch class heads only (a window without repeats has nearly every
# row as its head), so the constant bounds the per-site rows a batch
# lists and gathers: the row keys of _row_classes and the site arrays.
BATCH_ROWS = 10_000


def certify(seq, *, burn=None):
    """Run the full dominated-splitting pipeline on a matrix window.

    Returns a DSCertificate; this is certify_many([seq], burn=burn)[0],
    whose verdicts it shares.
    """
    return certify_many([seq], burn=burn)[0]


def certify_many(seqs, *, burn=None):
    """certify() on every window of seqs, as one batched pipeline.

    Returns one DSCertificate per window, in order.  The verdict is
    "verified", "marginal" (all conditions hold but the domination
    margin is thin), or "failed" with the first broken condition
    recorded.  A failed verdict still carries every measured quantity
    that was reachable.  A NaN invariance residual, domination margin,
    extended separation or norm floor at N raises InternalInconsistency
    instead of reaching a threshold (an infinite margin is a legal
    value).  When a window raises, certify_many raises the first such
    error in window order, as a loop of certify calls would; the others'
    results are unaffected by it.

    burn is a burn-in hint for every window (None lets each window
    choose its own); a hint below 1 raises ValueError before any window
    runs.  The thresholds are the module's constants: DELTA_MIN,
    RES_MAX, FLOOR_REL, N_MAX and FACTOR, and MARGINAL_MARGIN, the
    domination margin below which a verdict is "marginal".

    Windows of one sweep dtype run as batches of at most BATCH_ROWS
    product rows (see there), each product stage as one sweep over the
    batch's live windows (see the module docstring), and every
    certificate is that of the window certified alone, bit for bit.
    Each certificate's core_field owns its arrays, so keeping one pins
    no batch.
    """
    out = _certify_each(seqs, burn=burn)
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out


def _certify_each(seqs, *, burn=None):
    """certify_many's results, each window's outcome in its own slot: its
    DSCertificate, or the exception certify would raise on it."""
    if burn is not None and burn < 1:
        raise ValueError(f"burn must be >= 1, got {burn}")
    seqs = list(seqs)
    out = [None] * len(seqs)
    groups = {}
    for i, seq in enumerate(seqs):
        try:
            if not isinstance(seq, MatSequence):
                seq = MatSequence(0, np.asarray(seq, dtype=complex))
            if len(seq) < 5:  # (hi - lo) // 2 < 2: a burn cap below 2
                raise ValueError("window too short to resolve direction fields")
        except (TypeError, ValueError) as exc:
            out[i] = exc
            continue
        vals = _sweep_values(seq)
        groups.setdefault(vals.dtype, []).append((i, seq, vals))
    for members in groups.values():
        for part in _batches(members):
            batch = _Batch([seq for _, seq, _ in part], [vals for _, _, vals in part])
            for (i, _, _), res in zip(part, _certify_batch(batch, burn)):
                out[i] = res
    return out


def _batches(members):
    """Consecutive runs of members (i, seq, vals), all of one dtype,
    holding at most BATCH_ROWS product rows; a longer window runs alone."""
    part, rows = [], 0
    for m in members:
        n = 2 * len(m[1]) * (3 if m[2].dtype.kind == "c" else 1)
        if part and rows + n > BATCH_ROWS:
            yield part
            part, rows = [], 0
        part.append(m)
        rows += n
    if part:
        yield part


def _certify_batch(batch, burn):
    """The pipeline of certify_many over one _Batch: a DSCertificate or
    an exception per window."""
    seqs = batch.seqs
    out = [None] * len(seqs)
    ws = range(len(seqs))
    ratios = _ratio_estimates(batch, ws) if burn is None else [None] * len(ws)
    ladders = {w: _burn_ladder(seqs[w].window, burn, r) for w, r in zip(ws, ratios)}
    want = {w: next(ladder) for w, ladder in ladders.items()}
    resolved, classes = {}, {}
    while want:
        # each window's core field at the burn its ladder asks for: every
        # site with the full burn on both sides
        jobs = []
        for w, b in want.items():
            lo, hi = seqs[w].window
            js = np.arange(lo + b, hi + 2 - b)
            full = np.full(len(js), b)
            jobs.append((w, js, full, full))
        for (w, js, _, _), d in zip(jobs, _directions(batch, jobs)):
            if isinstance(d, Exception):
                out[w] = d
                del want[w]
                continue
            b = want[w]
            u, s, classes[w, b] = d
            fld = SplittingField(j_first=int(js[0]), u=u, s=s)
            try:
                want[w] = ladders[w].send(fld)
            except StopIteration as stop:
                resolved[w] = stop.value
                del want[w]

    for w, (b, gap, no_field, core) in resolved.items():
        if no_field is not None:
            out[w] = DSCertificate(
                verdict="failed",
                window=seqs[w].window,
                burn=b,
                convergence_gap=gap,
                conditions={1: None, 2: False, 3: None, 4: None},
                failed_condition=2,
                failure_detail=no_field,
                core_field=core,
            )
    ws = sorted(w for w in resolved if out[w] is None)
    # condition 3 reads the extended field over [lo + 1, hi], whose sites
    # within one burn of either end (the end sites) take shorter burns;
    # every other site is a core site, whose rows are the core field's
    ends = []
    for w in ws:
        (lo, hi), b = seqs[w].window, resolved[w][0]
        js = np.arange(lo + 1, hi + 1)
        bu, bs = np.minimum(b, js - lo), np.minimum(b, hi + 1 - js)
        end = np.minimum(bu, bs) < b
        ends.append((w, js[end], bu[end], bs[end]))
    end_seps = {}
    for (w, *_), d in zip(ends, _directions(batch, ends)):
        if isinstance(d, Exception):
            out[w] = d
        else:
            end_seps[w] = np.min(chordal_rows(d[0], d[1]), initial=np.inf)
    ws = [w for w in ws if out[w] is None]

    # the classes of each core field's sites, which its frames share
    frames = {w: _classes(*classes[w, resolved[w][0]]) for w in ws}
    doms = dict(zip(ws, _dominations(batch, [(w, resolved[w][3], frames[w]) for w in ws])))
    # each window's norm floor at its N, for condition 4
    f, x = _floors(batch.tables, batch.offsets[ws], [len(seqs[w]) for w in ws],
                   [doms[w].N for w in ws], batch.repeats)
    floors = dict(zip(ws, zip(f.tolist(), x.tolist())))

    def judge(w):
        seq, (b, gap, _, core), dom = seqs[w], resolved[w], doms[w]
        res_eff = max(RES_MAX, 8.0 * gap)
        inv_ok, inv_res = verify_invariance(seq, core, res_eff)
        _, delta_core = verify_separation(core)
        # np.minimum, which keeps a NaN of either side for the NaN check
        delta_ext = float(np.minimum(delta_core, end_seps[w]))
        sep_ok = delta_ext > DELTA_MIN
        (f, x), N = floors[w], dom.N
        m, k = math.frexp(seq.sup_bound)
        with np.errstate(over="ignore"):  # a floor or threshold beyond float64 reads inf
            floor_val = float(np.ldexp(f, x))
            floor_thr = float(FLOOR_REL * np.float64(seq.sup_bound) ** N)
            # f * 2**x > FLOOR_REL * sup_bound**N, sup_bound = m * 2**k, as
            # f * 2**(x - k N) > FLOOR_REL * m**N, whose left side overflows
            # or underflows only where the outcome is plain
            above = float(np.ldexp(f, x - k * N)) > FLOOR_REL * m**N
        for name, value in (
            ("invariance residual", inv_res),
            ("domination margin", dom.margin),
            ("extended field separation", delta_ext),
            (f"norm floor at N={N}", floor_val),
        ):
            if math.isnan(value):
                raise InternalInconsistency(f"{name} is nan")
        conditions = {1: bool(inv_ok), 2: bool(dom.ok), 3: bool(sep_ok), 4: above}
        failed = next((k for k in (1, 2, 3, 4) if conditions[k] is False), None)
        details = {
            1: f"invariance residual {inv_res:.3e} above {res_eff:.3e}",
            2: dom.detail,
            3: f"field separation {delta_ext:.3e} at or below {DELTA_MIN:.3e}",
            4: f"norm floor {floor_val:.3e} at N={N} below {floor_thr:.3e}",
        }
        return DSCertificate(
            verdict="failed" if failed is not None else "verified",
            window=seq.window,
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
            notes={"n_core_sites": len(core)},
            core_field=core,
        )

    # what judge raises ends w alone, and certify_many raises it in
    # window order
    certs = {}
    for w in ws:
        try:
            cert = judge(w)
        except Exception as exc:
            out[w] = exc
            continue
        if cert.ok:
            certs[w] = cert
        else:
            out[w] = cert
    jobs = [(w, resolved[w][3], certs[w].N, frames[w]) for w in certs]
    for (w, *_), res in zip(jobs, _cone_certificates(batch, jobs)):
        if isinstance(res, Exception):
            out[w] = res
            continue
        certs[w].cone, certs[w].epsilon = res
    for w in certs:
        if out[w] is None:
            if 0.0 < doms[w].margin < MARGINAL_MARGIN:
                certs[w].verdict = "marginal"
            out[w] = certs[w]
    return out


def certify_operator(op, E, spectrum_approx=None, *, burn=None):
    """certify() on the energy-E transfer cocycle of a Jacobi operator.

    When a spectrum approximation is supplied, the distance from E to
    its interval cover is recorded in the certificate notes.
    """
    cert = certify(cocycle_map(op, E), burn=burn)
    cert.notes["energy"] = complex(E)
    if spectrum_approx is not None:
        cert.notes["delta_spec"] = dist_to_spectrum(spectrum_approx, E)
    return cert


def subsample_equivalence_check(seq, N):
    """Certify a window and its N-step block resampling; verdicts must agree.

    The block sequence multiplies each group of N consecutive factors
    into one; a dominated window stays dominated at the coarser scale
    and vice versa, so disagreement signals a pipeline defect rather
    than a property of the data.
    """
    starts = np.arange(seq.j_lo, seq.j_hi + 2 - N, N)
    block = MatSequence(0, span_products(seq, starts, N))
    base, block = certify_many([seq, block])
    return {
        "consistent": (base.verdict != "failed") == (block.verdict != "failed"),
        "base": base,
        "block": block,
    }
