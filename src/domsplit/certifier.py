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
picks.  Every product stage of a batch (the growth-ratio blocks, the
burn ladders, climbed in lockstep, the extended fields, the domination
frames, the floor curves and the cone blocks) is one mat2 row sweep over
the rows of all its live windows: the domination frames and the floor
curves one factor per step (mat2._visit_sweep), the others in doubling
order on the batch's tables (mat2._row_sweep on mat2._Tables), so each
rung of a burn ladder is computed afresh from the tables.  A field row
stops at the first exactly singular factor it meets, whose product pins
the direction exactly: the range of a u product, the kernel of an s
product (_cut_burns, _directions).  Every row is renormalized by exact
powers of two (mat2._renorm), so every certificate is bit for bit that
of its window alone.  The other checks run per window.

A row's bits depend on nothing but its start row and its factors, so
rows that agree bitwise on both are one computation, and a row sweep
sweeps one row of each such class, its head.  Where a window's factors
repeat with a shift q (a periodic orbit, the free chain's interior),
the row at site j + q copies the one at j, and as every row is read
forward from its first factor, the u row of site j is the s row of site
j - burn; _repeat_map finds those repeats once per batch, the one place
that compares factor bits.  The classes travel from stage to stage as
integer ids: singular vectors and unit rows are taken of heads only,
cone margins once per distinct (block, frame, frame) triple, and only
the rows that leave the pipeline are gathered to every site.  A window
without repeats runs the same code, each row its own head.

Only the window is ever inspected; a verdict is a statement about the
given finite data, not about any infinite extension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .jacobi import (
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
    _block_products,
    _cmul,
    _column_norms,
    _floor_curves,
    _larger_columns,
    _max_abs,
    _mul,
    _renorm,
    _row_norms,
    _row_sweep,
    _sweep_values,
    _Tables,
    _take,
    _visit_sweep,
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

DELTA_MIN = 1e-4
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
    in complex128.  burn_u/burn_s record how many factors backed each
    site's estimate; greens-based fields use 0 there.
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


def _slab(vals):
    """The sweep values of windows laid end to end, as one plane-major
    stack."""
    return np.concatenate([v.transpose(1, 2, 0) for v in vals], axis=-1).transpose(2, 0, 1)


def _repeat_map(slab, lengths):
    """The exact repeats of a _slab of windows of the given lengths, as
    (q, gaps) for _row_sweep, or None when no window repeats.

    q[p] is the shift of the window that slab position p belongs to: the
    smallest d at which at least half of its factors are bitwise the
    factor d earlier, tried among the shifts from its middle factor to
    the later repeats of it (0 when there are none; the choice decides
    only how much a row sweep shares).  gaps counts, up to each
    position, the positions p whose factor is not bitwise the one q[p]
    earlier in the same window (every position of a window with q = 0),
    so the factors over [b, b + n) are those over [b - q[b], b - q[b] +
    n) bit for bit whenever gaps[b + n] == gaps[b] and n > 0.
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
    return q, np.concatenate(([0], np.cumsum(~same)))


class _Batch:
    """Windows of one sweep dtype, certified together.

    slab (_slab) holds their sweep values end to end, window w from
    offsets[w] on, tables (mat2._Tables) its doubling tables, built as
    the stages ask for them and freed with the batch, and repeats its
    _repeat_map.  zeros[w] lists the sites of w's exactly singular
    factors, read off the renormalized factors (the tables' level 0),
    whose determinants underflow only where an exact one would.
    """

    def __init__(self, seqs, vals=None):
        self.seqs = seqs
        self.slab = _slab([_sweep_values(s) for s in seqs] if vals is None else vals)
        self.tables = _Tables(self.slab)
        self.repeats = _repeat_map(self.slab, [len(s) for s in seqs])
        self.offsets = np.cumsum([0] + [len(s) for s in seqs[:-1]])
        T, _ = self.tables.level(0)
        self.zeros = [np.flatnonzero(det2(T[o : o + len(s)]) == 0.0) + s.j_lo
                      for o, s in zip(self.offsets.tolist(), seqs)]


def _one(outcomes):
    """The outcome of a one-job batch call, raised if it is an exception."""
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    return outcomes[0]


def _window_products(batch, jobs):
    """Per-site window products behind the direction fields, for many
    windows in one sweep.

    batch is a _Batch of the windows, and each job (off, sites, bu, bs)
    asks for one window's products: off is the window's offset in the
    slab, sites are window indices (0 for its first factor), and bu/bs
    the burns, which may differ by site (_cut_burns cuts them).  The U
    of site j is the product of the bu factors before j, A(j-1) ...
    A(j-bu), and its S that of the bs factors from j on, A(j+bs-1) ...
    A(j): both are rows read forward from their first factor, in
    doubling order on the batch's tables (mat2._row_sweep), so the U of
    site j is the S of site j - bu when the burns agree.  A row's bits
    depend only on its factors and its burn, so any rung of a burn
    ladder, in any batch, reproduces the products of its window's sites
    alone.

    Returns (H, idx): H the sweep's class heads, in the dtype of the
    slab, and idx the u and s head of each site, the jobs' sites end to
    end, so the U of site i is H[idx[0, i]] and its S H[idx[1, i]].
    """
    if not jobs:
        return None, np.zeros((2, 0), dtype=np.intp)
    sites = np.concatenate([off + sites for off, sites, _, _ in jobs])
    bu = np.concatenate([bu for _, _, bu, _ in jobs])
    base = np.concatenate((sites - bu, sites))
    steps = np.concatenate([bu] + [bs for _, _, _, bs in jobs])
    eye = np.eye(2, dtype=batch.slab.dtype)[None]
    H, _, at = _row_sweep(eye, np.zeros(len(base), dtype=np.intp), batch.tables, base, steps,
                          batch.repeats)
    return H, at.reshape(2, -1)


def _perp_rows(v):
    out = np.empty_like(v)
    out[..., 0] = -np.conj(v[..., 1])
    out[..., 1] = np.conj(v[..., 0])
    return out


def _cut_burns(zpos, js, bu, bs):
    """The burns of sites js cut at the first exactly singular factor
    each side meets, the singular factors sitting at the sorted sites
    zpos: (bu, bs, stop_u, stop_s), stop_u and stop_s marking the sites
    whose u and s rows stopped.

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
    (u, s, cls) or the exception that ends window w: u and s arrays of
    its own, and cls the sites' classes, sites of one class having
    bitwise equal u and s rows (None in a batch without repeats, where
    every site is its own class).

    The products are those of the burns cut at the window's exactly
    singular factors (_cut_burns), from one _window_products sweep.  A
    row that stopped at a singular factor pins its direction exactly: u
    is the range of U, s the kernel of S, both read off the larger
    column (of S's transpose) by mat2._larger_columns.  Every other row
    takes the singular vectors of its product.  Both are read once per
    distinct pair of a head and a stop, from one call per side for all
    jobs, in the dtype of the heads, and gathered to the sites once: each
    site's rows depend only on its own product and stop, so any subset of
    sites, in any batch, reproduces the rows a larger call computes.
    """
    if not jobs:
        return []
    cuts = [_cut_burns(batch.zeros[w], js, bu, bs) for w, js, bu, bs in jobs]
    H, idx = _window_products(batch, [
        (batch.offsets[w], js - batch.seqs[w].j_lo, cu, cs)
        for (w, js, _, _), (cu, cs, _, _) in zip(jobs, cuts)
    ])
    # one row per side and distinct (head, stop), key // 2 its head
    (ku, iu), (ks, is_) = (
        _distinct(2 * i + np.concatenate([c[side] for c in cuts]), 2 * len(H))
        for i, side in zip(idx, (2, 3))
    )
    U, S = _take(H, ku // 2), _take(H, ks // 2)
    stop_u, stop_s = ku % 2 == 1, ks % 2 == 1
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
    cls = None if batch.repeats is None else iu * len(ks) + is_
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
            d = (u[iu[r]], s[is_[r]], None if cls is None else cls[r])
        out.append(d)
    return out


def _distinct(keys, n):
    """The distinct values of int keys in [0, n), ascending, and the index
    of each key among them: np.unique with return_inverse, by a table
    instead of a sort."""
    seen = np.zeros(n, dtype=bool)
    seen[keys] = True
    first = np.flatnonzero(seen)
    pos = np.empty(n, dtype=np.intp)
    pos[first] = np.arange(len(first))
    return first, pos[keys]


def _core_fields(batch, jobs):
    """Core field at burn for each job (w, burn), with its site classes:
    (field, cls), or the exception that ends window w.

    Sites of one cls have bitwise equal field rows, so the frames of the
    domination check and the cone search share rows by it.  All jobs
    share one sweep, and each burn is computed afresh from the batch's
    tables, in at most bit_length(burn) kernel calls.
    """
    specs = []
    for w, burn in jobs:
        lo, hi = batch.seqs[w].window
        js = np.arange(lo + burn, hi + 2 - burn)
        specs.append((w, js, np.full(len(js), burn)))
    out = []
    dirs = _directions(batch, [(w, js, full, full) for w, js, full in specs])
    for (_, burn), (_, js, full), d in zip(jobs, specs, dirs):
        if isinstance(d, Exception):
            out.append(d)
            continue
        fld = SplittingField(
            j_first=int(js[0]), u=d[0], s=d[1], method="power", burn=burn,
            burn_u=full, burn_s=full,
        )
        out.append((fld, d[2]))
    return out


def _extend_fields(batch, jobs):
    """The extended field of power_directions for each job (w, burn,
    core), spliced around the core field, or the exception that ends
    window w.

    Core sites carry the full burn on both sides in either mode, so
    their rows are copied from the core field (None when the window is
    too short for one); only the sites within one burn of either end
    need new products, and those of all jobs share one sweep.
    """
    specs = []
    for w, burn, core in jobs:
        lo, hi = batch.seqs[w].window
        js = np.arange(lo + 1, hi + 1)
        bu = np.minimum(burn, js - lo)
        bs = np.minimum(burn, hi + 1 - js)
        new = np.ones(len(js), dtype=bool)
        if core is not None:
            new[core.j_first - lo - 1 : core.j_last - lo] = False
        specs.append((w, burn, core, lo, js, bu, bs, new))
    todo = [spec for spec in specs if np.any(spec[-1])]
    dirs = _directions(batch, [
        (w, js[new], bu[new], bs[new]) for w, _, _, _, js, bu, bs, new in todo
    ])
    dirs = {spec[0]: d for spec, d in zip(todo, dirs)}
    out = []
    for w, burn, core, lo, js, bu, bs, new in specs:
        d = dirs.get(w)
        if isinstance(d, Exception):
            out.append(d)
            continue
        u = np.empty((len(js), 2), dtype=batch.slab.dtype)
        s = np.empty_like(u)
        if core is not None:
            u[~new], s[~new] = core.u, core.s
        if d is not None:
            u[new], s[new] = d[:2]
        out.append(SplittingField(
            j_first=lo + 1, u=u, s=s, method="power", burn=burn, burn_u=bu, burn_s=bs
        ))
    return out


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
    batch = _Batch([seq])
    core = None
    if lo + burn <= hi + 1 - burn:
        core = _one(_core_fields(batch, [(0, burn)]))[0]
    if extend:
        return _one(_extend_fields(batch, [(0, burn, core)]))
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
    probe = greens_column(op, E, (op.j_lo + op.j_hi) // 2, margin=margin,
                          spectrum_approx=spectrum_approx, delta_min=delta_min)
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


def verify_domination(seq, fld, n_max=N_MAX, factor=FACTOR):
    """Smallest block length N whose images of u beat those of s everywhere.

    The test at length N (_dominations, of one window) runs over every
    field site with N factors still inside the window and asks for
    |B_N u| / |B_N s| strictly above `factor`; a contracting image
    hitting exact zero counts as an infinite ratio while a dead u image
    fails the site outright.  A NaN ratio ends the search with a NaN
    margin, which certify refuses.
    """
    return _dominations(_Batch([seq]), [(0, fld, None)], n_max, factor)[0]


def _site_classes(cls):
    """Dense ids of a field's site classes (cls from _core_fields) and the
    first site of each id, as _dominations and _cone_certificates take
    them; None (every site its own class) stays None."""
    if cls is None:
        return None
    _, first, ids = np.unique(cls, return_index=True, return_inverse=True)
    return ids, first


def _dominations(batch, jobs, n_max=N_MAX, factor=FACTOR):
    """verify_domination for each job (w, fld, classes) of a batch, each
    window at most once, as one mat2._visit_sweep.

    The row of site j starts at the frame [u(j) s(j)] and reads the
    factors j, j + 1, ... for min(n_max, sites left) steps.  After step
    N its columns are B_N u and B_N s times one power of two, so the
    quotient of their norms (mat2._column_norms) is the growth ratio.
    The frames of the sites of one field class (classes from
    _site_classes; None for every site its own) are one start class, and
    a row that copies another (batch.repeats) has its bits.  The sweep ends once no window
    is left searching.
    """
    if not jobs:
        return []
    base, steps, start, frames, o = [], [], [], [], 0
    for w, fld, classes in jobs:
        seq, js = batch.seqs[w], fld.sites()
        base.append(batch.offsets[w] - seq.j_lo + js)
        steps.append(np.minimum(n_max, seq.j_hi + 1 - js))
        ids, first = (np.arange(len(js)),) * 2 if classes is None else classes
        frames.append(np.stack([fld.u[first], fld.s[first]], axis=-1))
        start.append(o + ids)
        o += len(first)
    win = np.repeat(np.arange(len(jobs)), [len(b) for b in base])
    tried = [int(s.max()) for s in steps]  # for a window that runs to its end
    out, best = [None] * len(jobs), [(-math.inf, 0)] * len(jobs)  # best (margin, N)
    count = itertools.count(1)

    def visit(rows, Q, e):
        N = next(count)
        keep = np.array([d is None for d in out])[win[rows]]
        wins, worst = win[rows][keep], np.full(len(jobs), math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN frames give NaN
            nu, ns = _column_norms(Q[keep]).T
            np.minimum.at(worst, wins, np.where(nu == 0.0, 0.0, nu / ns))  # dead u 0, dead s inf
        for k in np.unique(wins).tolist():
            r = float(worst[k])
            if math.isnan(r):
                detail = f"nan growth ratio at block length {N}"
                out[k] = DominationCheck(False, N, math.nan, N, detail)
            elif r > factor:
                out[k] = DominationCheck(True, N, r - factor, N)
            elif r - factor > best[k][0]:
                best[k] = (r - factor, N)
        return None not in out

    _visit_sweep(np.concatenate(frames), np.concatenate(start), batch.slab, np.concatenate(base),
                 np.concatenate(steps), batch.repeats, visit)
    fail = "no block length up to {} dominates by factor {}"
    return [d or DominationCheck(False, n, m, t, fail.format(t, factor))
            for d, (m, n), t in zip(out, best, tried)]


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
    from one _block_products call; each job then scores its own rows.
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
            frames[i] = (*_frame_matrices(fld), None if classes is None else classes[0])
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
        P, exps, at = _block_products(
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
            # without classes every site's frames are its own: triples differ
            if ids is not None:
                first = _first_rows(seg, ids[k + n_blk], ids[k])
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


def _first_rows(*keys):
    """The first row of each distinct tuple of the int arrays keys, in
    row order."""
    order = np.lexsort(keys[::-1])  # stable: equal tuples keep row order
    t = np.stack(keys)[:, order]
    return np.sort(order[np.r_[True, (t[:, 1:] != t[:, :-1]).any(axis=0)]])


def stability_radius(cone, sup_bound, n_steps=None):
    """Largest per-factor perturbation size the cone data absorbs.

    Solves cond * ((M + eps)^N - M^N) = budget for eps, where M bounds
    the factor norms; evaluated in log form to survive tiny budgets, with
    M = m * 2**k and T = budget / cond, T / M**N as T * 2**(-k N) / m**N,
    so M**N need not lie in float64.
    """
    if cone is None:
        return None
    N = n_steps or cone.N
    T = cone.budget() / cone.cond
    M = float(sup_bound)
    if not (T > 0.0 and math.isfinite(T) and M > 0.0):
        return None
    m, k = math.frexp(M)
    try:
        eps = M * math.expm1(math.log1p(math.ldexp(T, -k * N) / m**N) / N)
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
    geometric mean over up to five blocks of min(16, len) factors, spread
    over the window, with the blocks of every window from one
    _block_products call.  A window gets inf when no block has a finite
    ratio.  The logs and the exp are math's, per window, whose bits do
    not depend on the SIMD loops numpy picks for the CPU."""
    plans = []
    for w in ws:
        winlen = len(batch.seqs[w])
        m = min(16, winlen)
        starts = np.unique(np.linspace(0, winlen - m, min(5, winlen - m + 1), dtype=int))
        plans.append((m, batch.offsets[w] + starts))
    P, _, at = _block_products(
        batch.tables,
        np.concatenate([starts for _, starts in plans]),
        np.concatenate([np.full(len(starts), m) for m, starts in plans]),
        batch.repeats,
    )
    s1, s2 = singular_values(P)
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


def _burn_ladder(window, burn_hint, ratio):
    """Pick a burn-in: (burn, gap, failure_detail or None, core field).

    The gap is the largest chordal movement of either field under the
    last doubling of the burn-in.  A gap that refuses to decay flags
    rotation-like behavior; a gap still above 1e-3 at the window cap
    means the window cannot resolve the directions.  Without a hint, the
    ladder starts from the growth ratio (_ratio_estimates).  The ladder
    is a generator, so that the windows of a batch climb theirs in
    lockstep: it yields each burn whose core field it needs, in order,
    and is sent that field (_core_fields).  Each field is built once and
    shared by the doublings that compare it.
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
        b = max(1, min(int(burn_hint), b_cap))
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
# now touch class heads only (a window without repeats has every row as
# its head), so the constant bounds the per-site rows a batch lists and
# gathers: the row keys of _row_classes and the site arrays.
BATCH_ROWS = 10_000


def certify(seq, **kw):
    """Run the full dominated-splitting pipeline on a matrix window.

    Returns a DSCertificate; this is certify_many([seq], **kw)[0], whose
    keywords and verdicts it shares.
    """
    return certify_many([seq], **kw)[0]


def certify_many(seqs, *, burn=None, marginal_margin=MARGINAL_MARGIN, want_cone=True):
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

    burn is a burn-in hint for every window, marginal_margin the
    domination margin below which a verdict is "marginal", and
    want_cone=False skips the cone search.  The thresholds are the
    module's constants: DELTA_MIN, RES_MAX, FLOOR_REL, N_MAX and FACTOR.

    Windows of one sweep dtype run as batches of at most BATCH_ROWS
    product rows (see there), each product stage as one sweep over the
    batch's live windows (see the module docstring), and every
    certificate is that of the window certified alone, bit for bit.
    Each certificate's core_field owns its arrays, so keeping one pins
    no batch.
    """
    out = _certify_each(seqs, burn=burn, marginal_margin=marginal_margin, want_cone=want_cone)
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out


def _certify_each(seqs, *, burn=None, marginal_margin=MARGINAL_MARGIN, want_cone=True):
    """certify_many's results, each window's outcome in its own slot: its
    DSCertificate, or the exception certify would raise on it."""
    opts = dict(burn=burn, marginal_margin=marginal_margin, want_cone=want_cone)
    seqs = list(seqs)
    out = [None] * len(seqs)
    groups = {}
    for i, seq in enumerate(seqs):
        try:
            if not isinstance(seq, MatSequence):
                seq = MatSequence(0, np.asarray(seq, dtype=complex))
        except (TypeError, ValueError) as exc:
            out[i] = exc
            continue
        vals = _sweep_values(seq)
        groups.setdefault(vals.dtype, []).append((i, seq, vals))
    for members in groups.values():
        for part in _batches(members):
            batch = _Batch([seq for _, seq, _ in part], [vals for _, _, vals in part])
            for (i, _, _), res in zip(part, _certify_batch(batch, **opts)):
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


def _certify_batch(batch, *, burn, marginal_margin, want_cone):
    """The pipeline of certify_many over one _Batch: a DSCertificate or
    an exception per window."""
    seqs = batch.seqs
    out = [None] * len(seqs)

    def each(fn, ws):
        # fn(w) for the windows of ws still open; what fn raises ends w
        # alone, and certify_many raises it in window order
        for w in ws:
            if out[w] is None:
                try:
                    fn(w)
                except Exception as exc:
                    out[w] = exc
        return [w for w in ws if out[w] is None]

    def long_enough(w):
        lo, hi = seqs[w].window
        if (hi - lo) // 2 < 2:
            raise ValueError("window too short to resolve direction fields")

    ws = each(long_enough, range(len(seqs)))
    ratios = _ratio_estimates(batch, ws) if burn is None and ws else [None] * len(ws)
    ladders = {w: _burn_ladder(seqs[w].window, burn, r) for w, r in zip(ws, ratios)}
    want = {w: next(ladder) for w, ladder in ladders.items()}
    resolved, classes = {}, {}
    while want:
        jobs = list(want.items())
        for (w, _), res in zip(jobs, _core_fields(batch, jobs)):
            if isinstance(res, Exception):
                out[w] = res
                del want[w]
                continue
            fld, classes[w, fld.burn] = res
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
    exts = {}
    for w, ext in zip(ws, _extend_fields(batch, [(w, resolved[w][0], resolved[w][3]) for w in ws])):
        if isinstance(ext, Exception):
            out[w] = ext
        else:
            exts[w] = ext
    ws = [w for w in ws if out[w] is None]

    # the classes of each core field's sites, which its frames share
    frames = {w: _site_classes(classes[w, resolved[w][3].burn]) for w in ws}
    doms = dict(zip(ws, _dominations(batch, [(w, resolved[w][3], frames[w]) for w in ws])))
    checks = {}

    def check(w):
        seq, (_, gap, _, core) = seqs[w], resolved[w]
        res_eff = max(RES_MAX, 8.0 * gap)
        inv_ok, inv_res = verify_invariance(seq, core, res_eff)
        sep_ok, delta_ext = verify_separation(exts[w])
        _, delta_core = verify_separation(core)
        checks[w] = (res_eff, inv_ok, inv_res, doms[w], sep_ok, delta_ext, delta_core)

    ws = each(check, ws)
    # each window's floors to max(20, N): condition 4 reads N's
    lens = [len(seqs[w]) for w in ws]
    tops = [min(n, max(20, doms[w].N)) for w, n in zip(ws, lens)]
    floors = dict(zip(ws, _floor_curves(batch.slab, batch.offsets[ws], lens, tops, batch.repeats)))
    certs = {}

    def judge(w):
        seq, (b, gap, _, core) = seqs[w], resolved[w]
        res_eff, inv_ok, inv_res, dom, sep_ok, delta_ext, delta_core = checks[w]
        f, x = floors[w]
        ns = range(1, len(f) + 1)
        with np.errstate(over="ignore"):  # a floor or threshold beyond float64 reads inf
            values = np.ldexp(f, x).tolist()
            thresholds = [float(FLOOR_REL * np.float64(seq.sup_bound) ** n) for n in ns]
            # f * 2**x > FLOOR_REL * sup_bound**n, sup_bound = m * 2**k, as
            # f * 2**(x - k n) > FLOOR_REL * m**n, whose left side overflows
            # or underflows only where the outcome is plain
            m, k = math.frexp(seq.sup_bound)
            scaled = np.ldexp(f, x - k * np.array(ns)).tolist()
        above = [v > FLOOR_REL * m**n for n, v in zip(ns, scaled)]
        curve = list(zip(ns, values, thresholds))[:20]
        floor_val, floor_thr = values[dom.N - 1], thresholds[dom.N - 1]
        for name, value in (
            ("invariance residual", inv_res),
            ("domination margin", dom.margin),
            ("extended field separation", delta_ext),
            (f"norm floor at N={dom.N}", floor_val),
        ):
            if math.isnan(value):
                raise InternalInconsistency(f"{name} is nan")
        notes = {
            "floor_curve": curve,
            "floor_curve_ok": all(above[:20]),
            "n_core_sites": len(core),
        }
        conditions = {1: bool(inv_ok), 2: bool(dom.ok), 3: bool(sep_ok), 4: above[dom.N - 1]}
        failed = next((k for k in (1, 2, 3, 4) if conditions[k] is False), None)
        details = {
            1: f"invariance residual {inv_res:.3e} above {res_eff:.3e}",
            2: dom.detail,
            3: f"field separation {delta_ext:.3e} at or below {DELTA_MIN:.3e}",
            4: f"norm floor {floor_val:.3e} at N={dom.N} below {floor_thr:.3e}",
        }
        cert = DSCertificate(
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
            notes=notes,
            core_field=core,
        )
        if failed is not None:
            out[w] = cert
        certs[w] = cert

    ws = each(judge, ws)
    if want_cone:
        jobs = [(w, resolved[w][3], certs[w].N, frames[w]) for w in ws]
        for (w, *_), res in zip(jobs, _cone_certificates(batch, jobs)):
            if isinstance(res, Exception):
                out[w] = res
                continue
            certs[w].cone, certs[w].epsilon = res
    for w in ws:
        if out[w] is None:
            if 0.0 < checks[w][3].margin < marginal_margin:
                certs[w].verdict = "marginal"
            out[w] = certs[w]
    return out


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
    starts = np.arange(seq.j_lo, seq.j_hi + 2 - N, N)
    block = MatSequence(0, span_products(seq, starts, N))
    base, block = certify_many([seq, block], **certify_kwargs)
    return {
        "consistent": (base.verdict != "failed") == (block.verdict != "failed"),
        "base": base,
        "block": block,
    }
