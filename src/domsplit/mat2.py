"""2x2 matrices and finite matrix sequences.

Ordered cocycle products over an integer window, closed-form singular
value machinery, inverse products with singularity reporting, and norm
floors.

Products run in one of two orders through one kernel.  _sweep_steps
left-multiplies a stack of products by one factor stack per step;
sweep() runs it, and so do the row sweeps that must read every step
(_visit_sweep: the norm floors and the certifier's domination frames).
Every other row sweep (_row_sweep) runs in doubling order on _Tables,
exactly renormalized products of 2**k factors built once per slab, so a
row of L factors takes one kernel call per set bit of L.  Every row is
a left product read forward from its base.  A row sweep sweeps one row
per class of bitwise identical rows and returns those heads with the
map from rows to heads, so a caller reads each distinct product once.

The kernel, _mul, makes no BLAS call: on plane-major stacks (entry (i,
k) of every 2x2 one contiguous array) it writes each entry as a*e + b*g
for float64 and in a split-accumulator form on the real and imaginary
planes for complex128, the bits of a non-FMA BLAS under any BLAS kernel.
_renorm scales each row exactly by the power of two that puts its
largest real or imaginary part into [1, 2), as LAPACK's xLASCL does.
The kernel commutes with it, so a renormalized row is its unnormalized
product times a power of two; every sweep returns the removed binary
exponents, scaled back with ldexp, so no product overflows before its
value does.

Matrix arguments are (2, 2) ndarrays or stacks of shape (..., 2, 2).
A MatSequence stores complex128 factors; a window whose factors are all
real runs in float64 (_sweep_values) from its products to every number
read off them.  Outside the products there is one arithmetic rule: a
squared modulus is _abs2 (re*re + im*im, z*z for real z), a modulus its
sqrt (_abs, by _scaled_norm where the square leaves the normal range), a
complex product _cmul (the split form), a vector over a scalar the
vector times the reciprocal, a 2x2 product _mul.  These float64 steps
round correctly under every SIMD loop numpy may pick, unlike its complex
multiply, modulus and norms (FMA from AVX2 up), and on zero imaginary
parts give the float64 values: real windows match their complex runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SINGULAR_RTOL = 1e-13

__all__ = [
    "SINGULAR_RTOL",
    "SingularFactor",
    "MatSequence",
    "det2",
    "op_norm",
    "singular_values",
    "sv_direction_vectors",
    "sv_left_vectors",
    "sv_right_vectors",
    "inv2",
    "is_singular",
    "sweep",
    "span_products",
    "cocycle_product",
    "backward_product",
    "norm_floor",
    "norm_floor_curve",
]


class SingularFactor(ValueError):
    """Raised when a factor that must be inverted is numerically singular."""

    def __init__(self, index, det):
        self.index = index
        self.det = det
        super().__init__(
            f"singular factor at index {index}, |det| = {abs(det):.3e}"
        )


def _abs2(z):
    """|z|**2 as re*re + im*im, or z*z for real z."""
    if z.dtype.kind != "c":
        return z * z
    return z.real * z.real + z.imag * z.imag


def _scaled_norm(re, im):
    """sqrt of the sum of re*re + im*im over the last axis, re and im
    scaled exactly by the power of two that puts their largest |re| or
    |im| into [0.5, 1), the root scaled back: it over- or underflows only
    where its value does."""
    _, x = np.frexp(np.maximum(np.abs(re), np.abs(im)).max(axis=-1))
    re, im = np.ldexp(re, -x[..., None]), np.ldexp(im, -x[..., None])
    return np.ldexp(np.sqrt(np.sum(re * re + im * im, axis=-1)), x)


def _abs(z):
    """|z|: np.abs for real z; for complex z sqrt(_abs2(z)), or where that
    square may leave the normal range and z is not 0, _scaled_norm.  A
    zero imaginary part gives np.abs of the real part either way."""
    if z.dtype.kind != "c":
        return np.abs(z)
    with np.errstate(over="ignore", under="ignore"):
        a = np.asarray(np.sqrt(_abs2(z)))
        if not (a.min(initial=np.inf) > 2.0**-500 and a.max(initial=0.0) < 2.0**500):
            far = ~((a > 2.0**-500) & (a < 2.0**500)) & (z != 0.0)
            if far.any():
                a[far] = _scaled_norm(z.real[far][:, None], z.imag[far][:, None])
    return a


def _max_abs(z):
    """float(np.max(_abs(z))): the root of the largest _abs2 where it lies
    in (2**-500, 2**500), as sqrt is monotone and correctly rounded."""
    with np.errstate(over="ignore"):
        top = math.sqrt(float(np.max(_abs2(z))))
    return top if 2.0**-500 < top < 2.0**500 else float(np.max(_abs(z)))


def _cmul(x, y):
    """x * y elementwise, complex in the split form
    (xr*yr - xi*yi) + (xr*yi + xi*yr)i; a real factor scales both parts
    of a complex one, and two real factors multiply as they are."""
    if x.dtype.kind != "c":
        x, y = y, x
    if x.dtype.kind != "c":
        return x * y
    out = np.empty(np.broadcast(x, y).shape, x.dtype)
    np.multiply(x.real, y.real, out=out.real)
    np.multiply(x.imag, y.real, out=out.imag)
    if y.dtype.kind == "c":
        out.real -= x.imag * y.imag
        out.imag += x.real * y.imag
    return out


def _row_norms(v):
    """2-norms of the rows of a (..., 2) vector stack, as
    sqrt(_abs2(v0) + _abs2(v1))."""
    q = _abs2(v)
    return np.sqrt(q[..., 0] + q[..., 1])


def det2(m):
    """Determinant of a (stack of) 2x2 matrices."""
    m = np.asarray(m)
    return _cmul(m[..., 0, 0], m[..., 1, 1]) - _cmul(m[..., 0, 1], m[..., 1, 0])


def singular_values(m):
    """Both singular values, closed form.

    Returns (s1, s2) with s1 >= s2 >= 0.  s1 comes from the trace and
    determinant of m* m; s2 is recovered as |det| / s1, which avoids the
    cancellation in the direct root when the two values are far apart.
    """
    return _singular_values(m)[:2]


def _singular_values(m):
    """(s1, s2, |det m|) of singular_values, which reads the determinant."""
    m = np.asarray(m)
    q = _abs2(m)
    t = q[..., 0, 0] + q[..., 0, 1] + q[..., 1, 0] + q[..., 1, 1]
    d = _abs(det2(m))
    disc = np.maximum(t * t - 4.0 * d * d, 0.0)
    s1 = np.sqrt(0.5 * (t + np.sqrt(disc)))
    safe = np.where(s1 > 0.0, s1, 1.0)
    s2 = np.where(s1 > 0.0, d / safe, 0.0)
    return s1, s2, d


def op_norm(m):
    """Operator (spectral) norm, closed form."""
    return singular_values(m)[0]


def _top_vectors(m, right):
    """Top left singular directions of a stack m as unit vectors, or with
    right the top right ones: the left ones of the conjugate transpose.
    The left one is the eigenvector of G = m m* for s1**2, the larger of
    the candidates (g12, s1**2 - g11) and (s1**2 - g22, conj(g12)), or
    the first axis where both vanish (a conformal matrix)."""
    m = np.asarray(m)
    s1, _ = singular_values(m)
    lam = s1 * s1
    if right:
        m = m.conj().swapaxes(-1, -2)
    q = _abs2(m)
    p = _cmul(m[..., 0, :], m[..., 1, :].conj())
    V = np.empty(m.shape, np.result_type(m, 1.0))  # the candidates, as rows
    V[..., 0, 0] = g12 = p[..., 0] + p[..., 1]
    V[..., 0, 1] = lam - (q[..., 0, 0] + q[..., 0, 1])
    V[..., 1, 0] = lam - (q[..., 1, 0] + q[..., 1, 1])
    V[..., 1, 1] = g12.conj()
    N = _row_norms(V)
    pick2 = N[..., 1] > N[..., 0]
    v = np.where(pick2[..., None], V[..., 1, :], V[..., 0, :])
    n = np.where(pick2, N[..., 1], N[..., 0])
    flat = n <= 1e-300
    v[flat] = (1.0, 0.0)
    n[flat] = 1.0
    return _cmul(v, (1.0 / n)[..., None])


def sv_left_vectors(m):
    """Top left (output, range-side) singular direction as unit vectors."""
    return _top_vectors(m, False)


def sv_right_vectors(m):
    """Top right (input) singular direction as unit vectors."""
    return _top_vectors(m, True)


def sv_direction_vectors(m):
    """Top left and right singular directions as unit vectors.

    Returns (left, right) with shape (..., 2).  For a rank-1 stack the
    left vector is the range direction and the right vector spans the
    orthogonal complement of the kernel, both exact when a full row or
    column of m vanishes.  Degenerate (conformal) matrices fall back to
    the first coordinate axis.
    """
    return sv_left_vectors(m), sv_right_vectors(m)


def _column_norms(m):
    """Both columns' 2-norms of each 2x2 of an (n, 2, 2) stack (_scaled_norm)."""
    m = m.swapaxes(1, 2)
    return _scaled_norm(m.real, m.imag)


def _larger_columns(m):
    """The larger column of each 2x2 of an (n, 2, 2) stack by 2-norm (the
    first on a tie), and that norm (_column_norms).  For a rank-1 matrix
    it spans the range; a zero matrix gives a zero column of norm 0."""
    n = _column_norms(m)
    first = n[:, 0] >= n[:, 1]
    return np.where(first[:, None], m[:, :, 0], m[:, :, 1]), np.where(first, n[:, 0], n[:, 1])


def is_singular(m, rtol=SINGULAR_RTOL):
    """Singularity test at the shared tolerance |det| < rtol * max(1, norm^2)."""
    s1, _, d = _singular_values(m)
    return d < rtol * np.maximum(1.0, s1 * s1)


def inv2(m, index=None, rtol=SINGULAR_RTOL):
    """Closed-form inverse; raises SingularFactor when below tolerance."""
    m = np.asarray(m)
    d = det2(m)
    if is_singular(m, rtol):
        raise SingularFactor(index if index is not None else -1, complex(d))
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d


@dataclass
class MatSequence:
    """A finite window of 2x2 complex matrices standing in for a line of them.

    values[i] is the matrix at integer index j_lo + i.  sup_bound is a
    verified upper bound for the operator norms over the window; it is
    computed from the data when not supplied.
    """

    j_lo: int
    values: np.ndarray
    sup_bound: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 3 or v.shape[1:] != (2, 2) or v.shape[0] < 1:
            raise ValueError("values must have shape (n, 2, 2) with n >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        self.values = v
        # the norms of the exactly scaled factors, scaled back: the squares
        # in singular_values overflow only where the norm itself does
        scaled, s = _renorm(_sweep_values(self))
        with np.errstate(over="ignore"):  # an inf norm is refused below
            top = float(np.max(np.ldexp(op_norm(scaled), -s)))
        if not math.isfinite(top):
            raise ValueError(f"the largest factor norm {top} is not finite in float64")
        if self.sup_bound is None:
            self.sup_bound = top
        elif not math.isfinite(self.sup_bound):
            raise ValueError(f"sup_bound must be finite, got {self.sup_bound}")
        elif self.sup_bound < top:
            raise ValueError(
                f"sup_bound {self.sup_bound} is below the largest norm {top}"
            )

    @property
    def j_hi(self):
        return self.j_lo + len(self.values) - 1

    @property
    def window(self):
        return (self.j_lo, self.j_hi)

    def __len__(self):
        return len(self.values)

    def index_of(self, j):
        if not self.j_lo <= j <= self.j_hi:
            raise IndexError(f"index {j} outside window {self.window}")
        return j - self.j_lo

    def at(self, j):
        """Matrix at integer index j."""
        return self.values[self.index_of(j)]

    @staticmethod
    def from_fn(fn, j_lo, j_hi, sup_bound=None):
        """Build a sequence by sampling fn(j) for j_lo <= j <= j_hi."""
        vals = np.array([np.asarray(fn(j), dtype=complex) for j in range(j_lo, j_hi + 1)])
        return MatSequence(j_lo, vals, sup_bound)


def _check_span(window, j, n):
    if j < window[0] or j + n - 1 > window[1]:
        raise IndexError(
            f"product over [{j}, {j + n - 1}] leaves window {window}"
        )


def _sweep_values(seq):
    """The window's factors in its dtype, as a plane-major stack
    (_plane_major): float64 when no factor has a nonzero imaginary part
    (real energies with real couplings), complex128 otherwise.  This is
    the one dtype decision; on zero imaginary parts, the float64 form of
    _mul gives the real part of the complex128 form bit for bit, and
    +0.0 imaginary parts: no sum of either form ends at -0.0."""
    v = seq.values
    return _plane_major(v if np.any(v.imag != 0.0) else v.real)


def _plane_major(X, copy=False):
    """X as an (n, 2, 2) stack whose entry planes X[:, i, k] are
    contiguous, copied only when they are not (always with copy)."""
    Q = X.transpose(1, 2, 0)
    Q = Q.copy() if copy else np.ascontiguousarray(Q)
    return Q.transpose(2, 0, 1)


def _take(X, idx):
    """X[idx] along the stack axis, as a plane-major stack."""
    return X.transpose(1, 2, 0).take(idx, axis=-1).transpose(2, 0, 1)


def _mul(A, B, out=None):
    """A @ B for two stacks of 2x2 matrices, row by row, without BLAS.

    Each entry is written in one fixed form, over whole planes: float64
    as a*e + b*g (two broadcast multiplies and one add, into C-ordered
    planes); complex128 in the split-accumulator form, the float64 form
    run once on contiguous copies of the real and imaginary planes,
        re = (ar0*br0 + ar1*br1) - (ai0*bi0 + ai1*bi1)
        im = (ar0*bi0 + ar1*bi1) + (ai0*br0 + ai1*br1).
    A -0.0 result becomes +0.0, as in a BLAS sum, which starts from
    +0.0; with that, both forms are the bits of a non-FMA dgemm and
    zgemm, under any OpenBLAS kernel.  A row's bits depend on that row
    alone, whatever the stack's size or layout, and a real operand meets
    a complex one as numpy's promotion gives it, with +0.0 imaginary
    parts.  Plane-major operands (_plane_major) are read without a copy,
    and a new result is plane-major; out may be one of the operands.
    """
    if A.dtype != B.dtype:
        dtype = np.result_type(A, B)
        A, B = A.astype(dtype), B.astype(dtype)
    a, b = A.transpose(1, 2, 0), B.transpose(1, 2, 0)
    parts = A.dtype.kind == "c"
    if parts:
        # rows (p, i) and columns (q, k), p and q the real and imaginary
        # parts: the float64 form below then gives T[p, i, q, k], the sum
        # a[p, i, 0] * b[q, 0, k] + a[p, i, 1] * b[q, 1, k]
        a = np.concatenate((a.real, a.imag))
        b = np.concatenate((b.real, b.imag), axis=1)
    C = np.multiply(a[:, 0, None], b[None, 0], order="C")
    C += np.multiply(a[:, 1, None], b[None, 1], order="C")
    if parts:
        T = C.reshape(2, 2, 2, 2, -1)  # [p, i, q, k]
        C = np.empty(T.shape[2:], A.dtype)
        np.subtract(T[0, :, 0], T[1, :, 1], out=C.real)
        np.add(T[0, :, 1], T[1, :, 0], out=C.imag)
    if out is None:
        C += 0.0
        return C.transpose(2, 0, 1)
    np.add(C, 0.0, out=out.transpose(1, 2, 0))
    return out


def _row_max(P):
    """Largest |re| or |im| over the entries of each 2x2 in a stack (NaN
    propagates).

    One max-reduce over the entry planes, which reshape without a copy
    when P is plane-major; a complex stack is read as float64, its real
    and imaginary parts side by side, and the two are reduced in pairs.
    Unlike a complex modulus, no step rounds, so the result does not
    depend on the SIMD loop numpy picks for the CPU.
    """
    X = P.transpose(1, 2, 0)
    if X.dtype.kind != "c":
        return np.maximum.reduce(np.abs(X).reshape(4, -1))
    if X.strides[-1] != X.itemsize:  # not plane-major
        X = X.copy()
    r = np.maximum.reduce(np.abs(X.view(np.float64)).reshape(4, -1))
    return np.maximum(r[0::2], r[1::2])


def _ldexp(P, s, out=None):
    """P[i] * 2**s[i] for each 2x2 of a stack, exactly (ldexp on the real
    and the imaginary parts) unless it overflows or underflows."""
    s = s[:, None, None]
    if P.dtype.kind != "c":
        return np.ldexp(P, s, out=out)
    if out is None:
        out = np.empty_like(P)
    np.ldexp(P.real, s, out=out.real)
    np.ldexp(P.imag, s, out=out.imag)
    return out


def _renorm(P, out=None):
    """Scale each 2x2 of a stack by a power of two, exactly.

    Row i is multiplied by 2**s[i] with s[i] = 1 - e, e the frexp
    exponent of the row's largest |re| or |im| (_row_max), so that part
    lands in [1, 2): the scaling of LAPACK's xLASCL.  Rows already there
    and rows holding an inf or NaN keep the scale 1 (s = 0), and a zero
    row keeps its bits (its s is 1).  Returns the scaled stack and s
    (int32); out=P scales P in place, as sweep does.  Scaling by a power
    of two does not round, so _renorm is idempotent, and since _mul's
    fixed forms commute with it, a row scaled after every step of a
    sweep equals the same row scaled once at the end, bit for bit.
    """
    m = _row_max(P)
    _, s = np.frexp(m)
    np.subtract(1, s, out=s)
    if not np.maximum.reduce(m, initial=0.0) < np.inf:  # an inf or NaN part
        s[~(m < np.inf)] = 0
    return _ldexp(P, s, out), s


def sweep(P, steps):
    """Left-multiply a stack of 2x2 products P by one factor stack per
    step, renormalizing exactly; returns (P, e).

    Each F in steps multiplies the first k = len(F) rows of P from the
    left (F @ P[:k]) through _mul, and those k rows are then scaled by a
    power of two (_renorm).  e holds each row's removed binary exponents
    summed as int64, so the unnormalized product is ldexp of the row by
    e.  P itself is never written into.  _mul gives a row of a stack the
    bits it gives that row alone, and the scaling is exact, so each row
    is its unnormalized product times a power of two, as a loop over it
    alone would make it.  A right product P @ F runs as the transpose of
    the left product of the transposes, whose entries sum the same
    products in the same order.  The products come out plane-major;
    plane-major factor stacks (slices of _sweep_values, or _take) are
    read as they are, others through strided views.
    """
    e = np.zeros(len(P), dtype=np.int64)
    for P in _sweep_steps(P, steps, e):
        pass
    return P, e


def _sweep_steps(P, steps, e):
    """The loop of sweep, yielding the stack after every step; e
    accumulates each row's removed binary exponents.  A later step may
    write into a stack already yielded, so a caller copies the rows it
    keeps."""
    P0, n = P, len(P)
    for F in steps:
        k = len(F)
        if k == n:
            P = _mul(F, P)
        elif k:
            if P is P0:
                P = _plane_major(P, copy=True)
            _mul(F, P[:k], out=P[:k])
        if k:
            _, s = _renorm(P[:k], out=P[:k])
            e[:k] -= s
        yield P


def _bits(X):
    """The bit patterns of a stack's entries as int64 planes, one column
    per row (the real and imaginary planes of a complex stack apart).
    Equal columns are bitwise equal matrices, so +0.0 and -0.0 differ and
    a NaN equals only its own pattern."""
    planes = np.ascontiguousarray(X.transpose(1, 2, 0)).reshape(4, len(X))
    if planes.dtype.kind == "c":
        planes = np.concatenate((planes.real, planes.imag))
    return planes.view(np.int64)


def _row_classes(start, base, steps, repeats):
    """For each row of a row sweep, the row whose products it copies, or
    None when every row is its own.

    start holds each row's start class: rows of one class start from
    bitwise equal rows.  A row reads the factors [base, base + steps)
    (_row_sweep).  repeats is (q, gaps) for the slab the rows read: the
    factors over [b, b + n) are those over [b - q[b], b - q[b] + n) bit
    for bit whenever q[b] > 0, b >= q[b] and gaps[b + n] == gaps[b]
    (certifier._repeat_map).  A row is keyed by its base, steps and
    start class, a row of no steps by its start class alone (it reads no
    factor).  Row i copies the first row of the key q below its own where
    no factor i reads breaks the repeat, and else the first row of its
    own key: both rows run the same arithmetic on the same bits, in
    either order (a table entry a row reads spans its own factors alone).
    The row copied may copy another in turn; each row points to the
    first of its chain.  No bits are compared here: the factors' were
    compared once, by the repeat map, and the starts' classes come from
    the stage that made them.
    """
    if repeats is None:
        return None
    q, gaps = repeats
    R = len(base)
    b = np.where(steps > 0, base, 0)
    S, C = int(steps.max(initial=0)) + 1, int(start.max(initial=0)) + 1
    key = (b * S + steps) * C + start
    fit = (steps > 0) & (q[b] > 0) & (b >= q[b]) & (gaps[b + steps] == gaps[b])
    # the keys, then the keys each row may copy, sorted stably: a run of
    # equal keys starts at its first row, if it has one
    both = np.concatenate((key, key - np.where(fit, q[b] * S * C, 0)))
    order = np.argsort(both, kind="stable")
    new = np.ones(2 * R, dtype=bool)
    new[1:] = both[order[1:]] != both[order[:-1]]
    first = np.empty(2 * R, dtype=np.intp)
    first[order] = order[np.flatnonzero(new)][np.cumsum(new) - 1]
    copy = np.where(first[R:] < R, first[R:], first[:R])
    if np.array_equal(copy, np.arange(R)):
        return None
    while True:  # point every row at the head of its chain
        nxt = copy[copy]
        if np.array_equal(nxt, copy):
            return copy
        copy = nxt


def _heads(start, base, steps, repeats):
    """(copy, heads): the rows' _row_classes and the rows that head a
    class, in ascending order."""
    copy = _row_classes(start, base, steps, repeats)
    rows = np.arange(len(base))
    return copy, (rows if copy is None else np.flatnonzero(copy == rows))


def _head_map(order, copy):
    """The map from rows to heads of a sweep whose heads ran in order."""
    at = np.empty(len(order) if copy is None else len(copy), dtype=np.intp)
    at[order] = np.arange(len(order))
    return at if copy is None else at[copy]


class _Tables:
    """Doubling tables over a slab of factors, built level by level as
    they are first asked for and kept while the object lives.

    level(k) is (T, E): T[j] the product slab[j + 2**k - 1] @ ... @
    slab[j] times 2**-E[j], exactly renormalized (_renorm), and E int64.
    Level 0 is _renorm of the slab, and level k + 1 multiplies two
    entries of level k, T[j + 2**k] @ T[j], through _mul, renormalized:
    one _mul over plain slices of the level below, which a plane-major
    stack gives without a copy.  An entry's bits depend only on the
    factors it spans, so factors that repeat bit for bit give bitwise
    equal entries wherever they sit.
    """

    def __init__(self, slab):
        self.slab = slab
        self.levels = []

    def level(self, k):
        while len(self.levels) <= k:
            if self.levels:
                T, E = self.levels[-1]
                h = 1 << (len(self.levels) - 1)
                P = _mul(T[h:], T[: len(T) - h])
                _, s = _renorm(P, out=P)
                E = E[h:] + E[: len(E) - h] - s
            else:
                P = _plane_major(self.slab, copy=True)
                _, s = _renorm(P, out=P)
                E = -s.astype(np.int64)
            self.levels.append((P, E))
        return self.levels[k]


def _row_sweep(P, start, tables, base, steps, repeats=None):
    """Left-multiply row i, which starts at P[start[i]], by the factors
    slab[base[i]], ..., slab[base[i] + steps[i] - 1] of tables.slab (a
    _Tables), later factors on the left, renormalizing exactly, for the
    class heads of the rows; returns (Q, e, at): row i's product is
    Q[at[i]] times 2**e[at[i]], e as in sweep.

    A row runs in doubling order on the tables: a row of L steps
    left-multiplies the table entry of each set bit 2**k of L, in
    ascending order of k, each at its base plus the lower bits of L,
    renormalizing after each.  So all rows together take one _mul per
    bit of the longest, whatever their lengths, and a row's bits depend
    only on its start row, its factors and its length: _mul and _renorm
    work row by row.

    Rows that agree on their start and their factors are one
    computation.  With the slab's repeats, one row of each such class is
    computed, its head, and the others map to it (_row_classes): in a
    periodic window, the row at base b reads the factors of the row at
    b - q.  Rows that share a start class start from bitwise equal rows,
    and identity starts are one class (P the identity, start all 0).
    The heads stay a stack of their own: what a stage reads per row, it
    reads per head and gathers through at once at the end.
    """
    copy, heads = _heads(start, base, steps, repeats)
    b, n = base[heads], steps[heads]
    Q, e = _take(P, start[heads]), np.zeros(len(heads), dtype=np.int64)
    for k in range(int(n.max(initial=0)).bit_length()):
        rows = np.flatnonzero(n >> k & 1)
        if not len(rows):
            continue
        j = b[rows] + (n[rows] & ((1 << k) - 1))
        T, E = tables.level(k)
        R = _mul(_take(T, j), _take(Q, rows))
        _, s = _renorm(R, out=R)
        Q[rows] = R
        e[rows] += E[j] - s
    return Q, e, _head_map(heads, copy)


def _visit_sweep(P, start, slab, base, steps, repeats, visit):
    """_row_sweep one factor per step, straight off the slab, for the
    stages that read every step.

    The heads run through _sweep_steps longest first, so the rows each
    step multiplies are a prefix and each step gathers its factors with
    one _take.  visit(rows, Q, e) sees every step: rows are the indices
    of the rows it multiplied, one per class, and Q and e their products
    and exponents so far, which the next step overwrites.  A true return
    from visit ends the sweep there, each row holding its product so far.
    Returns (Q, e, at) as _row_sweep does.
    """
    copy, heads = _heads(start, base, steps, repeats)
    order = heads[np.argsort(-steps[heads], kind="stable")]
    b = base[order]
    T = int(steps.max(initial=0))
    n_mul = (len(order) - np.cumsum(np.bincount(steps[order], minlength=T))[:T]).tolist()
    Q, e = _take(P, start[order]), np.zeros(len(order), dtype=np.int64)
    factors = (_take(slab, b[:k] + t) for t, k in enumerate(n_mul))
    for k, Q in zip(n_mul, _sweep_steps(Q, factors, e)):
        if visit(order[:k], Q[:k], e[:k]):
            break
    return Q, e, _head_map(order, copy)


def _block_products(tables, starts, lengths, repeats=None):
    """Normalized ordered products of lengths[i] factors from each start,
    as the heads of one _row_sweep from the identity on tables (a
    _Tables), in doubling order: (Q, e, at).

    Row i's product slab[starts[i]+lengths[i]-1] @ ... @ slab[starts[i]]
    is Q[at[i]] scaled by a power of two (lengths broadcast against
    starts), and the binary exponents e of the removed scales come with
    the heads, so the true product is ldexp of Q[at[i]] by e[at[i]].  The
    blocks of windows laid end to end in one slab come from one sweep, in
    the dtype of the slab.
    """
    starts, lengths = np.broadcast_arrays(np.asarray(starts), np.asarray(lengths))
    eye = np.eye(2, dtype=tables.slab.dtype)[None]
    return _row_sweep(eye, np.zeros(len(starts), dtype=np.intp), tables, starts, lengths, repeats)


def span_products(seq, starts, lengths):
    """cocycle_product(seq, j, n) for each pair of starts and lengths, as
    one (len, 2, 2) complex stack.

    starts and lengths broadcast to one dimension.  The products run in
    doubling order (_block_products) on tables over the span the rows
    reach, in the dtype of _sweep_values: the product of n factors from
    j is the product of the table entries at the set bits of n, lowest
    bit first, each entry the balanced product of its 2**k factors.
    Every step is renormalized exactly and the result scaled back with
    ldexp, so a product is finite wherever its value is, and bitwise the
    same doubling-order loop of _mul without renormalization wherever
    that loop neither overflows nor underflows.  On a real window,
    float64 gives the real parts of the complex128 products bit for bit,
    and their imaginary parts are +0.0.
    """
    js, ns = (np.ravel(a) for a in np.broadcast_arrays(starts, lengths))
    live = ns > 0
    j0 = j1 = seq.j_lo
    if live.any():
        j0, j1 = int(js[live].min()), int((js + ns)[live].max())
        _check_span(seq.window, j0, j1 - j0)
    span = _sweep_values(seq)[j0 - seq.j_lo : j1 - seq.j_lo]
    Q, e, at = _block_products(_Tables(span), js - j0, ns)
    return _ldexp(_take(Q, at), e[at]).astype(complex, copy=False)


def cocycle_product(seq, j, n):
    """Ordered product of the factors at j, j+1, ..., j+n-1 (later on the left).

    n = 0 returns the identity.  The product runs in doubling order,
    renormalized, and is scaled back exactly (span_products).
    """
    if n < 0:
        raise ValueError("n must be nonnegative; use backward_product for inverses")
    return span_products(seq, j, n)[0]


def backward_product(seq, j, n):
    """Inverse of the length-n product ending just below j.

    Equals the inverse of cocycle_product(seq, j - n, n); every factor in
    [j - n, j - 1] must be invertible at the shared tolerance, otherwise
    SingularFactor names the offending index.  The right product of the
    inverses runs as the transposed left product of their transposes
    (sweep), renormalized, and is scaled back exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_span(seq.window, j - n, n)
    inverses = (inv2(seq.at(k), index=k).T[None] for k in range(j - n, j))
    P, e = sweep(np.eye(2, dtype=complex)[None], inverses)
    return _ldexp(P, e)[0].T


def norm_floor(seq, n):
    """min over admissible j of the operator norm of the length-n product."""
    return norm_floor_curve(seq, n)[-1]


def norm_floor_curve(seq, n_max):
    """[norm_floor(seq, n) for n = 1..n_max] in one incremental pass.

    The products run in the window's sweep dtype (_sweep_values); a
    floor beyond the float64 range reads inf.
    """
    if not 1 <= n_max <= len(seq):
        raise ValueError(f"block length must lie in [1, {len(seq)}]")
    f, x = _floor_curves(_sweep_values(seq), [0], [len(seq)], [n_max])[0]
    with np.errstate(over="ignore"):
        return np.ldexp(f, x).tolist()


def _floor_curves(slab, offsets, lengths, n_maxes, repeats=None):
    """norm_floor_curve for windows laid end to end in one slab, window w
    being slab[offsets[w] : offsets[w] + lengths[w]], each to its own
    n_max, as one _visit_sweep (sharing rows by repeats as it does).

    Row i of a window starts at its factor i and runs until its product
    holds n_max factors or reaches the window's end; the floor at n is
    the least top singular value over the window's rows after step n.
    The rows are renormalized, so window w gets its floors as arrays
    (f, x), the floor at n being f[n-1] * 2**x[n-1] exactly: x the least
    exponent of the window's rows at n, f the least of their top singular
    values scaled to it (each 0 or at least 1, so none underflows).  A
    row that copies another has its bits, so the rows swept give every
    floor.
    """
    offsets, lengths, n_maxes = (np.asarray(a, dtype=np.intp) for a in (offsets, lengths, n_maxes))
    win = np.repeat(np.arange(len(lengths)), lengths)
    local = np.arange(len(win)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    base = offsets[win] + local
    steps = np.minimum(n_maxes[win], lengths[win] - local)
    curves = [([], []) for _ in lengths]

    def visit(rows, Q, e):
        x = np.full(len(lengths), np.iinfo(np.int64).max)
        np.minimum.at(x, win[rows], e)
        with np.errstate(over="ignore"):
            s1 = np.ldexp(singular_values(Q)[0], e - x[win[rows]])
        f = np.full(len(lengths), np.inf)
        np.minimum.at(f, win[rows], s1)
        for (fs, xs), top, fw, xw in zip(curves, n_maxes.tolist(), f.tolist(), x.tolist()):
            if len(fs) < top:
                fs.append(fw)
                xs.append(xw)

    eye = np.eye(2, dtype=slab.dtype)[None]
    _visit_sweep(eye, np.zeros(len(win), dtype=np.intp), slab, base, steps, repeats, visit)
    return [(np.array(fs), np.array(xs, dtype=np.int64)) for fs, xs in curves]
