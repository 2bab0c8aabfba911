"""2x2 matrices and finite matrix sequences.

Ordered cocycle products over an integer window, closed-form singular
value machinery and norm floors.

Products run on one path through one kernel.  A row sweep (_row_sweep:
span_products, the norm floors and the certifier's field and cone
products) starts at the identity and runs in doubling order on
_Tables, exactly renormalized products of 2**k factors built once per
slab, so a row of L factors takes one kernel call per set bit of L.
Every row is a left product read forward from its base.  A row sweep
sweeps one row per class of bitwise identical rows (_row_classes) and
returns those heads with the map from rows to heads, so a caller reads
each distinct product once; every class, here and in the certifier, is
one keyed unique (_classes).  The stages that read every step, the
certifier's domination frames (certifier._dominations) and the
one-period products of jacobi.floquet_bands, step in loops of their
own on the same kernel: _mul by one factor stack per step, then
_renorm.

The kernel, _mul, makes no BLAS call: on plane-major stacks (entry (i,
k) of every 2x2 one contiguous array) it writes each entry as a*e + b*g
for float64 and in a split-accumulator form on the real and imaginary
planes for complex128, the bits of a non-FMA BLAS under any BLAS kernel.
_renorm scales each row exactly by the power of two that puts its
largest real or imaginary part into [1, 2), as LAPACK's xLASCL does.
The kernel commutes with it, so a renormalized row is its unnormalized
product times a power of two; every product carries the removed binary
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
from dataclasses import dataclass, field

import numpy as np

SINGULAR_RTOL = 1e-13

__all__ = [
    "SINGULAR_RTOL",
    "MatSequence",
    "det2",
    "op_norm",
    "singular_values",
    "sv_direction_vectors",
    "sv_left_vectors",
    "sv_right_vectors",
    "is_singular",
    "span_products",
    "cocycle_product",
    "norm_floor",
]


def _count(name, x, least=None):
    """x as an int, or ValueError naming it unless it is an integer (a
    Python or numpy integer; a bool is refused) and, with least, >= least."""
    integer = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    if not integer or least is not None and x < least:
        bound = "" if least is None else f">= {least} and "
        raise ValueError(f"{name} must be {bound}an integer, got {x!r}")
    return int(x)


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


def is_singular(m):
    """Singularity test at the shared tolerance |det| < SINGULAR_RTOL *
    max(1, norm^2)."""
    s1, _, d = _singular_values(m)
    return d < SINGULAR_RTOL * np.maximum(1.0, s1 * s1)


@dataclass
class MatSequence:
    """A finite window of 2x2 complex matrices standing in for a line of them.

    values[i] is the matrix at integer index j_lo + i.  sup_bound, the
    largest operator norm over the window, is read off the data.
    """

    j_lo: int
    values: np.ndarray
    sup_bound: float = field(init=False)

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
        self.sup_bound = top

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
    def from_fn(fn, j_lo, j_hi):
        """Build a sequence by sampling fn(j) for j_lo <= j <= j_hi."""
        vals = np.array([np.asarray(fn(j), dtype=complex) for j in range(j_lo, j_hi + 1)])
        return MatSequence(j_lo, vals)


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
    (int32); out=P scales P in place.  Scaling by a power of two does
    not round, so _renorm is idempotent, and since _mul's fixed forms
    commute with it, a row scaled after every step of a product equals
    the same row scaled once at the end, bit for bit.
    """
    m = _row_max(P)
    _, s = np.frexp(m)
    np.subtract(1, s, out=s)
    if not np.maximum.reduce(m, initial=0.0) < np.inf:  # an inf or NaN part
        s[~(m < np.inf)] = 0
    return _ldexp(P, s, out), s


def _bits(X):
    """The bit patterns of a stack's entries as int64 planes, one column
    per row (the real and imaginary planes of a complex stack apart).
    Equal columns are bitwise equal matrices, so +0.0 and -0.0 differ and
    a NaN equals only its own pattern."""
    planes = np.ascontiguousarray(X.transpose(1, 2, 0)).reshape(4, len(X))
    if planes.dtype.kind == "c":
        planes = np.concatenate((planes.real, planes.imag))
    return planes.view(np.int64)


def _classes(*keys):
    """(first, at) for the classes of equal tuples of nonnegative int keys
    (an array each), ascending by tuple: first the first row of each
    class, at each row's class.  The keys combine into one int64 key in
    mixed radix, each radix its key's largest value + 1; OverflowError
    where the tuples do not fit in int64."""
    radix = [int(k.max(initial=0)) + 1 for k in keys]
    if math.prod(radix) > 2**63:
        raise OverflowError(f"class keys of radices {radix} leave int64")
    key = np.zeros(len(keys[0]), dtype=np.int64)
    for k, r in zip(keys, radix):
        key = key * r + k
    _, first, at = np.unique(key, return_index=True, return_inverse=True)
    return first, at


def _row_classes(start, base, steps, repeats):
    """Classes of the rows of a row sweep (_row_sweep) that run the same
    arithmetic on the same bits, as _classes: (first, at), the heads
    first longest first.

    Row i starts in start class start[i] (rows of one class start from
    bitwise equal rows; all 0 for the identity starts of _row_sweep) and
    reads the factors [base, base + steps).  It
    is keyed by (steps, canonical base, start), a row of no steps by its
    start alone (base 0).  With repeats = (q, last) of the slab
    (certifier._repeat_map: factor p is factor p - q[p] bit for bit
    unless p is a break, last[p] the last break at or before p), a row of
    n steps at b reads the factors of the row at b - k q, q = q[b], for
    every k with no break in [b - (k - 1) q, b + n): its canonical base
    is b - q ceil((b - last[b + n - 1]) / q), or b where q = 0.  No bits
    are compared here: the repeat map compared the factors', and the
    starts' classes come from the stage that made them.
    """
    b = np.where(steps > 0, base, 0)
    if repeats is not None:
        q, last = repeats
        qb = q[b]
        back = np.maximum(b - last[b + steps - 1], 0)
        b = b - qb * -(-back // np.maximum(qb, 1))  # ceil
    return _classes(steps.max(initial=0) - steps, b, start)


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


def _row_sweep(tables, base, steps, repeats=None):
    """Left-multiply row i, which starts at the identity, by the factors
    slab[base[i]], ..., slab[base[i] + steps[i] - 1] of tables.slab (a
    _Tables), later factors on the left, renormalizing exactly, for the
    class heads of the rows; returns (Q, e, at): row i's product is
    Q[at[i]] times 2**e[at[i]], e (int64) the sum of the binary exponents
    removed from the row, in the dtype of the slab.

    A row runs in doubling order on the tables: a row of L steps
    left-multiplies the table entry of each set bit 2**k of L, in
    ascending order of k, each at its base plus the lower bits of L,
    renormalizing after each.  So all rows together take one _mul per
    bit of the longest, whatever their lengths, and a row's bits depend
    only on its factors and its length: _mul and _renorm work row by
    row.  The rows of windows laid end to end in one slab come from one
    sweep.

    Rows that agree on their factors are one computation: one row of
    each class (_row_classes) is computed, its head, and the others map
    to it: rows of one base and steps, and with the slab's repeats rows
    over repeating factors (in a periodic window, the row at base b
    reads the factors of the row at b - q).  The heads stay a stack of
    their own: what a stage reads per row, it reads per head and gathers
    through at once at the end.
    """
    heads, at = _row_classes(np.zeros_like(steps), base, steps, repeats)
    b, n = base[heads], steps[heads]
    eye = np.eye(2, dtype=tables.slab.dtype)[None]
    Q, e = _take(eye, np.zeros(len(heads), dtype=np.intp)), np.zeros(len(heads), dtype=np.int64)
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
    return Q, e, at


def span_products(seq, starts, lengths):
    """cocycle_product(seq, j, n) for each pair of starts and lengths, as
    one (len, 2, 2) complex stack.

    starts and lengths broadcast to one dimension.  The products run in
    doubling order (_row_sweep) on tables over the span the rows
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
    Q, e, at = _row_sweep(_Tables(span), js - j0, ns)
    return _ldexp(_take(Q, at), e[at]).astype(complex, copy=False)


def cocycle_product(seq, j, n):
    """Ordered product of the factors at j, j+1, ..., j+n-1 (later on the left).

    n = 0 returns the identity.  The product runs in doubling order,
    renormalized, and is scaled back exactly (span_products).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return span_products(seq, j, n)[0]


def norm_floor(seq, n):
    """min over admissible j of the operator norm of the length-n product,
    one _floors fold in the window's sweep dtype; inf beyond float64."""
    if not 1 <= n <= len(seq):
        raise ValueError(f"block length must lie in [1, {len(seq)}]")
    f, x = _floors(_Tables(_sweep_values(seq)), [0], [len(seq)], [n])
    with np.errstate(over="ignore"):
        return float(np.ldexp(f[0], x[0]))


def _floors(tables, offsets, lengths, ns, repeats=None):
    """The norm floors of windows laid end to end in tables.slab, window w
    being slab[offsets[w] : offsets[w] + lengths[w]], at block lengths
    ns[w] <= lengths[w], from one _row_sweep of a row of ns[w] factors at
    every factor of w with ns[w] factors left: arrays (f, x), w's floor
    f[w] * 2**x[w] exactly, x[w] the least exponent of its rows and f[w]
    the least top singular value of their heads scaled to it (each 0 or
    at least 1, so none underflows)."""
    offsets, lengths, ns = (np.asarray(a, dtype=np.intp) for a in (offsets, lengths, ns))
    rows = lengths - ns + 1
    first = np.cumsum(rows) - rows
    win = np.repeat(np.arange(len(rows)), rows)
    Q, e, at = _row_sweep(tables, offsets[win] + np.arange(len(win)) - first[win], ns[win], repeats)
    e = e[at]
    x = np.minimum.reduceat(e, first)
    with np.errstate(over="ignore"):
        s1 = np.ldexp(singular_values(Q)[0][at], e - x[win])
    return np.minimum.reduceat(s1, first), x
