"""2x2 complex matrices and finite matrix sequences.

Ordered cocycle products over an integer window, closed-form singular
value machinery, inverse products with singularity reporting, and norm
floors.  Products longer than EXTENDED_CUTOFF factors accumulate in
80-bit extended precision before rounding back to complex128, so slowly
growing or decaying singular values stay trustworthy.

All matrix arguments are (2, 2) complex ndarrays; the batched helpers
accept stacks of shape (..., 2, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXTENDED_CUTOFF = 32
SINGULAR_RTOL = 1e-13

__all__ = [
    "EXTENDED_CUTOFF",
    "SINGULAR_RTOL",
    "SingularFactor",
    "MatSequence",
    "det2",
    "op_norm",
    "singular_values",
    "sv_direction_vectors",
    "inv2",
    "is_singular",
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


def det2(m):
    """Determinant of a (stack of) 2x2 matrices."""
    m = np.asarray(m)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def singular_values(m):
    """Both singular values, closed form.

    Returns (s1, s2) with s1 >= s2 >= 0.  s1 comes from the trace and
    determinant of m* m; s2 is recovered as |det| / s1, which avoids the
    cancellation in the direct root when the two values are far apart.
    """
    m = np.asarray(m)
    t = np.abs(m[..., 0, 0]) ** 2 + np.abs(m[..., 0, 1]) ** 2 \
        + np.abs(m[..., 1, 0]) ** 2 + np.abs(m[..., 1, 1]) ** 2
    d = np.abs(det2(m))
    disc = np.maximum(t * t - 4.0 * d * d, 0.0)
    s1 = np.sqrt(0.5 * (t + np.sqrt(disc)))
    safe = np.where(s1 > 0.0, s1, 1.0)
    s2 = np.where(s1 > 0.0, d / safe, 0.0)
    return s1, s2


def op_norm(m):
    """Operator (spectral) norm, closed form."""
    return singular_values(m)[0]


def _herm_top_eigvec(g11, g12, g22, lam):
    # Eigenvector of [[g11, g12], [conj(g12), g22]] for eigenvalue lam.
    # Two algebraic candidates; keep the larger one for stability.
    g11 = np.asarray(g11, dtype=float)
    g22 = np.asarray(g22, dtype=float)
    g12 = np.asarray(g12, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    v1 = np.stack([g12, lam - g11], axis=-1)
    v2 = np.stack([lam - g22, np.conj(g12)], axis=-1)
    n1 = np.linalg.norm(v1, axis=-1)
    n2 = np.linalg.norm(v2, axis=-1)
    pick2 = n2 > n1
    v = np.where(pick2[..., None], v2, v1)
    n = np.where(pick2, n2, n1)
    # Degenerate (scalar) spectrum: no preferred direction, return e1.
    flat = n <= 1e-300
    e1 = np.zeros(v.shape, dtype=complex)
    e1[..., 0] = 1.0
    v = np.where(flat[..., None], e1, v)
    n = np.where(flat, 1.0, n)
    return v / n[..., None]


def sv_direction_vectors(m):
    """Top left and right singular directions as unit vectors.

    Returns (left, right) with shape (..., 2).  For a rank-1 stack the
    left vector is the range direction and the right vector spans the
    orthogonal complement of the kernel, both exact when a full row or
    column of m vanishes.  Degenerate (conformal) matrices fall back to
    the first coordinate axis.
    """
    m = np.asarray(m)
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    s1, _ = singular_values(m)
    lam = s1 * s1
    left = _herm_top_eigvec(
        (np.abs(a) ** 2 + np.abs(b) ** 2).real,
        a * np.conj(c) + b * np.conj(d),
        (np.abs(c) ** 2 + np.abs(d) ** 2).real,
        lam,
    )
    right = _herm_top_eigvec(
        (np.abs(a) ** 2 + np.abs(c) ** 2).real,
        np.conj(a) * b + np.conj(c) * d,
        (np.abs(b) ** 2 + np.abs(d) ** 2).real,
        lam,
    )
    return left, right


def is_singular(m, rtol=SINGULAR_RTOL):
    """Singularity test at the shared tolerance |det| < rtol * max(1, norm^2)."""
    m = np.asarray(m)
    s1, _ = singular_values(m)
    return np.abs(det2(m)) < rtol * np.maximum(1.0, s1 * s1)


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
        top = float(np.max(op_norm(v)))
        if self.sup_bound is None:
            self.sup_bound = top
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


def _check_span(seq, j, n):
    if j < seq.j_lo or j + n - 1 > seq.j_hi:
        raise IndexError(
            f"product over [{j}, {j + n - 1}] leaves window {seq.window}"
        )


def cocycle_product(seq, j, n):
    """Ordered product of the factors at j, j+1, ..., j+n-1 (later on the left).

    n = 0 returns the identity.  Products with more than EXTENDED_CUTOFF
    factors run in extended precision.
    """
    if n < 0:
        raise ValueError("n must be nonnegative; use backward_product for inverses")
    if n == 0:
        return np.eye(2, dtype=complex)
    _check_span(seq, j, n)
    i = seq.index_of(j)
    block = seq.values[i:i + n]
    if n > EXTENDED_CUTOFF:
        acc = np.eye(2, dtype=np.clongdouble)
        for f in block.astype(np.clongdouble):
            acc = f @ acc
        return acc.astype(complex)
    acc = np.eye(2, dtype=complex)
    for f in block:
        acc = f @ acc
    return acc


def backward_product(seq, j, n):
    """Inverse of the length-n product ending just below j.

    Equals the inverse of cocycle_product(seq, j - n, n); every factor in
    [j - n, j - 1] must be invertible at the shared tolerance, otherwise
    SingularFactor names the offending index.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_span(seq, j - n, n)
    use_ext = n > EXTENDED_CUTOFF
    acc = np.eye(2, dtype=np.clongdouble if use_ext else complex)
    for k in range(j - n, j):
        f = inv2(seq.at(k), index=k)
        acc = acc @ (f.astype(np.clongdouble) if use_ext else f)
    return acc.astype(complex)


def norm_floor(seq, n):
    """min over admissible j of the operator norm of the length-n product."""
    if not 1 <= n <= len(seq):
        raise ValueError(f"n must lie in [1, {len(seq)}]")
    m = len(seq) - n + 1
    dtype = np.clongdouble if n > EXTENDED_CUTOFF else np.complex128
    vals = seq.values.astype(dtype)
    prod = vals[0:m].copy()
    for k in range(1, n):
        prod = vals[k:k + m] @ prod
    s1, _ = singular_values(prod.astype(np.complex128))
    return float(np.min(s1))


def norm_floor_curve(seq, n_max):
    """[norm_floor(seq, n) for n = 1..n_max] in one incremental pass.

    Each step left-multiplies the running products by the next factor,
    the same arithmetic norm_floor does for n <= EXTENDED_CUTOFF, so
    the values agree bit for bit.
    """
    if not 1 <= n_max <= min(len(seq), EXTENDED_CUTOFF):
        raise ValueError(
            f"n_max must lie in [1, {min(len(seq), EXTENDED_CUTOFF)}]"
        )
    vals = seq.values
    prod = vals
    floors = []
    for n in range(1, n_max + 1):
        if n > 1:
            m = len(seq) - n + 1
            prod = vals[n - 1:n - 1 + m] @ prod[:m]
        s1, _ = singular_values(prod)
        floors.append(float(np.min(s1)))
    return floors
