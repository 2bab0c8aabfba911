"""Directions in the complex projective line and round-disk geometry.

A direction is a unit vector in C^2 up to phase, stored in a fixed
gauge.  The affine chart used throughout sends span{(z1, z2)} to
z2 / z1, so span{(1, 0)} sits at 0 and span{(0, 1)} at infinity.  A 2x2
matrix [[a, b], [c, d]] acts on affine coordinates as
z -> (c + d z) / (a + b z), the action induced by the chart.

Images of round disks D_alpha = {|z| < alpha} under such actions are
generalized circles: disks, half planes, or disk exteriors.  They are
computed in closed form from the Apollonius equation of the boundary,
which needs no case split on vanishing entries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .mat2 import _abs, _abs2, _cmul, _larger_columns, _row_norms
from .mat2 import is_singular, singular_values, sv_direction_vectors

INF = complex(math.inf, 0.0)

__all__ = [
    "INF",
    "UndefinedAction",
    "ProjPoint",
    "GenCircle",
    "SVD2",
    "chordal_dist",
    "chordal_affine",
    "chordal_rows",
    "unit_rows",
    "act",
    "mobius",
    "svd2",
    "mobius_disk_image",
    "contained_in_disk",
    "schwarz_pick_rho",
    "separation_constant",
    "image_diameter_bound",
    "disk_image_margins",
]


class UndefinedAction(ValueError):
    """The matrix annihilates the direction it was asked to move."""


def _is_inf(z):
    return not np.isfinite(complex(z))


class ProjPoint:
    """A point of the projective line: unit vector in C^2 in a fixed gauge.

    The gauge makes the entry of largest modulus real and nonnegative,
    so equal points have equal vectors and comparisons are stable.
    """

    __slots__ = ("v",)

    def __init__(self, vec):
        v = np.asarray(vec, dtype=complex).reshape(2).copy()
        n = float(np.linalg.norm(v))
        if n == 0.0 or not np.isfinite(n):
            raise ValueError("zero or non-finite direction vector")
        v /= n
        k = 0 if abs(v[0]) >= abs(v[1]) else 1
        ph = v[k] / abs(v[k])
        self.v = v * np.conj(ph)

    @staticmethod
    def from_affine(z):
        """Point with affine coordinate z (INF or any non-finite means infinity)."""
        if _is_inf(z):
            return ProjPoint((0.0, 1.0))
        return ProjPoint((1.0, complex(z)))

    def to_affine(self):
        """Affine coordinate v2 / v1; INF for the vertical direction."""
        if abs(self.v[0]) == 0.0:
            return INF
        return complex(self.v[1] / self.v[0])

    def perp(self):
        """The orthogonal direction."""
        return ProjPoint((-np.conj(self.v[1]), np.conj(self.v[0])))

    def __repr__(self):
        return f"ProjPoint({self.v[0]:.6g}, {self.v[1]:.6g})"


def chordal_dist(p, q):
    """Chordal distance between two directions, in [0, 2].

    Equals twice the modulus of the determinant of the two unit
    representatives, which is the Euclidean distance of the
    stereographic preimages on the round sphere.
    """
    return 2.0 * abs(p.v[0] * q.v[1] - p.v[1] * q.v[0])


def chordal_affine(z, w):
    """Chordal distance in affine coordinates, with infinity handled."""
    zi, wi = _is_inf(z), _is_inf(w)
    if zi and wi:
        return 0.0
    if zi:
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    if wi:
        return 2.0 / math.sqrt(1.0 + abs(z) ** 2)
    z, w = complex(z), complex(w)
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def chordal_rows(a, b):
    """Chordal distance between paired rows of two (..., 2) vector stacks.

    Rows need not be normalized; zero rows give nan.
    """
    a, b = np.asarray(a), np.asarray(b)
    det = _cmul(a[..., 0], b[..., 1]) - _cmul(a[..., 1], b[..., 0])
    with np.errstate(invalid="ignore", divide="ignore"):
        return 2.0 * _abs(det) / (_row_norms(a) * _row_norms(b))


def unit_rows(v):
    """Rows scaled to unit length; zero rows raise."""
    v = np.asarray(v)
    n = _row_norms(v)
    if np.any(n == 0.0):
        raise ValueError("zero vector has no direction")
    return _cmul(v, (1.0 / n)[..., None])


def act(m, p):
    """Image of the direction p under the matrix m.

    Raises UndefinedAction when m annihilates p (relative to the scale
    of m), which happens exactly on the kernel line of a singular m.
    """
    m = np.asarray(m, dtype=complex)
    w = m @ p.v
    n = float(np.linalg.norm(w))
    scale = float(np.linalg.norm(m))
    if n <= 1e-14 * scale or n == 0.0:
        raise UndefinedAction("direction is annihilated")
    return ProjPoint(w)


def mobius(m, z):
    """Induced action on affine coordinates, infinity in and out allowed."""
    return act(m, ProjPoint.from_affine(z)).to_affine()


SVD2 = namedtuple("SVD2", "s1 s2 left right")


def svd2(m):
    """Closed-form SVD data: both singular values and the top directions.

    left is the output (range-side) direction for s1, right the input
    direction.  Exact for matrices with a vanishing row or column.
    """
    s1, s2 = singular_values(m)
    left, right = sv_direction_vectors(m)
    return SVD2(float(s1), float(s2), ProjPoint(left), ProjPoint(right))


@dataclass(frozen=True)
class GenCircle:
    """A generalized circle region on the sphere.

    kind "disk":      {|z - center| < radius}
    kind "exterior":  {|z - center| > radius}, contains infinity
    kind "halfplane": {Re(conj(normal) (z - anchor)) > 0}, boundary
                      through infinity

    A radius-0 disk is a point image; an exterior with infinite radius
    is the point at infinity.
    """

    kind: str
    center: complex = 0j
    radius: float = 0.0
    anchor: complex = 0j
    normal: complex = 0j

    def contains(self, z):
        """Membership in the open region (z may be INF)."""
        if self.kind == "disk":
            if _is_inf(z):
                return False
            return abs(complex(z) - self.center) < self.radius
        if self.kind == "exterior":
            if _is_inf(z):
                return True
            return abs(complex(z) - self.center) > self.radius
        if _is_inf(z):
            return False
        return (np.conj(self.normal) * (complex(z) - self.anchor)).real > 0.0


def _rank1_points(m):
    """(z, finite) for an (n, 2, 2) stack read as rank 1: z = c[1] / c[0]
    for the larger column c (mat2._larger_columns), or 0 where the range
    is vertical (|c[0]| <= 1e-14 |c|) or the matrix zero (finite False)."""
    col, n = _larger_columns(m)
    finite = _abs(col[:, 0]) > 1e-14 * n
    return np.where(finite, _cmul(col[:, 1], 1.0 / np.where(finite, col[:, 0], 1.0)), 0.0), finite


def _rank1_image(m):
    # All of D_alpha collapses to the range direction.
    if not np.any(m):
        raise ValueError("zero matrix has no disk image")
    # a one-row stack, so the arithmetic is that of disk_image_margins
    z, finite = _rank1_points(m[None])
    if not finite[0]:
        return GenCircle("exterior", center=0j, radius=math.inf)
    return GenCircle("disk", center=complex(z[0]), radius=0.0)


def mobius_disk_image(m, alpha):
    """Exact image of the open disk D_alpha under the action of m.

    The boundary image satisfies the Apollonius equation
    A |w|^2 - 2 Re(B w) + C = 0 with A = |a|^2 - alpha^2 |b|^2,
    B = conj(c) a - alpha^2 conj(d) b, C = |c|^2 - alpha^2 |d|^2.
    The sign of A decides whether the pole of the action lies outside
    (disk), inside (exterior), or on (half plane) the source circle.
    Rank-1 matrices give the point image of their range.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    m = np.asarray(m, dtype=complex)
    if is_singular(m):
        return _rank1_image(m)
    # a one-row stack, so the arithmetic is that of disk_image_margins
    A, B, C, half, center, radius = (x[0] for x in _apollonius(m[None], alpha))
    if half:
        # Pole on the boundary: the image is an open half plane.
        # Line 2 Re(B w) = C; the probe is the image of the disk center.
        anchor = complex(np.conj(B) * C / (2.0 * abs(B) ** 2))
        probe = mobius(m, 0.0)
        normal = complex(np.conj(B))
        normal /= abs(normal)
        if (np.conj(normal) * (probe - anchor)).real < 0.0:
            normal = -normal
        return GenCircle("halfplane", anchor=anchor, normal=normal)
    kind = "disk" if A > 0 else "exterior"
    return GenCircle(kind, center=complex(center), radius=float(radius))


def _apollonius(m, alpha):
    """The boundary image of |z| = alpha under a stack m, in closed form.

    Returns A, B, C of the Apollonius equation, whether the image is a
    half plane (|A| within 1e-12 of scale = |a|^2 + alpha^2 |b|^2: the
    pole lies on the source circle), and the circle's center and radius
    (computed with A = 1 where the image is a half plane).
    """
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    al2 = np.asarray(alpha) ** 2
    pa, pb = _abs2(a), al2 * _abs2(b)
    A = pa - pb
    B = _cmul(c.conj(), a) - _cmul(_cmul(al2, d.conj()), b)
    C = _abs2(c) - al2 * _abs2(d)
    half = np.abs(A) <= 1e-12 * (pa + pb)
    Asafe = np.where(half, 1.0, A)
    center = _cmul(B.conj(), 1.0 / Asafe) + 0.0  # zero parts read +0.0, as in a sum
    radius = np.sqrt(np.maximum(_abs2(center) - C / Asafe, 0.0))
    return A, B, C, half, center, radius


def contained_in_disk(g, alpha_prime):
    """Whether the region g sits inside D_alpha_prime, with clearance.

    Returns (contained, margin).  The margin is the Euclidean clearance
    between the region and the circle |z| = alpha_prime, negative when
    the region pokes out; half planes and exteriors are never contained
    and report -inf.
    """
    if alpha_prime <= 0:
        raise ValueError("alpha_prime must be positive")
    if g.kind != "disk":
        return False, -math.inf
    margin = alpha_prime - (float(_abs(np.asarray(g.center))) + g.radius)
    return margin > 0.0, margin


def disk_image_margins(mats, alpha, alpha_prime):
    """Batched clearance of D_alpha images inside D_alpha_prime.

    mats has shape (..., 2, 2).  Entries map to the margin of
    contained_in_disk(mobius_disk_image(m, alpha), alpha_prime); images
    that are not bounded disks (half planes, exteriors, points at
    infinity) get -inf.  alpha and alpha_prime may be arrays that
    broadcast against the stack shape, each margin bit for bit that of
    its own pair: over an (n, 2, 2) stack, alpha of shape (k, 1, 1) and
    alpha_prime of shape (k, r, 1) give (k, r, n) margins, and the disk
    images are found once per alpha.
    """
    m = np.asarray(mats)
    sing = is_singular(m)
    A, _, _, half, center, r = _apollonius(m, alpha)
    disk = (~sing) & (~half) & (A > 0.0)
    out = np.where(disk, alpha_prime - (_abs(center) + r), -np.inf)

    # Rank-1 stacks: the point image of the range, if not vertical.
    if np.any(sing):
        pt, ok = np.zeros(sing.shape, dtype=np.result_type(m, 1.0)), np.zeros_like(sing)
        pt[sing], ok[sing] = _rank1_points(m[sing])
        out = np.where(ok, alpha_prime - _abs(pt), out)
    return out


def schwarz_pick_rho(alpha, alpha_prime):
    """Contraction factor of the invariant metric for maps D_alpha -> D_alpha_prime.

    Computed in the symmetric form 2 a a' / (a^2 + a'^2), which avoids
    cancellation when the radii are close.
    """
    if not 0 < alpha_prime < alpha:
        raise ValueError("need 0 < alpha_prime < alpha")
    return 2.0 * alpha * alpha_prime / (alpha * alpha + alpha_prime * alpha_prime)


def separation_constant(alpha, alpha_prime):
    """Chordal gap between D_alpha_prime and the complement of D_alpha."""
    if not 0 < alpha_prime < alpha:
        raise ValueError("need 0 < alpha_prime < alpha")
    return 2.0 * (alpha - alpha_prime) / math.sqrt(
        (1.0 + alpha * alpha) * (1.0 + alpha_prime * alpha_prime)
    )


def image_diameter_bound(alpha, alpha_prime, n):
    """Euclidean diameter bound for n-fold images of D_alpha.

    Any composition of n maps, each sending D_alpha into D_alpha_prime,
    has image diameter at most this value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rho = schwarz_pick_rho(alpha, alpha_prime)
    c = 2.0 * alpha ** 2 * alpha_prime / (alpha ** 2 - alpha_prime ** 2)
    return c * rho ** (n - 1)
