"""Two-sided complex Jacobi operators on finite integer windows.

The operator acts by

    (J psi)(n) = conj(a(n-1)) psi(n-1) + a(n) psi(n+1) + b(n) psi(n)

with complex couplings a and real diagonal b.  A window plus an
extension policy (periodic, constant, or zero) stands in for the full
line.  The module provides the tridiagonal action, energy transfer
cocycles, characteristic polynomials, truncation spectra through an
eigenvalue ladder, resolvent columns with exponential-decay fits, and
band computation for periodic data.

A coupling is zero iff it is exactly 0.0: every part of the package
splits the chain by this one rule, and no tolerance or bound is an
input, so load_operator returns the operator save_operator wrote.

Eigenvalues of Hermitian truncations are computed after a diagonal
phase gauge that replaces each coupling by its modulus; the gauge is
unitary, so the spectrum is untouched and the real symmetric
tridiagonal solver (Sturm bisection, LAPACK dstebz) applies.  Whole-period
truncations of periodic operators are closed into rings instead; a ring
of r periods of length q commutes with the shift by one period, so its
spectrum is that of r Hermitian q x q Bloch blocks, whose wrap coupling
carries the phase e^{2 pi i k / r}, solved in one batched call.
Resolvent columns solve the tridiagonal J - E by LAPACK zgtsv.

Both LAPACK routines, dstebz and zgtsv, are bound through ctypes to the
function pointers that scipy.linalg.cython_lapack exports (_lapack).
That extension module is loaded by itself: importing this module does
not import scipy.linalg, whose package init loads all of it.  A foreign
call through ctypes releases the GIL, so truncations solved on threads
run side by side.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from .mat2 import MatSequence, _abs, _cmul, _count, _max_abs, _mul, _renorm

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

    A coupling is zero iff it is exactly 0.0; the chain splits into
    decoupled blocks there, and nowhere else.  j_lo and a given period
    must be integers (a bool is refused), the period >= 1; with the
    periodic extension, it must divide the window length and the window
    data must repeat with it.
    """

    j_lo: int
    a: np.ndarray
    b: np.ndarray
    extension: str = "zero"
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
        self.j_lo = _count("j_lo", self.j_lo)
        if self.period is not None:
            self.period = _count("period", self.period, 1)
        if self.extension == "periodic" and self.period is not None:
            # the ring spectrum solves one period per Bloch block
            q = self.period
            if len(a) % q:
                raise ValueError(f"window length {len(a)} is not a multiple of the period {q}")
            if np.any(a.reshape(-1, q) != a[:q]) or np.any(b.reshape(-1, q) != b[:q]):
                raise ValueError(f"window data is not {q}-periodic")
        self.a, self.b = a, b

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

    def zero_sites(self, lo=None, hi=None):
        """Sites in [lo, hi] (the window by default) whose coupling is 0.0."""
        lo = self.j_lo if lo is None else lo
        hi = self.j_hi if hi is None else hi
        return (np.nonzero(self.a_range(lo, hi) == 0.0)[0] + lo).tolist()


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
        ends = (np.flatnonzero(self.offdiag == 0.0) + 1).tolist() + [len(self.diag)]
        return list(zip([0] + ends[:-1], ends))

    def eigenvalues(self):
        """All eigenvalues, via the modulus gauge and Sturm bisection.

        The chain is split at exact-zero couplings first so each block
        is solved on its own (_stebz).
        """
        eigs = []
        e_mag = np.abs(self.offdiag)
        for s, t in self.segments():
            if t - s == 1:
                eigs.append(np.array([self.diag[s]]))
            else:
                eigs.append(_stebz(self.diag[s:t], e_mag[s:t - 1]))
        return np.sort(np.concatenate(eigs))


def _cython_lapack():
    # scipy.linalg.cython_lapack, without running scipy.linalg's package
    # init: the module already loaded, or the extension file loaded on its
    # own and registered under its name, so a later import of scipy.linalg
    # shares it (from sys.modules: the import system then sets no
    # scipy.linalg.cython_lapack attribute, but "from scipy.linalg import
    # cython_lapack" finds it)
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, "linalg") for p in scipy.__path__]
    )
    if spec is None:
        raise ImportError(f"no {name} in the scipy at {scipy.__path__}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_CYTHON_LAPACK = _cython_lapack()


def _lapack(routine, *argtypes):
    """The LAPACK routine that scipy.linalg.cython_lapack exports, as a
    ctypes function of the given argument types; a foreign call through
    ctypes releases the GIL while it runs."""
    capsule = _CYTHON_LAPACK.__pyx_capi__[routine]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    return ctypes.CFUNCTYPE(None, *argtypes)(pointer(capsule, name(capsule)))


_i, _d = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_iv = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS")
_dv = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_zv = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")
_zm = np.ctypeslib.ndpointer(np.complex128, ndim=2, flags="F_CONTIGUOUS")
# RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO
_DSTEBZ = _lapack(
    "dstebz", ctypes.c_char_p, ctypes.c_char_p, _i, _d, _d, _i, _i, _d, _dv, _dv, _i, _i,
    _dv, _iv, _iv, _dv, _iv, _i,
)
# N NRHS DL D DU B LDB INFO
_ZGTSV = _lapack("zgtsv", _i, _i, _zv, _zv, _zv, _zm, _i, _i)


def _stebz(d, e):
    """Ascending eigenvalues of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by LAPACK dstebz (bound by _lapack):
    every eigenvalue (RANGE "A"), in order (ORDER "E"), to the routine's
    own tolerance (ABSTOL 0).  scipy's eigh_tridiagonal(d, e,
    eigvals_only=True, lapack_driver="stebz") calls the same routine of
    the same library with the same arguments, so the result is its bit
    for bit; but that call holds the GIL and this one releases it.  A
    nonzero INFO raises LinAlgError, as there.  solve_banded binds zgtsv
    the same way.
    """
    d = np.ascontiguousarray(d, dtype=np.float64)
    e = np.ascontiguousarray(e, dtype=np.float64)
    n = len(d)
    if d.ndim != 1 or e.shape != (n - 1,):
        raise ValueError("need a 1d diagonal and an off-diagonal one element shorter")
    m, nsplit, info = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
    bound, index = ctypes.c_double(0.0), ctypes.c_int(1)  # VL, VU, IL, IU: unread for "A"
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.intc) for k in (1, 1, 3))
    ref = ctypes.byref
    _DSTEBZ(
        b"A", b"E", ref(ctypes.c_int(n)), ref(bound), ref(bound), ref(index), ref(index),
        ref(ctypes.c_double(0.0)), d, e, ref(m), ref(nsplit), w, iblock, isplit, work, iwork,
        ref(info),
    )
    if info.value:
        raise LinAlgError(f"dstebz did not converge (LAPACK info={info.value})")
    return w[: m.value]


def solve_banded(ab, rhs):
    """The solution x of A x = rhs, for the n x n tridiagonal A stored as
    scipy's (1, 1) banded ab (ab[0, 1:] above the diagonal, ab[1] on it,
    ab[2, :-1] below it; n >= 2) and rhs of shape (n, k), by LAPACK zgtsv
    (bound by _lapack).  Like scipy's solve_banded((1, 1), ab, rhs), which
    calls the same routine on copies of the same rows, it returns x in
    Fortran order, bit for bit the same; raises ValueError("array must not
    contain infs or NaNs") on a non-finite input and LinAlgError("singular
    matrix") where zgtsv meets a zero pivot (INFO > 0).
    """
    ab = np.asarray_chkfinite(ab, dtype=np.complex128)
    x = np.array(np.asarray_chkfinite(rhs, dtype=np.complex128), order="F")
    n = ab.shape[-1] if ab.ndim == 2 else 0
    if n < 2 or len(ab) != 3 or x.ndim != 2 or len(x) != n:
        raise ValueError("need ab of shape (3, n), n >= 2, and rhs of shape (n, k)")
    dl, d, du = np.array(ab[2, :-1]), np.array(ab[1]), np.array(ab[0, 1:])
    info = ctypes.c_int()
    ref = ctypes.byref
    # INFO < 0 flags a bad N, NRHS or LDB, which the checks above exclude
    _ZGTSV(ref(ctypes.c_int(n)), ref(ctypes.c_int(x.shape[1])), dl, d, du, x,
           ref(ctypes.c_int(n)), ref(info))
    if info.value > 0:
        raise LinAlgError("singular matrix")
    return x


def truncation(op, j1, j2):
    """Restriction of op to the sites (j1, j2]."""
    if j2 <= j1:
        raise ValueError("need j2 > j1")
    return Truncation(
        j_first=j1 + 1,
        diag=op.b_range(j1 + 1, j2).astype(float),
        offdiag=op.a_range(j1 + 1, j2 - 1),
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


def _cover_plan(op, sizes):
    """The truncations of spectrum(op, sizes) as [(size, j1, j2, ring)],
    sizes ascending: each entry is one eigenvalue call on the sites
    (j1, j2], closed into a Bloch ring when ring is True.  No usable
    size raises ValueError.
    """
    n = len(op)
    use = sorted({min(_count("truncation size", s, 1), n) for s in sizes})
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
    plan = []
    for s in use:
        start = op.j_lo + (n - s) // 2
        if q and s % q == 0 and s >= 2:
            plan.append((s, start - 1, start - 1 + s, True))
        else:
            plan.append((s, *_snap_to_zeros(op, start - 1, start - 1 + s), False))
    return plan


def _truncation_eigenvalues(op, j1, j2, ring):
    """The sorted eigenvalues of one _cover_plan entry's truncation."""
    return _ring_eigenvalues(op, j1, j2) if ring else truncation(op, j1, j2).eigenvalues()


def _cover(plan, eigs):
    """The SpectrumApprox of a _cover_plan and its truncations' eigenvalues,
    in plan order."""
    merged = np.sort(np.concatenate(eigs))
    if len(eigs) >= 2:
        h = max(_hausdorff_1d(x, y) for x, y in zip(eigs, eigs[1:]))
    elif len(merged) >= 2:
        h = 0.5 * float(np.max(np.diff(eigs[0])))
    else:
        h = 0.0
    h = max(h, 1e-12)
    gap = max(4.0 * h, 1e-9)
    # a segment ends where the next eigenvalue lies more than gap above it
    cut = np.flatnonzero(np.diff(merged) > gap)
    los, his = merged[np.r_[0, cut + 1]].tolist(), merged[np.r_[cut, -1]].tolist()
    segments = list(zip(los, his))
    return SpectrumApprox(
        sizes=[s for s, *_ in plan], merged=merged, segments=segments, resolution=h
    )


def spectrum(op, sizes=(200, 400, 800)):
    """Eigenvalue ladder over centered truncations of the given sizes.

    Each size must be an integer >= 1 (a bool is refused).  Sizes are
    clipped to the window and, for periodic operators with a known
    period, rounded to whole periods so truncations of different sizes
    sample the same band structure; those truncations are closed into
    rings.  When the window contains exact zero couplings the other
    truncation endpoints snap inward to them, so the cuts happen across
    already dead bonds and the blocks stay whole.  The plan of
    truncations (_cover_plan), one eigenvalue call per truncation
    (_truncation_eigenvalues) and the merge (_cover) are separate steps,
    so johnson_scan solves the truncations on helper threads beside its
    certify and assembles the same cover bit for bit.
    """
    plan = _cover_plan(op, sizes)
    return _cover(plan, [_truncation_eigenvalues(op, *entry[1:]) for entry in plan])


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
    g = solve_banded(ab, rhs)
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
    of these holds.  A given margin must be an integer >= 1.
    """
    adaptive = margin is None
    m = 64 if adaptive else _count("margin", margin, 1)
    if not op.j_lo <= j <= op.j_hi:
        raise ValueError(f"column {j} outside window {op.window}")
    sp = spectrum_approx if spectrum_approx is not None else spectrum(op)
    delta = dist_to_spectrum(sp, E)
    if delta < DELTA_MIN:
        raise IllConditioned(
            f"energy within {delta:.3e} of the spectrum cover", delta=delta
        )
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
    if q is None:
        raise ValueError("period required")
    alpha = np.abs(op.a_range(op.j_lo, op.j_lo + q - 1))
    if np.any(alpha == 0.0):
        raise ValueError("zero coupling inside the period; no transfer bands")
    beta = op.b_range(op.j_lo, op.j_lo + q - 1)
    alpha_prev = np.roll(alpha, 1)  # coupling entering site k, periodic wrap

    def log_disc(E):
        E = np.atleast_1d(np.asarray(E, dtype=float))

        F = np.zeros((2, 2, len(E)))  # the factors at one step, plane-major
        F[1, 0] = 1.0
        P = np.tile(np.eye(2), (len(E), 1, 1))
        e = np.zeros(len(E))  # the binary exponents removed, summed exactly
        for k in range(q):
            F[0, 0] = (E - beta[k]) / alpha[k]
            F[0, 1] = -alpha_prev[k] / alpha[k]
            P = _mul(F.transpose(2, 0, 1), P)
            e -= _renorm(P, out=P)[1]
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


def _json_real(field, k, x):
    """x, read from entry k of the coefficient list field, as a float;
    ValueError naming field[k] unless x is a number (a bool is refused)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{field}[{k}] must hold numbers, got {x!r}")
    return float(x)


def operator_from_json(d):
    """Inverse of operator_to_json: the operator it wrote, value for value.

    Floats travel exactly, so a loaded operator has the saved one's
    zero couplings and gives the same spectrum and certificates.  A field
    of another form raises ValueError naming it (and the entry at
    fault), a missing field KeyError.
    """
    if not isinstance(d, dict):
        raise ValueError(f"an operator must be a JSON object, got {type(d).__name__}")
    for key in ("window", "a", "b"):
        if not isinstance(d[key], list):
            raise ValueError(f"{key} must be a list, got {d[key]!r}")
    lo, hi = d["window"]
    j_lo, j_hi = _count("window start", lo), _count("window end", hi)
    a = []
    for k, z in enumerate(d["a"]):
        if not isinstance(z, list) or len(z) != 2:
            raise ValueError(f"a[{k}] must be a pair [re, im], got {z!r}")
        a.append(complex(_json_real("a", k, z[0]), _json_real("a", k, z[1])))
    b = [_json_real("b", k, x) for k, x in enumerate(d["b"])]
    if len(a) != j_hi - j_lo + 1:
        raise ValueError("window length does not match coefficient arrays")
    return JacobiOperator(j_lo=j_lo, a=a, b=b, extension=d["extension"],
                          period=d.get("period"))


def save_operator(op, path):
    with open(path, "w") as f:
        json.dump(operator_to_json(op), f, indent=1)
        f.write("\n")


def load_operator(path):
    with open(path) as f:
        return operator_from_json(json.load(f))
