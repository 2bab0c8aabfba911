"""Batched 2x2 helpers against dense linear-algebra oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domsplit import MatSequence, cocycle_map, cocycle_product, norm_floor, op_norm
from domsplit.mat2 import (
    _abs,
    _classes,
    _max_abs,
    _mul,
    _plane_major,
    _renorm,
    det2,
    is_singular,
    singular_values,
    span_products,
    sv_direction_vectors,
    sv_left_vectors,
    sv_right_vectors,
)

from conftest import doubling_oracle, random_matseq, random_operator, ref_matmul, renorm_row_oracle


def test_matsequence_indexing():
    vals = np.arange(12, dtype=float).reshape(3, 2, 2).astype(complex)
    seq = MatSequence(5, vals)
    assert len(seq) == 3
    assert seq.window == (5, 7)
    assert np.array_equal(seq.at(6), vals[1])
    assert seq.index_of(7) == 2
    with pytest.raises(IndexError):
        seq.at(8)
    with pytest.raises(IndexError):
        seq.at(4)


def test_matsequence_from_fn():
    seq = MatSequence.from_fn(lambda j: np.array([[j, 0], [0, 1]], complex), -2, 2)
    assert seq.window == (-2, 2)
    assert seq.at(-2)[0, 0] == -2
    assert seq.at(2)[0, 0] == 2


def test_det2_matches_numpy():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
    assert np.allclose(det2(m), np.linalg.det(m), rtol=1e-12, atol=1e-12)


def test_singular_values_match_numpy():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s1, s2 = singular_values(m)
        ref = np.linalg.svd(m, compute_uv=False)
        assert s1 == pytest.approx(ref[0], rel=1e-12, abs=1e-13)
        assert s2 == pytest.approx(ref[1], rel=1e-10, abs=1e-12)
        assert s1 >= s2 >= 0


def test_singular_values_degenerate_cases():
    # exactly singular and exactly scalar matrices
    s1, s2 = singular_values(np.array([[1.0, 2.0], [2.0, 4.0]], complex))
    assert s2 == pytest.approx(0.0, abs=1e-14)
    s1, s2 = singular_values(3.0 * np.eye(2, dtype=complex))
    assert s1 == pytest.approx(3.0, rel=1e-14)
    assert s2 == pytest.approx(3.0, rel=1e-14)


def test_op_norm_batched():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((30, 2, 2)) + 1j * rng.standard_normal((30, 2, 2))
    ref = np.array([np.linalg.norm(x, 2) for x in m])
    assert np.allclose(op_norm(m), ref, rtol=1e-12)


def test_sv_direction_vectors_align_with_svd():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
    left, right = sv_direction_vectors(m)
    for k in range(40):
        U, _, Vh = np.linalg.svd(m[k])
        # directions match up to phase: the wedge with the reference vanishes
        for mine, ref in ((left[k], U[:, 0]), (right[k], Vh[0].conj())):
            wedge = mine[0] * ref[1] - mine[1] * ref[0]
            assert abs(wedge) < 1e-10
            assert np.linalg.norm(mine) == pytest.approx(1.0, rel=1e-12)


def _complex(re, im):
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _top_eigvec_oracle(g11, g12, g22, lam):
    # eigenvector of [[g11, g12], [conj(g12), g22]] for its eigenvalue lam,
    # from the larger of two candidates, on real and imaginary parts:
    # squares re*re + im*im, and the division by the norm a multiplication
    # by its reciprocal
    v1 = np.stack([g12, (lam - g11) + 0j], axis=-1)
    v2 = np.stack([(lam - g22) + 0j, np.conj(g12)], axis=-1)
    n1, n2 = (np.sqrt(sum(x.real * x.real + x.imag * x.imag for x in (v[..., 0], v[..., 1])))
              for v in (v1, v2))
    pick2 = n2 > n1
    v = np.where(pick2[..., None], v2, v1)
    n = np.where(pick2, n2, n1)
    flat = n <= 1e-300
    v = np.where(flat[..., None], np.array([1.0, 0.0], dtype=complex), v)
    r = 1.0 / np.where(flat, 1.0, n)
    return _complex(v.real * r[..., None], v.imag * r[..., None])


def sv_direction_vectors_oracle(m):
    """Both singular directions of a complex stack from one
    singular_values call, every square and product written out on real
    and imaginary parts: the oracle of the two halves."""
    m = np.asarray(m, dtype=complex)
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    s1, _ = singular_values(m)
    lam = s1 * s1

    def sq(z):
        return z.real * z.real + z.imag * z.imag

    def dot(x, y, conj_x):  # x * conj(y), or conj(x) * y
        re = x.real * y.real + x.imag * y.imag
        return _complex(re, x.real * y.imag - x.imag * y.real if conj_x
                        else x.imag * y.real - x.real * y.imag)

    left = _top_eigvec_oracle(
        sq(a) + sq(b), dot(a, c, False) + dot(b, d, False), sq(c) + sq(d), lam
    )
    right = _top_eigvec_oracle(
        sq(a) + sq(c), dot(a, b, True) + dot(c, d, True), sq(b) + sq(d), lam
    )
    return left, right


def test_sv_halves_are_bitwise_the_joint_call():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((600, 2, 2)) + 1j * rng.standard_normal((600, 2, 2))
    m[::5] = m[::5].real  # real stacks, as a real sweep casts them
    m[1::7, :, 1] = 2.0 * m[1::7, :, 0]  # rank 1
    m[2::11, 1, :] = 0.0  # a zero row
    m[3::13, :, 0] = 0.0  # a zero column
    m[4::17] = 2.5 * np.eye(2)  # conformal
    m[6::19] = 0.0
    left, right = sv_direction_vectors_oracle(m)
    assert sv_left_vectors(m).tobytes() == left.tobytes()
    assert sv_right_vectors(m).tobytes() == right.tobytes()
    both = sv_direction_vectors(m)
    assert both[0].tobytes() == left.tobytes() and both[1].tobytes() == right.tobytes()
    # a float64 stack gives the values of its complex128 form, in float64
    real = m[::5].real
    for got, ref in zip(sv_direction_vectors(real), (left[::5], right[::5])):
        assert got.dtype == np.float64 and np.array_equal(got, ref)


def test_modulus_has_the_range_of_hypot():
    # squares of moduli beyond 2**+-511 leave float64; _abs then scales,
    # so no modulus under- or overflows before its value does
    rng = np.random.default_rng(31)
    z = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    z *= np.ldexp(1.0, rng.integers(-1070, 1020, 4000))
    z[::9] = z[::9].real
    a = _abs(z)
    assert np.array_equal(a[::9], np.abs(z[::9].real))
    ref = np.hypot(z.real, z.imag)
    assert np.all(np.abs(a - ref) <= 2 * np.spacing(ref))


@pytest.mark.parametrize("lo, hi", [(-20, 20), (-1070, -600), (600, 1020), (-1070, 1020)])
def test_max_modulus_is_the_largest_modulus(lo, hi):
    # _max_abs roots the largest square, the largest root bit for bit
    # where that root is normal, and takes _abs's maximum elsewhere
    rng = np.random.default_rng(32)
    z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    z *= np.ldexp(1.0, rng.integers(lo, hi, 500))
    assert _max_abs(z) == float(np.max(_abs(z)))
    assert _max_abs(z.real) == float(np.max(np.abs(z.real)))


def test_is_singular_flags():
    sing = np.array([[1.0, 2.0], [0.5, 1.0]], complex)
    well = np.array([[2.0, 0.0], [0.0, 1.0]], complex)
    flags = is_singular(np.stack([sing, well]))
    assert flags[0] and not flags[1]


def brute_product(seq, j, n):
    out = np.eye(2, dtype=complex)
    for k in range(j, j + n):
        out = ref_matmul(seq.at(k), out)
    return out


def test_cocycle_product_short_and_long():
    rng = np.random.default_rng(16)
    seq = random_matseq(rng, n=60, j_lo=-30)
    for j, n in ((-30, 1), (-10, 5), (-25, 12)):
        got = cocycle_product(seq, j, n)
        ref = brute_product(seq, j, n)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)
    # a long product runs renormalized and is scaled back exactly
    got = cocycle_product(seq, -30, 60)
    ref = brute_product(seq, -30, 60)
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() < 1e-10 * scale


def test_cocycle_product_bounds():
    rng = np.random.default_rng(17)
    seq = random_matseq(rng, n=10)
    with pytest.raises(IndexError):
        cocycle_product(seq, 5, 6)
    assert np.array_equal(cocycle_product(seq, 3, 0), np.eye(2))
    with pytest.raises(ValueError):
        cocycle_product(seq, 0, -1)


def test_products_survive_an_overflowing_running_product():
    # the running product reaches 1e400 after two factors and comes back
    # to about 1 after four; renormalized and scaled back with ldexp, every
    # product whose value is representable comes out finite
    vals = np.array([1e200, 1e200, 1e-200, 1e-200] * 10)[:, None, None] * np.eye(2)
    seq = MatSequence(0, vals.astype(complex))
    for j, n in ((0, 4), (1, 2), (0, 40), (2, 36)):
        assert np.allclose(cocycle_product(seq, j, n), np.eye(2), rtol=1e-12, atol=0.0)
    with np.errstate(over="ignore"):
        got = span_products(seq, [0, 1, 0], [2, 3, 4])
    assert np.all(np.isinf(got[0].diagonal()))  # 1e400 itself is no float64
    assert np.allclose(got[1:], [1e-200 * np.eye(2), np.eye(2)], rtol=1e-12, atol=0.0)


def test_norm_floor_matches_bruteforce():
    rng = np.random.default_rng(19)
    seq = random_matseq(rng, n=24, j_lo=0)
    for n in (1, 2, 5, 8):
        ref = min(
            np.linalg.norm(brute_product(seq, j, n), 2)
            for j in range(0, 24 - n + 1)
        )
        assert norm_floor(seq, n) == pytest.approx(ref, rel=1e-10)


@pytest.mark.dispatch
def test_norm_floor_is_the_span_products_minimum():
    # the floor is one doubling-order fold of its n-factor rows, whose
    # top singular values are taken on the renormalized heads and scaled
    # back exactly: bit for bit the least norm of the same products
    # scaled back first, on real, complex and Jacobi windows
    rng = np.random.default_rng(22)
    seq = random_matseq(rng, n=50, j_lo=0)
    real = MatSequence(3, seq.values.real.copy())
    jacobi_real = cocycle_map(random_operator(rng, n=40, complex_a=False), 0.7)
    jacobi_complex = cocycle_map(random_operator(rng, n=40), 0.3 + 0.8j)
    for s in (seq, real, jacobi_real, jacobi_complex):
        floors = []
        for n in range(1, len(s) + 1):
            js = np.arange(s.j_lo, s.j_hi + 2 - n)
            floors.append(norm_floor(s, n))
            assert floors[-1] == float(np.min(op_norm(span_products(s, js, n))))
        if s is not seq and s is not jacobi_complex:
            # a real window gives the floors of the same window stored as
            # complex with +0.0 imaginary parts, which the complex fold runs
            with mock.patch("domsplit.mat2._sweep_values", lambda s: s.values):
                assert [norm_floor(s, n) for n in range(1, len(s) + 1)] == floors


def test_norm_floor_zero_on_dead_factor():
    vals = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)]).astype(complex)
    seq = MatSequence(0, vals)
    assert norm_floor(seq, 3) == pytest.approx(0.0, abs=1e-300)


def test_sup_bound_covers_factors():
    rng = np.random.default_rng(20)
    seq = random_matseq(rng, n=15, scale=2.5)
    assert seq.sup_bound >= op_norm(seq.values).max()
    # the bound is read off the data, never supplied: a supplied NaN bound
    # compared False with every norm, and the verified free chain at E = 3
    # once failed condition (4) against it
    with pytest.raises(TypeError):
        MatSequence(seq.j_lo, seq.values, math.nan)


def test_sup_bound_is_finite_where_the_squares_overflow():
    # op_norm squares the entries, which overflows above about 1e154; the
    # norms of the factors scaled by exact powers of two, scaled back, do
    # not, and they are the bits of op_norm where its squares stay finite
    seq = MatSequence(0, np.repeat((1e150 * np.diag([3.0, 0.5]))[None], 200, axis=0))
    assert seq.sup_bound == pytest.approx(3e150, rel=1e-15)
    assert MatSequence(0, seq.values * 1e-300).sup_bound == pytest.approx(3e-150, rel=1e-15)
    rng = np.random.default_rng(23)
    unit = random_matseq(rng, n=60)
    assert unit.sup_bound == float(np.max(op_norm(unit.values)))
    # a norm beyond the float64 range has no finite bound
    with pytest.raises(ValueError, match="not finite"):
        MatSequence(0, np.full((3, 2, 2), 1e308))


# ------------------------------------------------------------- step loops


def sweep_rows_oracle(P, steps):
    """The step loop (_mul by one factor stack per step, then _renorm) as
    a loop over each row by itself, one 2x2 at a time: a row is
    left-multiplied and renormalized at each step, and its exponent is
    the sum of the binary exponents removed from it."""
    rows = [P[i] for i in range(len(P))]
    exps = [0] * len(P)
    for F in steps:
        for i in range(len(F)):
            rows[i], s = renorm_row_oracle(ref_matmul(F[i], rows[i]))
            exps[i] -= s
    return np.array(rows), np.array(exps, dtype=np.int64)


def _special_stack(rng, n, dtype):
    """A random (n, 2, 2) stack with +0.0 and -0.0 entries, exactly zero
    rows and rows holding a NaN."""
    X = rng.standard_normal((n, 2, 2))
    if np.dtype(dtype).kind == "c":
        X = X + 1j * rng.standard_normal((n, 2, 2))
    parts = X.view(np.float64)
    zero = rng.random(parts.shape) < 0.2
    parts[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    X[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
    X[rng.random(n) < 0.1, int(rng.integers(2)), int(rng.integers(2))] = np.nan
    return X


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    dtypes=st.sampled_from(
        [(np.float64, np.float64), (np.complex128, np.complex128),
         (np.float64, np.complex128), (np.complex128, np.float64)]
    ),
    plane_major=st.booleans(),
)
def test_kernel_and_sweep_are_bitwise_the_reference(seed, n, dtypes, plane_major):
    # the bits of a row do not depend on its stack's layout, on the other
    # rows, or on whether the kernel writes into one of its operands
    rng = np.random.default_rng(seed)
    layout = _plane_major if plane_major else np.ascontiguousarray
    A, B = (_special_stack(rng, n, dt) for dt in dtypes)
    with np.errstate(invalid="ignore"):
        ref = ref_matmul(A, B)
        assert _mul(layout(A), layout(B)).tobytes() == ref.tobytes()
        if dtypes[0] == dtypes[1]:
            B2 = layout(B.copy())
            assert _mul(layout(A), B2, out=B2) is B2
            assert B2.tobytes() == ref.tobytes()
        # a loop of several steps over the whole stack, as the domination
        # frames and floquet_bands run it
        dtype = dtypes[1]
        P = layout(_special_stack(rng, n, dtype))
        steps = [layout(_special_stack(rng, n, dtype)) for _ in range(int(rng.integers(1, 10)))]
        got, exps = P, np.zeros(n, dtype=np.int64)
        for F in steps:
            got = _mul(F, got)
            exps -= _renorm(got, out=got)[1]
        want, want_exps = sweep_rows_oracle(P, steps)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert exps.tobytes() == want_exps.tobytes()


def cocycle_product_oracle(seq, j, n):
    """The product of the n factors from j in doubling order, one 2x2 at
    a time (doubling_oracle), scaled back with ldexp: on factors of unit
    scale nothing overflows, so span_products must give its bits."""
    P, e = doubling_oracle(seq.values)(seq.index_of(j) if n else 0, n)
    out = np.empty((2, 2), dtype=complex)
    out.real, out.imag = np.ldexp(P.real, e), np.ldexp(P.imag, e)
    return out


@pytest.mark.parametrize("real", [False, True])
def test_span_products_are_bitwise_the_per_pair_products(real):
    rng = np.random.default_rng(34)
    seq = random_matseq(rng, n=70, j_lo=-20)
    if real:
        seq = MatSequence(-20, seq.values.real.copy())
    seq.values[5, :, 1] = 2.0 * seq.values[5, :, 0]  # an exactly singular factor
    lo, hi = seq.window
    full = len(seq)
    edges = [(j, n) for n in (0, 1, 32, 33) for j in (lo, lo + 3, hi + 1 - max(n, 1))]
    edges += [(lo, full), (lo, 0), (hi + 5, 0)]
    shared = [(lo + 2, n) for n in range(1, 50, 3)]  # read off one chain
    spaced = [(lo + 4 * k, 12 + 22 * (k % 2)) for k in range(8)]  # evenly spaced, two lengths
    scattered = list(zip(rng.integers(lo, hi - 40, 30).tolist(), rng.integers(0, 40, 30).tolist()))
    for pairs in (edges, shared, spaced, scattered, edges + shared + spaced + scattered):
        starts, lengths = np.array(pairs).T
        got = span_products(seq, starts, lengths)
        for (j, n), row in zip(pairs, got):
            ref = cocycle_product_oracle(seq, j, n)
            assert row.tobytes() == ref.tobytes()
            assert cocycle_product(seq, j, n).tobytes() == ref.tobytes()
    with pytest.raises(IndexError):
        span_products(seq, starts, lengths + 1)


def test_classes_key_tuples_in_mixed_radix_within_int64():
    # the classes of equal (a, b) tuples, ascending by tuple, each with
    # its first row
    a, b = np.array([2**31, 0, 2**31, 0, 7]), np.array([2**31, 5, 2**31, 0, 0])
    first, at = _classes(a, b)
    assert first.tolist() == [3, 1, 4, 0] and at.tolist() == [3, 1, 3, 0, 2]
    # radices (2**31 + 1)**2 fit in int64; a third key of radix 4 would
    # wrap, and is refused instead of merging unequal tuples
    with pytest.raises(OverflowError):
        _classes(a, b, np.array([3, 0, 0, 0, 0]))
