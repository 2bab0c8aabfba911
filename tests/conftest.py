"""Shared fixtures, product oracles and the acceptance summary hook."""

import math

import numpy as np
import pytest

from domsplit import JacobiOperator, cocycle_map, periodic_operator

ACCEPTANCE_LINES = []


def record_acceptance(label, ok, detail):
    ACCEPTANCE_LINES.append((label, bool(ok), detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok, detail in ACCEPTANCE_LINES:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] {label}: {detail}")


@pytest.fixture
def free_op():
    "a = 1, b = 0 on a 200-site window"
    return JacobiOperator(
        j_lo=-100, a=np.ones(200, dtype=complex), b=np.zeros(200)
    )


@pytest.fixture
def free_seq(free_op):
    return cocycle_map(free_op, 3.0)


@pytest.fixture
def period2_op():
    return periodic_operator([1.0, 1.0], [0.0, 1.5], (-150, 149))


@pytest.fixture
def mod5_op():
    "couplings die at j = 0 mod 5, so the operator is a direct sum of 5-site blocks"
    return periodic_operator(
        [0.0, 1.0, 1.0, 1.0, 1.0], [0.3, -0.2, 0.5, 0.0, 0.1], (-200, 199)
    )


def random_operator(rng, n=120, complex_a=True, j_lo=None):
    "bounded random Jacobi window with couplings kept away from zero"
    if j_lo is None:
        j_lo = -(n // 2)
    mag = 0.5 + rng.random(n)
    if complex_a:
        phase = np.exp(2j * np.pi * rng.random(n))
        a = mag * phase
    else:
        a = mag.astype(complex)
    b = rng.uniform(-1.0, 1.0, n)
    return JacobiOperator(j_lo=j_lo, a=a, b=b)


def ref_matmul(A, B):
    """A @ B for two 2x2 matrices or stacks of them, entry by entry, in
    the two forms of mat2's kernel: a*e + b*g for float64, and for
    complex128 the split-accumulator form
        re = (ar0*br0 + ar1*br1) - (ai0*bi0 + ai1*bi1)
        im = (ar0*bi0 + ar1*bi1) + (ai0*br0 + ai1*br1),
    every sum starting from +0.0 as a BLAS accumulator does.  A real
    operand is promoted to complex as numpy promotes it.  The bitwise
    oracles multiply through this."""
    dtype = np.result_type(A, B)
    A, B = np.asarray(A, dtype), np.asarray(B, dtype)
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype)
    for i in range(2):
        for k in range(2):
            a0, a1, b0, b1 = A[..., i, 0], A[..., i, 1], B[..., 0, k], B[..., 1, k]
            if dtype.kind != "c":
                out[..., i, k] = 0.0 + a0 * b0 + a1 * b1
                continue
            rr = 0.0 + a0.real * b0.real + a1.real * b1.real
            ii = 0.0 + a0.imag * b0.imag + a1.imag * b1.imag
            ri = 0.0 + a0.real * b0.imag + a1.real * b1.imag
            ir = 0.0 + a0.imag * b0.real + a1.imag * b1.real
            out[..., i, k].real = rr - ii
            out[..., i, k].imag = ri + ir
    return out


def renorm_row_oracle(r):
    """One 2x2 scaled by 2**s, s = 1 - e with e the frexp exponent of its
    largest |re| or |im|, and s; s = 0 when that part is inf or NaN."""
    m = float(np.max(np.abs([r.real, r.imag])))  # NaN propagates
    s = 1 - math.frexp(m)[1] if math.isfinite(m) else 0
    if np.iscomplexobj(r):
        return np.ldexp(r.real, s) + 1j * np.ldexp(r.imag, s), s
    return np.ldexp(r, s), s


def doubling_oracle(factors):
    """mat2's doubling tables and table fold over one list of factors,
    one 2x2 at a time through ref_matmul and renorm_row_oracle.

    Returns row(p, n, start=None) -> (P, e): the product factors[p + n -
    1] @ ... @ factors[p] @ start (start the identity by default) is P *
    2**e.  Entry (k, t), the product of factors[t : t + 2**k], is the
    renormalized factor for k = 0 and the renormalized product of entries
    (k - 1, t + 2**(k - 1)) and (k - 1, t) above, with their exponents
    summed; a row left-multiplies, for each set bit 2**k of n in
    ascending order, the entry (k, p + the lower bits of n), renormalizing
    after each.  Entries are computed once per call of doubling_oracle,
    since each depends on nothing but its span of factors."""
    memo = {}

    def entry(k, t):
        if (k, t) not in memo:
            if k == 0:
                T, s = renorm_row_oracle(np.asarray(factors[t]))
                memo[k, t] = T, -s
            else:
                h = 1 << (k - 1)
                (A, ea), (B, eb) = entry(k - 1, t + h), entry(k - 1, t)
                T, s = renorm_row_oracle(ref_matmul(A, B))
                memo[k, t] = T, ea + eb - s
        return memo[k, t]

    def row(p, n, start=None):
        P = np.eye(2, dtype=np.asarray(factors[0]).dtype) if start is None else start
        e = 0
        for k in range(int(n).bit_length()):
            if n >> k & 1:
                T, E = entry(k, p + (n & ((1 << k) - 1)))
                P, s = renorm_row_oracle(ref_matmul(T, P))
                e += E - s
        return P, e

    return row


def random_matseq(rng, n=40, j_lo=0, scale=1.0):
    from domsplit import MatSequence

    vals = scale * (
        rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    )
    return MatSequence(j_lo, vals)
