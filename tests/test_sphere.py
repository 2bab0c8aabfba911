"""Projective-line geometry against sampling oracles.

The disk-image closed form is the load-bearing piece: it is checked by
mapping thousands of boundary points directly and measuring their
distance to the claimed circle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domsplit.sphere import (
    INF,
    GenCircle,
    ProjPoint,
    UndefinedAction,
    act,
    chordal_dist,
    chordal_rows,
    contained_in_disk,
    disk_image_margins,
    image_diameter_bound,
    mobius,
    mobius_disk_image,
    schwarz_pick_rho,
    separation_constant,
    unit_rows,
)


def rand_mat(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def test_projpoint_gauge_is_canonical():
    rng = np.random.default_rng(21)
    for _ in range(50):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        p, q = ProjPoint(v), ProjPoint(lam * v)
        assert np.allclose(p.v, q.v, atol=1e-12)
        assert np.linalg.norm(p.v) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        ProjPoint((0.0, 0.0))


def test_perp_is_orthogonal_and_antipodal():
    p = ProjPoint((1.0, 2.0 - 1.0j))
    q = p.perp()
    assert abs(np.vdot(p.v, q.v)) < 1e-14
    assert chordal_dist(p, q) == pytest.approx(2.0, rel=1e-12)


def test_chordal_dist_basic_properties():
    rng = np.random.default_rng(22)
    e1, e2 = ProjPoint((1, 0)), ProjPoint((0, 1))
    assert chordal_dist(e1, e2) == pytest.approx(2.0)
    assert chordal_dist(e1, e1) == 0.0
    for _ in range(50):
        p = ProjPoint(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        q = ProjPoint(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d = chordal_dist(p, q)
        assert 0.0 <= d <= 2.0 + 1e-15
        assert d == pytest.approx(chordal_dist(q, p), abs=1e-15)
        # unitary invariance
        u, _ = np.linalg.qr(rand_mat(rng))
        assert chordal_dist(act(u, p), act(u, q)) == pytest.approx(d, abs=1e-12)


def test_chordal_rows_and_unit_rows():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    b = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    got = chordal_rows(a, b)
    for k in range(8):
        assert got[k] == pytest.approx(
            chordal_dist(ProjPoint(a[k]), ProjPoint(b[k])), abs=1e-13
        )
    u = unit_rows(a)
    assert np.allclose(np.sum(np.abs(u) ** 2, axis=-1), 1.0)
    with pytest.raises(ValueError):
        unit_rows(np.zeros((2, 2)))
    assert np.isnan(chordal_rows(np.zeros(2), np.ones(2)))


def test_act_matches_matrix_action():
    rng = np.random.default_rng(25)
    for _ in range(50):
        m = rand_mat(rng)
        p = ProjPoint(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        q = act(m, p)
        assert chordal_dist(q, ProjPoint(m @ p.v)) < 1e-13


def test_act_undefined_on_kernel():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], complex)  # kernel spans (2, -1)
    with pytest.raises(UndefinedAction):
        act(m, ProjPoint((2.0, -1.0)))
    # off-kernel directions still map, to the range direction
    q = act(m, ProjPoint((1.0, 0.0)))
    assert chordal_dist(q, ProjPoint((1.0, 2.0))) < 1e-13


def test_mobius_affine_formula():
    rng = np.random.default_rng(26)
    for _ in range(50):
        m = rand_mat(rng)
        a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert mobius(m, z) == pytest.approx((c + d * z) / (a + b * z), rel=1e-11)
    m = np.array([[1.0, 1.0], [3.0, 2.0]], complex)
    assert mobius(m, INF) == pytest.approx(2.0)  # d / b
    assert mobius(m, -1.0) is INF  # pole


def boundary_samples(m, alpha, n=2048):
    zs = alpha * np.exp(2j * np.pi * np.arange(n) / n)
    return [mobius(m, z) for z in zs]


def test_disk_image_oracle_disk_kind():
    "pole outside the source disk: image must be the claimed round disk"
    rng = np.random.default_rng(28)
    done = 0
    while done < 25:
        m = rand_mat(rng)
        alpha = 0.3 + 2.0 * rng.random()
        pole = -m[0, 0] / m[0, 1]
        if abs(m[0, 1]) < 1e-3 or abs(pole) < 1.05 * alpha:
            continue
        g = mobius_disk_image(m, alpha)
        assert g.kind == "disk"
        for w in boundary_samples(m, alpha, 512):
            assert abs(abs(w - g.center) - g.radius) < 1e-10 * (1.0 + g.radius)
        assert g.contains(mobius(m, 0.0))
        done += 1


def test_disk_image_oracle_exterior_kind():
    "pole inside the source disk: image is the outside of a circle"
    rng = np.random.default_rng(29)
    done = 0
    while done < 10:
        m = rand_mat(rng)
        if abs(m[0, 1]) < 0.3:
            continue
        pole = -m[0, 0] / m[0, 1]
        alpha = 1.3 * abs(pole) + 0.1
        g = mobius_disk_image(m, alpha)
        assert g.kind == "exterior"
        for w in boundary_samples(m, alpha, 256):
            assert abs(abs(w - g.center) - g.radius) < 1e-9 * (1.0 + g.radius)
        assert g.contains(INF)
        done += 1


def test_disk_image_oracle_halfplane_kind():
    "pole exactly on the boundary circle: image is a half plane"
    rng = np.random.default_rng(30)
    for _ in range(10):
        alpha = 0.5 + rng.random()
        b = complex(rng.standard_normal(), rng.standard_normal())
        theta = 2.0 * np.pi * rng.random()
        a = -b * alpha * np.exp(1j * theta)
        m = np.array(
            [[a, b], rng.standard_normal(2) + 1j * rng.standard_normal(2)]
        )
        if abs(np.linalg.det(m)) < 1e-6:
            continue
        g = mobius_disk_image(m, alpha)
        assert g.kind == "halfplane"
        # boundary points (minus the pole) land on the boundary line
        for k in range(1, 64):
            z = alpha * np.exp(1j * (theta + 2.0 * np.pi * k / 64))
            w = mobius(m, z)
            assert abs((np.conj(g.normal) * (w - g.anchor)).real) < 1e-8 * (
                1.0 + abs(w)
            )
        assert g.contains(mobius(m, 0.0))


def test_disk_image_rank1_is_point():
    m = np.array([[1.0, 2.0], [3.0, 6.0]], complex)
    g = mobius_disk_image(m, 0.7)
    assert g.kind == "disk" and g.radius == 0.0
    assert g.center == pytest.approx(3.0)  # range direction (1, 3)


def test_contained_in_disk_margins():
    g = GenCircle("disk", center=0.2 + 0.0j, radius=0.3)
    ok, margin = contained_in_disk(g, 0.6)
    assert ok and margin == pytest.approx(0.1, abs=1e-14)
    ok, margin = contained_in_disk(g, 0.45)
    assert not ok and margin == pytest.approx(-0.05, abs=1e-14)
    ok, margin = contained_in_disk(GenCircle("exterior", radius=1.0), 2.0)
    assert not ok and margin == -math.inf


def _margin_stack(rng, kinds):
    """One 2x2 per kind: "generic", an exact rank-1 matrix ("rank1": the
    second column a power of two times the first, or "row": one row
    zero), a rank-1 matrix with a vertical range ("vertical"), one with
    columns of equal norm ("equal": the second column minus the first),
    or the zero matrix ("zero")."""
    out = []
    for kind in kinds:
        m = rand_mat(rng, float(np.exp(rng.uniform(-3.0, 3.0))))
        if kind == "rank1":
            m[:, 1] = m[:, 0] * 2.0 ** int(rng.integers(-3, 4))
        elif kind == "row":
            m[int(rng.integers(2))] = 0.0
        elif kind == "vertical":
            m[0] = 0.0
        elif kind == "equal":
            m[:, 1] = -m[:, 0]
        elif kind == "zero":
            m[:] = 0.0
        out.append(m)
    return np.stack(out)


KINDS = ["generic", "rank1", "row", "vertical", "equal", "zero"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    ratio=st.sampled_from([0.25, 0.5, 0.75]),
)
def test_disk_image_margins_batched_equals_scalar(seed, kinds, alpha, ratio):
    # each margin is bit for bit that of the scalar image of its matrix;
    # the zero matrix has no image and gets -inf
    mats = _margin_stack(np.random.default_rng(seed), kinds)
    ap = alpha * ratio
    got = disk_image_margins(mats, alpha, ap)
    for k, kind in enumerate(kinds):
        if kind == "zero":
            with pytest.raises(ValueError, match="zero matrix"):
                mobius_disk_image(mats[k], alpha)
            assert got[k] == -math.inf
            continue
        _, ref = contained_in_disk(mobius_disk_image(mats[k], alpha), ap)
        assert np.float64(ref).tobytes() == got[k].tobytes()
        if kind == "vertical":
            assert ref == -math.inf


def test_schwarz_pick_rho_frozen_values():
    assert schwarz_pick_rho(1.0, 0.5) == pytest.approx(0.8, abs=1e-15)
    assert schwarz_pick_rho(1.0, 0.9) == pytest.approx(1.8 / 1.81, rel=1e-15)
    assert schwarz_pick_rho(0.3, 0.2) == pytest.approx(12.0 / 13.0, rel=1e-15)
    with pytest.raises(ValueError):
        schwarz_pick_rho(0.5, 0.5)
    with pytest.raises(ValueError):
        schwarz_pick_rho(0.5, 0.7)


def test_separation_constant_geometry():
    # frozen closed form at (1, 0.5)
    assert separation_constant(1.0, 0.5) == pytest.approx(
        0.6324555320336759, rel=1e-12
    )
    # sampling oracle: the chordal gap between the two circles
    alpha, ap = 1.3, 0.6
    want = separation_constant(alpha, ap)
    th = 2.0 * np.pi * np.arange(400) / 400
    # the rows (1, z) and (1, w) span the points of affine coordinates z, w
    z, w = np.broadcast_arrays(ap * np.exp(1j * th[::20])[:, None], alpha * np.exp(1j * th))
    worst = float(chordal_rows(np.stack([np.ones_like(z), z], -1),
                               np.stack([np.ones_like(w), w], -1)).min())
    assert worst == pytest.approx(want, rel=1e-3)
    assert worst >= want - 1e-12


def admissible_map(rng, alpha, alpha_prime, shrink=0.9):
    """Random Moebius map sending D_alpha strictly into D_alpha_prime.

    Built as: automorphism of D_alpha, then scale into D_alpha_prime.
    Matrices compose through the same convention as act().
    """
    p = (rng.random() * 0.9) * np.exp(2j * np.pi * rng.random())
    into = np.array([[1.0, 0.0], [0.0, 1.0 / alpha]], complex)
    auto = np.array([[1.0, -np.conj(p)], [-p, 1.0]], complex)
    mu = shrink * np.exp(2j * np.pi * rng.random())
    out = np.array([[1.0, 0.0], [0.0, mu * alpha_prime]], complex)
    return out @ auto @ into


def test_admissible_map_generator():
    rng = np.random.default_rng(32)
    for _ in range(20):
        m = admissible_map(rng, 1.2, 0.7)
        g = mobius_disk_image(m, 1.2)
        ok, margin = contained_in_disk(g, 0.7)
        assert ok and margin > 0.0


def pseudo_hyp(z, w, alpha):
    "the disk-invariant distance ratio numerator/denominator for D_alpha"
    return abs(z - w) / abs(alpha * alpha - np.conj(w) * z)


def test_schwarz_pick_contraction_small_mc():
    rng = np.random.default_rng(33)
    alpha, ap = 1.0, 0.5
    rho = schwarz_pick_rho(alpha, ap)
    worst = 0.0
    for _ in range(100):
        m = admissible_map(rng, alpha, ap, shrink=1.0)
        zs = alpha * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
        ws = [mobius(m, z) for z in zs]
        for i in range(0, 40, 2):
            d0 = pseudo_hyp(zs[i], zs[i + 1], alpha)
            if d0 < 1e-9:
                continue
            worst = max(worst, pseudo_hyp(ws[i], ws[i + 1], alpha) / d0)
    assert 0.0 < worst <= rho + 1e-9


def test_image_diameter_bound_single_and_composed():
    rng = np.random.default_rng(34)
    alpha, ap = 1.0, 0.6
    b1 = image_diameter_bound(alpha, ap, 1)
    b2 = image_diameter_bound(alpha, ap, 2)
    assert b2 == pytest.approx(b1 * schwarz_pick_rho(alpha, ap), rel=1e-14)
    for _ in range(50):
        m1 = admissible_map(rng, alpha, ap)
        m2 = admissible_map(rng, alpha, ap)
        g1 = mobius_disk_image(m1, alpha)
        assert 2.0 * g1.radius <= b1 + 1e-12
        g12 = mobius_disk_image(m2 @ m1, alpha)
        assert g12.kind == "disk"
        assert 2.0 * g12.radius <= b2 + 1e-12
    with pytest.raises(ValueError):
        image_diameter_bound(1.0, 0.5, 0)
