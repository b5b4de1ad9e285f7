import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import recover_metric, star_trace_residual
from skybps.energy_degree import _pair
from skybps.errors import ConstraintViolated, SingularMetric
from skybps.exterior import Metric3, StarMap, _matvec, hodge_star, mat_det, mat_inv

SHAPE = (5, 5, 5)


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3) + SHAPE)
    g = np.einsum("ab...,cb...->ac...", a, a) + 0.5 * np.eye(3)[:, :, None, None, None]
    return Metric3(scale * g)


def test_hodge_star_euclidean():
    euclid = Metric3(np.broadcast_to(np.eye(3)[:, :, None, None, None],
                                     (3, 3) + SHAPE).copy())
    s = hodge_star(euclid, 1)
    # star dx = dy ^ dz: dual component e_1
    out = s.on_1(np.stack([np.ones(SHAPE), np.zeros(SHAPE), np.zeros(SHAPE)]))
    np.testing.assert_allclose(out[0], 1.0)
    np.testing.assert_allclose(out[1:], 0.0)


def test_hodge_star_round_s3_chart_frame_oracle():
    # metric diag(cos^2 x, 1, sin^2 x / 4): the orthonormal-frame star gives
    # star dtheta = (sqrt(det) g^{theta theta}) dx^dy
    x = np.linspace(0.3, 1.2, SHAPE[1])
    g = np.zeros((3, 3) + SHAPE)
    g[0, 0] = np.cos(x)[None, :, None] ** 2 * np.ones(SHAPE)
    g[1, 1] = 1.0
    g[2, 2] = 0.25 * np.sin(x)[None, :, None] ** 2 * np.ones(SHAPE)
    s = hodge_star(Metric3(g), 1)
    out = s.on_1(np.stack([np.ones(SHAPE), np.zeros(SHAPE), np.zeros(SHAPE)]))
    # star dtheta = sqrt(det g) g^{theta theta} dx ^ dy: dual slot 0
    expected = np.sqrt(g[0, 0] * g[1, 1] * g[2, 2]) / g[0, 0]
    np.testing.assert_allclose(out[0], expected, rtol=1e-12)
    np.testing.assert_allclose(out[1], 0.0)
    np.testing.assert_allclose(out[2], 0.0)


def test_hodge_star_singular_metric():
    g = np.zeros((3, 3) + SHAPE)
    g[0, 0] = g[1, 1] = 1.0  # det = 0
    with pytest.raises(SingularMetric):
        hodge_star(Metric3(g), 1)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_star_involution_and_roundtrip(seed):
    rng = np.random.default_rng(seed)
    m = random_spd(rng)
    s = hodge_star(m, 1)
    u = rng.normal(size=(3,) + SHAPE)
    np.testing.assert_allclose(s.on_2(s.on_1(u)), u, atol=1e-10)
    assert star_trace_residual(s.s) < 1e-12 * max(np.max(np.abs(s.s)), 1.0)
    m2 = recover_metric(s.s)
    assert np.max(np.abs(m2.g - m.g)) < 1e-10 * np.max(np.abs(m.g))
    assert m2.riemannian_mask().all()


def test_star_trace_residual_offset():
    # adding lam * dx (x) (dx ^ dy) puts lam into the S_{31} slot
    s = np.broadcast_to(np.eye(3)[:, :, None, None, None], (3, 3) + SHAPE).copy()
    lam = 0.37
    s[2, 0] += lam
    assert star_trace_residual(s) == pytest.approx(lam)
    assert star_trace_residual(np.zeros((3, 3) + SHAPE)) == 0.0


def test_recover_metric_euclidean_and_scaling():
    euclid = Metric3(np.broadcast_to(np.eye(3)[:, :, None, None, None],
                                     (3, 3) + SHAPE).copy())
    s = hodge_star(euclid, 1)
    np.testing.assert_allclose(recover_metric(s.s).g, euclid.g, atol=1e-14)
    # the bilinear inverse is quadratic in the star map: scaling by c scales
    # the recovered tensor by c^2 (so a sign flip of the star map leaves the
    # recovered tensor positive definite)
    for c in (2.0, -3.0):
        rec = recover_metric(c * s.s)
        np.testing.assert_allclose(rec.g, c**2 * euclid.g, atol=1e-12)
        assert rec.riemannian_mask().all()


def test_recover_metric_mixed_signature_flagged():
    # diag(a, b, b) star maps recover diag(b^2, ab, ab): negative a flags
    s = np.zeros((3, 3) + SHAPE)
    s[0, 0], s[1, 1], s[2, 2] = -0.5, 1.0, 1.0
    rec = recover_metric(s)
    assert not rec.riemannian_mask().all()
    np.testing.assert_allclose(rec.g[0, 0], 1.0)
    np.testing.assert_allclose(rec.g[1, 1], -0.5)


def test_recover_metric_trace_violation_raises():
    s = np.broadcast_to(np.eye(3)[:, :, None, None, None], (3, 3) + SHAPE).copy()
    s[0, 1] += 0.1
    with pytest.raises(ConstraintViolated):
        recover_metric(s)


@given(st.integers(0, 10_000))
@example(seed=858)  # <u, v> cancels below rounding of its summands at one point
@example(seed=2443)
@settings(max_examples=25, deadline=None)
def test_pairing_symmetry(seed):
    # u ^ star v = v ^ star u = <u, v> V_g pointwise, to 1e-10 of the
    # Cauchy-Schwarz scale |u|_g |v|_g V_g: a bound relative to <u, v> itself
    # is below rounding wherever u and v are nearly g-orthogonal
    rng = np.random.default_rng(seed)
    m = random_spd(rng)
    s = hodge_star(m, 1)
    u = rng.normal(size=(3,) + SHAPE)
    v = rng.normal(size=(3,) + SHAPE)
    one = np.ones((1, 1, 1, 1, 1))  # the metric of a single slot
    left = _pair(u[None], v[None], 1, s, one)
    right = _pair(v[None], u[None], 1, s, one)
    scale = np.max(np.abs(left)) + 1.0
    assert np.max(np.abs(left - right)) < 1e-12 * scale
    ginv, vol = mat_inv(m.g), np.sqrt(m.det())
    inner = np.einsum("abxyz,axyz,bxyz->xyz", ginv, u, v)
    norm_u = np.sqrt(np.einsum("abxyz,axyz,bxyz->xyz", ginv, u, u))
    norm_v = np.sqrt(np.einsum("abxyz,axyz,bxyz->xyz", ginv, v, v))
    assert np.all(np.abs(left - inner * vol) <= 1e-10 * norm_u * norm_v * vol)


def test_orientation_reversal_flips_star():
    rng = np.random.default_rng(2)
    m = random_spd(rng)
    sp, sm = hodge_star(m, 1), hodge_star(m, -1)
    u = rng.normal(size=(3,) + SHAPE)
    np.testing.assert_allclose(sp.on_1(u), -sm.on_1(u))


def test_metric_asymmetry_rejected():
    g = np.broadcast_to(np.eye(3)[:, :, None, None, None], (3, 3) + SHAPE).copy()
    g[0, 1] += 1e-6
    with pytest.raises(ValueError):
        Metric3(g)


# -- closed-form kernels against LAPACK and the einsum formulas -------------------

KERNEL_SHAPE = (3, 3, 5, 6, 7)


def random_field(rng, shape, complex_):
    m = rng.normal(size=shape)
    return m + 1j * rng.normal(size=shape) if complex_ else m


def as_lapack(m):
    return np.moveaxis(m, (0, 1), (-2, -1))


@pytest.mark.parametrize("complex_", [False, True])
def test_mat_det_matches_lapack(complex_):
    m = random_field(np.random.default_rng(11), KERNEL_SHAPE, complex_)
    ref = np.linalg.det(as_lapack(m))
    # relative to the size of the products the determinant sums
    scale = np.prod(np.linalg.norm(as_lapack(m), axis=-1), axis=-1)
    assert np.max(np.abs(mat_det(m) - ref) / scale) < 1e-12


@pytest.mark.parametrize("complex_", [False, True])
def test_mat_inv_matches_lapack(complex_):
    m = random_field(np.random.default_rng(12), KERNEL_SHAPE, complex_)
    ref = np.moveaxis(np.linalg.inv(as_lapack(m)), (-2, -1), (0, 1))
    cond = np.linalg.cond(as_lapack(m))
    err = np.linalg.norm(as_lapack(mat_inv(m) - ref), ord=2, axis=(-2, -1))
    assert np.max(err / (np.linalg.norm(as_lapack(ref), ord=2, axis=(-2, -1)) * cond)) < 1e-12


def test_mat_inv_symmetric_input_gives_symmetric_inverse():
    g = random_spd(np.random.default_rng(13)).g
    inv = mat_inv(g)
    assert np.array_equal(inv, np.swapaxes(inv, 0, 1))


def test_mat_inv_singular_point_raises():
    g = random_spd(np.random.default_rng(14)).g.copy()
    g[:, :, 2, 3, 1] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(SingularMetric):
        mat_inv(g)
    g[:, :, 2, 3, 1] = np.nan
    with pytest.raises(SingularMetric):
        mat_inv(g)


@pytest.mark.parametrize("complex_", [False, True])
def test_matvec_with_slot_axis_matches_einsum(complex_):
    rng = np.random.default_rng(15)
    m = random_field(rng, KERNEL_SHAPE, complex_)
    v = random_field(rng, (4,) + KERNEL_SHAPE[1:], complex_)
    ref = np.einsum("abxyz,...bxyz->...axyz", m, v)
    scale = np.einsum("abxyz,...bxyz->...axyz", np.abs(m), np.abs(v))
    assert np.max(np.abs(_matvec(m, v) - ref) / scale) < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
def test_pair_matches_einsum_both_branches(degree):
    rng = np.random.default_rng(16 + degree)
    star = hodge_star(random_spd(rng), 1)
    u = rng.normal(size=(3, 3) + SHAPE)
    v = rng.normal(size=(3, 3) + SHAPE)
    sv = star.on_1(v) if degree == 1 else star.on_2(v)
    gslot = random_spd(rng).g
    ref = np.einsum("uvxyz,uixyz,vixyz->xyz", gslot, u, sv)
    scale = np.einsum("uvxyz,uixyz,vixyz->xyz", np.abs(gslot), np.abs(u), np.abs(sv))
    assert np.max(np.abs(_pair(u, v, degree, star, gslot) - ref) / scale) < 1e-12


# -- in-place kernels against the code they replaced, kept here as reference --


def _matvec_broadcast(m, v):
    """The former _matvec: three full (..., 3, *sp) broadcast products."""
    out = m[:, 0] * v[..., 0:1, :, :, :]
    out += m[:, 1] * v[..., 1:2, :, :, :]
    out += m[:, 2] * v[..., 2:3, :, :, :]
    return out


def _pair_generator(u, v, degree, star, gslot):
    """The former _pair: slot lowering by a generator sum, a product per term."""
    sv = star.on_1(v) if degree == 1 else star.on_2(v)
    n = len(sv)
    rho = np.zeros(sv.shape[-3:], np.result_type(u, sv))
    for b in range(n):
        ub = sum(gslot[a, b] * u[a] for a in range(n))
        for i in range(3):
            rho += ub[i] * sv[b, i]
    return rho


# exact-zero patterns of a (3, 3, *sp) matrix field, which the kernels skip
ZERO_PATTERNS = {
    "dense": np.ones((3, 3)),
    "diagonal": np.eye(3),
    "zero-row": np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
    "all-zero": np.zeros((3, 3)),
}


def with_zeros(m, pattern):
    """m with the components that ``pattern`` marks 0 set to exactly 0."""
    return m * ZERO_PATTERNS[pattern].reshape((3, 3) + (1,) * (m.ndim - 2))


def zero_variants(m):
    """(name, m with exact zeros): each of ZERO_PATTERNS, and every component
    0 at its first point only, which no kernel may take for a 0 component."""
    for pattern in ZERO_PATTERNS:
        yield pattern, with_zeros(m, pattern)
    first = m.copy()
    first[(slice(None), slice(None)) + (0,) * (m.ndim - 2)] = 0
    yield "first-point", first


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["no-slot", "slot"])
def test_matvec_bit_identical_to_broadcast_sum(lead, complex_):
    rng = np.random.default_rng(18)
    m = random_field(rng, KERNEL_SHAPE, complex_)
    v = random_field(rng, lead + KERNEL_SHAPE[1:], complex_)
    for pattern, mz in zero_variants(m):
        out = _matvec(mz, v)
        assert out.shape == lead + KERNEL_SHAPE[1:]
        assert np.array_equal(out, _matvec_broadcast(mz, v)), pattern


@pytest.mark.parametrize("degree", [1, 2], ids=["1-gslot", "2-gslot"])
def test_pair_bit_identical_to_generator_lowering(degree):
    rng = np.random.default_rng(20 + degree)
    star = hodge_star(random_spd(rng), 1)
    u = rng.normal(size=(3, 3) + SHAPE)
    v = rng.normal(size=(3, 3) + SHAPE)
    gslot = random_spd(rng).g
    u0, v0 = u.copy(), v.copy()
    # real only: for complex operands the reference's last product, ub * sv,
    # is the kernel's sv * ub in the other order, which can round otherwise
    for pattern, gz in zero_variants(gslot):
        assert np.array_equal(_pair(u, v, degree, star, gz),
                              _pair_generator(u, v, degree, star, gz)), pattern
    # the operands are read, never overwritten
    assert np.array_equal(u, u0) and np.array_equal(v, v0)


@pytest.mark.parametrize("pattern", ["dense", "diagonal"])
def test_zero_skips_keep_a_nan_operand(pattern):
    # a nonsingular matrix has a nonzero entry in every column, so a NaN in
    # any vector component reaches the output at its point, as it does in
    # the dense sum
    rng = np.random.default_rng(24)
    m = with_zeros(random_field(rng, KERNEL_SHAPE, False), pattern)
    star, point = StarMap(m, mat_inv(m)), (2, 3, 4)
    for j in range(3):
        v = rng.normal(size=KERNEL_SHAPE[1:])
        v[(j,) + point] = np.nan
        assert np.isnan(_matvec(m, v)[(slice(None),) + point]).any(), j
        # a NaN in either operand of a pairing, with m as star and slot metric
        for which in (0, 1):
            u, w = rng.normal(size=(2, 3, 3) + KERNEL_SHAPE[2:])
            (u, w)[which][(j, 0) + point] = np.nan
            assert np.isnan(_pair(u, w, 1, star, m)[point]), (j, which)


def test_star_map_is_frozen_and_keeps_its_inverse():
    # the closed-form inverse orientation * g / sqrt(det g) is the inverse of
    # s = orientation * sqrt(det g) * g^-1, and hodge_star leaves g as it was
    rng = np.random.default_rng(23)
    for orientation, scale in itertools.product((1, -1), (1e-3, 1.0, 1e3)):
        m = random_spd(rng, scale)
        g0 = m.g.copy()
        star = hodge_star(m, orientation)
        with pytest.raises(dataclasses.FrozenInstanceError):
            star.s_inv = np.zeros_like(star.s)
        assert np.array_equal(m.g, g0)
        ref = mat_inv(star.s)
        assert np.max(np.abs(star.s_inv - ref)) <= 1e-13 * np.max(np.abs(ref))
        v = rng.normal(size=(3,) + SHAPE)
        np.testing.assert_allclose(star.on_2(star.on_1(v)), v, rtol=0, atol=1e-12)


def test_riemannian_mask_is_relative_to_the_metric_scale():
    # the twisted family's g_M at K = 2/3: diag(1, c, c) with c zero up to
    # rounding; a positive pivot of a few ulps of max |g| does not pass,
    # while a metric of any overall scale does
    g = np.zeros((3, 3, 5))
    g[0, 0] = 1.0
    g[1, 1] = g[2, 2] = [7e-18, -7e-18, 1e-12, 1e-7, 1.0]
    assert Metric3(g.copy()).riemannian_mask().tolist() == [False, False, True, True, True]
    for scale in (1e-30, 1e30):
        assert Metric3(scale * g[..., 2:]).riemannian_mask().all()
        assert not Metric3(scale * g[..., :1]).riemannian_mask().all()
    # the off-diagonal minor: [[1, 1], [1, 1 + 1e-15]] is singular up to rounding
    h = np.eye(3)[:, :, None] * np.ones(1)
    h[0, 1] = h[1, 0] = 1.0
    h[1, 1] = 1.0 + 1e-15
    assert not Metric3(h).riemannian_mask().all()
    h[1, 1] = 1.0 + 1e-10
    assert Metric3(h).riemannian_mask().all()
