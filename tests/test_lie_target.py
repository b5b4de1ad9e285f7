import numpy as np
import pytest

from oracles import (
    adjoint_action,
    equivariance_residual,
    fiber_axis,
    integrate,
    nu_homomorphism_residual,
    qexp,
    qrot,
    round_s3_family,
    sigma_duality_residual,
    sph_chart_of_x,
    target_sigma,
)
from skybps import lie_target
from skybps.errors import ConstraintViolated, MomentConditionFailed, NotRiemannian
from skybps.exterior import EPS, _contraction_asymmetry, _matvec, mat_det, mat_inv
from skybps.gaugefield import naturality_check_specs
from skybps.grid import extrapolate_margin
from skybps.lie_target import (
    AdjointIntervalFamily,
    TargetGeometry,
    eta2_zero_family,
    left_action_obstruction,
    make_adjoint_interval_target,
    make_su2_left_target,
    make_u1_fibered_target,
    monopole_family,
    qconj,
    qmul,
    sph_frame,
    sph_x,
    su2_algebra,
    target_d,
    u1_algebra,
    u1_s3_adjoint_target,
    verify_moment_conditions,
)
from skybps.solutions import spherical_solution


def test_algebra_presets():
    u1 = u1_algebra()
    assert u1.dim == 1 and np.all(u1.f == 0)
    su2 = su2_algebra()
    # orthonormal basis e_a = -i sigma_a carries structure constants 2 eps
    np.testing.assert_allclose(su2.f, 2.0 * EPS)


def test_algebra_validation():
    bad = 2.0 * EPS.copy()
    bad[0, 1, 2] = 1.9  # breaks antisymmetry/Jacobi
    with pytest.raises(ValueError):
        from skybps.lie_target import LieAlgebraSpec

        LieAlgebraSpec(3, bad)


def test_quaternion_algebra():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 2))
    g = qexp(v)
    # unit norm and inverse via conjugate
    np.testing.assert_allclose(np.sum(g * g, axis=0), 1.0)
    np.testing.assert_allclose(qmul(g, qconj(g))[0], 1.0, atol=1e-14)
    # rotation matrix conjugates basis quaternions
    r = qrot(g)
    for b in range(3):
        e = np.zeros((4, 2))
        e[b + 1] = 1.0
        conj = qmul(qmul(g, e), qconj(g))
        np.testing.assert_allclose(conj[1:], np.einsum("ab...,b...->a...", r,
                                                       e[1:]), atol=1e-13)


def test_sphere_chart_inverse():
    u = np.array([0.4, 1.2, 2.8])
    v = np.array([0.3, 3.0, 5.9])
    uu, vv = sph_chart_of_x(sph_x(u, v))
    np.testing.assert_allclose(uu, u, atol=1e-12)
    np.testing.assert_allclose(vv, v, atol=1e-12)


# -- U(1)-fibered targets ----------------------------------------------------


def test_u1_s3_metric_closed_form(u1_target):
    y = np.stack(np.meshgrid(np.array([0.5]), np.linspace(0.2, 1.3, 7),
                             np.array([1.0]), indexing="ij"))
    g = u1_target.metric_fn(y)
    x = y[1]
    np.testing.assert_allclose(g[0, 0], np.cos(x) ** 2, atol=1e-13)
    np.testing.assert_allclose(g[1, 1], 1.0, atol=1e-13)
    np.testing.assert_allclose(g[2, 2], 0.25 * np.sin(x) ** 2, atol=1e-13)
    assert np.max(np.abs(g[0, 1])) < 1e-14


def test_u1_moment_conditions(u1_target):
    res = verify_moment_conditions(u1_target, n=32)
    assert res["def_residual"] < 1e-6
    assert res["constraint_residual"] < 1e-6


def test_u1_degenerate_w_rejected():
    with pytest.raises(MomentConditionFailed):
        make_u1_fibered_target(
            mu_x=lambda x, y: np.zeros_like(x * y),
            mu_y=lambda x, y: 0.3 * np.ones_like(x * y),  # constant: d mu = 0
            h=lambda x, y: np.ones_like(x * y),
            omega_x=lambda x, y: np.zeros_like(x * y),
        )


def _general_u1_target():
    """A u1-fibered target whose profiles all depend on the base coordinate y."""
    return make_u1_fibered_target(
        mu_x=lambda x, y: 0.02 * np.sin(y / 2) * np.sin(x) ** 2,
        mu_y=lambda x, y: (0.25 + 0.03 * np.cos(y / 2)) * np.sin(x) ** 2,
        h=lambda x, y: 1.0 + 0.1 * np.sin(x) * np.ones_like(y),
        omega_x=lambda x, y: 0.05 * np.cos(y / 2) * np.ones_like(x),
    )


def test_u1_fibered_general_valid():
    res = verify_moment_conditions(_general_u1_target(), n=32)
    assert res["def_residual"] < 1e-6
    assert res["constraint_residual"] < 1e-12  # mu has no dtheta slot


def test_u1_volume(u1_target):
    assert u1_target.volume(n=64) == pytest.approx(2 * np.pi**2, rel=1e-3)


def _full_grid_volume(t, n):
    """Vol(N) with V_N evaluated at every point of every chart grid."""
    vals = []
    for m in t.volume_margins:
        grid = t.chart_grid(n, m)
        vals.append(integrate(np.sqrt(mat_det(t.metric_fn(np.stack(grid.meshes())))), grid))
    return extrapolate_margin(t.volume_margins, vals)


def _round_adjoint_target():
    return make_adjoint_interval_target(round_s3_family())


def _spherical_profile_target():
    return spherical_solution(1.3, -1.0, 1.0, 2.0, n=8).config.target


def _eta2_zero_target():
    return make_adjoint_interval_target(eta2_zero_family(np.sin, (0.0, np.pi), compact="s3"))


@pytest.mark.parametrize("make", [u1_s3_adjoint_target, _general_u1_target,
                                  _round_adjoint_target])
def test_u1_vol_coeff_constant_along_fiber(make):
    t = make()
    grid = t.chart_grid(24)
    full = np.sqrt(mat_det(t.metric_fn(np.stack(grid.meshes()))))
    first = np.take(full, [0], axis=fiber_axis(t))
    assert np.array_equal(full, np.broadcast_to(first, full.shape))


def test_adjoint_action_translates_fiber_axis():
    # exp(t e_3) rotates the orbit sphere about its pole: v shifts, xi and u stay
    t = _round_adjoint_target()
    assert fiber_axis(t) == 2
    y = np.stack(t.chart_grid(8, 0.2).meshes())
    q = qexp(np.array([0.0, 0.0, 0.35])[:, None, None, None] * np.ones((3,) + y.shape[1:]))
    z = adjoint_action(q, y)
    np.testing.assert_allclose(z[:2], y[:2], atol=1e-12)
    shift = np.mod(z[2] - y[2], 2 * np.pi)
    np.testing.assert_allclose(shift, shift.flat[0], atol=1e-12)
    assert abs(shift.flat[0]) > 0.1


_TARGETS = [
    u1_s3_adjoint_target,
    _general_u1_target,
    _round_adjoint_target,
    _spherical_profile_target,
    _eta2_zero_target,
    lambda: make_su2_left_target(1.0),
]


@pytest.mark.parametrize("make", [
    u1_s3_adjoint_target,
    _general_u1_target,
    lambda: make_adjoint_interval_target(round_s3_family()),
    _spherical_profile_target,
    _eta2_zero_target,
])
def test_volume_equals_full_grid_quadrature(make):
    # V_N is integrated along the axis it does not vary on by that axis's
    # weights summed, so the products are rounded otherwise than on the
    # full grid (measured at most 6.8e-16 relative, n = 96)
    t = make()
    for n in (32, 48):
        assert t.volume(n=n) == pytest.approx(_full_grid_volume(t, n), rel=1e-14, abs=0)


def _evaluators(t):
    return ([("metric_fn", t.metric_fn), ("killing_fn", t.killing_fn), ("mu_fn", t.mu_fn)]
            + [(name, spec.coeff) for name, spec in naturality_check_specs(t)])


@pytest.mark.parametrize("k", [None, 0, 1, 2], ids=["real", "cstep-0", "cstep-1", "cstep-2"])
@pytest.mark.parametrize("make", _TARGETS)
def test_evaluators_on_open_meshes_broadcast_to_full_meshes(make, k):
    # each evaluator forms the points of the coordinates it reads: on an open
    # mesh its value broadcasts, bit for bit, to its value on the full mesh,
    # with or without a complex step in one coordinate
    t = make()
    grid = t.chart_grid(12, 0.2)
    open_, full = list(grid.open_mesh()), list(np.stack(grid.meshes()))
    if k is not None:
        open_[k], full[k] = open_[k] + 1e-30j, full[k] + 1e-30j
    for name, fn in _evaluators(t):
        small, big = fn(tuple(open_)), fn(tuple(full))
        assert small.dtype == big.dtype and small.size <= big.size, name
        assert np.array_equal(np.broadcast_to(small, big.shape), big), (t.name, name)


def _all_complex_partials(fn, y):
    """target_partials with all three coordinates complex, as one stacked array."""
    return np.stack([lie_target._cstep(lambda *r: fn(np.stack(r)), list(y), k) for k in range(3)])


@pytest.mark.parametrize("make", _TARGETS)
def test_single_coordinate_partials_match_all_complex_ones(make):
    # a coordinate without the step is real, so factors that do not read it
    # are formed in real arithmetic: the partials agree to rounding of the
    # largest partial (measured at most 2.5e-16, spherical profile mu)
    t = make()
    y = np.stack(t.chart_grid(12).meshes())
    for name, fn in _evaluators(t):
        got, ref = lie_target.target_partials(fn, y), _all_complex_partials(fn, y)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (t.name, name)


def test_u1_metric_partials_are_a_central_difference_in_x_and_exact_in_theta(u1_target):
    # W = d_x mu_y - d_y mu_x cannot be complex-stepped twice: at a complex x
    # or y the metric takes a real central difference (step 1e-7), so the
    # x-partial of g_00 = cos^2 x is about 1e-9 off -sin 2x; the theta step
    # leaves x and y real, so the metric is the real one and its partial 0
    y = np.stack(u1_target.chart_grid(12).meshes())
    d = lie_target.target_partials(u1_target.metric_fn, y)
    exact = -np.sin(2 * y[1])
    err = np.max(np.abs(d[1, 0, 0] - exact)) / np.max(np.abs(exact))
    assert 1e-11 < err < 1e-8
    stepped = u1_target.metric_fn((y[0] + 1e-30j, y[1], y[2]))
    assert np.array_equal(stepped.real, u1_target.metric_fn(y)) and not stepped.imag.any()
    assert not d[0].any()


def _einsum_curl(fn, y):
    """curl of a dual-storage 1-form with one leading slot axis, by einsum."""
    return np.einsum("mkl,kalxyz->amxyz", EPS, lie_target.target_partials(fn, y))


def _einsum_constraint(kil, mu):
    """max |(q_ab + q_ba) / 2|, q_ab = sum_m I_a^m mu_{b;m}, by einsum."""
    q = np.einsum("amxyz,bmxyz->abxyz", kil, mu)
    return float(np.max(np.abs(0.5 * (q + np.swapaxes(q, 0, 1)))))


def _full_grid_moment_residuals(t, n):
    """The moment-condition residuals formed on the whole n^3 chart grid at
    once: the curl by einsum, the constraint by the package's kernel."""
    y = np.stack(t.chart_grid(n).meshes())
    kil = t.killing_fn(y)
    return {"def_residual": float(np.max(np.abs(_einsum_curl(t.mu_fn, y)
                                                 - np.sqrt(mat_det(t.metric_fn(y))) * kil))),
            "constraint_residual": float(_contraction_asymmetry(kil, t.mu_fn(y)))}


_MOMENT_TARGETS = [
    u1_s3_adjoint_target,
    _general_u1_target,
    lambda: make_adjoint_interval_target(round_s3_family()),
    _spherical_profile_target,
    lambda: make_su2_left_target(1.0),
]


@pytest.mark.parametrize("make", _MOMENT_TARGETS)
def test_moment_conditions_equal_full_grid_check(make):
    # the check runs on slabs of 13, 13 and 6 rows of the 32^3 chart grid
    t = make()
    assert len(t.chart_grid(32).slabs()) == 3
    assert verify_moment_conditions(t, n=32) == _full_grid_moment_residuals(t, 32)


@pytest.mark.parametrize("make", _MOMENT_TARGETS)
def test_moment_constraint_matches_einsum(make):
    # the kernel sums each pair's products in another order than the einsum
    t = make()
    y = np.stack(t.chart_grid(32).meshes())
    mu = t.mu_fn(y)
    ref = _einsum_constraint(t.killing_fn(y), mu)
    got = verify_moment_conditions(t, n=32)["constraint_residual"]
    assert abs(got - ref) <= 1e-16 * float(np.max(np.abs(mu)))


def test_target_d_matches_einsum_and_trace(u1_target, adjoint_round_target):
    # the curl of mu (one leading slot axis) and of the naturality 1-forms,
    # and the divergence of the naturality 2-forms, bit for bit
    for t in (u1_target, adjoint_round_target):
        y = np.stack(t.chart_grid(12).meshes())
        assert np.array_equal(target_d(t.mu_fn, y, 1), _einsum_curl(t.mu_fn, y))
        for name, spec in naturality_check_specs(t):
            got = target_d(spec.coeff, y, spec.q)
            if spec.q == 1:
                ref = _einsum_curl(lambda z: spec.coeff(z)[None], y)[0]
            else:
                d = lie_target.target_partials(spec.coeff, y)
                ref = d[0, 0] + d[1, 1] + d[2, 2]
            assert np.array_equal(got, ref), (t.name, name)
    with pytest.raises(ValueError):
        target_d(u1_target.mu_fn, y, 3)


# -- adjoint interval targets -------------------------------------------------


def test_round_family_constraint_and_compactness():
    fam = round_s3_family()
    xi = np.linspace(0.1, np.pi - 0.1, 33)
    np.testing.assert_allclose(2 * fam.h1(xi) * fam.h2(xi) ** 2,
                               fam.eta2_prime(xi) - fam.eta1(xi), atol=1e-12)


def test_family_constraint_violation():
    with pytest.raises(ConstraintViolated):
        AdjointIntervalFamily(
            h1=lambda xi: np.ones_like(xi),
            h2=np.sin,
            eta1=lambda xi: -np.ones_like(xi) + 1e-3,
            eta2=lambda xi: -0.5 * np.sin(2 * xi),
            interval=(0.0, np.pi),
        )


def test_eta2_zero_family_valid():
    fam = eta2_zero_family(np.sin, (0.0, np.pi), compact="s3")
    xi = np.linspace(0.2, 3.0, 17)
    np.testing.assert_allclose(fam.eta1(xi), -2 * np.sin(xi) ** 2)


def test_adjoint_target_moment_and_mu_sharp(adjoint_round_target):
    res = verify_moment_conditions(adjoint_round_target, n=32)
    assert res["def_residual"] < 1e-6
    assert res["constraint_residual"] < 1e-6
    # mu-sharp against the closed form: eta1/h1^2 (X, x) d_xi + eta2/h2^2 (X - (X,x)x)
    t = adjoint_round_target
    grid = t.chart_grid(8, 0.3)
    y = np.stack(grid.meshes())
    mu = t.mu_fn(y)
    g = t.metric_fn(y)
    ms = _matvec(mat_inv(g), mu)
    xi, u, v = y
    x = sph_x(u, v)
    np.testing.assert_allclose(ms[:, 0], -x, atol=1e-12)  # eta1 = -1, h1 = 1
    # transverse part: g_N(mu_sharp(X), .) = mu(X) is algebraic
    np.testing.assert_allclose(np.einsum("mnxyz,anxyz->amxyz", g, ms), mu, atol=1e-12)


def test_adjoint_homomorphism_and_equivariance(adjoint_round_target):
    assert nu_homomorphism_residual(adjoint_round_target, n=16) < 1e-6
    res = equivariance_residual(adjoint_round_target, n=16)
    assert res["mu_residual"] < 1e-6
    assert res["sigma_residual"] < 1e-6


def test_sigma_duality_on_targets(u1_target, adjoint_round_target):
    assert sigma_duality_residual(u1_target) < 1e-12
    assert sigma_duality_residual(adjoint_round_target) < 1e-12


def test_sigma_adjoint_closed_form(adjoint_round_target):
    # Sigma = (h2^2/h1) omega_S2 (x) d_xi + h1 dxi ^ (x dx): in dual storage
    # the matrix is diag(h2^2 sin(u)/h1, h1 sin(u), h1/sin(u))
    t = adjoint_round_target
    grid = t.chart_grid(8, 0.3)
    y = np.stack(grid.meshes())
    xi, u = y[0], y[1]
    g = t.metric_fn(y)
    sig = target_sigma(g)
    h1, h2 = 1.0, np.sin(xi)
    np.testing.assert_allclose(sig[0, 0], h2**2 * np.sin(u) / h1, atol=1e-12)
    np.testing.assert_allclose(sig[1, 1], h1 * np.sin(u), atol=1e-12)
    np.testing.assert_allclose(sig[2, 2], h1 / np.sin(u), atol=1e-12)
    off = sig - sig * np.eye(3)[:, :, None, None, None]
    assert np.max(np.abs(off)) < 1e-14


def test_sigma_euclidean_target():
    # on a euclidean target Sigma(d_1, d_2) = d_3: the dual matrix is the identity
    t = TargetGeometry(
        name="euclid",
        algebra=u1_algebra(),
        lo=(0, 0, 0), hi=(1, 1, 1), periodic=(False, False, False),
        metric_fn=lambda y: np.broadcast_to(
            np.eye(3)[:, :, None, None, None], (3, 3) + np.shape(y[0])
        ).astype(np.result_type(y)),
        killing_fn=lambda y: np.zeros((1, 3) + np.shape(y[0]), dtype=np.result_type(y)),
        mu_fn=lambda y: np.zeros((1, 3) + np.shape(y[0]), dtype=np.result_type(y)),
    )
    y = np.stack(t.chart_grid(5, 0.1).meshes())
    g = t.metric_fn(y)
    np.testing.assert_allclose(target_sigma(g),
                               np.broadcast_to(np.eye(3)[:, :, None, None, None],
                                               (3, 3) + y[0].shape), atol=1e-14)


def test_sigma_random_metric_duality():
    # g_N(u, Sigma(v, w)) = V_N(u, v, w) for a smooth non-diagonal metric
    def metric_fn(y):
        g = np.zeros((3, 3) + np.shape(y[0]), dtype=np.result_type(y))
        g[0, 0] = 1.2 + 0.3 * np.sin(y[0])
        g[1, 1] = 1.0 + 0.2 * np.cos(y[1])
        g[2, 2] = 0.8 + 0.1 * np.sin(y[2])
        g[0, 1] = g[1, 0] = 0.15 * np.cos(y[0] + y[1])
        return g

    t = TargetGeometry(
        name="random", algebra=u1_algebra(),
        lo=(0, 0, 0), hi=(1, 1, 1), periodic=(False,) * 3,
        metric_fn=metric_fn,
        killing_fn=lambda y: np.zeros((1, 3) + np.shape(y[0]), dtype=np.result_type(y)),
        mu_fn=lambda y: np.zeros((1, 3) + np.shape(y[0]), dtype=np.result_type(y)),
    )
    assert sigma_duality_residual(t, n=8) < 1e-12


def test_monopole_family_profile():
    fam = monopole_family()
    xi = np.linspace(0.2, 1.0, 9)
    np.testing.assert_allclose(fam.eta1(xi), -fam.h1(xi) ** 2 / 3.0)


# -- left action of SU(2): the obstruction ------------------------------------


def test_su2_left_moment_dichotomy():
    t = make_su2_left_target(1.0)
    res = verify_moment_conditions(t, n=24)
    assert res["def_residual"] < 1e-6
    assert res["constraint_residual"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("k,expected", [(1.0, 0.5), (2.0, 1.0), (0.7, 0.35)])
def test_left_action_obstruction(k, expected):
    assert left_action_obstruction(k) == pytest.approx(expected, abs=1e-6)


def test_left_action_obstruction_rejects_nonpositive():
    with pytest.raises(ValueError):
        left_action_obstruction(0.0)


def test_su2_left_homomorphism():
    assert nu_homomorphism_residual(make_su2_left_target(1.0), n=12) < 1e-6


# -- closed-form sphere frame and Killing field, against the former formulas --


def _old_sph_xu(u, v):
    return np.stack([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), -np.sin(u) * np.ones_like(v)])


def _old_sph_xv(u, v):
    return np.stack([-np.sin(u) * np.sin(v), np.sin(u) * np.cos(v), np.zeros_like(u * v)])


def _old_adjoint_killing(y):
    """I_a = 2 x cross e_a projected on (x_u, x_v / sin^2 u) with np.cross."""
    u, v = y[1], y[2]
    x, xu, xv = sph_x(u, v), _old_sph_xu(u, v), _old_sph_xv(u, v)
    sin2 = np.sin(u) ** 2
    out = np.zeros((3, 3) + np.shape(u), dtype=np.result_type(y))
    for a in range(3):
        e = np.zeros((3,) + np.shape(u), dtype=np.result_type(y))
        e[a] = 1.0
        k = 2.0 * np.cross(x, e, axisa=0, axisb=0, axisc=0)
        out[a, 1] = np.sum(k * xu, axis=0)
        out[a, 2] = np.sum(k * xv, axis=0) / sin2
    return out


def _polar_chart_points():
    # u rows at and within 0.03 of both poles, plus the interior
    u = np.array([0.01, 0.02, 0.03, 0.4, 1.1, np.pi / 2, 2.3, np.pi - 0.03, np.pi - 0.02,
                  np.pi - 0.01])
    v = np.linspace(0.0, 2.0 * np.pi, 13, endpoint=False)
    xi = np.array([0.3, 1.2])
    return np.stack(np.meshgrid(xi, u, v, indexing="ij"))


def _assert_rel_close(new, old, rel):
    # relative to the field's largest value on the grid; cancelling components
    # of the old formula carry rounding of that size
    assert np.max(np.abs(new - old)) <= rel * np.max(np.abs(old))


@pytest.mark.parametrize("k", [None, 0, 1, 2], ids=["real", "cstep-xi", "cstep-u", "cstep-v"])
def test_adjoint_killing_closed_form_matches_cross_product(adjoint_round_target, k):
    y = _polar_chart_points()
    if k is not None:
        y = y.astype(complex)
        y[k] += 1j * 1e-30
    new, old = adjoint_round_target.killing_fn(y), _old_adjoint_killing(y)
    assert new.dtype == old.dtype and new.shape == old.shape
    _assert_rel_close(new.real, old.real, 1e-13)
    _assert_rel_close(new.imag, old.imag, 1e-13)


@pytest.mark.parametrize("complex_", [False, True])
def test_sph_frame_matches_separate_formulas(complex_):
    _, u, v = _polar_chart_points()
    if complex_:
        u, v = u + 1j * 1e-30, v - 1j * 1e-30
    x, xu, xv = sph_frame(u, v)
    assert np.array_equal(x, sph_x(u, v))
    assert np.array_equal(xu, _old_sph_xu(u, v))
    assert np.array_equal(xv, _old_sph_xv(u, v))
