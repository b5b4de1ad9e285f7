import numpy as np
import pytest

from oracles import (
    adjoint_profiles,
    bps2_scalar_conditions,
    full_fields,
    full_grid_field,
    integrate,
    over_slabs,
    round_s3_family,
    spherical_round_target_metric,
    standard_specs,
)
from skybps.errors import (
    ConstraintViolated,
    NormalizationFailed,
    NotRiemannian,
    ParamInconsistent,
)
from skybps.energy_degree import _margin_pass, bps_coefficients, bound_gap
from skybps import gaugefield
from skybps.gaugefield import Configuration
from skybps.grid import extrapolate_margin
from skybps.lie_target import eta2_zero_family
from skybps.solutions import (
    SurfaceGeometry,
    dirac_monopole,
    identity_u1_solution,
    mercator_sphere,
    spherical_solution,
    spinorial_solution,
    symplectic_solution,
    twisted_spinorial_solution,
)

P0 = bps_coefficients(0, 0, 0)


# -- surfaces ---------------------------------------------------------------------


def test_mercator_sphere_consistency():
    for k in (0.5, 1.0, 2.0):
        s = mercator_sphere(k)
        assert s.area() == pytest.approx(4 * np.pi / k, rel=5e-3)


def test_surface_declared_curvature_checked():
    with pytest.raises(ConstraintViolated):
        SurfaceGeometry(
            omega=lambda t, v: 1.0 / np.cosh(t) ** 2 * np.ones_like(v),
            gauss_k=lambda t, v: 2.0 * np.ones_like(t * v),  # wrong: K = 1
            dlog_omega=lambda t, v: (-2.0 * np.tanh(t) * np.ones_like(v), np.zeros_like(t * v)),
            lo=(-2, 0), hi=(2, 2 * np.pi), periodic=(False, True),
        )


def test_mercator_rejects_nonpositive_curvature():
    with pytest.raises(ParamInconsistent):
        mercator_sphere(-1.0)


# -- identity u1 ---------------------------------------------------------------------


def test_identity_u1_rejects_nonpositive_conformal_factor():
    # the conformal factor is a closed form on every grid point: the margin's
    # pass reads it slab by slab and raises with the grid's minimum
    res = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                               n=16, margin=0.05)
    with pytest.raises(NotRiemannian, match=r"conformal factor reaches -\d"):
        _margin_pass(res.config, P0)[0]


def test_identity_u1_trivial_connection_is_isometry(u1_target):
    res = identity_u1_solution(lambda th, x: np.zeros_like(th * x), n=16, margin=0.1)
    phi, _, gM = full_fields(res.config)
    np.testing.assert_allclose(gM.g, u1_target.metric_fn(phi), atol=1e-12)
    # ungauged case: r1 reduces to the residual of star dphi = phi* Sigma
    r = _margin_pass(res.config, P0)[0]
    assert r["r1"] < 1e-12 and r["r2"] == 0.0


def test_identity_u1_residuals_and_refinement():
    rs = []
    for n in (24, 48):
        res = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                                   n=n, margin=0.2)
        rs.append(_margin_pass(res.config, P0)[0])
    assert rs[1]["r1"] < 5e-4
    assert rs[1]["r2"] == 0.0
    assert rs[0]["r1"] / rs[1]["r1"] > 8.0


# -- dirac monopole --------------------------------------------------------------------


def test_monopole_residuals_and_rank():
    res = dirac_monopole(n=32)
    assert over_slabs(res.config, dict(res.checks)["abelian_bps_residual"]) < 1e-5
    sp = standard_specs(res.config.target)
    sigma_hat = sp["sigma"].pullback(res.config)
    assert np.max(np.abs(sigma_hat)) < 1e-12
    nu_hat = sp["nu"].pullback(res.config)
    assert np.max(np.abs(nu_hat)) < 1e-12
    sv = np.linalg.svd(np.moveaxis(full_grid_field(res.config, "P"), (0, 1), (-2, -1)),
                       compute_uv=False)
    assert set(np.unique(np.sum(sv > 1e-8 * sv.max(), axis=-1))) == {1}


@pytest.mark.parametrize("build", [lambda: dirac_monopole(n=12),
                                   lambda: spinorial_solution(n=12),
                                   lambda: twisted_spinorial_solution(-2.0, 0.5, 2.0, n=12)],
                         ids=["dirac-monopole", "spinorial", "twisted-spinorial"])
def test_builds_form_no_derived_fields(build, monkeypatch):
    # their identities are checks that read the margin's slabs
    def refuse(*args, **kwargs):
        raise AssertionError("a family build formed a derived field")

    monkeypatch.setattr(Configuration, "slab", refuse)
    for name in ("_curvature", "_dphi"):
        monkeypatch.setattr(gaugefield, name, refuse)
    res = build()
    assert res.checks
    monkeypatch.undo()
    for name, check in res.checks:
        assert over_slabs(res.config, check) < 1e-2, name


def test_monopole_r2_linear_in_beta():
    res = dirac_monopole(n=16)
    r_at = {}
    for beta in (0.5, 1.0):
        r_at[beta] = _margin_pass(res.config, bps_coefficients(0.0, beta, 0.0))[0]["r2"]
    assert r_at[1.0] == pytest.approx(2 * r_at[0.5], rel=1e-10)
    assert r_at[1.0] > 1e-3  # genuinely nonzero


# -- spinorial family -------------------------------------------------------------------


def coefficient_min(res) -> float:
    """The spinorial conformal-block coefficient's minimum, from the pass."""
    return _margin_pass(res.config, P0)[0]["diagnostics"]["conformal_coefficient_min"]


def conformal_coefficient(res, surface):
    """The spinorial metric's conformal-block coefficient, g_M[1, 1] / Omega."""
    _, x1, x2 = res.config.grid.meshes()
    return full_fields(res.config)[2].g[1, 1] / surface.omega(x1, x2)


def test_spinorial_flat_case_k1():
    res = spinorial_solution(n=24)
    # K = 1: A is flat up to FD error and g_M is the pullback metric
    assert over_slabs(res.config, dict(res.checks)["curvature_identity_residual"]) < 2e-3
    xi = res.config.grid.meshes()[0]
    coef = conformal_coefficient(res, mercator_sphere(1.0))
    np.testing.assert_allclose(coef, np.sin(xi) ** 2, atol=1e-12)
    assert coefficient_min(res) > 0


def test_spinorial_k2_extends_to_s1xs2():
    # canonical round family: eta1 = -1, so the coefficient at the collapsed
    # spheres is 1 - (3/2)(1 - K) = 5/2 > 0 and the metric extends
    res = spinorial_solution(surface=mercator_sphere(2.0), fam=round_s3_family(),
                             n=16, margin=0.1)
    coef = conformal_coefficient(res, mercator_sphere(2.0))
    assert coefficient_min(res) > 0
    assert coef.min() > 1.0
    xi = res.config.grid.meshes()[0]
    end = np.sin(xi) ** 2 + 1.5  # h2^2 + (3/2)(K - 1) at K = 2
    np.testing.assert_allclose(coef, end, atol=1e-12)
    assert 1.5 == pytest.approx(float(coef.min()), abs=0.1)


def test_spinorial_nonriemannian_flag():
    # K = 1/2 with the canonical family: coefficient sin^2 - 3/4 changes sign
    res = spinorial_solution(surface=mercator_sphere(0.5), fam=round_s3_family(),
                             n=16, margin=0.1)
    coef = conformal_coefficient(res, mercator_sphere(0.5))
    mask = ~full_fields(res.config)[2].riemannian_mask()
    assert coefficient_min(res) <= 0
    np.testing.assert_array_equal(mask, coef <= 0)
    assert mask.any() and not mask.all()


def test_spinorial_volume_identity():
    res = spinorial_solution(n=32, margin=0.1)
    c = res.config
    vol_m = integrate(np.sqrt(full_fields(c)[2].det()), c.grid)
    xi = c.grid.axis_points(0)
    w = c.grid.axis_weights(0)
    h2sq_int = float(np.sum(np.sin(xi) ** 2 * w))
    # spinorial_solution's default surface is the unit sphere: chi = 2, area 4 pi
    rhs = h2sq_int * (6 * np.pi * 2 - 2 * 4 * np.pi)
    assert vol_m == pytest.approx(rhs, rel=1e-2)


def test_spinorial_degree_and_gap():
    res = spinorial_solution(n=32, margin=0.1)
    vol = res.config.target.volume(n=64)
    bg = bound_gap(res.config, P0, vol)[0]
    assert abs(bg["gap"]) < 0.01 * bg["energy"]
    assert bg["degree"] == pytest.approx(np.tanh(2.9), abs=5e-3)


# -- twisted spinorial ------------------------------------------------------------------


def test_twisted_reduces_to_spinorial_at_alpha_zero():
    rt = twisted_spinorial_solution(alpha=0.0, gamma=0.7, n=16)
    rs = spinorial_solution(surface=mercator_sphere(1.0),
                            fam=eta2_zero_family(np.sin, (0.0, np.pi), compact="s3"),
                            n=16)
    (phi_t, A_t, g_t), (phi_s, A_s, g_s) = full_fields(rt.config), full_fields(rs.config)
    assert np.max(np.abs(phi_t - phi_s)) < 1e-12
    assert np.max(np.abs(A_t - A_s)) < 1e-12
    assert np.max(np.abs(g_t.g - g_s.g)) < 1e-12
    assert np.all(A_t[0, 0] == 0.0)


def test_twisted_b_value_and_conditions():
    rt = twisted_spinorial_solution(alpha=-2.0, gamma=0.5, beta=2.0, n=24)
    assert full_fields(rt.config)[1][0, 0] == pytest.approx(-2.0)
    c1, c2, c3 = bps2_scalar_conditions(rt, -2.0, 2.0, 0.5)
    assert max(c1, c2, c3) < 5e-4
    p = bps_coefficients(-2.0, 2.0, 0.5)
    r = _margin_pass(rt.config, p)[0]
    assert r["r1"] < 1e-2 and r["r2"] < 1e-2  # n = 24 here; under 5e-4 at n = 48


def test_twisted_requires_gamma_and_compatible_beta():
    with pytest.raises(ParamInconsistent):
        twisted_spinorial_solution(alpha=1.0, gamma=0.0, n=8)
    with pytest.raises(ParamInconsistent):
        twisted_spinorial_solution(alpha=1.0, gamma=0.5, beta=None, n=8)
    with pytest.raises(ParamInconsistent):
        # implied curvature 1 - alpha/beta <= 0 has no shipped surface
        twisted_spinorial_solution(alpha=2.0, gamma=0.5, beta=1.0, n=8)


# -- spherical family -------------------------------------------------------------------


def test_spherical_profiles_and_residuals():
    res = spherical_solution(1.0, -1.0, 1.0, 2.0, n=32)
    assert res.diagnostics["bps2a_residual"] < 1e-12
    assert res.diagnostics["bps2b_residual"] < 1e-12
    p = bps_coefficients(1.0, 2.0, 0.0)
    r = _margin_pass(res.config, p)[0]
    assert r["r1"] < 5e-4 and r["r2"] < 5e-4


def test_spherical_round_target_special_parameters():
    # (c1, c2, beta) = (1, -1, 2 alpha), h1 = 1/(1+xi^2): after arctan the
    # target is the round 3-sphere
    res = spherical_solution(1.0, -1.0, 1.0, 2.0, n=8,
                             h1=lambda xi: 1.0 / (1.0 + xi**2))
    xi = np.linspace(0.25, 1.45, 33)
    h1sq, h2sq, eta1, _ = adjoint_profiles(res.config.target, xi)
    ref_h1sq, ref_h2sq = spherical_round_target_metric(xi)
    np.testing.assert_allclose(h1sq, ref_h1sq, atol=1e-8)
    np.testing.assert_allclose(h2sq, ref_h2sq, atol=1e-8)
    xt = np.arctan(xi)
    np.testing.assert_allclose(h2sq, np.sin(xt) ** 2, atol=1e-8)
    np.testing.assert_allclose(eta1, -1.0 / (1.0 + xi**2), atol=1e-8)


def test_spherical_excluded_branches():
    with pytest.raises(ParamInconsistent):
        spherical_solution(0.0, -1.0, 1.0, 2.0, n=8)  # f = 1 forces F = 0
    with pytest.raises(ParamInconsistent):
        spherical_solution(1.0, -1.0, 1.0, 3.0, n=8)  # 3 alpha / beta = 1
    with pytest.raises(ParamInconsistent):
        spherical_solution(1.0, 1.0, 1.0, 2.0, n=8)  # h1 h2^2 < 0
    with pytest.raises(ParamInconsistent):
        spherical_solution(1.0, -1.0, 0.0, 2.0, n=8)  # alpha = 0


@pytest.mark.parametrize("build,params", [
    (lambda n: spherical_solution(1.0, -1.0, 1.0, 2.0, n=n), (1.0, 2.0, 0.0)),
    (lambda n: twisted_spinorial_solution(alpha=-2.0, gamma=0.5, beta=2.0, n=n),
     (-2.0, 2.0, 0.5)),
    (lambda n: symplectic_solution(n=n), (0.0, 1.0, 0.0)),
])
def test_family_residuals_decay_fourth_order(build, params):
    p = bps_coefficients(*params)
    r_coarse = _margin_pass(build(24).config, p)[0]
    r_fine = _margin_pass(build(48).config, p)[0]
    assert r_fine["r1"] < 5e-4
    assert r_coarse["r1"] / r_fine["r1"] > 8.0  # (48/24)^4 = 16 nominal
    if r_fine["r2"] > 1e-12:
        assert r_coarse["r2"] / r_fine["r2"] > 8.0


def test_spherical_degree_extrapolates_to_one():
    vol = None
    margins = [0.12, 0.06, 0.03]
    degs = []
    for m in margins:
        res = spherical_solution(1.0, -1.0, 1.0, 2.0, n=32, margin=m)
        if vol is None:
            vol = res.config.target.volume(n=64)
        degs.append(bound_gap(res.config, P0, vol)[0]["degree"])
    d = extrapolate_margin(margins, degs)
    assert abs(d - round(d)) < 1e-2
    assert round(d) == 1


# -- symplectic family -------------------------------------------------------------------


def test_symplectic_normalization_and_chi():
    res = symplectic_solution(n=24)
    assert _margin_pass(res.config, P0)[0]["diagnostics"]["normalization_residual"] < 1e-10
    assert res.diagnostics["omega_c_integral_over_2pi"] == pytest.approx(2.0, abs=2e-2)


def test_symplectic_normalization_violation():
    res = symplectic_solution(n=8, w_scale=1.01)
    with pytest.raises(NormalizationFailed, match="differs from -2 da by"):
        _margin_pass(res.config, P0)[0]


def test_symplectic_untwisted_is_spinorial():
    # xi-independent w on the round sphere reproduces the spinorial data
    sy = symplectic_solution(n=16)
    sp = spinorial_solution(surface=mercator_sphere(1.0),
                            fam=eta2_zero_family(np.sin, (0.0, np.pi), compact="s3",
                                                 name="symplectic-base"),
                            n=16)
    (phi_y, A_y, g_y), (phi_p, A_p, g_p) = full_fields(sy.config), full_fields(sp.config)
    assert np.max(np.abs(A_y - A_p)) < 1e-12
    assert np.max(np.abs(phi_y - phi_p)) < 1e-12
    assert np.max(np.abs(g_y.g - g_p.g)) < 1e-12


def test_symplectic_twisted_matches_untwisted_invariants():
    p = bps_coefficients(0.0, 1.2, 0.0)
    plain = symplectic_solution(n=24)
    twisted = symplectic_solution(n=24, xi_phase=lambda xi: 0.4 * xi)
    r_plain = _margin_pass(plain.config, p)[0]
    r_tw = _margin_pass(twisted.config, p)[0]
    assert r_tw["r1"] < 1e-2 and r_tw["r2"] < 1e-2  # n = 24; under 5e-4 at n = 48
    vol = plain.config.target.volume(n=64)
    assert bound_gap(twisted.config, p, vol)[0]["degree"] == pytest.approx(
        bound_gap(plain.config, p, vol)[0]["degree"], abs=1e-6)
