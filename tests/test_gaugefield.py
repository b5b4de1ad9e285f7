import numpy as np
import pytest

from conftest import smooth_adjoint_configuration, smooth_u1_configuration
from oracles import (
    from_arrays,
    full_fields,
    full_grid_field,
    gauge_transform,
    over_slabs,
    standard_specs,
    take_rows,
)
from skybps.energy_degree import bound_gap, bps_coefficients
from skybps.errors import ChartExit, DegreeOverflow
from skybps.exterior import EPS, Metric3, hodge_star, mat_det
from skybps.gaugefield import (
    _curvature,
    _dphi,
    cofactor,
    det_p,
    equivariant_pullback,
    naturality_check_specs,
    pullback_naturality_residual,
)
from skybps import gaugefield, grid as grid_module
from skybps.grid import build_patch, partial_derivative
from skybps.lie_target import sph_x, su2_algebra, u1_algebra
from skybps.solutions import dirac_monopole, identity_u1_solution, spinorial_solution


def without_connection(c):
    """c with A = 0."""
    phi, _, gM = full_fields(c)
    return from_arrays(c.grid, c.target, phi, None, gM, c.orientation, c.phi_winding)


def euclid(shape):
    g = np.zeros((3, 3) + shape)
    g[0, 0] = g[1, 1] = g[2, 2] = 1.0
    return Metric3(g)


# -- curvature ----------------------------------------------------------------


def test_curvature_zero_connection(u1_target):
    grid = build_patch(u1_target.lo, u1_target.hi, (8, 8, 8), u1_target.periodic, 0.1)
    phi = np.stack(grid.meshes())
    c = from_arrays(grid, u1_target, phi, None, euclid(grid.shape), phi_winding=np.eye(3))
    assert np.max(np.abs(full_grid_field(c, "F"))) == 0.0


@pytest.mark.parametrize("algebra", [u1_algebra(), su2_algebra()], ids=["u1", "su2"])
def test_curvature_closed_form_matches_einsum(algebra):
    rng = np.random.default_rng(11)
    grid = build_patch((0.0, 0.0, 0.0), (1.0, 2 * np.pi, 2.0), (5, 6, 7),
                       (False, True, False), 0.0)
    A = rng.normal(size=(algebra.dim, 3) + grid.shape)
    # reference: the generic Levi-Civita contractions for the curl and A ^ A
    grads = np.stack([partial_derivative(A, lam, grid) for lam in range(3)])
    ref = np.einsum("mkl,kalxyz->amxyz", EPS, grads) + 0.5 * np.einsum(
        "abc,bixyz,cjxyz,mij->amxyz", algebra.f, A, A, EPS, optimize=True)
    F = _curvature(A, algebra.f, grid, slice(0, grid.n[0]))
    assert np.max(np.abs(F - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_curvature_abelian_analytic_oracle(u1_target):
    errs = []
    for n in (32, 64):
        grid = build_patch(u1_target.lo, u1_target.hi, (n, n, n),
                           u1_target.periodic, 0.1)
        th, x, y = grid.meshes()
        phi = np.stack([th, x, y])
        A = np.zeros((1, 3) + grid.shape)
        A[0, 1] = 0.3 * np.sin(th) * np.cos(y / 2)
        c = from_arrays(grid, u1_target, phi, A, euclid(grid.shape), phi_winding=np.eye(3))
        F = full_grid_field(c, "F")[0]
        exact = np.zeros_like(F)
        # dA = d_theta A_x dtheta^dx + d_y A_x dy^dx
        exact[2] = 0.3 * np.cos(th) * np.cos(y / 2)
        exact[0] = 0.3 * np.sin(th) * 0.5 * np.sin(y / 2)
        errs.append(np.max(np.abs(F - exact)))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] > 12.0  # 4th-order convergence


def test_curvature_spinorial_block_identity():
    f_res = []
    for n in (32, 64):
        res = spinorial_solution(n=n)
        f_res.append(over_slabs(res.config, dict(res.checks)["curvature_identity_residual"]))
    assert f_res[0] < 1e-3
    assert f_res[0] / f_res[1] > 10.0


def test_bianchi_residual(adjoint_round_target):
    c = smooth_adjoint_configuration(adjoint_round_target, n=32)
    assert over_slabs(c, c.bianchi_residual) < 1e-5
    c2 = smooth_adjoint_configuration(adjoint_round_target, n=64)
    assert over_slabs(c2, c2.bianchi_residual) < over_slabs(c, c.bianchi_residual) / 8.0


# -- covariant differential ----------------------------------------------------


def test_covariant_differential_reduces_to_differential(u1_target):
    c_free = without_connection(smooth_u1_configuration(u1_target, n=16))
    np.testing.assert_allclose(full_grid_field(c_free, "P"),
                               full_grid_field(c_free, "dphi"))


def test_covariant_differential_identity_map(u1_target):
    res = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                               n=16, margin=0.2)
    P = full_grid_field(res.config, "P")
    ax = 0.1 * np.sin(res.config.grid.meshes()[0])
    np.testing.assert_allclose(P[0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(P[0, 1], -ax, atol=1e-12)  # dtheta - A
    np.testing.assert_allclose(P[1, 1], 1.0, atol=1e-12)
    np.testing.assert_allclose(P[2, 2], 1.0, atol=1e-12)


def test_covariant_differential_monopole_rank_one():
    res = dirac_monopole(n=16)
    P = full_grid_field(res.config, "P")
    # only the radial slot survives: d^A phi = dxi (x) d_xi
    np.testing.assert_allclose(P[0, 0], 1.0, atol=1e-12)
    assert np.max(np.abs(P[1:])) < 1e-12
    assert np.max(np.abs(P[0, 1:])) < 1e-12


# -- equivariant pullback -------------------------------------------------------


def test_pullback_identity_section_is_covariant_differential(u1_target):
    c = smooth_u1_configuration(u1_target, n=16)
    specs = standard_specs(u1_target)
    np.testing.assert_allclose(specs["identity"].pullback(c),
                               full_grid_field(c, "P"))


def test_pullback_flat_connection_ordinary_pullback(u1_target):
    c = without_connection(smooth_u1_configuration(u1_target, n=16))
    vol = standard_specs(u1_target)["volume"].pullback(c)
    # phi* V_N = rho(phi) det(d phi)
    P = full_grid_field(c, "dphi")
    det = np.einsum("uvw,uxyz,vxyz,wxyz->xyz", np.array(
        [[[float((i - j) * (j - k) * (k - i) / 2) for k in range(3)]
          for j in range(3)] for i in range(3)]), P[:, 0], P[:, 1], P[:, 2])
    phi = full_fields(c)[0]
    np.testing.assert_allclose(vol, np.sqrt(mat_det(u1_target.metric_fn(phi))) * det,
                               rtol=1e-12)


def test_pullback_spinorial_nu_vanishes():
    res = spinorial_solution(n=32)
    nu_hat = standard_specs(res.config.target)["nu"].pullback(res.config)
    assert np.max(np.abs(nu_hat)) < 5e-4  # zero up to FD error in F


def test_pullback_grading_and_overflow(u1_target):
    c = smooth_u1_configuration(u1_target, n=16)
    sp = standard_specs(u1_target)
    assert sp["volume"].pullback(c).shape == c.grid.shape  # 3-form
    assert sp["mu"].pullback(c).shape == c.grid.shape  # 3-form
    assert sp["sigma"].pullback(c).shape == (3, 3) + c.grid.shape
    with pytest.raises(DegreeOverflow):
        equivariant_pullback(full_grid_field(c, "P"), full_grid_field(c, "F"), 2, 0, None)


@pytest.mark.parametrize("complex_", [False, True])
def test_cofactor_and_det_p_match_einsum(complex_):
    rng = np.random.default_rng(21)
    P = rng.normal(size=(3, 3, 5, 6, 7))
    if complex_:
        P = P + 1j * rng.normal(size=P.shape)
    ref = 0.5 * np.einsum("mkl,ruv,ukxyz,vlxyz->mrxyz", EPS, EPS, P, P)
    scale = 0.5 * np.einsum("mkl,ruv,ukxyz,vlxyz->mrxyz", np.abs(EPS), np.abs(EPS),
                            np.abs(P), np.abs(P))
    assert np.max(np.abs(cofactor(P) - ref) / scale) < 1e-12
    ref = np.linalg.det(np.moveaxis(P, (0, 1), (-2, -1)))
    a = np.abs(P)
    scale = np.einsum("uvw,uxyz,vxyz,wxyz->xyz", np.abs(EPS), a[:, 0], a[:, 1], a[:, 2])
    assert np.max(np.abs(det_p(P) - ref) / scale) < 1e-12


# -- naturality -----------------------------------------------------------------


def naturality(c, spec):
    return over_slabs(c, lambda slab: pullback_naturality_residual(c, spec, slab))


def test_naturality_residual_mu_random_fields(u1_target):
    c = smooth_u1_configuration(u1_target, n=48)
    named = dict(naturality_check_specs(u1_target))
    assert naturality(c, named["mu-1form"]) < 1e-5
    assert naturality(c, named["iota-nu-volume-2form"]) < 1e-5


def test_naturality_classical_flat_case(u1_target):
    # A = 0: reduces to d(phi* beta) = phi*(d beta)
    c = without_connection(smooth_u1_configuration(u1_target, n=48))
    for _, spec in naturality_check_specs(u1_target):
        assert naturality(c, spec) < 1e-5


def test_naturality_adjoint_radial_forms(adjoint_round_target):
    c = smooth_adjoint_configuration(adjoint_round_target, n=32)
    for _, spec in naturality_check_specs(adjoint_round_target):
        assert naturality(c, spec) < 1e-5


def test_naturality_alone_forms_dphi_once_per_slab(adjoint_round_target, monkeypatch):
    # as a slab's first reader, the check reads d^A phi on the window and on
    # the slab's rows from one field
    c = smooth_adjoint_configuration(adjoint_round_target, n=16)
    monkeypatch.setattr(grid_module, "_SLAB_POINTS", 4 * 16 * 16)
    calls = []
    monkeypatch.setattr(gaugefield, "_dphi", lambda *args: calls.append(args) or _dphi(*args))
    for _, spec in naturality_check_specs(c.target):
        calls.clear()
        assert naturality(c, spec) < 1e-3
        assert len(calls) == len(c.grid.slabs()) == 4


# -- gauge transformations --------------------------------------------------------


def test_gauge_transform_identity(u1_target):
    c = smooth_u1_configuration(u1_target, n=16)
    lam = np.zeros((1,) + c.grid.shape)
    c2 = gauge_transform(c, lam)
    for new, old in zip(full_fields(c2)[:2], full_fields(c)[:2]):
        np.testing.assert_allclose(new, old)


def test_gauge_transform_u1_rules(u1_target):
    c = smooth_u1_configuration(u1_target, n=32)
    th, x, y = c.grid.meshes()
    lam = (0.05 * np.sin(th) * np.cos(y / 2))[None]
    c2 = gauge_transform(c, lam)
    (phi, A, _), (phi2, A2, _) = full_fields(c), full_fields(c2)
    np.testing.assert_allclose(phi2[0], phi[0] + lam[0])
    np.testing.assert_allclose(phi2[1:], phi[1:])
    # A -> A + d lambda
    dl = A2 - A
    exact = np.stack([
        0.05 * np.cos(th) * np.cos(y / 2),
        np.zeros_like(th),
        -0.025 * np.sin(th) * np.sin(y / 2),
    ])[None]
    assert np.max(np.abs(dl - exact)) < 1e-4


def test_gauge_transform_infinitesimal_consistency(u1_target):
    c = smooth_u1_configuration(u1_target, n=16)
    th, _, y = c.grid.meshes()
    lam = (0.3 * np.cos(th) * np.sin(y / 2))[None]
    phi_dot, a_dot = gauge_transform(c, lam, finite=False)
    phi, A, _ = full_fields(c)
    errs = []
    for t in (0.1, 0.05):
        phi_t, A_t, _ = full_fields(gauge_transform(c, t * lam))
        errs.append(max(
            np.max(np.abs((phi_t - phi) / t - phi_dot)),
            np.max(np.abs((A_t - A) / t - a_dot)),
        ))
    # u(1) action is affine: the variation is exact at first order
    assert errs[0] < 1e-12


def test_gauge_transform_su2_infinitesimal_first_order(adjoint_round_target):
    c = smooth_adjoint_configuration(adjoint_round_target, n=16)
    rng = np.random.default_rng(11)
    X, Y, Z = c.grid.meshes()
    lam = 0.2 * np.stack([np.sin(1.3 * X + a) * np.cos(0.9 * Y) for a in range(3)])
    phi_dot, a_dot = gauge_transform(c, lam, finite=False)
    phi, A, _ = full_fields(c)
    errs = []
    for t in (0.2, 0.1):
        phi_t, A_t, _ = full_fields(gauge_transform(c, t * lam))
        errs.append(max(
            np.max(np.abs((phi_t - phi) / t - phi_dot)),
            np.max(np.abs((A_t - A) / t - a_dot)),
        ))
    assert errs[1] < 0.6 * errs[0]  # first-order convergence


def test_chart_exit_in_the_pass(adjoint_round_target):
    c = smooth_adjoint_configuration(adjoint_round_target, n=8)
    phi, A, gM = full_fields(c)
    phi[0] += 3.0  # push xi past the end of the interval chart
    out = from_arrays(c.grid, c.target, phi, A, gM)
    with pytest.raises(ChartExit, match=r"phi\^0 in \[4\.\d+, 4\.\d+\] leaves"):
        bound_gap(out, bps_coefficients(0.0, 0.0, 0.0), 1.0)[0]


def test_pullback_gauge_invariance_exact_linear(u1_target):
    # lambda linear in theta: all FD inputs stay polynomial-exact, so the
    # pullbacks are invariant at roundoff level
    c = smooth_u1_configuration(u1_target, n=16, amp=0.0)
    th = c.grid.meshes()[0]
    lam = (0.2 * th)[None]
    c2 = gauge_transform(c, lam, lam_winding=np.array([[0.2, 0.0, 0.0]]))
    sp = standard_specs(u1_target)
    for name in ("volume", "mu", "sigma", "nu", "mu_sharp"):
        a = sp[name].pullback(c)
        b = sp[name].pullback(c2)
        assert np.max(np.abs(a - b)) < 1e-8, name


def test_pullback_gauge_invariance_smooth(adjoint_round_target):
    # scalar-valued pullbacks are pointwise invariant; tangent-valued ones are
    # equivariant, so their invariant content is the metric pairing density
    from skybps.energy_degree import _pair

    c = smooth_adjoint_configuration(adjoint_round_target, n=32)
    X, Y, Z = c.grid.meshes()
    lam = 0.1 * np.stack([np.sin(1.1 * X + a) * np.cos(1.3 * Y + a) for a in range(3)])
    c2 = gauge_transform(c, lam)
    sp = standard_specs(adjoint_round_target)
    for name in ("volume", "mu"):
        a = sp[name].pullback(c)
        b = sp[name].pullback(c2)
        scale = max(np.max(np.abs(a)), 1.0)
        assert np.max(np.abs(a - b)) < 1e-5 * scale, name
    star = hodge_star(full_fields(c)[2], c.orientation)
    for name in ("sigma", "nu", "mu_sharp"):
        a = sp[name].pullback(c)
        b = sp[name].pullback(c2)
        da = _pair(a, a, 2, star, c.target.metric_fn(full_fields(c)[0]))
        db = _pair(b, b, 2, star, c2.target.metric_fn(full_fields(c2)[0]))
        scale = max(np.max(np.abs(da)), 1.0)
        assert np.max(np.abs(da - db)) < 2e-4 * scale, name


def test_memo_holds_no_copy_of_dphi(adjoint_round_target):
    c = smooth_adjoint_configuration(adjoint_round_target, n=12)
    P = full_grid_field(c, "P")
    dphi = full_grid_field(c, "dphi")
    assert not np.array_equal(P, dphi)  # A != 0, so d^A phi differs from d phi
    # each call hands out a fresh array; writing to it leaves later calls alone
    ref = P.copy()
    dphi[...] = 0.0
    P[...] = 0.0
    assert not np.shares_memory(dphi, full_grid_field(c, "dphi"))
    assert np.array_equal(full_grid_field(c, "P"), ref)
    # nothing is memoized: after the margin's pass the configuration holds
    # no array but its winding
    bound_gap(c, bps_coefficients(0.3, -0.7, 0.5), 1.0)[0]
    assert [v.shape for v in _arrays(vars(c))] == [(3, 3)]


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "bounded"])
def test_derived_fields_on_rows_are_the_full_grid_rows(periodic, u1_target,
                                                       adjoint_round_target, monkeypatch):
    # identity-u1's theta axis is periodic and its phi winds; the adjoint box is bounded
    if periodic:
        c = smooth_u1_configuration(u1_target, n=12)
        rows = [slice(0, 1), slice(11, 12), slice(-2, 7), slice(10, 14), slice(-4, 5),
                slice(3, 5)]
    else:
        c = smooth_adjoint_configuration(adjoint_round_target, n=12)
        rows = [slice(0, 1), slice(0, 5), slice(1, 3), slice(5, 6), slice(9, 12),
                slice(11, 12)]
    full = {name: full_grid_field(c, name) for name in ("dphi", "P", "F")}
    for r in rows:
        slab = c.slab(r)  # its rows are r, which may wrap
        dphi = _dphi(c, c.fields(c.grid.halo(r))[0], r)
        assert np.array_equal(dphi, take_rows(c.grid, full["dphi"], r)), r
        assert np.array_equal(slab.inner("P"), take_rows(c.grid, full["P"], r)), r
        assert np.array_equal(slab.inner("F"), take_rows(c.grid, full["F"], r)), r
    # the stencil checks, as maxima over slabs of 1, 2 and 5 rows
    bianchi = over_slabs(c, c.bianchi_residual)
    natural = [naturality(c, spec) for _, spec in naturality_check_specs(c.target)]
    for k in (1, 2, 5):
        monkeypatch.setattr(grid_module, "_SLAB_POINTS", k * 12 * 12)
        assert over_slabs(c, c.bianchi_residual) == bianchi
        assert [naturality(c, spec) for _, spec in naturality_check_specs(c.target)] == natural


def _arrays(x):
    """Every array in a (nested) dict."""
    if isinstance(x, dict):
        for v in x.values():
            yield from _arrays(v)
    elif isinstance(x, np.ndarray):
        yield x
