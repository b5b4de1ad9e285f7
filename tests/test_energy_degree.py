import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_adjoint_configuration, smooth_u1_configuration
from oracles import (
    TargetMismatch,
    energy_su2_reduced,
    gauge_transform,
    standard_specs,
    su2_matrix_fields,
)
from skybps import energy_degree, exterior, grid
from skybps.cli import FAMILIES, build_family, run_verify
from skybps.errors import MomentConditionFailed
from skybps.exterior import Metric3, hodge_star
from skybps.gaugefield import Configuration
from skybps.grid import build_patch, integrate
from skybps.energy_degree import (
    _contraction_asymmetry,
    _TERMS,
    _margin_pass,
    _pair,
    _slab_pass,
    bound_gap,
    bps_coefficients,
    general_bound_coefficient,
)
from skybps.lie_target import make_su2_left_target
from skybps.solutions import identity_u1_solution, spinorial_solution

P0 = bps_coefficients(0.0, 0.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda: spinorial_solution(n=16),
    lambda: identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x), n=16),
], ids=["adjoint", "u1"])
def test_target_fields_evaluated_once_at_phi(build, monkeypatch):
    monkeypatch.setattr(grid, "_SLAB_POINTS", 5 * 16 * 16)  # slabs of 5, 5, 5 and 1 rows
    b = build().config
    c = Configuration(b.grid, b.target, b.phi, b.A, b.gM, b.orientation, b.phi_winding)
    points = {}

    def counted(name, fn):
        def wrapped(y):
            if np.shares_memory(y, c.phi):
                points[name] = points.get(name, 0) + np.size(y[0])
            return fn(y)
        return wrapped

    t = c.target
    for name in ("metric_fn", "killing_fn", "mu_fn"):
        monkeypatch.setattr(t, name, counted(name, getattr(t, name)))
    bound_gap(c, P0, 1.0)
    # each grid point once; d^A phi, nu and the contraction check share I
    n = c.phi[0].size
    assert points == {"metric_fn": n, "killing_fn": n, "mu_fn": n}


def test_bps_coefficients_origin():
    assert bps_coefficients(0, 0, 0).c == (1, 1, 0, 9, 0, 6)


def test_bps_coefficients_explicit():
    # direct substitution at (alpha, beta, gamma) = (1, 2, 3)
    assert bps_coefficients(1, 2, 3).c == (1, 2, 9, 13, 6, 10)


@given(st.floats(-10, 10, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_bps_coefficients_positivity(alpha):
    c = bps_coefficients(alpha, 0.3, -0.2).c
    assert c[1] - 1 == pytest.approx(alpha**2)
    assert c[1] >= 1 and c[3] >= 9 and c[2] >= 0


# -- energy ---------------------------------------------------------------------


def test_energy_constant_configuration(u1_target):
    grid = build_patch(u1_target.lo, u1_target.hi, (8, 8, 8), u1_target.periodic, 0.1)
    phi = np.stack([np.full(grid.shape, v) for v in (1.0, 0.7, 2.0)])
    g = np.zeros((3, 3) + grid.shape)
    g[0, 0] = g[1, 1] = g[2, 2] = 1.0
    c = Configuration(grid, u1_target, phi, None, Metric3(g))
    bg = bound_gap(c, P0, u1_target.volume())
    assert abs(bg["energy"]) < 1e-20
    assert bg["degree"] == pytest.approx(0.0, abs=1e-20)
    assert bg["gap"] == pytest.approx(0.0, abs=1e-18)


def test_energy_orthogonality_enforced(u1_target):
    c = smooth_u1_configuration(u1_target, n=16)
    assert _margin_pass(c, P0)["ortho"] < 1e-12


def test_energy_ungauged_isometry_saturates(u1_target):
    res = identity_u1_solution(lambda th, x: np.zeros_like(th * x), n=48, margin=0.02)
    e = bound_gap(res.config, P0, 1.0)["energy"]
    assert e == pytest.approx(12 * np.pi**2, rel=5e-3)


# -- degree ----------------------------------------------------------------------


def test_degree_identity_map(u1_target):
    res = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                               n=32, margin=0.2)
    vol = u1_target.volume(n=64)
    d = bound_gap(res.config, P0, vol)["degree"]
    # the windowed integral equals the windowed volume fraction exactly
    assert d == pytest.approx(np.cos(2 * 0.2), abs=2e-3)


def test_degree_independent_of_connection(u1_target):
    vol = u1_target.volume(n=64)
    degs = []
    for ax in (lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
               lambda th, x: 0.05 * np.sin(2 * th) * np.ones_like(x)):
        res = identity_u1_solution(ax, n=32, margin=0.2)
        degs.append(bound_gap(res.config, P0, vol)["degree"])
    assert abs(degs[0] - degs[1]) < 1e-3


def test_degree_orientation_reversal(u1_target):
    res = identity_u1_solution(lambda th, x: np.zeros_like(th * x), n=24, margin=0.1)
    c = res.config
    flipped = Configuration(c.grid, c.target, c.phi, c.A, c.gM, orientation=-1,
                            phi_winding=c.phi_winding)
    vol = u1_target.volume(n=64)
    bg, bg_flipped = bound_gap(c, P0, vol), bound_gap(flipped, P0, vol)
    assert bg_flipped["degree"] == pytest.approx(-bg["degree"], rel=1e-12)
    assert bg_flipped["energy"] == pytest.approx(bg["energy"], rel=1e-12)


def test_charge_density_cross_check(u1_target):
    c = smooth_u1_configuration(u1_target, n=24)
    assert _margin_pass(c, P0)["charge_cross"] < 1e-10


# -- residuals and the bound -------------------------------------------------------


def test_residual_linear_in_perturbation(u1_target):
    from skybps.cli import perturb_configuration

    base = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                                n=24, margin=0.2).config
    r0 = _margin_pass(base, P0)["r1"]
    rs = []
    for eps in (0.02, 0.01, 0.005):
        c = perturb_configuration(base, eps, seed=1)
        rs.append(_margin_pass(c, P0)["r1"] - r0)
    assert rs[0] / rs[1] == pytest.approx(2.0, rel=0.15)
    assert rs[1] / rs[2] == pytest.approx(2.0, rel=0.15)


def test_gap_positive_off_shell(u1_target):
    from skybps.cli import perturb_configuration

    base = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                                n=24, margin=0.2).config
    vol = u1_target.volume(n=64)
    assert abs(bound_gap(base, P0, vol)["gap"]) < 1e-6
    pert = perturb_configuration(base, 0.05, seed=2)
    bg = bound_gap(pert, P0, vol)
    assert bg["gap"] > 1e-4
    assert bg["decomposition_residual"] < 1e-10


def test_gap_quadratic_in_residuals(u1_target):
    # near a solution the gap is the integral of the squared residual forms,
    # so it scales quadratically with the perturbation size
    from skybps.cli import perturb_configuration

    base = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                                n=24, margin=0.2).config
    vol = u1_target.volume(n=64)
    gaps = [bound_gap(perturb_configuration(base, eps, seed=3), P0, vol)["gap"]
            for eps in (0.04, 0.02)]
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)


def test_general_bound_reported():
    assert general_bound_coefficient(bps_coefficients(0.5, 1.0, 2.0)) is not None
    # gamma = 0 makes the denominator collapse: reported as None, not an error
    assert general_bound_coefficient(bps_coefficients(1.0, 2.0, 0.0)) is None


# -- SU(2) reduction ------------------------------------------------------------------


def test_su2_reduction_agreement(adjoint_round_target):
    c = smooth_adjoint_configuration(adjoint_round_target, n=32, seed=9)
    p = bps_coefficients(0.4, -0.3, 0.8)
    e1 = bound_gap(c, p, 1.0)["energy"]
    U, A = su2_matrix_fields(c)
    e2 = energy_su2_reduced(U, A, c.grid, c.gM, p, c.orientation)
    assert abs(e1 - e2) / abs(e1) < 1e-6


def test_su2_reduction_flat_connection_is_ungauged(adjoint_round_target):
    c0 = smooth_adjoint_configuration(adjoint_round_target, n=24, seed=4)
    c = Configuration(c0.grid, c0.target, c0.phi, None, c0.gM)
    p = bps_coefficients(0.2, 0.5, -0.4)
    U, A = su2_matrix_fields(c)
    e_red = energy_su2_reduced(U, A, c.grid, c.gM, p, 1)
    # with F = 0 only the c1 and c2 terms survive: the ungauged Skyrme energy
    bg = bound_gap(c, p, 1.0)
    e_ung = bg["energy"]
    assert e_red == pytest.approx(e_ung, rel=1e-6)
    terms = bg["terms"]
    assert abs(terms["c3_nu"]) < 1e-16 and abs(terms["c4_mu_sharp"]) < 1e-16


def test_su2_reduction_yang_mills_normalization():
    # c4 = 4 c3 (beta^2 = 4 gamma^2 - 9): the |F|^2 coefficient is (4c3+c4)/2
    gamma = 2.0
    beta = np.sqrt(4 * gamma**2 - 9)
    p = bps_coefficients(0.0, beta, gamma)
    c = p.c
    assert c[3] == pytest.approx(4 * c[2])
    # the F-quadratic coefficient becomes (1/2)(4c3 + c4) = 4 c3 exactly, and
    # the U-coupled quadratic (1/2)(c4 - 4c3) drops out
    assert 0.5 * (4 * c[2] + c[3]) == pytest.approx(4 * c[2])
    assert 0.5 * (c[3] - 4 * c[2]) == pytest.approx(0.0)


def test_su2_reduction_needs_round_target(u1_target):
    c = smooth_u1_configuration(u1_target, n=8)
    with pytest.raises(TargetMismatch):
        su2_matrix_fields(c)


# -- gauge invariance of the reports ---------------------------------------------------


def test_energy_degree_residuals_gauge_invariant(u1_target):
    res = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                               n=32, margin=0.2)
    c = res.config
    vol = u1_target.volume(n=64)
    th, x, y = c.grid.meshes()
    lx = c.grid.hi_eff[1] - c.grid.lo_eff[1]
    lam = (0.02 * np.sin(th) * np.sin(np.pi * (x - c.grid.lo_eff[1]) / lx))[None]
    c2 = gauge_transform(c, lam)
    bg1, bg2 = bound_gap(c, P0, vol), bound_gap(c2, P0, vol)
    e1, e2 = bg1["energy"], bg2["energy"]
    assert abs(e1 - e2) / abs(e1) < 1e-6
    assert abs(bg1["degree"] - bg2["degree"]) < 1e-6
    assert abs(bg1["r1"] - bg2["r1"]) < 1e-6
    assert abs(bg1["r2"] - bg2["r2"]) < 1e-6


# -- the slab pass against the full-grid, per-pair code it replaced, kept as reference --


def _fresh_copy(b, target=None):
    """The same configuration as a new object (optionally with another target)."""
    return Configuration(b.grid, target or b.target, b.phi, b.A, b.gM, b.orientation,
                         b.phi_winding)


def _fresh(family, n=16):
    """A family's configuration at its first default margin, as a new object."""
    return _fresh_copy(build_family({"family": family, "n": n},
                                    FAMILIES[family].margins[0])[0].config)


def _full_grid(c):
    """The five pullbacks, the base star and g_N, each formed on the full grid."""
    specs = standard_specs(c.target)
    pb = {k: specs[k].pullback(c) for k in ("sigma", "nu", "mu_sharp", "volume", "mu")}
    return pb, hodge_star(c.gM, c.orientation), c.target.metric_fn(c.phi)


def _energy_per_pair(c, p):
    """The former energy density: one star application per pairing."""
    c1, c2, c3, c4, c5, c6 = p.c
    pb, star, gN = _full_grid(c)
    P = c.covariant_differential()
    return {
        "c1_dphi": c1 * _pair(P, P, 1, star, gN),
        "c2_sigma": c2 * _pair(pb["sigma"], pb["sigma"], 2, star, gN),
        "c3_nu": c3 * _pair(pb["nu"], pb["nu"], 2, star, gN),
        "c4_mu_sharp": c4 * _pair(pb["mu_sharp"], pb["mu_sharp"], 2, star, gN),
        "c5_nu_sigma": c5 * _pair(pb["nu"], pb["sigma"], 2, star, gN),
        "c6_mu_sigma": c6 * _pair(pb["mu_sharp"], pb["sigma"], 2, star, gN),
    }


def _cross_per_pair(c):
    """The former cross density <star d^A phi, B>, with B formed afresh."""
    pb, star, gN = _full_grid(c)
    stard = star.on_1(c.covariant_differential())
    b = pb["sigma"] + 3.0 * pb["mu_sharp"]
    return _pair(stard, b, 2, star, gN)


def _bogomolny_per_pair(c, p):
    """The former bound_gap density and the sup norms of the two BPS equations."""
    pb, star, gN = _full_grid(c)
    stard = star.on_1(c.covariant_differential())
    diff = stard - (pb["sigma"] + 3.0 * pb["mu_sharp"])
    second = p.alpha * pb["sigma"]
    second += p.beta * pb["mu_sharp"]
    second += p.gamma * pb["nu"]
    dens2 = _pair(diff, diff, 2, star, gN)
    dens2 += _pair(second, second, 2, star, gN)
    cross = _cross_per_pair(c)
    cross *= 2.0
    dens2 += cross
    return dens2, float(np.max(np.abs(diff))), float(np.max(np.abs(second)))


@pytest.mark.parametrize("family", ["spherical", "identity-u1"])
def test_bogomolny_pass_bit_identical_to_per_pair_code(family, monkeypatch):
    monkeypatch.setattr(grid, "_SLAB_POINTS", 6 * 16 * 16)  # slabs of 6, 6 and 4 rows
    c = _fresh(family)
    p = bps_coefficients(0.3, -0.7, 0.5)  # every coefficient nonzero
    ref = _energy_per_pair(c, p)
    pb, _, _ = _full_grid(c)
    ref["charge"] = pb["volume"] + pb["mu"]
    ref2, ref_r1, ref_r2 = _bogomolny_per_pair(c, p)
    six = sum(ref[k] for k in _TERMS)
    mismatch = ref["charge"] - _cross_per_pair(c) / 3.0
    slabs = c.grid.slabs()
    assert len(slabs) == 3
    for sl in slabs:
        dens, sup = _slab_pass(c, p, c.slab(sl, halo=False))
        assert list(dens) == ["charge", *_TERMS]
        for k, v in dens.items():
            assert np.array_equal(v, ref[k][sl]), k
        assert sup["six_max"] == float(np.max(np.abs(six[sl])))
        assert sup["decomposition"] == float(np.max(np.abs(ref2[sl] - six[sl])))
        assert sup["charge_max"] == float(np.max(np.abs(ref["charge"][sl])))
        assert sup["charge_cross"] == float(np.max(np.abs(mismatch[sl])))
    done = _margin_pass(c, p)
    assert done["terms"] == {k: c.orientation * integrate(ref[k], c.grid) for k in _TERMS}
    assert done["charge"] == c.orientation * integrate(ref["charge"], c.grid)
    assert (done["r1"], done["r2"]) == (ref_r1, ref_r2)
    assert bound_gap(c, p, 1.0)["terms"] == done["terms"]


@pytest.mark.parametrize("family", ["spherical", "identity-u1", "dirac-monopole"])
def test_slabs_give_the_one_slab_values(family, monkeypatch):
    p = bps_coefficients(0.3, -0.7, 0.5)

    def run(points):
        monkeypatch.setattr(grid, "_SLAB_POINTS", points)
        c = _fresh(family, n=20)
        return c.grid.slabs(), bound_gap(c, p, 1.0), _margin_pass(c, p)

    slabs, bg, done = run(7 * 20 * 20)
    assert [s.stop - s.start for s in slabs] == [7, 7, 6]  # a short last slab
    one, bg1, done1 = run(20**3)
    assert one == [slice(0, 20)]
    assert bg == bg1
    assert done == done1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_rows_equal_separate_calls(family):
    report = run_verify({"family": family, "n": 16})
    cfg = report["config"]
    for row, m in zip(report["rows"], cfg["margins"]):
        res, p = build_family(cfg, m)
        r = _margin_pass(res.config, p)
        bg = bound_gap(_fresh_copy(res.config), p, report["volume_n"])
        assert (row["r1"], row["r2"]) == (r["r1"], r["r2"]) == (bg["r1"], bg["r2"])
        assert (row["energy"], row["degree"], row["gap"]) == (bg["energy"], bg["degree"],
                                                              bg["gap"])


def test_star_inverted_once_per_configuration(monkeypatch):
    monkeypatch.setattr(grid, "_SLAB_POINTS", 6 * 16 * 16)  # slabs of 6, 6 and 4 rows
    c = _fresh("spherical")
    stars, inverted = [], []
    real_star, real_inv = energy_degree.hodge_star, exterior.mat_inv
    monkeypatch.setattr(energy_degree, "hodge_star",
                        lambda *args: stars.append(real_star(*args)) or stars[-1])
    monkeypatch.setattr(exterior, "mat_inv", lambda m: inverted.append(m) or real_inv(m))
    p = bps_coefficients(1.0, 2.0, 0.0)
    bound_gap(c, p, 1.0)
    # one pass per configuration: one star per slab, each inverted once
    assert len(stars) == len(c.grid.slabs()) == 3
    assert [sum(m is star.s for m in inverted) for star in stars] == [1, 1, 1]


# -- the degree's contraction check ---------------------------------------------------


def test_degree_refuses_a_moment_map_failing_the_contraction_check():
    # su2-left: iota_nu(X) mu(X) = K/2 != 0 (see make_su2_left_target)
    c = _fresh_copy(_fresh("spherical"), make_su2_left_target(1.0))
    kil, mu = c.target.killing_fn(c.phi), c.target.mu_fn(c.phi)
    assert _contraction_asymmetry(kil, mu) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(MomentConditionFailed, match="contraction constraint"):
        bound_gap(c, P0, 1.0)


@pytest.mark.parametrize("family", sorted(FAMILIES) + ["su2-left"])
def test_contraction_asymmetry_matches_einsum(family):
    if family == "su2-left":
        c = _fresh_copy(_fresh("spherical"), make_su2_left_target(1.0))
    else:
        c = _fresh(family)
    kil, mu = c.target.killing_fn(c.phi), c.target.mu_fn(c.phi)
    q = np.einsum("amxyz,bmxyz->abxyz", kil, mu)
    old = float(np.max(np.abs(0.5 * (q + np.swapaxes(q, 0, 1)))))
    scale = max(old, float(np.max(np.abs(mu))), 1.0)
    assert abs(_contraction_asymmetry(kil, mu) - old) <= 1e-14 * scale
