import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_adjoint_configuration, smooth_u1_configuration
from oracles import (
    energy_su2_reduced,
    from_arrays,
    full_fields,
    full_grid_field,
    gauge_transform,
    integrate,
    standard_specs,
    su2_matrix_fields,
    TargetMismatch,
)
from skybps import exterior, gaugefield, grid
from skybps.cli import FAMILIES, build_family, run_verify
from skybps.errors import MomentConditionFailed
from skybps.exterior import _contraction_asymmetry, hodge_star
from skybps.grid import build_patch
from skybps.energy_degree import (
    _TERMS,
    _margin_pass,
    _pair,
    _slab_pass,
    bound_gap,
    bps_coefficients,
)
from skybps.lie_target import make_su2_left_target
from skybps.solutions import identity_u1_solution, spherical_solution, spinorial_solution

P0 = bps_coefficients(0.0, 0.0, 0.0)


def _slab_max(a):
    """The pass's reduction of a nonnegative slab field over the slab alone."""
    return float(np.max(a))


# slabs of 5, 5, 5 and 1 rows at n = 16; phi's components vary along one axis
# each, so each evaluator at phi forms the points of the coordinates it reads:
# spinorial's phi is (xi on the rows, pi/2, 0), spherical's and identity-u1's
# the open mesh; the adjoint targets' g_N reads (xi, u), I (u, v) and mu all
# three, the u1-fibered g_N and mu read (x, y) and I none
@pytest.mark.parametrize("build, points", [
    (lambda: spinorial_solution(n=16),
     {"metric_fn": 16, "killing_fn": 4 * 1, "mu_fn": 16}),
    (lambda: spherical_solution(1.0, -1.0, 1.0, 2.0, n=16),
     {"metric_fn": 16 * 16, "killing_fn": 4 * 16 * 16, "mu_fn": 16**3}),
    (lambda: identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x), n=16),
     {"metric_fn": 4 * 16 * 16, "killing_fn": 4 * 1, "mu_fn": 4 * 16 * 16}),
], ids=["adjoint-constant", "adjoint-identity", "u1-identity"])
def test_target_fields_evaluated_once_at_phi(build, points, monkeypatch):
    monkeypatch.setattr(grid, "_SLAB_POINTS", 5 * 16 * 16)
    c = _fresh_copy(build().config)
    assert len(c.grid.slabs()) == 4
    calls, seen = {}, {}

    def counted(name, fn):
        def wrapped(y):
            out = fn(y)
            if not any(np.iscomplexobj(v) for v in y):  # a complex step's are not phi's
                calls[name] = calls.get(name, 0) + 1
                seen[name] = seen.get(name, 0) + int(np.prod(out.shape[-3:]))
            return out
        return wrapped

    t = c.target
    for name in ("metric_fn", "killing_fn", "mu_fn"):
        monkeypatch.setattr(t, name, counted(name, getattr(t, name)))
    bound_gap(c, P0, 1.0)[0]
    # each once per slab: g_N and mu on the slab's rows, I on its window,
    # where d^A phi is formed, and nu and the contraction check share it
    assert calls == dict.fromkeys(points, 4)
    assert seen == points


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
    c = from_arrays(grid, u1_target, phi, None, g)
    bg = bound_gap(c, P0, u1_target.volume())[0]
    assert abs(bg["energy"]) < 1e-20
    assert bg["degree"] == pytest.approx(0.0, abs=1e-20)
    assert bg["gap"] == pytest.approx(0.0, abs=1e-18)


def test_energy_orthogonality_enforced(u1_target):
    c = smooth_u1_configuration(u1_target, n=16)
    assert _margin_pass(c, P0)[0]["ortho"] < 1e-12


def test_energy_ungauged_isometry_saturates(u1_target):
    res = identity_u1_solution(lambda th, x: np.zeros_like(th * x), n=48, margin=0.02)
    e = bound_gap(res.config, P0, 1.0)[0]["energy"]
    assert e == pytest.approx(12 * np.pi**2, rel=5e-3)


# -- degree ----------------------------------------------------------------------


def test_degree_identity_map(u1_target):
    res = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                               n=32, margin=0.2)
    vol = u1_target.volume(n=64)
    d = bound_gap(res.config, P0, vol)[0]["degree"]
    # the windowed integral equals the windowed volume fraction exactly
    assert d == pytest.approx(np.cos(2 * 0.2), abs=2e-3)


def test_degree_independent_of_connection(u1_target):
    vol = u1_target.volume(n=64)
    degs = []
    for ax in (lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
               lambda th, x: 0.05 * np.sin(2 * th) * np.ones_like(x)):
        res = identity_u1_solution(ax, n=32, margin=0.2)
        degs.append(bound_gap(res.config, P0, vol)[0]["degree"])
    assert abs(degs[0] - degs[1]) < 1e-3


def test_degree_orientation_reversal(u1_target):
    res = identity_u1_solution(lambda th, x: np.zeros_like(th * x), n=24, margin=0.1)
    c = res.config
    flipped = dataclasses.replace(c, orientation=-1)
    vol = u1_target.volume(n=64)
    bg, bg_flipped = bound_gap(c, P0, vol)[0], bound_gap(flipped, P0, vol)[0]
    assert bg_flipped["degree"] == pytest.approx(-bg["degree"], rel=1e-12)
    assert bg_flipped["energy"] == pytest.approx(bg["energy"], rel=1e-12)


def test_charge_density_cross_check(u1_target):
    c = smooth_u1_configuration(u1_target, n=24)
    assert _margin_pass(c, P0)[0]["charge_cross"] < 1e-10


# -- residuals and the bound -------------------------------------------------------


def test_residual_linear_in_perturbation(u1_target):
    from skybps.cli import perturb_configuration

    base = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                                n=24, margin=0.2).config
    r0 = _margin_pass(base, P0)[0]["r1"]
    rs = []
    for eps in (0.02, 0.01, 0.005):
        c = perturb_configuration(base, eps, seed=1)
        rs.append(_margin_pass(c, P0)[0]["r1"] - r0)
    assert rs[0] / rs[1] == pytest.approx(2.0, rel=0.15)
    assert rs[1] / rs[2] == pytest.approx(2.0, rel=0.15)


def test_gap_positive_off_shell(u1_target):
    from skybps.cli import perturb_configuration

    base = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                                n=24, margin=0.2).config
    vol = u1_target.volume(n=64)
    assert abs(bound_gap(base, P0, vol)[0]["gap"]) < 1e-6
    pert = perturb_configuration(base, 0.05, seed=2)
    bg = bound_gap(pert, P0, vol)[0]
    assert bg["gap"] > 1e-4
    assert bg["decomposition_residual"] < 1e-10


def test_gap_quadratic_in_residuals(u1_target):
    # near a solution the gap is the integral of the squared residual forms,
    # so it scales quadratically with the perturbation size
    from skybps.cli import perturb_configuration

    base = identity_u1_solution(lambda th, x: 0.1 * np.sin(th) * np.ones_like(x),
                                n=24, margin=0.2).config
    vol = u1_target.volume(n=64)
    gaps = [bound_gap(perturb_configuration(base, eps, seed=3), P0, vol)[0]["gap"]
            for eps in (0.04, 0.02)]
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)


# -- SU(2) reduction ------------------------------------------------------------------


def test_su2_reduction_agreement(adjoint_round_target):
    c = smooth_adjoint_configuration(adjoint_round_target, n=32, seed=9)
    p = bps_coefficients(0.4, -0.3, 0.8)
    e1 = bound_gap(c, p, 1.0)[0]["energy"]
    U, A = su2_matrix_fields(c)
    e2 = energy_su2_reduced(U, A, c.grid, full_fields(c)[2], p, c.orientation)
    assert abs(e1 - e2) / abs(e1) < 1e-6


def test_su2_reduction_flat_connection_is_ungauged(adjoint_round_target):
    c0 = smooth_adjoint_configuration(adjoint_round_target, n=24, seed=4)
    phi, _, gM = full_fields(c0)
    c = from_arrays(c0.grid, c0.target, phi, None, gM)
    p = bps_coefficients(0.2, 0.5, -0.4)
    U, A = su2_matrix_fields(c)
    e_red = energy_su2_reduced(U, A, c.grid, gM, p, 1)
    # with F = 0 only the c1 and c2 terms survive: the ungauged Skyrme energy
    bg = bound_gap(c, p, 1.0)[0]
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
    bg1, bg2 = bound_gap(c, P0, vol)[0], bound_gap(c2, P0, vol)[0]
    e1, e2 = bg1["energy"], bg2["energy"]
    assert abs(e1 - e2) / abs(e1) < 1e-6
    assert abs(bg1["degree"] - bg2["degree"]) < 1e-6
    assert abs(bg1["r1"] - bg2["r1"]) < 1e-6
    assert abs(bg1["r2"] - bg2["r2"]) < 1e-6


# -- the slab pass against the full-grid, per-pair code it replaced, kept as reference --


def _fresh_copy(b, target=None):
    """The same configuration as a new object (optionally with another target)."""
    return dataclasses.replace(b, target=target or b.target)


def _fresh(family, n=16):
    """A family's configuration at its first default margin, as a new object."""
    return _fresh_copy(build_family({"family": family, "n": n},
                                    FAMILIES[family].margins[0])[0].config)


def _full_grid(c):
    """The five pullbacks, the base star and g_N, each formed on the full grid."""
    specs = standard_specs(c.target)
    pb = {k: specs[k].pullback(c) for k in ("sigma", "nu", "mu_sharp", "volume", "mu")}
    phi, _, gM = full_fields(c)
    return pb, hodge_star(gM, c.orientation), c.target.metric_fn(phi)


def _energy_per_pair(c, p):
    """The former energy density: one star application per pairing."""
    c1, c2, c3, c4, c5, c6 = p.c
    pb, star, gN = _full_grid(c)
    P = full_grid_field(c, "P")
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
    stard = star.on_1(full_grid_field(c, "P"))
    b = pb["sigma"] + 3.0 * pb["mu_sharp"]
    return _pair(stard, b, 2, star, gN)


def _bogomolny_per_pair(c, p):
    """The former bound_gap density and the sup norms of the two BPS equations."""
    pb, star, gN = _full_grid(c)
    stard = star.on_1(full_grid_field(c, "P"))
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


# (alpha, beta, gamma) and the star applications per slab: one to each of
# Sig, nu and mus for the energy terms, one each for the cross density, the
# first and the second BPS equation; nu's is skipped with c3 = gamma^2 = 0,
# the second equation's with alpha = beta = gamma = 0
PASS_PARAMS = [((0.3, -0.7, 0.5), 6),  # every coefficient nonzero
               ((0.0, 0.0, 0.0), 4), ((1.0, 2.0, 0.0), 5), ((0.0, 1.5, 1.0), 6)]


@pytest.mark.parametrize("family", ["spherical", "identity-u1"])
def test_bogomolny_pass_bit_identical_to_per_pair_code(family, monkeypatch):
    monkeypatch.setattr(grid, "_SLAB_POINTS", 6 * 16 * 16)  # slabs of 6, 6 and 4 rows
    real_on_2, starred = exterior.StarMap.on_2, []
    monkeypatch.setattr(exterior.StarMap, "on_2",
                        lambda self, dual: starred.append(1) or real_on_2(self, dual))
    c = _fresh(family)
    for params, stars in PASS_PARAMS:
        p = bps_coefficients(*params)
        # the reference forms every term, those with a coefficient 0 too
        ref = _energy_per_pair(c, p)
        pb, _, _ = _full_grid(c)
        ref["charge"] = pb["volume"] + pb["mu"]
        ref2, ref_r1, ref_r2 = _bogomolny_per_pair(c, p)
        six = sum(ref[k] for k in _TERMS)
        mismatch = ref["charge"] - _cross_per_pair(c) / 3.0
        formed = [k for k, coef in zip(_TERMS, p.c) if coef]
        slabs = c.grid.slabs()
        assert len(slabs) == 3
        for sl in slabs:
            starred.clear()
            dens, sup = _slab_pass(c, p, c.slab(sl), _slab_max)
            assert len(starred) == stars, params
            assert list(dens) == ["charge", *formed]
            for k, v in dens.items():
                assert np.array_equal(v, ref[k][sl]), (params, k)
            assert sup["six_max"] == float(np.max(np.abs(six[sl])))
            assert sup["decomposition"] == float(np.max(np.abs(ref2[sl] - six[sl])))
            assert sup["charge_max"] == float(np.max(np.abs(ref["charge"][sl])))
            assert sup["charge_cross"] == float(np.max(np.abs(mismatch[sl])))
        done = _margin_pass(c, p)[0]
        assert done["terms"] == {k: c.orientation * integrate(ref[k], c.grid) for k in _TERMS}
        for k in set(_TERMS) - set(formed):
            assert not np.any(ref[k]) and done["terms"][k] == 0.0, (params, k)
        assert done["charge"] == c.orientation * integrate(ref["charge"], c.grid)
        assert (done["r1"], done["r2"]) == (ref_r1, ref_r2)
        if not any(params):
            assert done["r2"] == 0.0
        assert bound_gap(c, p, 1.0)[0]["terms"] == done["terms"]


@pytest.mark.parametrize("family", ["spherical", "identity-u1", "dirac-monopole"])
def test_slabs_give_the_one_slab_values(family, monkeypatch):
    p = bps_coefficients(0.3, -0.7, 0.5)

    def run(points):
        monkeypatch.setattr(grid, "_SLAB_POINTS", points)
        c = _fresh(family, n=20)
        return c.grid.slabs(), bound_gap(c, p, 1.0)[0], _margin_pass(c, p)[0]

    slabs, bg, done = run(7 * 20 * 20)
    assert [s.stop - s.start for s in slabs] == [7, 7, 6]  # a short last slab
    one, bg1, done1 = run(20**3)
    assert one == [slice(0, 20)]
    assert bg == bg1
    assert done == done1


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_rows_equal_separate_calls(family):
    # one pass serves every margin: each row is a separate pass's over the
    # same sub-box of a fresh build at the smallest margin, and the finest
    # row is that build's whole grid
    report = run_verify({"family": family, "n": 16})
    cfg = report["config"]
    res, p = build_family(cfg, cfg["margins"][-1])
    assert [row["margin"] for row in report["rows"]] == cfg["margins"]
    for row in report["rows"]:
        insets = (row["margin"] - cfg["margins"][-1],)
        r = _margin_pass(res.config, p, insets=insets)[0]
        bg = bound_gap(_fresh_copy(res.config), p, report["volume_n"], insets=insets)[0]
        assert (row["r1"], row["r2"]) == (r["r1"], r["r2"]) == (bg["r1"], bg["r2"])
        assert (row["energy"], row["degree"], row["gap"]) == (bg["energy"], bg["degree"],
                                                              bg["gap"])
        assert row["terms"] == bg["terms"]
    whole = bound_gap(_fresh_copy(res.config), p, report["volume_n"])[0]
    assert report["rows"][-1]["energy"] == whole["energy"]
    assert report["rows"][-1]["degree"] == whole["degree"]


def _bps_sides(c, p):
    """star d^A phi - (Sig + 3 mus) and alpha Sig + beta mus + gamma nu on
    the full grid, as the per-pair code formed them."""
    pb, star, _ = _full_grid(c)
    diff = star.on_1(full_grid_field(c, "P")) - (pb["sigma"] + 3.0 * pb["mu_sharp"])
    second = p.alpha * pb["sigma"]
    second += p.beta * pb["mu_sharp"]
    second += p.gamma * pb["nu"]
    return diff, second


def _box_integral(f, g, inset):
    """Quadrature of the full-grid field f over the sub-box ``inset`` of g:
    the row sums with the sub-box's tensor-product weights, summed."""
    w0, w1, w2 = (g.axis_weights(i, inset) for i in range(3))
    w = w0[:, None, None] * w1[None, :, None] * w2[None, None, :]
    return float(np.sum(np.sum(f[g.box(inset)] * w, axis=(1, 2))))


@pytest.mark.parametrize("family", ["spherical", "identity-u1", "dirac-monopole"])
def test_coarse_rows_are_sub_box_reductions_of_full_grid_densities(family, monkeypatch):
    # the verify's one pass, in slabs of 6, 6 and 4 rows that the sub-boxes
    # cut across, against the whole-grid densities of the same build reduced
    # over each sub-box with its own weights and maxima; the sums are taken
    # in the pass's order, so every value is equal, not close
    monkeypatch.setattr(grid, "_SLAB_POINTS", 6 * 16 * 16)
    report = run_verify({"family": family, "n": 16})
    cfg = report["config"]
    res, p = build_family(cfg, cfg["margins"][-1])
    c, whole = res.config, slice(0, 16)
    ref = _energy_per_pair(c, p)
    pb, _, _ = _full_grid(c)
    charge = pb["volume"] + pb["mu"]
    diff, second = _bps_sides(c, p)
    checks = {name: fn(c.slab(whole)) for name, fn in res.checks}
    bianchi = c.bianchi_residual(c.slab(whole))
    insets = [m - cfg["margins"][-1] for m in cfg["margins"]]
    assert insets[-1] == 0.0
    assert report["checks"][c.target.has_moment_constraint + 1]["name"] == "bianchi_residual"
    assert report["checks"][c.target.has_moment_constraint + 1]["value"] == float(
        np.max(bianchi[(...,) + c.grid.box(insets[0])]))
    for row, inset in zip(report["rows"], insets):
        box = (...,) + c.grid.box(inset)
        for key, coef in zip(_TERMS, p.c):
            integral = c.orientation * _box_integral(ref[key], c.grid, inset) if coef else 0.0
            assert row["terms"][key] == integral, (inset, key)
        degree = c.orientation * _box_integral(charge, c.grid, inset) / report["volume_n"]
        assert row["degree"] == degree
        assert row["r1"] == float(np.max(np.abs(diff[box])))
        assert row["r2"] == float(np.max(np.abs(second[box])))
        for name, v in checks.items():
            assert row["extras"][name] == float(np.max(v[box])), name
        for name, fn, combine in c.diagnostics:
            v = np.broadcast_to(fn(whole), c.grid.shape)
            assert row["extras"][name] == float(combine.reduce(v[box], axis=None)), name


def _stars_of_one_pass(family, monkeypatch):
    """The stars that one pass with the family's checks forms, on slabs of 6,
    6 and 4 rows, and how often mat_inv is applied to each one's matrices."""
    monkeypatch.setattr(grid, "_SLAB_POINTS", 6 * 16 * 16)
    res, p = build_family({"family": family, "n": 16}, FAMILIES[family].margins[0])
    stars, inverted = [], []
    real_star, real_inv = gaugefield.hodge_star, exterior.mat_inv
    monkeypatch.setattr(gaugefield, "hodge_star",
                        lambda *args: stars.append(real_star(*args)) or stars[-1])
    monkeypatch.setattr(exterior, "mat_inv", lambda m: inverted.append(m) or real_inv(m))
    bound_gap(res.config, p, 1.0, res.checks)[0]
    assert len(res.config.grid.slabs()) == 3
    return len(stars), [sum(m is star.s or m is star.s_inv for m in inverted)
                        for star in stars]


def test_star_inverted_once_per_configuration(monkeypatch):
    # one pass per configuration: one star per slab, whose inverse is written
    # in closed form, so mat_inv never sees a star's matrix
    assert _stars_of_one_pass("spherical", monkeypatch) == (3, [0, 0, 0])


def test_family_check_reads_the_pass_star(monkeypatch):
    # the monopole's abelian BPS check stars d xi on each slab before the pass
    # does, and the pass reuses that star
    assert _stars_of_one_pass("dirac-monopole", monkeypatch) == (3, [0, 0, 0])


# -- the degree's contraction check ---------------------------------------------------


def test_degree_refuses_a_moment_map_failing_the_contraction_check():
    # su2-left: iota_nu(X) mu(X) = K/2 != 0 (see make_su2_left_target)
    c = _fresh_copy(_fresh("spherical"), make_su2_left_target(1.0))
    phi = full_fields(c)[0]
    kil, mu = c.target.killing_fn(phi), c.target.mu_fn(phi)
    assert _contraction_asymmetry(kil, mu, _slab_max) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(MomentConditionFailed, match="contraction constraint"):
        bound_gap(c, P0, 1.0)[0]


@pytest.mark.parametrize("family", sorted(FAMILIES) + ["su2-left"])
def test_contraction_asymmetry_matches_einsum(family):
    if family == "su2-left":
        c = _fresh_copy(_fresh("spherical"), make_su2_left_target(1.0))
    else:
        c = _fresh(family)
    phi = full_fields(c)[0]
    kil, mu = c.target.killing_fn(phi), c.target.mu_fn(phi)
    q = np.einsum("amxyz,bmxyz->abxyz", kil, mu)
    old = float(np.max(np.abs(0.5 * (q + np.swapaxes(q, 0, 1)))))
    scale = max(old, float(np.max(np.abs(mu))), 1.0)
    assert abs(_contraction_asymmetry(kil, mu, _slab_max) - old) <= 1e-14 * scale
