"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import numpy as np
import pytest

from conftest import smooth_adjoint_configuration, smooth_u1_configuration
from oracles import (
    adjoint_profiles,
    bps2_scalar_conditions,
    energy_su2_reduced,
    full_fields,
    gauge_transform,
    integrate,
    over_slabs,
    recover_metric,
    round_s3_family,
    spherical_round_target_metric,
    standard_specs,
    star_trace_residual,
    su2_matrix_fields,
)
from skybps.energy_degree import _margin_pass, bound_gap, bps_coefficients
from skybps.exterior import Metric3, hodge_star
from skybps.gaugefield import naturality_check_specs, pullback_naturality_residual
from skybps.grid import extrapolate_margin
from skybps.lie_target import (
    eta2_zero_family,
    left_action_obstruction,
    make_adjoint_interval_target,
    make_su2_left_target,
    monopole_family,
    u1_s3_adjoint_target,
    verify_moment_conditions,
)
from skybps.solutions import (
    dirac_monopole,
    identity_u1_solution,
    mercator_sphere,
    spherical_solution,
    spinorial_solution,
    symplectic_solution,
    twisted_spinorial_solution,
)

P0 = bps_coefficients(0.0, 0.0, 0.0)


def report(num: int, desc: str, entries):
    """Print one line per criterion and fail with the offending entries."""
    bad = [e for e in entries if not e[1]]
    status = "PASS" if not bad else "FAIL"
    print(f"[{status}] acceptance {num}: {desc}")
    assert not bad, f"criterion {num} failed: {[e[0] for e in bad]}"


AX = lambda th, x: 0.1 * np.sin(th) * np.ones_like(x)


def test_criterion_01_parameter_map():
    c = bps_coefficients(0, 0, 0).c
    report(1, "coefficient map at (0,0,0) equals (1,1,0,9,0,6) exactly",
           [("c", c == (1.0, 1.0, 0.0, 9.0, 0.0, 6.0))])


def test_criterion_02_ungauged_saturation():
    res = identity_u1_solution(lambda th, x: np.zeros_like(th * x), n=48, margin=0.02)
    e = bound_gap(res.config, P0, 1.0)[0]["energy"]
    rel = abs(e - 12 * np.pi**2) / (12 * np.pi**2)
    report(2, f"round-sphere isometry energy 12 pi^2 within 0.5% (rel={rel:.2e})",
           [("energy", rel < 5e-3)])


def test_criterion_03_identity_u1_family():
    entries = []
    r_by_n = {}
    for n in (48, 96):
        res = identity_u1_solution(AX, n=n, margin=0.2)
        r_by_n[n] = _margin_pass(res.config, P0)[0]
    entries.append(("r1@48 < 5e-4", r_by_n[48]["r1"] < 5e-4))
    entries.append(("r2@48 < 5e-4", r_by_n[48]["r2"] < 5e-4))
    decay = r_by_n[48]["r1"] / max(r_by_n[96]["r1"], 1e-300)
    entries.append(("r1 O(h^4) decay", decay > 8.0 or r_by_n[48]["r1"] < 1e-12))

    target = res.config.target
    vol = target.volume()
    margins = [0.36, 0.24, 0.16]
    degs = [bound_gap(identity_u1_solution(AX, n=48, margin=m).config, P0, vol)[0]["degree"]
            for m in margins]
    d = extrapolate_margin(margins, degs)
    entries.append((f"degree {d:.5f} within 1e-2 of 1", abs(d - 1.0) < 1e-2))
    report(3, "U(1) identity family: residuals, degree", entries)


def test_criterion_04_dirac_monopole():
    res = dirac_monopole(n=48, r_window=(0.5, 2.0))
    abelian = over_slabs(res.config, dict(res.checks)["abelian_bps_residual"])
    entries = [(f"abelian residual {abelian:.2e} < 1e-5", abelian < 1e-5)]
    sig = standard_specs(res.config.target)["sigma"].pullback(res.config)
    entries.append((f"sigma pullback {np.max(np.abs(sig)):.2e} < 1e-12",
                    float(np.max(np.abs(sig))) < 1e-12))
    report(4, "Dirac monopole window", entries)


def test_criterion_05_spinorial_family():
    entries = []
    f_res = {}
    for n in (48, 96):
        res = spinorial_solution(n=n, margin=0.1)
        f_res[n] = over_slabs(res.config, dict(res.checks)["curvature_identity_residual"])
    entries.append((f"curvature identity {f_res[48]:.2e} at 48", f_res[48] < 1e-4))
    entries.append(("curvature identity O(h^4) decay", f_res[48] / f_res[96] > 8.0))

    res48 = spinorial_solution(n=48, margin=0.1)
    r = _margin_pass(res48.config, P0)[0]
    entries.append((f"r1={r['r1']:.2e} < 5e-4", r["r1"] < 5e-4))
    entries.append((f"r2={r['r2']:.2e} < 5e-4", r["r2"] < 5e-4))

    target = res48.config.target
    vol = target.volume()
    margins = [0.2, 0.1, 0.05]
    degs = [bound_gap(spinorial_solution(n=48, margin=m).config, P0, vol)[0]["degree"]
            for m in margins]
    d = extrapolate_margin(margins, degs)
    entries.append((f"degree {d:.5f} = chi(S^2)/2 within 1e-2", abs(d - 1.0) < 1e-2))

    c = res48.config
    vol_m = integrate(np.sqrt(full_fields(c)[2].det()), c.grid)
    xi_w = c.grid.axis_weights(0)
    h2sq = np.sin(c.grid.axis_points(0)) ** 2
    # spinorial_solution's default surface is the unit sphere: chi = 2, area 4 pi
    rhs = float(np.sum(h2sq * xi_w)) * (6 * np.pi * 2 - 2 * 4 * np.pi)
    entries.append((f"volume identity rel err {abs(vol_m - rhs) / rhs:.2e} < 1%",
                    abs(vol_m - rhs) < 0.01 * abs(rhs)))

    fam = round_s3_family()
    flagged = spinorial_solution(surface=mercator_sphere(0.5), fam=fam, n=24, margin=0.1)
    xi = flagged.config.grid.meshes()[0]
    coef = fam.h2(xi) ** 2 + 1.5 * fam.eta1(xi) * (1.0 - 0.5)
    mask = ~full_fields(flagged.config)[2].riemannian_mask()
    done = _margin_pass(flagged.config, P0)[0]
    entries.append(("non-riemannian flag matches coefficient sign",
                    bool(np.all(mask == (coef <= 0))) and bool(mask.any())
                    and not done["riemannian"]
                    and done["diagnostics"]["conformal_coefficient_min"] <= 0))
    report(5, "spinorial family", entries)


def test_criterion_06_twisted_spinorial():
    entries = []
    alpha, beta, gamma = -2.0, 2.0, 0.5
    rt = twisted_spinorial_solution(alpha=alpha, gamma=gamma, beta=beta, n=48)
    entries.append(("B = alpha/(2 gamma)",
                    np.all(full_fields(rt.config)[1][0, 0] == alpha / (2 * gamma))))
    conds = bps2_scalar_conditions(rt, alpha, beta, gamma)
    entries.append((f"three scalar conditions max {max(conds):.2e} < 5e-4",
                    max(conds) < 5e-4))
    r = _margin_pass(rt.config, bps_coefficients(alpha, beta, gamma))[0]
    entries.append((f"r1={r['r1']:.2e}, r2={r['r2']:.2e} < 5e-4",
                    r["r1"] < 5e-4 and r["r2"] < 5e-4))

    rt0 = twisted_spinorial_solution(alpha=0.0, gamma=0.7, n=32)
    rs0 = spinorial_solution(surface=mercator_sphere(1.0),
                             fam=eta2_zero_family(np.sin, (0.0, np.pi), compact="s3"),
                             n=32)
    (phi_t, A_t, g_t), (phi_s, A_s, g_s) = full_fields(rt0.config), full_fields(rs0.config)
    diff = max(float(np.max(np.abs(phi_t - phi_s))), float(np.max(np.abs(A_t - A_s))),
               float(np.max(np.abs(g_t.g - g_s.g))))
    entries.append((f"alpha=0 limit coincides with spinorial ({diff:.1e} <= 1e-12)",
                    diff <= 1e-12))
    report(6, "twisted spinorial family", entries)


def test_criterion_07_spherical_family():
    entries = []
    res = spherical_solution(1.0, -1.0, 1.0, 2.0, n=48)
    entries.append((f"BPS2a {res.diagnostics['bps2a_residual']:.2e} < 5e-4",
                    res.diagnostics["bps2a_residual"] < 5e-4))
    entries.append((f"BPS2b {res.diagnostics['bps2b_residual']:.2e} < 5e-4",
                    res.diagnostics["bps2b_residual"] < 5e-4))
    p = bps_coefficients(1.0, 2.0, 0.0)
    r = _margin_pass(res.config, p)[0]
    entries.append((f"r1={r['r1']:.2e}, r2={r['r2']:.2e} < 5e-4",
                    r["r1"] < 5e-4 and r["r2"] < 5e-4))
    bg = bound_gap(res.config, p, res.config.target.volume())[0]
    entries.append((f"gap {abs(bg['gap'] / bg['energy']):.2e} < 1% of E",
                    abs(bg["gap"]) < 0.01 * abs(bg["energy"])))

    special = spherical_solution(1.0, -1.0, 1.0, 2.0, n=8,
                                 h1=lambda xi: 1.0 / (1.0 + xi**2))
    xi = np.linspace(0.25, 1.45, 129)
    h1sq, h2sq, _, _ = adjoint_profiles(special.config.target, xi)
    err = max(float(np.max(np.abs(h1sq - spherical_round_target_metric(xi)[0]))),
              float(np.max(np.abs(h2sq - np.sin(np.arctan(xi)) ** 2))))
    entries.append((f"round-sphere target after arctan to 1e-8 ({err:.1e})",
                    err < 1e-8))
    report(7, "spherical family", entries)


def test_criterion_08_symplectic_family():
    entries = []
    res = symplectic_solution(n=48)
    r = _margin_pass(res.config, bps_coefficients(0.0, 1.0, 0.0))[0]
    norm = r["diagnostics"]["normalization_residual"]
    entries.append((f"normalization {norm:.2e} < 1e-10", norm < 1e-10))
    entries.append((f"r1={r['r1']:.2e}, r2={r['r2']:.2e} < 5e-4",
                    r["r1"] < 5e-4 and r["r2"] < 5e-4))
    val = res.diagnostics["omega_c_integral_over_2pi"]
    entries.append((f"int omega_C / 2 pi = {val:.4f} = 2 within 2e-2",
                    abs(val - 2.0) < 2e-2))
    report(8, "symplectic family", entries)


def test_criterion_09_pullback_properties():
    entries = []
    target = u1_s3_adjoint_target()
    c = smooth_u1_configuration(target, n=48)
    named = dict(naturality_check_specs(target))
    nat = over_slabs(c, lambda slab: pullback_naturality_residual(c, named["mu-1form"], slab))
    entries.append((f"naturality residual for the moment 1-form {nat:.2e} < 1e-5",
                    nat < 1e-5))

    # gauge invariance of E, deg, r1, r2 under a finite u(1) transform
    res = identity_u1_solution(AX, n=48, margin=0.2)
    vol = target.volume()
    c0 = res.config
    th, x, _ = c0.grid.meshes()
    lx = c0.grid.hi_eff[1] - c0.grid.lo_eff[1]
    lam = (0.02 * np.sin(th) * np.sin(np.pi * (x - c0.grid.lo_eff[1]) / lx))[None]
    c1 = gauge_transform(c0, lam)
    bg0, bg1 = bound_gap(c0, P0, vol)[0], bound_gap(c1, P0, vol)[0]
    rel = max(abs(bg0[k] - bg1[k]) / max(abs(bg0[k]), 1.0)
              for k in ("energy", "degree", "r1", "r2"))
    entries.append((f"u(1) gauge invariance of E, deg, r1, r2 ({rel:.2e} < 1e-6)",
                    rel < 1e-6))

    # and under a finite su(2) transform of the spinorial configuration
    sp = spinorial_solution(n=48, margin=0.1)
    c0 = sp.config
    vol = c0.target.volume()
    X, Y, Z = c0.grid.meshes()
    lam = 0.02 * np.stack([np.sin(X + a) * np.cos(0.5 * Y) for a in range(3)])
    c1 = gauge_transform(c0, lam)
    bg0, bg1 = bound_gap(c0, P0, vol)[0], bound_gap(c1, P0, vol)[0]
    rel = max(abs(bg0[k] - bg1[k]) / max(abs(bg0[k]), 1.0)
              for k in ("energy", "degree", "r1", "r2"))
    entries.append((f"su(2) gauge invariance of E, deg, r1, r2 ({rel:.2e} < 1e-6)",
                    rel < 1e-6))
    report(9, "pullback gauge invariance and naturality", entries)


def test_criterion_10_moment_machinery():
    entries = []
    shipped = {
        "u1-s3": u1_s3_adjoint_target(),
        "adjoint-round": make_adjoint_interval_target(round_s3_family()),
        "adjoint-eta2-zero": make_adjoint_interval_target(
            eta2_zero_family(np.sin, (0.0, np.pi), compact="s3")),
        "monopole-window": make_adjoint_interval_target(monopole_family()),
    }
    for name, t in shipped.items():
        r = verify_moment_conditions(t, n=32)
        ok = r["def_residual"] < 1e-6 and r["constraint_residual"] < 1e-6
        entries.append((f"{name}: def={r['def_residual']:.1e} "
                        f"constraint={r['constraint_residual']:.1e}", ok))
    left = make_su2_left_target(1.0)
    r = verify_moment_conditions(left, n=32)
    entries.append((f"su2-left def residual {r['def_residual']:.1e} < 1e-6",
                    r["def_residual"] < 1e-6))
    for k in (1.0, 2.0):
        val = left_action_obstruction(k)
        entries.append((f"obstruction(K={k}) = {val:.6f} = K/2, nonzero",
                        abs(val - k / 2) < 1e-6 and val > 0.1))
    report(10, "moment-map machinery and the left-action dichotomy", entries)


def test_criterion_11_hodge_star_lemma():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(1000, 3, 3))
    gm = np.einsum("nab,ncb->nac", a, a) + 0.5 * np.eye(3)
    metrics = Metric3(np.moveaxis(gm, 0, -1)[:, :, :, None, None])
    star = hodge_star(metrics, 1)
    res = star_trace_residual(star.s)
    rec = recover_metric(star.s)
    err = float(np.max(np.abs(rec.g - metrics.g))) / float(np.max(np.abs(metrics.g)))
    report(11, f"trace identity ({res:.1e} < 1e-12) and metric recovery "
               f"({err:.1e} < 1e-10) over 1000 random SPD metrics",
           [("trace", res < 1e-12), ("roundtrip", err < 1e-10)])


def test_criterion_12_su2_reduction():
    target = make_adjoint_interval_target(round_s3_family())
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(20):
        c = smooth_adjoint_configuration(target, n=32, seed=int(rng.integers(1 << 30)))
        p = bps_coefficients(*rng.uniform(-1.0, 1.0, size=3))
        e1 = bound_gap(c, p, 1.0)[0]["energy"]
        U, A = su2_matrix_fields(c)
        e2 = energy_su2_reduced(U, A, c.grid, full_fields(c)[2], p, c.orientation)
        worst = max(worst, abs(e1 - e2) / max(abs(e1), 1e-10))
    report(12, f"SU(2) reduction agrees with the energy on 20 random "
               f"configurations (worst rel {worst:.1e} < 1e-6)",
           [("agreement", worst < 1e-6)])
