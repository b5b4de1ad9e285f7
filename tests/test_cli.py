import csv
import json
import math
import os
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from skybps import cli, lie_target, solutions
from skybps.cli import FAMILIES, build_family, build_target, main, run_sweep, run_verify
from skybps.errors import ConfigError
from skybps.exprs import Expression


# -- expression evaluator ------------------------------------------------------


def test_expression_basics():
    e = Expression("0.1*sin(theta) + x^2 - 3/4")
    assert set(e.variables) == {"theta", "x"}
    got = e(theta=np.pi / 2, x=2.0)
    assert got == pytest.approx(0.1 + 4 - 0.75)


def test_expression_precedence_and_unary():
    assert Expression("2+3*4")() == 14
    assert Expression("-2^2")() == -4  # unary minus binds looser than power
    assert Expression("2^3^2")() == 512  # right associative
    assert Expression("(2+3)*4")() == 20
    assert Expression("sqrt(pi*pi)")() == pytest.approx(np.pi)
    assert Expression("ln(exp(2))")() == pytest.approx(2.0)


def test_expression_complex_safe():
    e = Expression("sin(x)*cos(x)")
    h = 1e-30
    d = np.imag(e(x=0.7 + 1j * h)) / h
    assert d == pytest.approx(np.cos(1.4), rel=1e-12)


def test_expression_errors():
    with pytest.raises(ConfigError):
        Expression("foo(x)")
    with pytest.raises(ConfigError):
        Expression("1 +")
    with pytest.raises(ConfigError):
        Expression("a ? b")
    with pytest.raises(ConfigError):
        Expression("sin(x")
    with pytest.raises(ConfigError):
        Expression("x")(y=1.0)


@pytest.mark.parametrize("text,value", [
    ("007", 7.0), ("00.5", 0.5), ("1.e5", 1e5), (".25", 0.25), ("1e007", 1e7), ("--x", 2.0),
    ("2^-1", 0.5), ("-x^2", -4.0), ("2^-x^2", 2.0**-4), (" x\n*\t3 ", 6.0), ("1/x^0", 1.0),
])
def test_expression_grammar_accepts(text, value):
    got = Expression(text)(x=2.0)
    assert got == value and type(got) is float


@pytest.mark.parametrize("text", [
    "x**2", "cos(x,)", "0x1", "1_0", "3j", "+x", "x.y", "True", "\u03b8", "pi(x)",
    "sin(x)(y)", "x//2", "sin", "(" * 250 + "x" + ")" * 250, "+".join(["x"] * 3000),
], ids=["power", "trailing-comma", "hex", "underscore", "imaginary", "unary-plus",
        "attribute", "keyword", "non-ascii", "call-pi", "call-call", "floor-div",
        "bare-function", "250-parens", "3000-terms"])
def test_expression_grammar_rejects(text):
    with pytest.raises(ConfigError):
        Expression(text)


@pytest.mark.parametrize("text", ["1/0*sin(theta)", "10^10^10*sin(theta)"])
def test_expression_arithmetic_errors_are_config_errors(text):
    e = Expression(text)
    with pytest.raises(ConfigError):
        e(theta=1.0)


@pytest.mark.parametrize("ax,code", [
    ("(" * 250 + "theta" + ")" * 250, 2), ("+".join(["theta"] * 3000), 2),
    ("1/0*sin(theta)", 2), ("10^10^10*sin(theta)", 2), ("sin(theta)/0", 1),
], ids=["250-parens", "3000-terms", "zero-division", "overflow", "non-finite"])
def test_bad_ax_exits_cleanly(tmp_path, ax, code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    res = subprocess.run([sys.executable, "-m", "skybps.cli", "verify", "--family",
                          "identity-u1", "-n", "12", "--ax", ax, "--output-dir", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    assert ("config error:" if code == 2 else "verification error: NonFinite") in res.stderr


# -- configuration validation ----------------------------------------------------


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError):
        run_verify({"family": "identity-u1", "n": 16, "bogus": 1})
    with pytest.raises(ConfigError):
        run_verify({"family": "identity-u1", "tolerances": {"weird": 1.0}})
    with pytest.raises(ConfigError):
        run_verify({"family": "identity-u1", "family_params": {"nope": 2}})


def test_missing_family_rejected():
    with pytest.raises(ConfigError):
        run_verify({"n": 16})


def test_bad_margin_lists_rejected():
    base = {"family": "identity-u1", "n": 16}
    with pytest.raises(ConfigError):
        run_verify({**base, "margins": [0.1, 0.2]})  # not decreasing
    with pytest.raises(ConfigError):
        run_verify({**base, "margins": [0.3, 0.2, 0.05]})  # not geometric
    with pytest.raises(ConfigError):
        run_verify({**base, "margins": [0.2, -0.1]})


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    assert main(["verify", "--family", "no-such-family",
                 "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("cfg", [
    {"family": "identity-u1", "n": "abc"},
    {"family": "identity-u1", "n": 16.5},
    {"family": "identity-u1", "n": -3},
    {"family": "identity-u1", "n": True},
    {"family": "identity-u1", "margins": "x"},
    {"family": "identity-u1", "tolerances": {"residual": "x"}},
    {"family": "identity-u1", "perturb": {"eps": "a"}},
    {"family": "identity-u1", "seed": 1.5},
    {"family": "identity-u1", "seed": 1},
    [{"family": "identity-u1"}],
    {"family": "spherical", "family_params": {"c1": "abc"}},
    {"family": "dirac-monopole", "bps": {"alpha": "x"}},
    {"family": "identity-u1", "bps": {"alpha": 5, "beta": 3, "gamma": 2}},
    {"family": "dirac-monopole", "family_params": {"alpha": "x"}},
    {"family": "spinorial", "surface": {"curvature": "x"}},
], ids=["n-str", "n-float", "n-negative", "n-bool", "margins-str", "tol-str",
        "eps-str", "seed-float", "seed-unused", "top-level-list", "c1-str", "bps-alpha-str",
        "bps-section", "monopole-alpha-str", "curvature-str"])
def test_mistyped_config_exit_2(tmp_path, cfg):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 2


# -- the family table ----------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_builds_on_first_default_margin(family):
    res, _ = build_family({"family": family, "n": 16}, FAMILIES[family].margins[0])
    assert res.family == family
    assert res.config.grid.shape == (16, 16, 16)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unknown_family_param_exit_2(tmp_path, family):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": family, "n": 16,
                                    "family_params": {"bogus": 1.0}}))
    assert main(["verify", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("family,section", [
    (f, s) for f in sorted(FAMILIES) for s in ("surface", "target")
    if s not in FAMILIES[f].sections])
def test_unread_section_exit_2(tmp_path, family, section):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": family, "n": 16, section: {"name": "x"}}))
    assert main(["verify", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 2


# one parser for the adjoint-interval section; the spinorial path fixes h1 = 1
_ADJOINT_SECTION = {"name": "adjoint-interval", "h2": "sin(xi)", "eta1": "-2*sin(xi)^2"}
_ADJOINT_OPTIONAL = {"h1": "1", "eta2": "0", "interval": [0.0, 3.0], "compact": "s3"}


@pytest.mark.parametrize("key", sorted(_ADJOINT_OPTIONAL) + ["bogus"])
def test_adjoint_interval_section_keys(key):
    section = dict(_ADJOINT_SECTION, **{key: _ADJOINT_OPTIONAL.get(key, 1.0)})
    if key == "bogus":
        with pytest.raises(ConfigError):
            build_target(section)
    else:
        build_target(section)
    if key in ("bogus", "h1"):
        with pytest.raises(ConfigError):
            cli._spinorial_family_from_target(section)
    else:
        cli._spinorial_family_from_target(section)


def test_adjoint_interval_parsers_agree():
    section = dict(_ADJOINT_SECTION, interval=[0.1, 3.0])
    fam = cli._spinorial_family_from_target(section)
    ref = build_target(section).extras["family"]
    xi = np.linspace(0.2, 2.9, 7)
    assert np.array_equal(fam.h1(xi), np.ones_like(xi))
    for name in ("h1", "h2", "eta1", "eta2"):
        assert np.array_equal(getattr(fam, name)(xi), getattr(ref, name)(xi))
    assert (fam.interval, fam.compact) == (ref.interval, ref.compact) == ((0.1, 3.0), None)


def test_run_verify_frees_each_margin_before_the_next(monkeypatch):
    built, alive_at_build = [], []

    def spy(cfg, margin):
        alive_at_build.append([ref() is not None for ref in built])
        res, p = build_family(cfg, margin)
        built.append(weakref.ref(res.config))
        return res, p

    monkeypatch.setattr(cli, "build_family", spy)
    report = run_verify({"family": "spherical", "n": 16})
    assert len(report["rows"]) == 3
    assert alive_at_build == [[], [False], [False, False]]


def test_dirac_monopole_takes_bps_params(tmp_path):
    # BPS2 on the monopole needs beta = 0; alpha alone leaves it solved
    out = tmp_path / "beta"
    assert main(["verify", "--family", "dirac-monopole", "-n", "32", "--beta", "0.5",
                 "--output-dir", str(out)]) == 1
    rep = json.loads((out / "report.json").read_text())
    r1 = [c["pass"] for c in rep["checks"] if c["name"].startswith("r1[")]
    r2 = [c["pass"] for c in rep["checks"] if c["name"].startswith("r2[")]
    assert len(r1) == len(r2) == 3 and all(r1) and not any(r2)
    with open(out / "results.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(json.loads(r["params"]) == {"beta": 0.5} for r in rows)
    assert main(["verify", "--family", "dirac-monopole", "-n", "32", "--alpha", "0.5",
                 "--output-dir", str(tmp_path / "alpha")]) == 0


@pytest.mark.parametrize("flags", [["--margins", "a,b"], ["-n", "0"]],
                         ids=["margins", "n-zero"])
def test_bad_flags_exit_2(tmp_path, flags):
    assert main(["verify", "--family", "identity-u1", *flags,
                 "--output-dir", str(tmp_path)]) == 2


def test_obstruction_command(tmp_path, capsys):
    code = main(["obstruction", "--K", "2.0", "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.0" in out
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["obstruction"] == pytest.approx(1.0, abs=1e-6)
    assert main(["obstruction", "--K", "0"]) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K, code", [("nan", 2), ("inf", 2), ("-inf", 2), ("1e308", 1)])
def test_obstruction_non_finite_exits_cleanly(tmp_path, capsys, K, code):
    # 1e308 is finite, but its constant overflows to inf
    assert main(["obstruction", f"--K={K}", "--output-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert ("config error" if code == 2 else "NonFinite") in err
    assert not (tmp_path / "report.json").exists()


# -- verify ------------------------------------------------------------------------


def verify_cfg(tmp_path):
    return {
        "family": "identity-u1",
        "n": 32,
        "margins": [0.3, 0.2],
        "family_params": {"ax": "0.1*sin(theta)"},
        "output_dir": str(tmp_path),
    }


def test_verify_identity_u1(tmp_path):
    rep = run_verify(verify_cfg(tmp_path))
    assert rep["exit"] == 0
    assert abs(rep["degree_extrapolated"] - 1.0) < 1e-2
    names = {c["name"] for c in rep["checks"]}
    assert any(n.startswith("naturality") for n in names)
    assert "bianchi_residual" in names


def test_verify_cli_outputs_and_determinism(tmp_path):
    cfg = verify_cfg(tmp_path / "a")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_file),
                 "--output-dir", str(tmp_path / "a")]) == 0
    csv_a = (tmp_path / "a" / "results.csv").read_text()
    rep_a = (tmp_path / "a" / "report.json").read_text()
    assert csv_a.splitlines()[0] == "family,params,n,margin,E,deg,bound,gap,r1,r2,exit"
    assert main(["verify", "--config", str(cfg_file),
                 "--output-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "results.csv").read_text() == csv_a
    assert (tmp_path / "b" / "report.json").read_text() == rep_a


def test_nonriemannian_base_metric_fails_every_row():
    # the conformal coefficient sin^2 xi (3K - 2) is negative at K = 0.5, while
    # det g_M > 0 still lets the star build
    rep = run_verify({"family": "spinorial", "surface": {"curvature": 0.5}, "n": 16})
    assert rep["exit"] == 1
    verdicts = {c["name"]: c["pass"] for c in rep["checks"]}
    target_level = ["moment_def_residual", "moment_constraint_residual", "bianchi_residual",
                    "naturality[radial-1form]", "naturality[radial-area-2form]",
                    "charge_density_cross"]
    margins = ["riemannian[m=0.2]", "riemannian[m=0.1]", "riemannian[m=0.05]"]
    assert list(verdicts) == target_level + margins
    assert all(verdicts[name] for name in target_level)
    assert not any(verdicts[name] for name in margins)
    assert len(rep["rows"]) == 3
    for row in rep["rows"]:
        assert row["exit"] == 1
        assert all(math.isnan(row[k]) for k in ("energy", "degree", "bound", "gap", "r1", "r2"))
    assert rep["degree_extrapolated"] is None


def test_verify_tolerance_failure_exit_1(tmp_path):
    cfg = verify_cfg(tmp_path)
    cfg["perturb"] = {"eps": 0.02, "seed": 0}
    rep = run_verify(cfg)
    assert rep["exit"] == 1
    assert any(not c["pass"] for c in rep["checks"])


def test_emit_gnuplot(tmp_path):
    cfg = verify_cfg(tmp_path)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_file), "--emit-gnuplot",
                 "--output-dir", str(tmp_path)]) == 0
    dat = (tmp_path / "results.dat").read_text()
    assert dat.startswith("# margin E deg gap r1 r2")


def test_output_dir_flag_over_config_over_cwd(tmp_path, monkeypatch):
    cfg = {"family": "identity-u1", "n": 16, "margins": [0.3, 0.2],
           "output_dir": str(tmp_path / "from-config")}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_file)]) in (0, 1)
    assert (tmp_path / "from-config" / "report.json").exists()
    assert main(["verify", "--config", str(cfg_file),
                 "--output-dir", str(tmp_path / "from-flag")]) in (0, 1)
    assert (tmp_path / "from-flag" / "report.json").exists()
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--family", "identity-u1", "-n", "16", "--margins", "0.3,0.2"]) in (0, 1)
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key, value", [("output_dir", 3), ("output_dir", None),
                                        ("emit_gnuplot", "no"), ("emit_gnuplot", 1)])
def test_mistyped_output_keys_exit_2(tmp_path, key, value):
    cfg = {"family": "identity-u1", "n": 16, "output_dir": str(tmp_path), key: value}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_file)]) == 2
    assert not (tmp_path / "report.json").exists()


def test_emit_gnuplot_from_config(tmp_path):
    for emit in (False, True):
        out = tmp_path / str(emit)
        cfg = {"family": "identity-u1", "n": 16, "margins": [0.3, 0.2],
               "output_dir": str(out), "emit_gnuplot": emit}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cfg_file)]) in (0, 1)
        assert (out / "results.dat").exists() == emit


# -- sweep ---------------------------------------------------------------------------


def test_sweep_empty_grid(tmp_path):
    rep = run_sweep({
        "family": "identity-u1", "n": 16, "margins": [0.2],
        "sweep": {"param": "family_params.ax", "values": []},
    })
    assert rep["exit"] == 0
    assert rep["points"] == []


@pytest.mark.parametrize("sweep", [
    "x",
    {"param": "family_params.ax", "values": 5},
    {"param": 7, "values": [1]},
    {"param": "n.x", "values": [1]},
], ids=["not-an-object", "values-not-a-list", "param-not-a-string", "param-through-int"])
def test_malformed_sweep_exits_2(tmp_path, sweep):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "identity-u1", "n": 12, "margins": [0.2],
                                    "sweep": sweep}))
    assert main(["sweep", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "report.json").exists()


def test_non_integer_thread_count_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SKYRME_THREADS", "abc")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "family": "identity-u1", "n": 12, "margins": [0.2],
        "sweep": {"param": "family_params.ax", "values": ["0.05*sin(theta)"]},
    }))
    assert main(["sweep", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 2
    assert "SKYRME_THREADS" in capsys.readouterr().err


# -- the memory estimate --------------------------------------------------------


@pytest.mark.parametrize("n", [16, 24])
def test_footprint_bounds_the_traced_peak_within_3x(n, monkeypatch):
    import tracemalloc

    for family in sorted(FAMILIES):
        # fresh targets, so that Vol(N) and the moment check run and count
        monkeypatch.setattr(lie_target, "_SHARED", {})
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_verify({"family": family, "n": n})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = cli._footprint(n, FAMILIES[family].algebra_dim)
        assert peak <= estimate <= 3 * peak, (family, peak, estimate)


def test_footprint_grows_with_the_held_fields():
    # from the point where one-row slabs keep the slab's share small, the
    # estimate grows as n^3 times a fixed count of fields
    ratio = cli._footprint(256, 3) / cli._footprint(128, 3)
    assert 7.0 < ratio <= 8.0
    assert cli._footprint(24, 3) > cli._footprint(24, 1)  # A and the moment check


def test_run_refused_when_memory_is_short(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_mem_available", lambda: 2**20)  # 1 MB
    built = []
    monkeypatch.setattr(cli, "build_family", lambda *a: built.append(a))
    code = main(["verify", "--family", "spherical", "-n", "16", "--output-dir", str(tmp_path)])
    assert code == 2 and built == []
    err = capsys.readouterr().err
    assert "config error: n = 16 needs about" in err and "1 MB available" in err
    assert not (tmp_path / "report.json").exists()


def test_mem_available_reads_meminfo():
    avail = cli._mem_available()
    assert avail is None or avail > 0


def test_sweep_spherical_c1(tmp_path, monkeypatch):
    monkeypatch.setenv("SKYRME_THREADS", "2")
    # n = 24 keeps the test quick; FD-sized tolerances are scaled accordingly
    # (the 48-point defaults are exercised by the acceptance suite)
    rep = run_sweep({
        "family": "spherical",
        "n": 24,
        "margins": [0.06],
        "family_params": {"alpha": 1.0, "beta": 2.0},
        "tolerances": {"residual": 5e-3, "bianchi": 2e-4, "naturality": 2e-4},
        "sweep": {"param": "family_params.c1", "values": [0.5, 1.0, 2.0]},
    })
    assert rep["exit"] == 0
    assert len(rep["points"]) == 3
    gaps = [abs(p["rows"][0]["gap"]) / p["rows"][0]["energy"] for p in rep["points"]]
    assert max(gaps) < 0.01


def test_sweep_outputs_identical_across_thread_counts(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "family": "identity-u1",
        "n": 16,
        "margins": [0.36, 0.24, 0.16],
        "sweep": {"param": "family_params.ax",
                  "values": ["0.05*sin(theta)", "0.08*sin(theta + 1.3)"]},
    }))
    for threads in ("1", "2"):
        monkeypatch.setenv("SKYRME_THREADS", threads)
        assert main(["sweep", "--config", str(cfg_file),
                     "--output-dir", str(tmp_path / threads)]) == 0
    for name in ("report.json", "results.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_sweep_perturbation_monotone():
    rep = run_sweep({
        "family": "identity-u1",
        "n": 16,
        "margins": [0.2],
        "family_params": {"ax": "0.1*sin(theta)"},
        "sweep": {"param": "perturb.eps", "values": [0.0, 0.01, 0.02, 0.04]},
    })
    r1s = [p["rows"][0]["r1"] for p in rep["points"]]
    assert all(a < b for a, b in zip(r1s, r1s[1:]))


def test_sweep_bad_n_is_a_point_error():
    rep = run_sweep({
        "family": "identity-u1",
        "margins": [0.2],
        "sweep": {"param": "n", "values": ["abc", 16, 16.5]},
    })
    assert rep["exit"] == 1
    errors = [p.get("error", "") for p in rep["points"]]
    assert errors[0].startswith("ConfigError") and errors[2].startswith("ConfigError")
    assert "error" not in rep["points"][1] and rep["points"][1]["rows"]


def test_sweep_non_finite_point_is_a_point_error(tmp_path):
    # the middle point's A is infinite; the sweep records it and writes its report
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "family": "identity-u1",
        "n": 12,
        "margins": [0.36, 0.24, 0.16],
        "sweep": {"param": "family_params.ax",
                  "values": ["0.05*sin(theta)", "sin(theta)/0", "0.02*sin(theta)"]},
    }))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert main(["sweep", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 1
    points = json.loads((tmp_path / "report.json").read_text())["points"]
    assert len(points) == 3
    assert points[1]["error"].startswith("NonFinite")
    assert points[0]["rows"] and points[2]["rows"]


def test_sweep_convergence_columns():
    rep = run_sweep({
        "family": "identity-u1",
        "n": 16,
        "margins": [0.2],
        "family_params": {"ax": "0.1*sin(theta)"},
        "sweep": {"param": "n", "values": [16, 32]},
    })
    assert rep["convergence"], "n-doubling pair should produce an order column"
    order = rep["convergence"][0]["observed_order_r1"]
    assert order > 3.0


def test_sweep_shares_one_target_and_its_volume(tmp_path, monkeypatch):
    # the swept A_x leaves the target section unchanged, so Vol(N) is
    # integrated once for the whole sweep instead of once per point, also
    # when two threads reach the shared target together
    quadratures = []
    integrate = lie_target.integrate

    def counting_integrate(f, grid):
        quadratures.append(grid.margin)
        return integrate(f, grid)

    monkeypatch.setattr(lie_target, "integrate", counting_integrate)
    cfg = {
        "family": "identity-u1",
        "n": 12,
        "margins": [0.36, 0.24, 0.16],
        "sweep": {"param": "family_params.ax",
                  "values": ["0.05*sin(theta)", "0.08*sin(theta + 1.3)", "0.02*sin(theta)"]},
    }
    for threads in ("2", "1"):
        monkeypatch.setenv("SKYRME_THREADS", threads)
        monkeypatch.setattr(lie_target, "_SHARED", {})
        quadratures.clear()
        cli.write_outputs(run_sweep(cfg), str(tmp_path / "shared"))
        assert len(quadratures) == 3, threads  # one per Vol(N) margin

    build_target = cli.build_target

    def unshared(section):
        lie_target._SHARED.clear()
        return build_target(section)

    quadratures.clear()
    monkeypatch.setattr(cli, "build_target", unshared)
    cli.write_outputs(run_sweep(cfg), str(tmp_path / "unshared"))
    assert len(quadratures) == 9
    for name in ("report.json", "results.csv"):
        assert ((tmp_path / "shared" / name).read_bytes()
                == (tmp_path / "unshared" / name).read_bytes())


@pytest.mark.parametrize("target", [None, dict(_ADJOINT_SECTION, compact="s3")],
                         ids=["default", "section"])
def test_spinorial_sweep_shares_one_target_and_its_volume(tmp_path, monkeypatch, target):
    # the swept perturbation leaves the profile family unchanged, so its
    # target, and Vol(N), is built once for the whole sweep
    monkeypatch.setenv("SKYRME_THREADS", "1")
    quadratures = []
    integrate = lie_target.integrate

    def counting_integrate(f, grid):
        quadratures.append(grid.margin)
        return integrate(f, grid)

    monkeypatch.setattr(lie_target, "integrate", counting_integrate)
    cfg = {"family": "spinorial", "n": 12,
           "sweep": {"param": "perturb.eps", "values": [0.0, 0.001, 0.002]}}
    if target:
        cfg["target"] = target
    monkeypatch.setattr(lie_target, "_SHARED", {})
    cli.write_outputs(run_sweep(cfg), str(tmp_path / "shared"))
    assert len(quadratures) == 3  # one per Vol(N) margin

    quadratures.clear()
    for module in (cli, solutions):  # the registry's two bindings
        monkeypatch.setattr(module, "shared", lambda key, make: make())
    cli.write_outputs(run_sweep(cfg), str(tmp_path / "unshared"))
    assert len(quadratures) == 9
    for name in ("report.json", "results.csv"):
        assert ((tmp_path / "shared" / name).read_bytes()
                == (tmp_path / "unshared" / name).read_bytes())


def test_moment_conditions_run_once_per_shared_target(monkeypatch):
    # the sweep points share one target, so its moment-map check (the one
    # caller of lie_target's own target_partials binding in a verify) runs once
    calls = []
    partials = lie_target.target_partials
    monkeypatch.setattr(lie_target, "target_partials",
                        lambda *args: calls.append(args) or partials(*args))
    monkeypatch.setattr(lie_target, "_SHARED", {})
    rep = run_sweep({"family": "identity-u1", "n": 12, "margins": [0.36, 0.24, 0.16],
                     "sweep": {"param": "family_params.ax",
                               "values": ["0.05*sin(theta)", "0.02*sin(theta)"]}})
    assert len(rep["points"]) == 2 and len(calls) == 1


def test_build_target_shares_valid_sections_only(monkeypatch):
    monkeypatch.setattr(lie_target, "_SHARED", {})
    section = {"name": "u1-fibered", "mu_y": "sin(x)^2", "bogus": 1}
    for _ in range(2):
        with pytest.raises(ConfigError):
            build_target(section)
    assert lie_target._SHARED == {}
    # concurrent first calls on one section still hand out a single object
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            targets = list(pool.map(lambda _: build_target({"name": "s3-round"}), range(32),
                                    timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(targets) == 32 and all(t is targets[0] for t in targets)
