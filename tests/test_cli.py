import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from oracles import full_fields, perturbed_phi, stacked_phi, take_rows
from skybps import cli, energy_degree, lie_target, solutions
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


@pytest.mark.parametrize("flags,text", [
    (["--ax", "sin(theta)/0"], "sin(theta)/0"),
    (["--target", "u1-fibered"], "sqrt(x - 1)"),
], ids=["ax", "u1-fibered-mu_y"])
def test_non_finite_profile_prints_one_line(tmp_path, capfd, flags, text):
    # the child writes to this process's stderr, so numpy warnings would show
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"target": {"mu_y": "sqrt(x - 1)"}}
                                   if "--target" in flags else {}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = subprocess.run([sys.executable, "-m", "skybps.cli", "verify", "--config",
                           str(cfg_file), "--family", "identity-u1", "-n", "12", *flags,
                           "--output-dir", str(tmp_path)], env=env, timeout=120).returncode
    err = capfd.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("verification error: NonFinite"), err
    assert repr(text) in err[0]


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


@pytest.mark.parametrize("cfg, flags", [
    ({"family": "spinorial", "surface": "x"}, ["--curvature", "1"]),
    ({"family": "spinorial", "surface": "x"}, ["--surface", "s2-round"]),
    ({"family": "identity-u1", "target": 3}, ["--target", "u1-s3"]),
    ({"family": "identity-u1", "family_params": [1]}, ["--ax", "0"]),
    ({"family": "dirac-monopole", "family_params": [1]}, ["--alpha", "1"]),
    ({"family": "dirac-monopole", "family_params": [1]}, ["--beta", "1"]),
    ({"family": "dirac-monopole", "family_params": [1]}, ["--gamma", "1"]),
], ids=["curvature", "surface", "target", "ax", "alpha", "beta", "gamma"])
def test_flag_into_a_non_object_section_exits_2(tmp_path, capsys, cfg, flags):
    # with or without the flag, the section is refused with the same message
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**cfg, "n": 12}))
    errors = []
    for extra in ([], flags):
        assert main(["verify", "--config", str(cfg_file), "--output-dir", str(tmp_path),
                     *extra]) == 2
        errors.append(capsys.readouterr().err)
    section = next(k for k in cfg if k != "family")
    assert errors[0] == errors[1] == (f"config error: {section!r} must be a JSON object, "
                                      f"got {cfg[section]!r}\n")


@pytest.mark.parametrize("family, key, window, message", [
    ("dirac-monopole", "r_window", [0.0, 2.0], "must lie in r > 0"),
    ("dirac-monopole", "r_window", [-1.0, 2.0], "must lie in r > 0"),
    ("dirac-monopole", "r_window", [2.0, 0.5], "with lo < hi"),
    ("spherical", "xi_window", [1.5, 0.2], "with lo < hi"),
    ("spherical", "xi_window", [0.2, 0.2], "with lo < hi"),
], ids=["r-zero", "r-negative", "r-reversed", "xi-reversed", "xi-empty"])
def test_window_that_is_not_an_interval_exits_2(tmp_path, capsys, family, key, window,
                                                message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": family, "n": 12,
                                    "family_params": {key: window}}))
    assert main(["verify", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {family} params {key!r} ") and message in err


@pytest.mark.parametrize("command", [["verify", "--family", "identity-u1", "-n", "12"],
                                     ["obstruction"]], ids=["verify", "obstruction"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
def test_output_dir_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch,
                                                       command, below):
    # refused before anything is computed, naming the path
    monkeypatch.setattr(cli, "run_verify", None)
    monkeypatch.setattr(cli, "left_action_obstruction", None)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out" if below else tmp_path / "file"
    assert main([*command, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: output directory {str(out)!r}: "
                   f"{str(tmp_path / 'file')!r} is not a directory\n")


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


# the spinorial adjoint-interval section; the construction fixes h1 = 1
_ADJOINT_SECTION = {"name": "adjoint-interval", "h2": "sin(xi)", "eta1": "-2*sin(xi)^2"}
_ADJOINT_OPTIONAL = {"h1": "1", "eta2": "0", "interval": [0.0, 3.0], "compact": "s3"}


@pytest.mark.parametrize("key", sorted(_ADJOINT_OPTIONAL) + ["bogus"])
def test_adjoint_interval_section_keys(key):
    section = dict(_ADJOINT_SECTION, **{key: _ADJOINT_OPTIONAL.get(key, 1.0)})
    if key in ("bogus", "h1"):
        with pytest.raises(ConfigError):
            cli._spinorial_family_from_target(section)
    else:
        fam = cli._spinorial_family_from_target(section)
        xi = np.linspace(0.2, 2.9, 7)
        assert np.array_equal(fam.h1(xi), np.ones_like(xi))


@pytest.mark.parametrize("name", ["u1-fibered", "adjoint-interval"])
def test_target_section_needs_its_profiles(name):
    family = "identity-u1" if name == "u1-fibered" else "spinorial"
    with pytest.raises(ConfigError, match="needs"):
        build_family({"family": family, "n": 8, "target": {"name": name}},
                     FAMILIES[family].margins[0])


# a minimal section for every target name that any family's section has taken
_TARGET_SECTIONS = {
    "default": {}, "u1-s3": {}, "s3-round": {}, "adjoint-s3": {}, "su2-left": {},
    "u1-fibered": {"mu_y": "0.25*sin(x)^2"},
    "adjoint-interval": {"h2": "sin(xi)", "eta1": "-2*sin(xi)^2", "compact": "s3"},
}


@pytest.mark.parametrize("family,name", [
    (f, t) for f in sorted(FAMILIES) if "target" in FAMILIES[f].sections
    for t in sorted(_TARGET_SECTIONS)])
def test_every_target_a_family_accepts_builds(family, name):
    # a name the family's parser does not refuse must give a family member
    cfg = {"family": family, "n": 8, "target": dict(_TARGET_SECTIONS[name], name=name)}
    try:
        res, _ = build_family(cfg, FAMILIES[family].margins[0])
    except ConfigError as exc:
        assert f"unknown {family} target {name!r}" in str(exc)
        return
    assert res.family == family and res.config.grid.shape == (8, 8, 8)


def test_identity_u1_refuses_a_target_it_cannot_verify(tmp_path, capsys):
    code = main(["verify", "--family", "identity-u1", "-n", "8", "--target", "s3-round",
                 "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error:")
    assert "'u1-s3'" in err and "'u1-fibered'" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("margins", [[0.2], [0.24, 0.12], [0.2, 0.1, 0.05]])
def test_run_verify_builds_once_and_runs_one_pass(margins, monkeypatch):
    # one build at the smallest margin and one pass over its grid serve
    # every margin, whatever their number
    built, passes = [], []
    real_build, real_pass = cli.build_family, energy_degree._margin_pass
    monkeypatch.setattr(cli, "build_family", lambda *a: built.append(a[1]) or real_build(*a))
    monkeypatch.setattr(energy_degree, "_margin_pass",
                        lambda *a, **k: passes.append(k["insets"]) or real_pass(*a, **k))
    report = run_verify({"family": "spherical", "n": 16, "margins": margins})
    assert built == [margins[-1]]
    assert passes == [[m - margins[-1] for m in margins]]
    assert len(report["rows"]) == len(margins)


def test_rows_report_the_configured_margins():
    # a coarse row's sub-box is [lo + m, hi - m] on every bounded axis of the
    # finest grid, whatever that grid's steps: at n = 16 spherical's xi and u
    # steps are 0.083 and 0.197, and 0.09 and 0.03 more margin fall between
    # rows on both
    rep = run_verify({"family": "spherical", "n": 16})
    assert [row["margin"] for row in rep["rows"]] == [0.12, 0.06, 0.03]
    assert [row["n"] for row in rep["rows"]] == [16] * 3
    assert all("trim_rows" not in row["extras"] for row in rep["rows"])
    names = [c["name"] for c in rep["checks"] if c["name"].startswith("r1[")]
    assert names == ["r1[m=0.12]", "r1[m=0.06]", "r1[m=0.03]"]
    res, _ = build_family(rep["config"], 0.03)
    g = res.config.grid
    for inset in (0.09, 0.03):
        for i in (0, 1):
            assert g.inset_rows(i, inset)[1] > 0
            assert np.sum(g.axis_weights(i, inset)) == pytest.approx(
                g.hi_eff[i] - g.lo_eff[i] - 2 * inset, rel=1e-13)


@pytest.mark.parametrize("n, margins, refusal", [
    (8, [0.38, 0.2], "config error: margin 0.38: axis 1: the sub-box of inset 0.18"),
    (9, [0.38, 0.2], None),
    (32, [0.4, 0.2], "verification error: BoundsError: axis 1: margin 0.4 >= quarter"),
    (32, [0.39, 0.2], None),
])
def test_coarsest_sub_box_needs_5_rows_and_a_margin_below_a_quarter(tmp_path, capsys, n,
                                                                   margins, refusal):
    # identity-u1's bounded axis spans pi/2, and a margin may not reach a
    # quarter of it (0.393), as a grid built at that margin would refuse; at
    # n = 8 the margin 0.38 leaves 4 of the finest grid's rows inside its
    # sub-box, at n = 9 it leaves 5
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"family": "identity-u1", "n": n, "margins": margins}))
    code = main(["verify", "--config", str(cfg_file), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    if refusal is None:
        assert (tmp_path / "report.json").exists() and not err
    else:
        assert code == (2 if refusal.startswith("config") else 1)
        assert err.startswith(refusal) and not (tmp_path / "report.json").exists()


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


@pytest.mark.parametrize("flags", [["--config", "/nonexistent.json"], ["--family", "spherical"],
                                   ["-n", "3"], ["--emit-gnuplot"]],
                         ids=["config", "family", "n", "emit-gnuplot"])
def test_obstruction_refuses_flags_it_does_not_read(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["obstruction", *flags, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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


def test_degenerate_twisted_metric_fails_riemannian_not_the_bound():
    # K = 1 - alpha/beta = 2/3 makes the conformal coefficient sin^2 xi
    # (3K - 2) zero up to rounding (7e-18): the rows fail as not riemannian,
    # not on gap_rel or decomposition with an energy of order 1e9
    rep = run_verify({"family": "twisted-spinorial", "n": 16,
                      "family_params": {"alpha": 0.5, "beta": 1.5, "gamma": 1.0}})
    assert rep["exit"] == 1
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failed == ["riemannian[m=0.2]", "riemannian[m=0.1]", "riemannian[m=0.05]"]
    assert not any(name.startswith(("gap_rel", "decomposition")) for name in failed)
    assert all(math.isnan(row["energy"]) for row in rep["rows"])


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


def test_perturbation_is_the_mesh_bump_and_leaves_a():
    base = solutions.spherical_solution(1.0, -1.0, 1.0, 2.0, n=20).config
    pert = cli.perturb_configuration(base, 0.02, seed=3)
    phi0, A0, _ = full_fields(base)
    phi, A, _ = full_fields(pert)
    assert np.array_equal(A, A0)
    # the bump formed on the full coordinate meshes, as a reference
    grid, rng = base.grid, np.random.default_rng(3)
    mesh = np.stack(grid.meshes())
    bump = np.ones(grid.shape)
    for ax in range(3):
        t = (mesh[ax] - grid.lo_eff[ax]) / (grid.hi_eff[ax] - grid.lo_eff[ax])
        bump = bump * (np.sin(2 * np.pi * t) if grid.periodic[ax] else np.sin(np.pi * t) ** 3)
    for mu in range(3):
        assert np.array_equal(phi[mu], phi0[mu] + 0.02 * rng.uniform(0.5, 1.0) * bump)


@pytest.mark.parametrize("family", ["spherical", "identity-u1"])
def test_perturbation_rows_are_the_full_grid_bump(family):
    # identity-u1's first axis is periodic: its halo rows wrap around it
    res, _ = build_family({"family": family, "n": 20}, FAMILIES[family].margins[0])
    pert = cli.perturb_configuration(res.config, 0.02, seed=5)
    ref = perturbed_phi(res.config, 0.02, seed=5)
    g = pert.grid
    rows = [slice(0, 20), slice(0, 1), slice(7, 14), slice(19, 20), g.halo(slice(0, 3)),
            g.halo(slice(17, 20)), g.halo(g.halo(slice(9, 10)))]
    for r in rows:
        assert np.array_equal(stacked_phi(g, pert.fields(r)[0], r), take_rows(g, ref, r)), r


@pytest.mark.parametrize("family", ["spherical", "identity-u1"])
def test_perturbed_verify_keeps_every_degree(family, monkeypatch):
    # the bump is supported inside the coarsest margin's sub-box, so it
    # vanishes, with two derivatives, on the faces of every sub-box and the
    # degree of each row is unchanged up to the stencils' error on the bump
    # (measured 1.6e-10 spherical and 5.8e-10 identity-u1; 2.9e-8 on
    # identity-u1's coarsest row when the same bump spans the finest grid,
    # on whose coarse faces it does not vanish)
    cfg = {"family": family, "n": 32}
    base = run_verify(cfg)
    bumps = []
    real = cli.perturb_configuration
    monkeypatch.setattr(cli, "perturb_configuration",
                        lambda *a: bumps.append(a[3]) or real(*a))
    pert = run_verify({**cfg, "perturb": {"eps": 4e-3, "seed": 3}})
    margins = base["config"]["margins"]
    assert bumps == [margins[0] - margins[-1]]
    for row, ref in zip(pert["rows"], base["rows"]):
        assert row["degree"] != ref["degree"]
        assert abs(row["degree"] - ref["degree"]) < 2e-9, row["margin"]
    assert abs(pert["degree_extrapolated"] - base["degree_extrapolated"]) < 2e-9


def _stacked(c, used):
    """c with fields that stack phi's components to full arrays."""
    fields = c.fields

    def stacked(rows):
        phi, A = fields(rows)
        used.append(rows)
        return stacked_phi(c.grid, phi, rows), A

    return dataclasses.replace(c, fields=stacked)


@pytest.mark.parametrize("cfg", [{"family": f, "n": 16} for f in sorted(FAMILIES)] + [
    {"family": "spherical", "n": 16, "perturb": {"eps": 0.02, "seed": 3}},
], ids=sorted(FAMILIES) + ["spherical-perturbed"])
def test_phi_on_its_axes_gives_the_report_of_phi_stacked(cfg, monkeypatch):
    # the families hold phi's components on the axes they vary along; the
    # same configuration with phi stacked to full arrays, the form that
    # from_arrays and the perturbation hand over, gives the same report
    on_axes = json.dumps(run_verify(cfg))
    real_build, real_perturb, used = cli.build_family, cli.perturb_configuration, []

    def build(cfg, margin):
        res, p = real_build(cfg, margin)
        res.config = _stacked(res.config, used)
        return res, p

    monkeypatch.setattr(cli, "build_family", build)
    monkeypatch.setattr(cli, "perturb_configuration",
                        lambda c, *a: real_perturb(_stacked(c, used), *a))
    assert json.dumps(run_verify(cfg)) == on_axes
    assert used


def test_perturbation_vanishes_outside_its_box():
    res, _ = build_family({"family": "spherical", "n": 20}, 0.03)
    c, inset = res.config, 0.09
    phi0 = full_fields(c)[0]
    phi = full_fields(cli.perturb_configuration(c, 0.02, 3, inset))[0]
    inside = np.ones(c.grid.shape, bool)
    for i in range(2):  # the bounded axes: points at or beyond the box's faces
        x = c.grid.axis_points(i)
        out = (x <= c.grid.lo_eff[i] + inset) | (x >= c.grid.hi_eff[i] - inset)
        inside[(slice(None),) * i + (out,)] = False
    assert np.array_equal(phi[:, ~inside], phi0[:, ~inside])
    assert np.any(phi[:, inside] != phi0[:, inside])


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


def test_sweep_through_a_null_section_runs(monkeypatch):
    # a null section is an empty one, as it is to verify and the flags
    seen = []
    monkeypatch.setattr(cli, "run_verify", lambda cfg: seen.append(cfg) or run_verify(cfg))
    rep = run_sweep({"family": "identity-u1", "n": 12, "margins": [0.2], "family_params": None,
                     "sweep": {"param": "family_params.ax", "values": ["0", "0.01"]}})
    assert [c["family_params"] for c in seen] == [{"ax": "0"}, {"ax": "0.01"}]
    assert all("error" not in p for p in rep["points"])


# -- the memory estimate --------------------------------------------------------


@pytest.mark.parametrize("n, families", [
    (16, sorted(FAMILIES)), (24, sorted(FAMILIES)), (32, sorted(FAMILIES)),
    (48, ["spherical"]),
], ids=["16", "24", "32", "48-spherical"])
def test_footprint_bounds_the_traced_peak_within_1_5x(n, families, monkeypatch):
    import tracemalloc

    for family in families:
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
        assert peak <= estimate <= 1.5 * peak, (family, peak, estimate)


def test_footprint_grows_as_a_slab_of_one_row():
    # nothing of the grid's size is held: once slabs are one row (n >= 84) the
    # estimate is a fixed count of fields on the slab's row and its 8 halo
    # rows, and grows as n^2
    assert cli._footprint(256, 3) / cli._footprint(128, 3) == 4.0
    assert cli._footprint(16, 3) > cli._footprint(16, 1)  # the moment check's slab


def test_run_refused_when_memory_is_short(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_mem_available", lambda: 2**20)  # 1 MB
    built = []
    monkeypatch.setattr(cli, "build_family", lambda *a: built.append(a))
    code = main(["verify", "--family", "spherical", "-n", "16", "--output-dir", str(tmp_path)])
    assert code == 2 and built == []
    err = capsys.readouterr().err
    assert "config error: n = 16 needs about" in err and "1 MB available" in err
    assert not (tmp_path / "report.json").exists()


class _RefusingMallopt:
    """A mallopt that records its calls and refuses each (returns 0)."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 0


def _raise_os_error(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", ["no-library", "no-mallopt", "refusing-mallopt"])
def test_allocator_setting_changes_no_output(tmp_path, monkeypatch, libc):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(verify_cfg(tmp_path)))

    def verify(out):
        assert main(["verify", "--config", str(cfg_file), "--output-dir", str(out)]) == 0
        return [(out / name).read_bytes() for name in ("report.json", "results.csv")]

    reference = verify(tmp_path / "ref")
    mallopt = _RefusingMallopt()
    lib = {"no-library": _raise_os_error,
           "no-mallopt": lambda name: object(),
           "refusing-mallopt": lambda name: type("Lib", (), {"mallopt": mallopt})()}[libc]
    monkeypatch.setattr(cli.ctypes, "CDLL", lib)
    assert verify(tmp_path / "out") == reference
    if libc == "refusing-mallopt":
        # M_MMAP_THRESHOLD = 32 MiB, then M_TRIM_THRESHOLD = 128 MiB
        assert mallopt.calls == [(-3, 32 << 20), (-1, 128 << 20)]
        assert mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)
        assert mallopt.restype is cli.ctypes.c_int


def test_mem_available_reads_meminfo():
    avail = cli._mem_available()
    assert avail is None or avail > 0


def test_sweep_spherical_c1():
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


def test_sweep_runs_points_one_at_a_time(tmp_path, monkeypatch):
    # SKYRME_THREADS is not read: a sweep runs one point after another
    monkeypatch.setenv("SKYRME_THREADS", "2")
    real, lock, running, most, calls = cli.run_verify, threading.Lock(), [0], [0], []

    def counted(cfg):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        try:
            time.sleep(0.05)  # long enough for a second point to start, if it may
            calls.append(cfg["family_params"]["ax"])
            return real(cfg)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(cli, "run_verify", counted)
    values = ["0.05*sin(theta)", "0.08*sin(theta + 1.3)", "0.02*sin(theta)"]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "family": "identity-u1", "n": 16, "margins": [0.36, 0.24, 0.16],
        "sweep": {"param": "family_params.ax", "values": values},
    }))
    assert main(["sweep", "--config", str(cfg_file), "--output-dir", str(tmp_path)]) == 0
    assert most[0] == 1 and calls == values


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


def test_sweep_point_carries_its_checks():
    # a failed point names the checks it failed: at K = 0.5 the spinorial
    # base metric is not riemannian on any margin
    cfg = {"family": "spinorial", "n": 12}
    rep = run_sweep({**cfg, "sweep": {"param": "surface.curvature", "values": [1.0, 0.5]}})
    good, bad = rep["points"]
    assert good["checks"] == run_verify({**cfg, "surface": {"curvature": 1.0}})["checks"]
    assert bad["exit"] == 1
    assert [c["name"] for c in bad["checks"] if not c["pass"]] == [
        "riemannian[m=0.2]", "riemannian[m=0.1]", "riemannian[m=0.05]"]


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


def _volume_grids(monkeypatch) -> list:
    """The margins of the chart grids that Vol(N) builds from now on: it
    evaluates V_N once on each, one per margin; the moment check builds its
    grid at the default margin, which is not counted."""
    margins = []
    chart_grid = lie_target.TargetGeometry.chart_grid

    def counting_chart_grid(target, n, margin=None):
        if margin is not None:
            margins.append(margin)
        return chart_grid(target, n, margin)

    monkeypatch.setattr(lie_target.TargetGeometry, "chart_grid", counting_chart_grid)
    return margins


def test_sweep_shares_one_target_and_its_volume(tmp_path, monkeypatch):
    # the swept A_x leaves the target section unchanged, so Vol(N) is
    # integrated once for the whole sweep instead of once per point
    quadratures = _volume_grids(monkeypatch)
    cfg = {
        "family": "identity-u1",
        "n": 12,
        "margins": [0.36, 0.24, 0.16],
        "sweep": {"param": "family_params.ax",
                  "values": ["0.05*sin(theta)", "0.08*sin(theta + 1.3)", "0.02*sin(theta)"]},
    }
    monkeypatch.setattr(lie_target, "_SHARED", {})
    cli.write_outputs(run_sweep(cfg), str(tmp_path / "shared"))
    assert len(quadratures) == 3  # one per Vol(N) margin

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
    quadratures = _volume_grids(monkeypatch)
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
    # the sweep points share one target, so its moment-map check runs once:
    # lie_target's own target_partials binding differentiates the target's
    # mu_fn there alone (the naturality check's forms go through it too)
    calls = []
    partials = lie_target.target_partials
    monkeypatch.setattr(lie_target, "target_partials",
                        lambda fn, y: calls.append(fn.__name__ == "mu_fn") or partials(fn, y))
    monkeypatch.setattr(lie_target, "_SHARED", {})
    rep = run_sweep({"family": "identity-u1", "n": 12, "margins": [0.36, 0.24, 0.16],
                     "sweep": {"param": "family_params.ax",
                               "values": ["0.05*sin(theta)", "0.02*sin(theta)"]}})
    # once per slab of its 32^3 chart grid (13, 13 and 6 rows)
    assert len(rep["points"]) == 2 and sum(calls) == 3 and len(calls) > 3


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
            targets = list(pool.map(lambda _: build_target({"name": "u1-fibered",
                                                            "mu_y": "0.25*sin(x)^2"}),
                                    range(32), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(targets) == 32 and all(t is targets[0] for t in targets)


# -- checks --------------------------------------------------------------------------


def _tols(rep):
    return {c["name"]: c["tol"] for c in rep["checks"]}


def test_each_stencil_tolerance_moves_only_its_checks():
    cfg = {"family": "spherical", "n": 12}
    base = _tols(run_verify(cfg))
    for key, moved in (("bianchi", ["bianchi_residual"]),
                       ("naturality", [n for n in base if n.startswith("naturality[")])):
        tols = _tols(run_verify({**cfg, "tolerances": {key: 0.125}}))
        assert moved and all(tols[name] == 0.125 for name in moved)
        assert {k: v for k, v in tols.items() if k not in moved} == {
            k: v for k, v in base.items() if k not in moved}


def test_decomposition_tolerance_is_fixed():
    keys = ("residual", "gap_rel", "degree", "bianchi", "naturality", "moment", "charge_cross")
    rep = run_verify({"family": "spherical", "n": 12, "tolerances": dict.fromkeys(keys, 0.5)})
    tols = [c["tol"] for c in rep["checks"] if c["name"].startswith("decomposition[")]
    assert tols == [1e-10] * 3


def test_nonriemannian_row_fails_its_riemannian_check():
    rep = run_verify({"family": "twisted-spinorial", "n": 16,
                      "family_params": {"alpha": 0.5, "beta": 1.5, "gamma": 1.0}})
    checks = [c for c in rep["checks"] if c["name"].startswith("riemannian[")]
    assert checks == [{"name": f"riemannian[m={m}]", "value": 1.0, "tol": 0.0, "pass": False}
                      for m in (0.2, 0.1, 0.05)]
    for row in rep["rows"]:
        assert row["extras"] == {"riemannian": False} and row["terms"] == {}
        assert row["exit"] == 1 and type(row["n"]) is int


def test_readme_check_table_names_every_golden_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Checks")[1].split("Configurations are JSON")[0]
    patterns = [re.escape(line.split("`")[1]).replace("…", ".+")
                for line in table.splitlines() if line.startswith("| `")]
    golden = Path(__file__).resolve().parent / "golden"
    names = {c["name"] for f in FAMILIES
             for c in json.loads((golden / f"verify-{f}" / "report.json").read_text())["checks"]}
    assert names and all(any(re.fullmatch(p, n) for p in patterns) for n in names), names
