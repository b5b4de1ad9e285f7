"""Batch driver: construct a family, verify its invariants, emit reports.

Subcommands
-----------
verify        one family at each margin in the margin list, extrapolate the
              degree, check every tolerance; exit 0 iff all checks pass.
sweep         verify once per point of a parameter grid; per-row failures are
              recorded and the run continues.
obstruction   evaluate the left-action moment-map obstruction constant K/2.

Configuration is JSON (``--config``), with common fields overridable by
flags.  Unknown keys are rejected.  Outputs: ``report.json`` (nested,
schema-versioned) and ``results.csv`` with the fixed header
family,params,n,margin,E,deg,bound,gap,r1,r2,exit.  Files are written
atomically.  SKYRME_THREADS caps sweep parallelism; runs are deterministic
for a fixed configuration.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import json
import math
import numbers
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy_degree import (
    CSV_HEADER,
    EnergyReport,
    _margin_pass,
    bound_gap,
    bps_coefficients,
    general_bound_coefficient,
)
from .errors import ConfigError, NonFinite, SkybpsError
from .exprs import Expression
from .gaugefield import Configuration, naturality_check_specs, pullback_naturality_residual
from .grid import extrapolate_margin, slab_rows
from .lie_target import (
    AdjointIntervalFamily,
    TargetGeometry,
    left_action_obstruction,
    make_adjoint_interval_target,
    make_su2_left_target,
    make_u1_fibered_target,
    round_s3_family,
    shared,
    u1_s3_adjoint_target,
    verify_moment_conditions,
)
from .solutions import (
    dirac_monopole,
    identity_u1_solution,
    mercator_sphere,
    spherical_solution,
    spinorial_solution,
    symplectic_solution,
    twisted_spinorial_solution,
)

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "family", "n", "margins", "family_params", "target", "surface",
    "tolerances", "perturb", "output_dir", "emit_gnuplot", "sweep",
}
# top-level keys that are refused with a pointer to where their meaning lives
_RETIRED_KEYS = {
    "seed": "the perturbation is seeded by 'perturb.seed'",
    "bps": "(alpha, beta, gamma) are set in 'family_params'",
}
_DEFAULT_TOLS = {
    "residual": 5e-4,
    "gap_rel": 0.01,
    "degree": 1e-2,
    "bianchi": 1e-5,
    "naturality": 1e-5,
    "moment": 1e-6,
    "charge_cross": 1e-10,
}


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _section(cfg: dict, key: str) -> dict:
    """A copy of an optional object-valued section of the configuration."""
    value = cfg.get(key) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
    return dict(value)


def _check_real(value, where: str):
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite real number, got {value!r}")
    return value


def _check_reals(section: dict, keys, where: str):
    """Each of ``keys`` present in ``section`` must be a finite real number."""
    for k in keys:
        if k in section:
            _check_real(section[k], f"{where} {k!r}")


def _check_tuple(value, length: int, where: str, kind=_check_real):
    """A JSON list of ``length`` entries, each passing ``kind``."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ConfigError(f"{where} must be a list of {length} entries, got {value!r}")
    for v in value:
        kind(v, where)
    return tuple(value)


def _check_bool(value, where: str):
    if not isinstance(value, bool):
        raise ConfigError(f"{where} entries must be true or false, got {value!r}")


def _check_int(value, where: str, minimum: int | None = None):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value!r}")


def _expr_fn(text: str, *names: str):
    if not isinstance(text, str):
        raise ConfigError(f"expression must be a string, got {text!r}")
    e = Expression(text)
    bad = set(e.variables) - set(names)
    if bad:
        raise ConfigError(f"expression {text!r} uses unknown variable(s) {sorted(bad)}")

    def fn(*args):
        return e(**dict(zip(names, args))) * np.ones_like(sum(args))

    return fn


def build_target(cfg: dict) -> TargetGeometry:
    """Target selection by name with profile parameters from the config.

    Equal sections share one target object, so sweep points that leave the
    target unchanged reuse its Vol(N); an invalid section raises on every call.
    """
    section = cfg or {"name": "default"}
    return shared(("target", json.dumps(section, sort_keys=True)),
                  lambda: _make_target(dict(section)))


def _make_target(cfg: dict) -> TargetGeometry:
    name = cfg.pop("name", "default")
    if name in ("default", "u1-s3"):
        _check_keys(cfg, set(), f"target {name!r}")
        return u1_s3_adjoint_target()
    if name == "u1-fibered":
        _check_keys(cfg, {"mu_x", "mu_y", "h", "omega_x", "lo", "hi", "periodic"},
                    "target 'u1-fibered'")
        return make_u1_fibered_target(
            mu_x=_expr_fn(cfg.get("mu_x", "0"), "x", "y"),
            mu_y=_expr_fn(cfg["mu_y"], "x", "y"),
            h=_expr_fn(cfg.get("h", "1"), "x", "y"),
            omega_x=_expr_fn(cfg.get("omega_x", "0"), "x", "y"),
            chart_lo=_check_tuple(cfg.get("lo", (0.0, 0.0, 0.0)), 3, "target 'lo'"),
            chart_hi=_check_tuple(cfg.get("hi", (2 * np.pi, np.pi / 2, 4 * np.pi)), 3,
                                  "target 'hi'"),
            chart_periodic=_check_tuple(cfg.get("periodic", (True, False, True)), 3,
                                        "target 'periodic'", _check_bool),
        )
    if name in ("adjoint-s3", "s3-round"):
        _check_keys(cfg, set(), f"target {name!r}")
        return make_adjoint_interval_target(round_s3_family())
    if name == "adjoint-interval":
        return make_adjoint_interval_target(_adjoint_interval_family(cfg, _ADJOINT_KEYS))
    if name == "su2-left":
        _check_keys(cfg, {"K"}, "target 'su2-left'")
        _check_reals(cfg, ["K"], "target")
        return make_su2_left_target(float(cfg.get("K", 1.0)))
    raise ConfigError(f"unknown target {name!r}")


_ADJOINT_KEYS = frozenset({"h1", "h2", "eta1", "eta2", "interval", "compact"})


def _adjoint_interval_family(cfg: dict, allowed: frozenset) -> AdjointIntervalFamily:
    """Profile family of an ``adjoint-interval`` target section (name popped).

    ``allowed`` is the set of keys the caller accepts; a missing ``h1`` is 1.
    """
    _check_keys(cfg, allowed, "target 'adjoint-interval'")
    return AdjointIntervalFamily(
        h1=_expr_fn(cfg.get("h1", "1"), "xi"),
        h2=_expr_fn(cfg["h2"], "xi"),
        eta1=_expr_fn(cfg["eta1"], "xi"),
        eta2=_expr_fn(cfg.get("eta2", "0"), "xi"),
        interval=_check_tuple(cfg.get("interval", (0.0, np.pi)), 2, "target 'interval'"),
        compact=_compact(cfg),
    )


def _compact(cfg: dict):
    compact = cfg.get("compact")
    if compact not in (None, "s3", "s1xs2"):
        raise ConfigError(f"target 'compact' must be \"s3\" or \"s1xs2\", got {compact!r}")
    return compact


def build_surface(cfg: dict):
    cfg = dict(cfg or {})
    name = cfg.pop("name", "s2-round")
    if name != "s2-round":
        raise ConfigError(f"unknown surface {name!r}")
    _check_keys(cfg, {"curvature", "tau_max"}, "surface 's2-round'")
    _check_reals(cfg, ["curvature", "tau_max"], "surface")
    return mercator_sphere(float(cfg.get("curvature", 1.0)), float(cfg.get("tau_max", 3.0)))


def _spinorial_family_from_target(cfg: dict):
    """Profile family for the spinorial/twisted constructions (h1 = 1).

    None selects ``spinorial_solution``'s default, the eta2 = 0
    representative of the round metric (moment-map gauge).  Equal sections
    share one family, and so one target.
    """
    section = cfg or {"name": "s3-round"}
    return shared(("spinorial", json.dumps(section, sort_keys=True)),
                  lambda: _make_spinorial_family(dict(section)))


def _make_spinorial_family(cfg: dict):
    name = cfg.pop("name", "s3-round")
    if name in ("s3-round", "default"):
        _check_keys(cfg, set(), f"target {name!r}")
        return None
    if name == "adjoint-interval":
        # the spinorial constructions fix h1 = 1, so the section may not set it
        return _adjoint_interval_family(cfg, _ADJOINT_KEYS - {"h1"})
    raise ConfigError(f"unknown spinorial target {name!r}")


def _nullable(value, where: str):
    return None if value is None else _check_real(value, where)


def _window(value, where: str):
    return _check_tuple(value, 2, where)


def _expression(*names: str):
    """A parameter kind: an expression string over ``names``, compiled, or null."""
    def kind(value, where: str):
        return None if value is None else _expr_fn(value, *names)

    return kind


# Each adapter calls its constructor through the module-level name and
# returns the result with the family's (alpha, beta, gamma).


def _identity_u1(cfg, n, margin, ax):
    target = build_target(_section(cfg, "target"))
    return identity_u1_solution(ax, target=target, n=n, margin=margin), (0.0, 0.0, 0.0)


def _dirac_monopole(cfg, n, margin, r_window, alpha, beta, gamma):
    return dirac_monopole(n=n, r_window=r_window, margin=margin), (alpha, beta, gamma)


def _spinorial(cfg, n, margin):
    surface = build_surface(_section(cfg, "surface"))
    fam = _spinorial_family_from_target(_section(cfg, "target"))
    return spinorial_solution(surface=surface, fam=fam, n=n, margin=margin), (0.0, 0.0, 0.0)


def _twisted_spinorial(cfg, n, margin, alpha, beta, gamma):
    # a missing or null beta is derived from the surface curvature
    res = twisted_spinorial_solution(alpha=alpha, gamma=gamma, beta=beta, n=n, margin=margin)
    return res, (alpha, beta or 0.0, gamma)


def _spherical(cfg, n, margin, c1, c2, alpha, beta, xi_window):
    res = spherical_solution(c1, c2, alpha, beta, xi_window=xi_window, n=n, margin=margin)
    return res, (alpha, beta, 0.0)


def _symplectic(cfg, n, margin, beta, twist):
    return symplectic_solution(n=n, margin=margin, xi_phase=twist), (0.0, beta, 0.0)


@dataclass(frozen=True)
class _Family:
    """What the driver knows about one family.

    ``build(cfg, n, margin, **params)`` returns (FamilyResult, (alpha, beta,
    gamma)); ``params`` maps each ``family_params`` key to (kind, default);
    ``sections`` names the optional config sections the family reads.
    """

    build: Callable
    params: dict
    margins: tuple[float, ...]
    sections: tuple[str, ...] = ()
    integer_degree: bool = True  # the margin-extrapolated degree sits at an integer
    algebra_dim: int = 3  # dimension of the gauge algebra: su(2), or 1 for u(1)


FAMILIES = {
    "identity-u1": _Family(
        _identity_u1, {"ax": (_expression("theta", "x"), "0.1*sin(theta)")},
        margins=(0.36, 0.24, 0.16), sections=("target",), algebra_dim=1),
    "dirac-monopole": _Family(
        _dirac_monopole, {"r_window": (_window, (0.5, 2.0)), "alpha": (_check_real, 0.0),
                          "beta": (_check_real, 0.0), "gamma": (_check_real, 0.0)},
        margins=(0.12, 0.06, 0.03), integer_degree=False),
    "spinorial": _Family(
        _spinorial, {}, margins=(0.2, 0.1, 0.05), sections=("surface", "target")),
    # no surface section: the curvature is implied by alpha and beta
    "twisted-spinorial": _Family(
        _twisted_spinorial, {"alpha": (_check_real, 0.0), "beta": (_nullable, None),
                             "gamma": (_check_real, 1.0)},
        margins=(0.2, 0.1, 0.05)),
    "spherical": _Family(
        _spherical, {"c1": (_check_real, 1.0), "c2": (_check_real, -1.0),
                     "alpha": (_check_real, 1.0), "beta": (_check_real, 2.0),
                     "xi_window": (_window, (0.2, 1.5))},
        margins=(0.12, 0.06, 0.03)),
    "symplectic": _Family(
        _symplectic, {"beta": (_check_real, 1.0), "twist": (_expression("xi"), None)},
        margins=(0.2, 0.1, 0.05)),
}


def build_family(cfg: dict, margin: float):
    """Construct the configured family at one margin; returns (FamilyResult, BPSParams)."""
    name = cfg["family"]
    family = FAMILIES[name]
    for key in ("surface", "target"):
        if key not in family.sections and cfg.get(key):
            raise ConfigError(f"family {name!r} does not take a {key!r} section")
    fp = _section(cfg, "family_params")
    _check_keys(fp, set(family.params), f"{name} params")
    params = {k: kind(fp.get(k, default), f"{name} params {k!r}")
              for k, (kind, default) in family.params.items()}
    res, bps = family.build(cfg, int(cfg.get("n", 48)), margin, **params)

    pert = _section(cfg, "perturb")
    eps = float(pert.get("eps", 0.0))
    if eps:
        res.config = perturb_configuration(res.config, eps, int(pert.get("seed", 0)))
    return res, bps_coefficients(*bps)


def perturb_configuration(c: Configuration, eps: float, seed: int = 0) -> Configuration:
    """Add a smooth bump of amplitude eps to phi (vanishing at open boundaries)."""
    rng = np.random.default_rng(seed)
    grid = c.grid
    mesh = np.stack(grid.meshes())
    bump = np.ones(grid.shape)
    for ax in range(3):
        lo, hi = grid.lo_eff[ax], grid.hi_eff[ax]
        t = (mesh[ax] - lo) / (hi - lo)
        bump = bump * (np.sin(np.pi * t) if not grid.periodic[ax] else np.sin(2 * np.pi * t))
    phi = c.phi.copy()
    for mu in range(3):
        phi[mu] = phi[mu] + eps * rng.uniform(0.5, 1.0) * bump
    return Configuration(grid, c.target, phi, c.A.copy(), c.gM, c.orientation,
                         c.phi_winding.copy())


# ---------------------------------------------------------------------------
# verify pipeline
# ---------------------------------------------------------------------------


def _validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("configuration must be a JSON object")
    for key, hint in _RETIRED_KEYS.items():
        if key in cfg:
            raise ConfigError(f"unknown key {key!r} in configuration: {hint}")
    _check_keys(cfg, _TOP_KEYS, "configuration")
    if "family" not in cfg:
        raise ConfigError("configuration needs a 'family'")
    family = cfg["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    if "n" in cfg:
        _check_int(cfg["n"], "'n'", minimum=5)
    pert = _section(cfg, "perturb")
    _check_keys(pert, {"eps", "seed"}, "perturb")
    if "eps" in pert:
        _check_real(pert["eps"], "perturb 'eps'")
    if "seed" in pert:
        _check_int(pert["seed"], "perturb 'seed'")
    tols = dict(_DEFAULT_TOLS)
    user_tols = _section(cfg, "tolerances")
    _check_keys(user_tols, set(_DEFAULT_TOLS), "tolerances")
    for k, v in user_tols.items():
        _check_real(v, f"tolerance {k!r}")
    tols.update(user_tols)
    out = copy.deepcopy(cfg)
    out["tolerances"] = tols
    if "margins" not in out or not out["margins"]:
        out["margins"] = list(FAMILIES[family].margins)
    if not isinstance(out["margins"], (list, tuple)):
        raise ConfigError(f"'margins' must be a list, got {out['margins']!r}")
    for m in out["margins"]:
        _check_real(m, "each margin")
    ms = [float(m) for m in out["margins"]]
    if any(m <= 0 for m in ms) or any(a <= b for a, b in zip(ms, ms[1:])):
        raise ConfigError("margins must be positive and strictly decreasing")
    if len(ms) >= 3:
        ratios = [a / b for a, b in zip(ms, ms[1:])]
        if max(ratios) - min(ratios) > 1e-6 * ratios[0]:
            raise ConfigError(
                "three or more margins must form a geometric sequence "
                "(constant ratio) for the deficit-order fit"
            )
    return out


# The memory model of one verify, in float64 fields of the grid's size.  The
# margin's pass holds the configuration (phi 3, A 3 dim, g_M 9 and its
# determinant) and reduces its densities slab by slab; a build holds at most
# about _BUILD_FIELDS.  A slab's working set is about _SLAB_FIELDS fields
# on its rows and the 8 halo rows of the first margin's naturality check.  The
# target-level checks are of fixed size: Vol(N) integrates a 96^3 chart grid
# and the moment check evaluates (12 + 24 dim) fields on a 32^3 one.  The
# constants bound the traced peaks (tracemalloc, numpy 2.4) of all six
# families from n = 16 to 64, builds included.
_BUILD_FIELDS = 36
_SLAB_FIELDS = 100


def _footprint(n: int, dim: int) -> int:
    """Upper estimate, in bytes, of the memory one verify allocates at n
    points per axis with a gauge algebra of dimension dim."""
    field = 8 * n**3
    rows = min(n, slab_rows(n * n) + 8)
    slab = _SLAB_FIELDS * 8 * rows * n * n
    fixed = max(8 * (12 + 24 * dim) * 32**3, 1.2 * 8 * 96**3)
    held = (13 + 3 * dim) * field
    return int(max(_BUILD_FIELDS * field + slab, held + max(fixed, slab)))


def _mem_available() -> int | None:
    """MemAvailable of /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_footprint(cfg: dict):
    """Refuse, before anything is built, a verify that needs more memory than
    the machine has available."""
    n = int(cfg.get("n", 48))
    need, avail = _footprint(n, FAMILIES[cfg["family"]].algebra_dim), _mem_available()
    if avail is not None and need > avail:
        raise ConfigError(f"n = {n} needs about {need / 2**20:.0f} MB, more than the "
                          f"{avail / 2**20:.0f} MB available")


def _verify_margin(cfg: dict, m: float, check, vol_n, first: bool):
    """Build the family at margin m, run its checks and return (row, BPSParams, Vol(N)).

    The first margin also runs the target-level checks, computes Vol(N) and
    runs the Bianchi and naturality checks in the margin's pass, on the same
    slabs.  Only the row leaves this function, so the margin's configuration
    is freed before the next margin is built.
    """
    tols = cfg["tolerances"]
    res, p = build_family(cfg, m)
    c = res.config
    stencil_checks = []
    if first:
        # Vol(N) before the pass: its 96^3 quadrature is then not stacked on
        # the pass's densities
        vol_n = c.target.volume()
        mom = verify_moment_conditions(c.target, n=32)
        check("moment_def_residual", mom["def_residual"], tols["moment"])
        if c.target.has_moment_constraint:
            check("moment_constraint_residual", mom["constraint_residual"], tols["moment"])
        # each is a function of a slab, so that they share the pass's slabs
        stencil_checks = [("bianchi_residual", c.bianchi_residual)] + [
            (f"naturality[{name}]", functools.partial(pullback_naturality_residual, c, spec))
            for name, spec in naturality_check_specs(c.target)]
    bg = bound_gap(c, p, vol_n, stencil_checks) if c.gM.riemannian else None
    if first:
        # the charge-cross residual needs no positive definite metric
        done = _margin_pass(c, p, stencil_checks) if bg is None else bg
        for name, value in done["checks"].items():
            check(name, value, tols["bianchi" if name == "bianchi_residual" else "naturality"])
        check("charge_density_cross", done["charge_cross"], tols["charge_cross"])
    if bg is None:
        check(f"riemannian[m={m}]", 1.0, 0.0, ok=False)
        return EnergyReport(res.family, _row_params(cfg), cfg.get("n", 48), m,
                            np.nan, np.nan, np.nan, np.nan, np.nan, np.nan,
                            extras={"riemannian": False}, exit_code=1), p, vol_n
    row = EnergyReport(
        family=res.family, params=_row_params(cfg), n=int(cfg.get("n", 48)),
        margin=m, energy=bg["energy"], degree=bg["degree"], bound=bg["bound"],
        gap=bg["gap"], r1=bg["r1"], r2=bg["r2"], terms=bg["terms"],
        extras={k: v for k, v in res.diagnostics.items() if isinstance(v, (int, float, bool))},
    )
    check(f"r1[m={m}]", bg["r1"], tols["residual"])
    check(f"r2[m={m}]", bg["r2"], tols["residual"])
    check(f"gap_rel[m={m}]", abs(bg["gap"]) / max(abs(bg["energy"]), 1e-30), tols["gap_rel"])
    check(f"decomposition[m={m}]", bg["decomposition_residual"], 1e-10)
    return row, p, vol_n


def run_verify(cfg: dict) -> dict:
    """Full verification of one family: construct, check, extrapolate.

    Returns a report dict with per-margin rows, the margin-extrapolated
    degree, a list of named checks, and the resulting exit code.
    """
    cfg = _validate_config(cfg)
    _check_footprint(cfg)
    tols = cfg["tolerances"]
    margins = [float(m) for m in cfg["margins"]]
    checks: list[dict] = []
    rows: list[EnergyReport] = []
    degs = []

    def check(name, value, tol, ok=None):
        ok = bool(value <= tol) if ok is None else bool(ok)
        checks.append({"name": name, "value": value, "tol": tol, "pass": ok})
        return ok

    vol_n = None
    for i, m in enumerate(margins):
        row, p, vol_n = _verify_margin(cfg, m, check, vol_n, first=i == 0)
        rows.append(row)
        if row.exit_code == 0:  # a riemannian row; the verdict is set below
            degs.append(row.degree)

    deg_extrap = None
    if degs and len(degs) == len(margins):
        deg_extrap = extrapolate_margin(margins, degs)
        # the integer claim holds for the margin -> 0 limit, so it needs at
        # least two margins to extrapolate from
        if FAMILIES[cfg["family"]].integer_degree and len(margins) >= 2:
            check("degree_integer", abs(deg_extrap - round(deg_extrap)), tols["degree"])

    exit_code = 0 if all(ch["pass"] for ch in checks) else 1
    for row in rows:
        if row.exit_code == 0 and exit_code:
            row.exit_code = exit_code
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "rows": [r.to_json_dict() for r in rows],
        "degree_extrapolated": deg_extrap,
        "volume_n": vol_n,
        # reported value only; no sharpness or positivity claim attached
        "general_bound_coefficient": general_bound_coefficient(p),
        "checks": checks,
        "exit": exit_code,
        "_reports": rows,
    }


def _row_params(cfg):
    return dict(cfg.get("family_params") or {})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _point_config(cfg: dict, path: str, value) -> dict:
    """cfg without its sweep and with cfg[k1]...[kn] = value, for path "k1...kn"."""
    sub = copy.deepcopy(cfg)
    del sub["sweep"]
    *parents, last = path.split(".")
    node = sub
    for k in parents:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"sweep 'param' {path!r} passes through {k!r}, "
                              f"which is not an object")
    node[last] = value
    return sub


def run_sweep(cfg: dict) -> dict:
    """One verify run per sweep point; failures are per-row, the run continues."""
    cfg = _validate_config(cfg)
    sweep = _section(cfg, "sweep")
    _check_keys(sweep, {"param", "values"}, "sweep")
    param, values = sweep.get("param"), sweep.get("values")
    if not isinstance(param, str) or not isinstance(values, (list, tuple)):
        raise ConfigError(f"sweep needs a dotted key path 'param' and a list 'values', "
                          f"got {param!r} and {values!r}")
    try:
        workers = max(1, int(os.environ.get("SKYRME_THREADS", "1")))
    except ValueError:
        raise ConfigError(f"SKYRME_THREADS must be an integer, "
                          f"got {os.environ['SKYRME_THREADS']!r}") from None
    # every point's configuration is built, and so checked, before any point runs
    subs = [_point_config(cfg, param, v) for v in values]

    def one(value, sub):
        try:
            rep = run_verify(sub)
            return value, rep, None
        except SkybpsError as exc:
            return value, None, f"{type(exc).__name__}: {exc}"

    if workers > 1 and len(values) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, values, subs))
    else:
        results = [one(v, sub) for v, sub in zip(values, subs)]

    rows, points = [], []
    any_fail = False
    for value, rep, err in results:
        if err is not None:
            any_fail = True
            points.append({"value": value, "error": err, "exit": 1})
            continue
        any_fail = any_fail or rep["exit"] != 0
        points.append({
            "value": value,
            "exit": rep["exit"],
            "degree_extrapolated": rep["degree_extrapolated"],
            "rows": rep["rows"],
        })
        rows.extend(rep["_reports"])
    # observed convergence order for n-doubling pairs within the sweep
    conv = []
    if param == "n":
        by_n = {int(v): rep for (v, rep, err) in results if rep is not None}
        for n1 in sorted(by_n):
            if 2 * n1 in by_n:
                r_a = by_n[n1]["rows"][-1]
                r_b = by_n[2 * n1]["rows"][-1]
                if r_a["r1"] > 0 and r_b["r1"] > 0:
                    conv.append({
                        "n_pair": [n1, 2 * n1],
                        "observed_order_r1": float(np.log2(r_a["r1"] / r_b["r1"])),
                    })
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "points": points,
        "convergence": conv,
        "exit": 1 if any_fail else 0,
        "_reports": rows,
    }


# ---------------------------------------------------------------------------
# output and entry points
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".skybps-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_outputs(report: dict, out_dir: str, emit_gnuplot: bool = False):
    import io

    reports = report.pop("_reports", [])
    _atomic_write(os.path.join(out_dir, "report.json"),
                  json.dumps(report, indent=2, sort_keys=True, default=_json_default))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in reports:
        writer.writerow(r.to_csv_row())
    _atomic_write(os.path.join(out_dir, "results.csv"), buf.getvalue())
    if emit_gnuplot:
        cols = ["margin", "E", "deg", "gap", "r1", "r2"]
        out = ["# " + " ".join(cols)]
        for r in reports:
            out.append(" ".join(repr(v) for v in
                                [r.margin, r.energy, r.degree, r.gap, r.r1, r.r2]))
        _atomic_write(os.path.join(out_dir, "results.dat"), "\n".join(out) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("configuration must be a JSON object")
    if getattr(args, "family", None):
        cfg["family"] = args.family
    if getattr(args, "n", None) is not None:
        cfg["n"] = args.n
    if getattr(args, "margins", None):
        try:
            cfg["margins"] = [float(x) for x in args.margins.split(",")]
        except ValueError:
            raise ConfigError(f"--margins must be comma-separated numbers, got {args.margins!r}")
    if getattr(args, "ax", None):
        cfg.setdefault("family_params", {})["ax"] = args.ax
    if getattr(args, "surface", None):
        cfg.setdefault("surface", {})["name"] = args.surface
    if getattr(args, "curvature", None) is not None:
        cfg.setdefault("surface", {})["name"] = cfg.get("surface", {}).get("name", "s2-round")
        cfg["surface"]["curvature"] = args.curvature
    if getattr(args, "target", None):
        cfg.setdefault("target", {})["name"] = args.target
    for k in ("alpha", "beta", "gamma"):
        v = getattr(args, k, None)
        if v is not None:
            cfg.setdefault("family_params", {})[k] = v
    if args.output_dir is not None:
        cfg["output_dir"] = args.output_dir
    if args.emit_gnuplot:
        cfg["emit_gnuplot"] = True
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="skybps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--family", help="family name")
    common.add_argument("-n", "--n", dest="n", type=int, help="grid points per axis")
    common.add_argument("--margins", help="comma-separated margin list")
    common.add_argument("--ax", help="A_x(theta, x) expression for identity-u1")
    common.add_argument("--surface", help="surface name (s2-round)")
    common.add_argument("--curvature", type=float, help="surface Gauss curvature")
    common.add_argument("--target", help="target name")
    common.add_argument("--alpha", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--gamma", type=float)
    common.add_argument("--output-dir", dest="output_dir", help="default: config's, else .")
    common.add_argument("--emit-gnuplot", dest="emit_gnuplot", action="store_true")

    sub.add_parser("verify", parents=[common], help="verify one family")
    sub.add_parser("sweep", parents=[common], help="verify a parameter grid")
    ob = sub.add_parser("obstruction", parents=[common],
                        help="left-action moment obstruction constant")
    ob.add_argument("--K", type=float, default=1.0)

    args = parser.parse_args(argv)
    try:
        if args.command == "obstruction":
            if not (math.isfinite(args.K) and args.K > 0):
                raise ConfigError("K must be positive and finite")
            # an overflow is reported as a non-finite constant, not as warnings
            with np.errstate(over="ignore", invalid="ignore"):
                value = left_action_obstruction(args.K)
            if not math.isfinite(value):
                raise NonFinite(f"obstruction constant for K={args.K!r} is {value!r}")
            print(f"iota_nu mu obstruction constant for K={args.K}: {value!r}")
            print(f"expected K/2 = {args.K / 2!r}; nonzero, so no valid degree exists")
            report = {
                "schema_version": SCHEMA_VERSION,
                "K": args.K,
                "obstruction": value,
                "expected": args.K / 2,
                "positive": value > 0,
                "exit": 0 if value > 0 else 1,
            }
            _atomic_write(os.path.join(args.output_dir or ".", "report.json"),
                          json.dumps(report, indent=2, sort_keys=True))
            return report["exit"]
        cfg = _load_config(args)
        out_dir, emit = cfg.pop("output_dir", "."), cfg.pop("emit_gnuplot", False)
        if not isinstance(out_dir, str) or not isinstance(emit, bool):
            raise ConfigError(f"'output_dir' must be a string and 'emit_gnuplot' true or "
                              f"false, got {out_dir!r} and {emit!r}")
        if args.command == "verify":
            report = run_verify(cfg)
        else:
            report = run_sweep(cfg)
        write_outputs(report, out_dir, emit)
        for ch in report.get("checks", []):
            status = "pass" if ch["pass"] else "FAIL"
            print(f"[{status}] {ch['name']}: {ch['value']:.3e} (tol {ch['tol']:.1e})")
        if "degree_extrapolated" in report and report["degree_extrapolated"] is not None:
            print(f"degree (margin-extrapolated): {report['degree_extrapolated']:.6f}")
        print(f"exit: {report['exit']}")
        return report["exit"]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SkybpsError as exc:
        print(f"verification error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
