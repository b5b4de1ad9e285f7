"""Batch driver: construct a family, verify its invariants, emit reports.

Subcommands
-----------
verify        one family at each margin in the margin list, extrapolate the
              degree, check every tolerance; exit 0 iff all checks pass.
              The family is built once, on the grid of the smallest margin,
              and one pass over it serves every margin: a coarser margin m
              is the sub-box [lo + m, hi - m] of that grid on every bounded
              axis, whose quadrature integrates a face between two rows
              over its part cell.  Every row reports the n of that grid.
sweep         verify once per point of a parameter grid; per-row failures are
              recorded and the run continues.
obstruction   evaluate the left-action moment-map obstruction constant K/2.

Configuration is JSON (``--config``), with common fields overridable by
flags.  Unknown keys are rejected.  Outputs: ``report.json`` (nested,
schema-versioned) and ``results.csv`` with the fixed header
family,params,n,margin,E,deg,bound,gap,r1,r2,exit.  Files are written
atomically.  A sweep runs its points one after another, and points that share
a target compute its Vol(N) and moment check once; runs are deterministic for
a fixed configuration.
"""

from __future__ import annotations

import argparse
import copy
import csv
import ctypes
import dataclasses
import functools
import io
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy_degree import bound_gap, bps_coefficients
from .errors import ConfigError, NonFinite, ResolutionError, SkybpsError
from .exprs import Expression
from .gaugefield import Configuration, naturality_check_specs, pullback_naturality_residual
from .grid import extrapolate_margin, slab_rows
from .lie_target import (
    AdjointIntervalFamily,
    TargetGeometry,
    left_action_obstruction,
    make_u1_fibered_target,
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

SCHEMA_VERSION = 2

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
# the bound on the decomposition residual, fixed: the Bogomolny and six-term
# densities agree to rounding on every configuration
_DECOMPOSITION_TOL = 1e-10


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
        # a NaN or an infinity is reported once, by name, not as numpy warnings
        with np.errstate(all="ignore"):
            out = e(**dict(zip(names, args))) * np.ones_like(sum(args))
        if not np.all(np.isfinite(out)):
            raise NonFinite(f"expression {text!r} evaluates to NaN or infinity")
        return out

    return fn


def _required(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where} needs {key!r}")
    return cfg[key]


def build_target(cfg: dict) -> TargetGeometry:
    """The identity-u1 target named by a config section, with its profile
    parameters.

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
    if name != "u1-fibered":
        raise ConfigError(f"unknown identity-u1 target {name!r}: it takes 'u1-s3' "
                          f"(or 'default') and 'u1-fibered'")
    _check_keys(cfg, {"mu_x", "mu_y", "h", "omega_x", "lo", "hi", "periodic"},
                "target 'u1-fibered'")
    return make_u1_fibered_target(
        mu_x=_expr_fn(cfg.get("mu_x", "0"), "x", "y"),
        mu_y=_expr_fn(_required(cfg, "mu_y", "target 'u1-fibered'"), "x", "y"),
        h=_expr_fn(cfg.get("h", "1"), "x", "y"),
        omega_x=_expr_fn(cfg.get("omega_x", "0"), "x", "y"),
        chart_lo=_check_tuple(cfg.get("lo", (0.0, 0.0, 0.0)), 3, "target 'lo'"),
        chart_hi=_check_tuple(cfg.get("hi", (2 * np.pi, np.pi / 2, 4 * np.pi)), 3,
                              "target 'hi'"),
        chart_periodic=_check_tuple(cfg.get("periodic", (True, False, True)), 3,
                                    "target 'periodic'", _check_bool),
    )


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
    if name != "adjoint-interval":
        raise ConfigError(f"unknown spinorial target {name!r}: it takes 's3-round' "
                          f"(or 'default') and 'adjoint-interval'")
    # the spinorial constructions fix h1 = 1, so the section may not set it
    where = "target 'adjoint-interval'"
    _check_keys(cfg, {"h2", "eta1", "eta2", "interval", "compact"}, where)
    compact = cfg.get("compact")
    if compact not in (None, "s3", "s1xs2"):
        raise ConfigError(f"target 'compact' must be \"s3\" or \"s1xs2\", got {compact!r}")
    return AdjointIntervalFamily(
        h1=_expr_fn("1", "xi"),
        h2=_expr_fn(_required(cfg, "h2", where), "xi"),
        eta1=_expr_fn(_required(cfg, "eta1", where), "xi"),
        eta2=_expr_fn(cfg.get("eta2", "0"), "xi"),
        interval=_check_tuple(cfg.get("interval", (0.0, np.pi)), 2, "target 'interval'"),
        compact=compact,
    )


def _nullable(value, where: str):
    return None if value is None else _check_real(value, where)


def _window(value, where: str):
    """An interval [lo, hi] of a chart coordinate, lo < hi."""
    lo, hi = _check_tuple(value, 2, where)
    if not lo < hi:
        raise ConfigError(f"{where} must be an interval [lo, hi] with lo < hi, got {value!r}")
    return lo, hi


def _radii(value, where: str):
    if _window(value, where)[0] <= 0:
        raise ConfigError(f"{where} must lie in r > 0, got {value!r}")
    return tuple(value)


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
        _dirac_monopole, {"r_window": (_radii, (0.5, 2.0)), "alpha": (_check_real, 0.0),
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
        # inside the coarsest margin's sub-box, so that it vanishes on every face
        inset = max(float(m) for m in cfg.get("margins", [margin])) - margin
        res.config = perturb_configuration(res.config, eps, int(pert.get("seed", 0)), inset)
    return res, bps_coefficients(*bps)


def perturb_configuration(c: Configuration, eps: float, seed: int = 0,
                          inset: float = 0.0) -> Configuration:
    """Add a smooth bump of amplitude eps to phi, supported inside the box
    that ``inset`` more margin leaves at every bounded face.

    On a bounded axis the bump is sin(pi t)^3 on that box (t from 0 to 1
    across it) and 0 outside, so it vanishes, with its first two
    derivatives, on the faces of every sub-box of a verify
    (``PatchGrid.box``) when ``inset`` is the coarsest margin's; on a
    periodic axis it is sin(2 pi t).  It is a product of per-axis factors,
    evaluated once on each axis and multiplied out on the rows that the
    configuration is evaluated on.
    """
    rng = np.random.default_rng(seed)
    grid = c.grid
    factors = []
    for ax in range(3):
        lo, hi = grid.lo_eff[ax], grid.hi_eff[ax]
        if not grid.periodic[ax]:
            lo, hi = lo + inset, hi - inset
        t = (grid.axis_points(ax) - lo) / (hi - lo)
        factors.append(np.sin(2 * np.pi * t) if grid.periodic[ax]
                       else np.sin(np.pi * np.clip(t, 0.0, 1.0)) ** 3)
    amplitude = [eps * rng.uniform(0.5, 1.0) for _ in range(3)]
    fields, (f0, f1, f2) = c.fields, factors

    def perturbed(rows):
        phi, A = fields(rows)
        bump = f0[grid.row_index(rows), None, None] * f1[:, None] * f2
        return tuple(v + a * bump for v, a in zip(phi, amplitude)), A

    return dataclasses.replace(c, fields=perturbed, phi_winding=c.phi_winding.copy())


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


# The memory model of one verify, in float64 fields.  A verify holds no field
# of the grid's size: its configuration is closed forms, evaluated slab by
# slab.  Its peak is the larger of two working sets, each freed before the
# next stage begins: a slab of the pass and a slab of the moment check's
# 32^3 chart grid, 19 dim fields with the complex-step partials of mu (the
# u(1) targets' mu is formed off the slab's rows, so 10 fields there).  A
# slab of the pass holds about _SLAB_FIELDS fields on each of its
# rows, each freed after its last reader.  It evaluates phi and A on up to 4
# more rows on each side: it forms F and d^A phi on the inner two of them,
# which hold those and phi and A, 12 + 6 dim fields, and the outer two hold
# only phi and A (3 + 3 dim fields).  phi and I(phi) are held on the axes
# they vary along, so on those rows they are full fields only where a
# perturbation makes phi vary along every axis; the phi terms keep such a
# verify within the estimate.  Vol(N) forms about 13 fields on 96^2 points
# of its 96^3 chart grids, less than either working set.  The estimate is
# 1.03 to 1.44 times the traced peak (tracemalloc, numpy 2.4) of all six
# families from n = 16 to 64 and at 96, and above that of a perturbed
# spherical or identity-u1 verify at n = 32, 48 and 96.
_SLAB_FIELDS = 75


def _footprint(n: int, dim: int) -> int:
    """Upper estimate, in bytes, of the memory one verify allocates at n
    points per axis with a gauge algebra of dimension dim."""
    rows = min(n, slab_rows(n * n))
    inner = min(4, n - rows)
    outer = min(4, n - rows - inner)
    fields = _SLAB_FIELDS * rows + (12 + 6 * dim) * inner + (3 + 3 * dim) * outer
    moment = 19 * dim * slab_rows(32 * 32) * 32 * 32
    return 8 * max(fields * n * n, moment)


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
        raise ConfigError(f"n = {n} needs about {need / 2**20:.0f} MB, "
                          f"more than the {avail / 2**20:.0f} MB available")


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_pages():
    """Have glibc's malloc hand the pages one slab frees to the next slab.

    By default glibc serves each large slab field from its own mmap and
    returns freed heap to the system, so every slab faults in fresh zeroed
    pages.  Fields below 32 MiB now come from the heap, and up to 128 MiB of
    freed heap stays mapped.  Where ``mallopt`` is missing or refuses a
    value nothing changes; no arithmetic depends on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def _margin_insets(grid, margins: list[float]) -> list[float]:
    """The inset m - m_min of each margin's sub-box in ``grid``, the finest
    margin's: the box [lo + m, hi - m] on every bounded axis, as a grid
    built at m would mesh.  Refuses the margins that such a grid would
    refuse (a quarter of a bounded axis or more), and (exit 2) a coarsest
    sub-box with fewer than 5 rows inside it on a bounded axis.
    """
    dataclasses.replace(grid, margin=margins[0])  # PatchGrid's bounds on the margin
    insets = [m - margins[-1] for m in margins]
    try:
        for i in range(3):
            grid.axis_weights(i, insets[0])
    except ResolutionError as exc:
        raise ConfigError(f"margin {margins[0]}: {exc}") from None
    return insets


def _check(name: str, value: float, tol: float, ok=None) -> dict:
    """The report's record of one check: value <= tol, or the verdict ok."""
    return {"name": name, "value": value, "tol": tol,
            "pass": bool(value <= tol) if ok is None else bool(ok)}


def _margin_row(cfg: dict, res, m: float, bg: dict) -> tuple[dict, list[dict]]:
    """The report row of the margin m, from its sub-box's :func:`bound_gap`,
    and its per-margin checks.  A row on which the metric is not riemannian
    is NaN and fails its one check."""
    row = {"family": res.family, "params": dict(cfg.get("family_params") or {}),
           "n": int(cfg.get("n", 48)), "margin": m}
    if not bg["riemannian"]:
        row.update(dict.fromkeys(("energy", "degree", "bound", "gap", "r1", "r2"), math.nan),
                   terms={}, extras={"riemannian": False}, exit=1)
        return row, [_check(f"riemannian[m={m}]", 1.0, 0.0, ok=False)]
    row.update({key: bg[key] for key in ("energy", "degree", "bound", "gap", "r1", "r2", "terms")},
               extras={**res.diagnostics, **bg["diagnostics"],
                       **{name: bg["checks"][name] for name, _ in res.checks}},
               exit=0)
    tols = cfg["tolerances"]
    return row, [
        _check(f"r1[m={m}]", bg["r1"], tols["residual"]),
        _check(f"r2[m={m}]", bg["r2"], tols["residual"]),
        _check(f"gap_rel[m={m}]", abs(bg["gap"]) / max(abs(bg["energy"]), 1e-30),
               tols["gap_rel"]),
        _check(f"decomposition[m={m}]", bg["decomposition_residual"], _DECOMPOSITION_TOL),
    ]


def run_verify(cfg: dict) -> dict:
    """Full verification of one family: construct, check, extrapolate.

    The family is built once, at the smallest margin, and one pass over that
    grid reduces every margin's row over its sub-box (:func:`_margin_insets`).
    Returns a report dict with per-margin rows, the margin-extrapolated
    degree, a list of named checks, and the resulting exit code.
    """
    cfg = _validate_config(cfg)
    _check_footprint(cfg)
    tols = cfg["tolerances"]
    margins = [float(m) for m in cfg["margins"]]
    res, p = build_family(cfg, margins[-1])
    c = res.config
    insets = _margin_insets(c.grid, margins)
    # Vol(N) before the pass: its quadrature is then not stacked on the
    # pass's densities
    vol_n = c.target.volume()
    mom = verify_moment_conditions(c.target, n=32)
    checks = [_check("moment_def_residual", mom["def_residual"], tols["moment"])]
    if c.target.has_moment_constraint:
        checks.append(_check("moment_constraint_residual", mom["constraint_residual"],
                             tols["moment"]))
    # (name, tol, fn): each fn is a function of a slab, so that they share
    # the pass's slabs
    stencil_checks = [("bianchi_residual", tols["bianchi"], c.bianchi_residual)] + [
        (f"naturality[{name}]", tols["naturality"],
         functools.partial(pullback_naturality_residual, c, spec))
        for name, spec in naturality_check_specs(c.target)]
    # the slabs carry the derivative halo for the stencil checks, and the
    # pass runs to the end even where the metric is not riemannian, since
    # those checks and the charge-cross residual need no positive definite
    # metric; they are reported on the coarsest sub-box
    bgs = bound_gap(c, p, vol_n, [(name, fn) for name, _, fn in stencil_checks] + res.checks,
                    insets=insets)
    checks += [_check(name, bgs[0]["checks"][name], tol) for name, tol, _ in stencil_checks]
    checks.append(_check("charge_density_cross", bgs[0]["charge_cross"], tols["charge_cross"]))
    rows = []
    for m, bg in zip(margins, bgs):
        row, row_checks = _margin_row(cfg, res, m, bg)
        rows.append(row)
        checks += row_checks

    deg_extrap = None
    if all(row["exit"] == 0 for row in rows):  # every row riemannian
        deg_extrap = extrapolate_margin(margins, [row["degree"] for row in rows])
        # the integer claim holds for the margin -> 0 limit, so it needs at
        # least two margins to extrapolate from
        if FAMILIES[cfg["family"]].integer_degree and len(margins) >= 2:
            checks.append(_check("degree_integer", abs(deg_extrap - round(deg_extrap)),
                                 tols["degree"]))

    exit_code = 0 if all(ch["pass"] for ch in checks) else 1
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        # a row's exit is its verify's: a row that is not riemannian fails a check
        "rows": [{**row, "exit": exit_code} for row in rows],
        "degree_extrapolated": deg_extrap,
        "volume_n": vol_n,
        "checks": checks,
        "exit": exit_code,
    }


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
        node[k] = node.get(k) or {}  # a missing or null section, as in :func:`_section`
        node = node[k]
        if not isinstance(node, dict):
            raise ConfigError(f"sweep 'param' {path!r} passes through {k!r}, "
                              f"which is not an object")
    node[last] = value
    return sub


def run_sweep(cfg: dict) -> dict:
    """One verify run per sweep point; failures are per-row, the run continues.

    Each point records its verify's rows and checks, or the error that
    stopped it."""
    cfg = _validate_config(cfg)
    sweep = _section(cfg, "sweep")
    _check_keys(sweep, {"param", "values"}, "sweep")
    param, values = sweep.get("param"), sweep.get("values")
    if not isinstance(param, str) or not isinstance(values, (list, tuple)):
        raise ConfigError(f"sweep needs a dotted key path 'param' and a list 'values', "
                          f"got {param!r} and {values!r}")
    # every point's configuration is built, and so checked, before any point runs
    subs = [_point_config(cfg, param, v) for v in values]
    points = []
    any_fail = False
    for value, sub in zip(values, subs):
        try:
            rep = run_verify(sub)
        except SkybpsError as exc:
            any_fail = True
            points.append({"value": value, "error": f"{type(exc).__name__}: {exc}", "exit": 1})
            continue
        any_fail = any_fail or rep["exit"] != 0
        points.append({
            "value": value,
            "exit": rep["exit"],
            "degree_extrapolated": rep["degree_extrapolated"],
            "rows": rep["rows"],
            "checks": rep["checks"],
        })
    # observed convergence order for n-doubling pairs within the sweep
    conv = []
    if param == "n":
        by_n = {int(p["value"]): p["rows"] for p in points if "rows" in p}
        for n1 in sorted(by_n):
            if 2 * n1 in by_n:
                r_a = by_n[n1][-1]
                r_b = by_n[2 * n1][-1]
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


def _check_output_dir(path: str):
    """Refuse, before anything is computed, an output directory that is a
    file or lies under one."""
    found = os.path.abspath(path)
    while not os.path.lexists(found):  # the nearest part of the path that exists
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"output directory {path!r}: {found!r} is not a directory")


# each column of results.csv: its header name and the report row key it writes
_CSV_COLUMNS = (("family", "family"), ("params", "params"), ("n", "n"), ("margin", "margin"),
                ("E", "energy"), ("deg", "degree"), ("bound", "bound"), ("gap", "gap"),
                ("r1", "r1"), ("r2", "r2"), ("exit", "exit"))
# the columns of results.dat, by their header names in results.csv
_DAT_COLUMNS = ("margin", "E", "deg", "gap", "r1", "r2")


def _cell(value) -> str:
    """A row value as a table cell: text as it is, params as compact JSON,
    numbers by repr."""
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value if isinstance(value, str) else repr(value)


def write_outputs(report: dict, out_dir: str, emit_gnuplot: bool = False):
    """Write report.json, and results.csv (with results.dat if asked) from the
    rows it holds: a verify's, or each sweep point's in turn."""
    _atomic_write(os.path.join(out_dir, "report.json"),
                  json.dumps(report, indent=2, sort_keys=True))
    rows = report["rows"] if "rows" in report else [
        row for point in report["points"] for row in point.get("rows", [])]
    columns = dict(_CSV_COLUMNS)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[key]) for key in columns.values()] for row in rows)
    _atomic_write(os.path.join(out_dir, "results.csv"), buf.getvalue())
    if emit_gnuplot:
        out = ["# " + " ".join(_DAT_COLUMNS)]
        out += [" ".join(_cell(row[columns[col]]) for col in _DAT_COLUMNS) for row in rows]
        _atomic_write(os.path.join(out_dir, "results.dat"), "\n".join(out) + "\n")


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
    if args.family:
        cfg["family"] = args.family
    if args.n is not None:
        cfg["n"] = args.n
    if args.margins:
        try:
            cfg["margins"] = [float(x) for x in args.margins.split(",")]
        except ValueError:
            raise ConfigError(f"--margins must be comma-separated numbers, got {args.margins!r}")
    # each flag sets a key of an object-valued section, which it makes if absent
    sets = [("family_params", "ax", args.ax or None), ("surface", "name", args.surface or None),
            ("surface", "curvature", args.curvature), ("target", "name", args.target or None)]
    sets += [("family_params", k, getattr(args, k)) for k in ("alpha", "beta", "gamma")]
    for section, key, value in sets:
        if value is not None:
            cfg[section] = _section(cfg, section)
            cfg[section][key] = value
    if args.curvature is not None:
        cfg["surface"].setdefault("name", "s2-round")
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
    # obstruction reads no configuration, so it takes none of the flags above
    ob = sub.add_parser("obstruction", help="left-action moment obstruction constant")
    ob.add_argument("--K", type=float, default=1.0)
    ob.add_argument("--output-dir", dest="output_dir", help="default: .")

    args = parser.parse_args(argv)
    try:
        if args.command == "obstruction":
            if not (math.isfinite(args.K) and args.K > 0):
                raise ConfigError("K must be positive and finite")
            _check_output_dir(args.output_dir or ".")
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
        _check_output_dir(out_dir)
        _keep_freed_pages()
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
