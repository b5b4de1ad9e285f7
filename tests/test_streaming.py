"""A verify streams phi, A, g_M, d^A phi, F, the stencil checks and the
family identity checks through halo slabs.

The slab size changes only how much is held at once: every report value is
the same for one slab as for many, a margin's pass holds slab fields only,
and a build holds nothing of the grid's size.  The checks that read every
grid point (the target chart, the family's bounds, the riemannian metric)
give the errors and messages of a check of the whole grid.
"""

import dataclasses
import functools
import inspect
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from skybps import energy_degree, gaugefield, grid
from skybps.cli import FAMILIES, build_family, main, run_verify
from skybps.energy_degree import bound_gap
from skybps.errors import ChartExit, NotRiemannian
from skybps.gaugefield import naturality_check_specs, pullback_naturality_residual


@pytest.mark.parametrize("family", ["spherical", "identity-u1", "spinorial",
                                    "dirac-monopole", "twisted-spinorial"])
def test_verify_reports_equal_for_one_slab_and_many(family, monkeypatch):
    cfg = {"family": family, "n": 20}
    one = run_verify(cfg)  # 20^3 points: one slab, no halo read
    reports = []
    for rows in (3, 1):  # slabs of 3 rows and a short last one; slabs of one row
        monkeypatch.setattr(grid, "_SLAB_POINTS", rows * 20 * 20)
        reports.append(run_verify(cfg))
    assert [r["exit"] for r in reports] == [one["exit"]] * 2
    assert reports[0] == one
    assert reports[1] == one


def _traced_extra(fn, *args, **kwargs) -> int:
    """Traced peak above entry of fn(*args, **kwargs), in bytes."""
    entry = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    fn(*args, **kwargs)
    return tracemalloc.get_traced_memory()[1] - entry


def _pass_extras(family: str, n: int) -> list[int]:
    """Traced peak above entry of each pass of a verify at n with one-row
    slabs, in bytes."""
    real, extra = energy_degree._margin_pass, []

    def traced(*args, **kwargs):
        out = []
        extra.append(_traced_extra(lambda: out.append(real(*args, **kwargs))))
        return out[0]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(grid, "_SLAB_POINTS", n * n)
        m.setattr(energy_degree, "_margin_pass", traced)
        tracemalloc.start()
        try:
            run_verify({"family": family, "n": n})
        finally:
            tracemalloc.stop()
    return extra


def test_bound_gap_working_set_grows_as_a_row():
    # with one-row slabs the pass allocates slab fields only: its traced
    # peak above its entry grows as a row (n^2, a ratio of 4 from n = 16 to
    # 32; measured 3.6 to 3.7), not as the grid (n^3, a ratio of 8).  A
    # pass that held its nine densities on the grid measured 5.1 to 5.9.
    small, large = _pass_extras("spherical", 16), _pass_extras("spherical", 32)
    assert len(small) == len(large) == 1  # one pass serves every margin
    assert all(b <= 4.5 * a for a, b in zip(small, large)), (small, large)


@pytest.mark.parametrize("family, rows", [("spherical", 270), ("dirac-monopole", 265)])
def test_pass_halo_costs_a_pinned_share_of_a_row(family, rows):
    # with one-row slabs each slab forms F, d^A phi and I(phi) on 5 rows
    # from phi and A on 9; each is cut down or freed at its last reader, so
    # the pass peaks at about 250 fields of one row above its entry, while
    # F is formed from A on 9 rows (measured 252 spherical, 242
    # dirac-monopole; 260 and 250 when F was held on the window until the
    # pass took it; 348 and 420 when the window fields lived to the end of
    # the pass)
    n = 32
    [extra] = _pass_extras(family, n)
    assert extra <= rows * 8 * n * n, extra / (8 * n * n)


def test_take_hands_over_no_window_or_halo_buffer(monkeypatch):
    # the pass reads phi, d^A phi, F and I(phi) from Slab.take(); on a halo
    # slab each is a copy of the slab's own rows, so no window- or halo-sized
    # buffer lives on through the pass
    monkeypatch.setattr(grid, "_SLAB_POINTS", 3 * 20 * 20)
    res, p = build_family({"family": "spherical", "n": 20}, FAMILIES["spherical"].margins[0])
    c = res.config
    real, taken = gaugefield.Slab.take, []

    def take(slab):
        wide = [slab.phi, slab.P]  # held on the window; F is held on the rows alone
        wide += [a.base for a in wide if a.base is not None]
        out = real(slab)
        taken.append((slab.rows, wide, out))
        return out

    monkeypatch.setattr(gaugefield.Slab, "take", take)
    checks = [("bianchi", c.bianchi_residual)] + [
        (name, functools.partial(pullback_naturality_residual, c, spec))
        for name, spec in naturality_check_specs(c.target)]
    bound_gap(c, p, 1.0, checks)[0]
    assert len(taken) == len(c.grid.slabs()) == 7
    for rows, wide, out in taken:
        for a in out:
            assert a.shape[-3] == rows.stop - rows.start
            assert a.base is None and not any(np.shares_memory(a, w) for w in wide)
        assert len(out) == 4  # phi, d^A phi, F, I(phi)


# -- nothing of the grid's size is held -------------------------------------------


def _held_arrays(obj, seen=None):
    """Every array reachable from obj through dataclass fields, containers,
    partials and the closures of functions."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = list(vars(obj).values())
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, functools.partial):
        children = [obj.func, obj.args, obj.keywords]
    elif inspect.isfunction(obj):
        children = [cell.cell_contents for cell in obj.__closure__ or ()]
    else:
        return
    for child in children:
        yield from _held_arrays(child, seen)


@pytest.mark.parametrize("family", ["spherical", "identity-u1"])
def test_builds_hold_no_array_of_the_grid_size(family):
    n = 48
    cfg = {"family": family, "n": n, "perturb": {"eps": 1e-3, "seed": 2}}
    build_family(cfg, FAMILIES[family].margins[0])  # numpy's lazy imports, the target
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        res, _ = build_family(cfg, FAMILIES[family].margins[0])
        built = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert built < 8 * n**3  # the build and the perturbation form no field of the grid
    sizes = [a.size for a in _held_arrays(res)]
    assert max(sizes) < n**3, sorted(sizes)[-5:]
    assert max(sizes) >= n * n  # the walk reaches the evaluators' coordinate planes


@pytest.mark.parametrize("family", ["spherical", "identity-u1"])
def test_bound_gap_and_checks_equal_for_1_3_and_7_slabs(family, monkeypatch):
    # identity-u1's first axis is periodic and its phi winds: the halo rows of
    # its end slabs wrap around it
    results = []
    for rows, count in ((20, 1), (7, 3), (3, 7)):
        monkeypatch.setattr(grid, "_SLAB_POINTS", rows * 20 * 20)
        res, p = build_family({"family": family, "n": 20}, FAMILIES[family].margins[0])
        c = res.config
        assert len(c.grid.slabs()) == count
        checks = res.checks + [("bianchi", c.bianchi_residual)] + [
            (name, functools.partial(pullback_naturality_residual, c, spec))
            for name, spec in naturality_check_specs(c.target)]
        results.append(bound_gap(c, p, 1.0, checks)[0])
    assert results[0]["checks"] and results[0]["diagnostics"] == (
        {"kappa_min": results[0]["diagnostics"]["kappa_min"]} if family == "identity-u1" else {})
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_checks_in_any_order_form_each_slab_once(monkeypatch):
    # a slab evaluates phi and A once and forms F and d^A phi once, whether
    # the stencil checks or the family's checks read it first
    monkeypatch.setattr(grid, "_SLAB_POINTS", 3 * 20 * 20)
    res, p = build_family({"family": "spinorial", "n": 20}, FAMILIES["spinorial"].margins[0])
    c = res.config
    assert len(c.grid.slabs()) == 7 and len(res.checks) == 2
    checks = [("bianchi", c.bianchi_residual)] + [
        (name, functools.partial(pullback_naturality_residual, c, spec))
        for name, spec in naturality_check_specs(c.target)] + res.checks
    calls = []
    for owner, name in ((c, "fields"), (gaugefield, "_curvature"), (gaugefield, "_dphi")):
        monkeypatch.setattr(owner, name, lambda *args, name=name, real=getattr(owner, name):
                            calls.append(name) or real(*args))
    results = []
    for order in (checks, checks[::-1]):
        calls.clear()
        results.append(bound_gap(c, p, 1.0, order)[0])
        assert Counter(calls) == {"fields": 7, "_curvature": 7, "_dphi": 7}
    assert results[1] == results[0]


# -- the errors that read the whole grid ----------------------------------------------


@pytest.mark.parametrize("cfg, error, message", [
    ({"family": "spherical", "perturb": {"eps": 2.0, "seed": 1}}, ChartExit,
     "phi^0 in [-0.6562, 2.356] leaves the open target chart (0.2, 1.5)"),
    ({"family": "identity-u1", "family_params": {"ax": "0.5*sin(theta)"}}, NotRiemannian,
     "conformal factor reaches -3.647 <= 0; shrink A or the margin"),
], ids=["chart-exit", "conformal-factor"])
def test_whole_grid_errors_quote_the_grid_extrema(cfg, error, message, monkeypatch):
    # the extremum lies in one slab; the message is the one a check of the
    # whole grid, the smallest margin's, gives, whatever the slabs
    for rows in (20, 7, 3):
        monkeypatch.setattr(grid, "_SLAB_POINTS", rows * 20 * 20)
        with pytest.raises(error) as info:
            run_verify({**cfg, "n": 20})
        assert str(info.value) == message


def test_non_finite_profile_on_an_axis_exits_1(tmp_path, capsys):
    # symplectic's twist is a profile of xi, evaluated once on the xi axis
    code = main(["verify", "--family", "symplectic", "-n", "12", "--output-dir", str(tmp_path),
                 "--config", _write(tmp_path, {"family_params": {"twist": "ln(xi - 1)"}})])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == ["verification error: NonFinite: expression 'ln(xi - 1)' evaluates to "
                   "NaN or infinity"]


def test_non_riemannian_margins_report_alike_for_any_slabs(monkeypatch):
    # the one pass runs to the end for the stencil and charge-cross checks,
    # over every slab once; no sub-box is riemannian, so every row is NaN
    cfg = {"family": "spinorial", "surface": {"curvature": 0.5}, "n": 20}
    passes = []
    real = energy_degree._slab_pass
    monkeypatch.setattr(energy_degree, "_slab_pass",
                        lambda c, p, slab, *peak: passes.append(slab.rows) or real(c, p, slab, *peak))
    reports = []
    for rows in (20, 7, 3):
        monkeypatch.setattr(grid, "_SLAB_POINTS", rows * 20 * 20)
        passes.clear()
        reports.append(run_verify(cfg))
        assert len(passes) == len(grid.build_patch((0, 0, 0), (1, 1, 1), (20, 20, 20),
                                                   (False,) * 3).slabs())
    assert reports[0]["exit"] == 1
    assert [r["extras"] for r in reports[0]["rows"]] == [{"riemannian": False}] * 3
    assert reports[0]["volume_n"] == pytest.approx(19.738875179944888, rel=1e-12)
    assert json.dumps(reports[1], default=str) == json.dumps(reports[0], default=str)
    assert json.dumps(reports[2], default=str) == json.dumps(reports[0], default=str)


def _write(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)
