import numpy as np
import pytest

from skybps import grid as grid_module
from skybps.errors import BoundsError, GridMismatch, ResolutionError
from skybps.grid import (
    build_patch,
    extrapolate_margin,
    integrate,
    partial_derivative,
    slab_derivative,
)

PI = np.pi


def test_build_patch_s3_chart():
    g = build_patch((0, 0, 0), (2 * PI, PI / 2, 4 * PI), (32, 32, 32),
                    (True, False, True), 0.05)
    assert g.lo_eff[1] == pytest.approx(0.05)
    assert g.hi_eff[1] == pytest.approx(PI / 2 - 0.05)
    # periodic axes untouched
    assert g.lo_eff[0] == 0.0 and g.hi_eff[0] == 2 * PI
    assert all(h > 0 for h in g.h)


def test_build_patch_unit_box_weights():
    g = build_patch((0, 0, 0), (1, 1, 1), (5, 5, 5), (False, False, False), 0)
    assert np.sum(g.weights()) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [5, 6, 16, 47, 48])
def test_weights_sum_to_box_volume(n):
    g = build_patch((0, -1, 2), (2 * PI, 1.5, 3), (n, n + 1, n + 2),
                    (True, False, False), 0.1)
    extent = np.prod([g.hi_eff[i] - g.lo_eff[i] for i in range(3)])
    assert np.sum(g.weights()) == pytest.approx(extent, rel=1e-12)


def test_build_patch_errors():
    with pytest.raises(BoundsError):
        build_patch((0, 0, 0), (1, -1, 1), (8, 8, 8), (False,) * 3, 0)
    with pytest.raises(ResolutionError):
        build_patch((0, 0, 0), (1, 1, 1), (4, 8, 8), (False,) * 3, 0)
    # margin >= quarter length rejected
    with pytest.raises(BoundsError):
        build_patch((0, 0, 0), (1, 1, 1), (8, 8, 8), (False,) * 3, 0.3)


def test_derivative_periodic_sin():
    # truncation is h^4 f^(5) / 30: 3.1e-6 at n=64, under 1e-6 from n=96 on
    g = build_patch((0, 0, 0), (2 * PI, 1, 1), (64, 5, 5), (True, False, False), 0)
    th = g.meshes()[0]
    err = np.max(np.abs(partial_derivative(np.sin(th), 0, g) - np.cos(th)))
    assert err < 5e-6
    g = build_patch((0, 0, 0), (2 * PI, 1, 1), (96, 5, 5), (True, False, False), 0)
    th = g.meshes()[0]
    err = np.max(np.abs(partial_derivative(np.sin(th), 0, g) - np.cos(th)))
    assert err < 1e-6


def test_derivative_constant_exact():
    g = build_patch((0, 0, 0), (1, 1, 1), (8, 8, 8), (False,) * 3, 0)
    f = np.full(g.shape, 2.5)
    # exact up to roundoff in the one-sided stencil rows
    assert np.max(np.abs(partial_derivative(f, 1, g))) < 1e-13


def test_derivative_polynomial_exact():
    g = build_patch((0, 0, 0), (1, 2, 1), (8, 16, 8), (False,) * 3, 0)
    x = g.meshes()[1]
    err = np.max(np.abs(partial_derivative(x**2, 1, g) - 2 * x))
    assert err < 1e-8
    # 4th-order one-sided stencils keep quartics exact too
    err4 = np.max(np.abs(partial_derivative(x**4, 1, g) - 4 * x**3))
    assert err4 < 1e-10


def test_richardson_consistency():
    errs = []
    for n in (32, 64):
        g = build_patch((0, 0, 0), (2 * PI, 1, 1), (n, 5, 5), (True, False, False), 0)
        th = g.meshes()[0]
        errs.append(np.max(np.abs(partial_derivative(np.sin(th), 0, g) - np.cos(th))))
    assert errs[0] / errs[1] >= 12.0
    # bounded axis with one-sided rows
    errs = []
    for n in (32, 64):
        g = build_patch((0, 0, 0), (1, 1, 1), (5, n, 5), (False,) * 3, 0)
        x = g.meshes()[1]
        errs.append(np.max(np.abs(partial_derivative(np.exp(x), 1, g) - np.exp(x))))
    assert errs[0] / errs[1] >= 12.0


def test_mixed_partials_commute():
    g = build_patch((0, 0, 0), (2 * PI, 1, 1), (64, 64, 5), (True, False, False), 0)
    th, x, _ = g.meshes()
    f = np.sin(th) * np.exp(x)
    d01 = partial_derivative(partial_derivative(f, 0, g), 1, g)
    d10 = partial_derivative(partial_derivative(f, 1, g), 0, g)
    assert np.max(np.abs(d01 - d10)) < 1e-6


def test_integrate_unit_box():
    g = build_patch((0, 0, 0), (1, 1, 1), (5, 5, 5), (False,) * 3, 0)
    assert integrate(np.ones(g.shape), g) == pytest.approx(1.0, rel=1e-12)


def test_integrate_sin_squared_periodic():
    g = build_patch((0, 0, 0), (2 * PI, 1, 1), (16, 5, 5), (True, False, False), 0)
    th = g.meshes()[0]
    assert integrate(np.sin(th) ** 2, g) == pytest.approx(PI, abs=1e-12)


def test_integrate_round_s3_volume_margin_extrapolated():
    # hyperspherical chart (xi, u, psi): density sin^2(xi) sin(u)
    margins = [0.12, 0.06, 0.03]
    vals = []
    for m in margins:
        g = build_patch((0, 0, 0), (PI, PI, 2 * PI), (48, 48, 48),
                        (False, False, True), m)
        xi, u, _ = g.meshes()
        vals.append(integrate(np.sin(xi) ** 2 * np.sin(u), g))
    vol = extrapolate_margin(margins, vals)
    assert vol == pytest.approx(2 * PI**2, rel=1e-2)


def test_integrate_grid_mismatch():
    g1 = build_patch((0, 0, 0), (1, 1, 1), (5, 5, 5), (False,) * 3, 0)
    with pytest.raises(GridMismatch):
        integrate(np.ones((6, 5, 5)), g1)


def test_exact_differential_integrates_to_zero():
    # d/dtheta of a margin-supported smooth form integrates to ~0 over the
    # periodic axis (stencil and trapezoid weights are translation invariant)
    g = build_patch((0, 0, 0), (2 * PI, 1, 1), (32, 16, 16), (True, False, False), 0.1)
    th, x, y = g.meshes()
    bump = np.sin(PI * (x - g.lo_eff[1]) / (g.hi_eff[1] - g.lo_eff[1])) ** 2
    f = np.sin(2 * th) * bump * np.cos(y)
    total = integrate(partial_derivative(f, 0, g), g)
    assert abs(total) < 1e-10


def test_extrapolate_margin_power_law():
    margins = [0.2, 0.1, 0.05]
    vals = [1.0 - 3.0 * m**2 for m in margins]
    assert extrapolate_margin(margins, vals) == pytest.approx(1.0, abs=1e-12)
    vals = [2.0 + 0.7 * m for m in margins]
    assert extrapolate_margin(margins, vals) == pytest.approx(2.0, abs=1e-12)
    # converged sequences short-circuit
    assert extrapolate_margin(margins, [5.0, 5.0, 5.0]) == 5.0


@pytest.mark.parametrize("n", [20, 24, 32, 48, 64])
def test_row_sums_of_any_slabs_are_the_full_grid_row_sums(n):
    rng = np.random.default_rng(n)
    g = build_patch((0, -1, 2), (2 * PI, 1.5, 3), (n, n + 1, n + 3), (False, False, True), 0.1)
    f = 0.5 + rng.random(g.shape)
    w0, w1, w2 = (g.axis_weights(i) for i in range(3))
    assert np.array_equal(g.weights(), w0[:, None, None] * w1[None, :, None] * w2[None, None, :])
    full = g.row_sums(f)
    assert full.shape == (n,)
    for rows in range(1, 14):
        sums = [g.row_sums(f[a:a + rows], slice(a, a + rows)) for a in range(0, n, rows)]
        assert np.array_equal(np.concatenate(sums), full), rows
    flat = float(np.sum(f * g.weights()))
    assert integrate(f, g) == float(np.sum(full))
    assert abs(integrate(f, g) - flat) <= 1e-15 * abs(flat)


# -- slabs with halos ---------------------------------------------------------------


def test_halo_rows():
    bounded = build_patch((0, 0, 0), (1, 1, 1), (12, 6, 7), (False, True, False), 0)
    # two rows each side, clipped at a face and widened to the 5 stencil rows
    assert bounded.halo(slice(5, 6)) == slice(3, 8)
    assert bounded.halo(slice(0, 1)) == slice(0, 5)
    assert bounded.halo(slice(1, 3)) == slice(0, 5)
    assert bounded.halo(slice(11, 12)) == slice(7, 12)
    assert bounded.halo(slice(0, 12)) == slice(0, 12)
    periodic = build_patch((0, 0, 0), (1, 1, 1), (12, 6, 7), (True, False, False), 0)
    # the halo wraps; rows outside [0, n) are taken mod n
    assert periodic.halo(slice(0, 1)) == slice(-2, 3)
    assert periodic.halo(slice(10, 12)) == slice(8, 14)
    assert periodic.halo(slice(-2, 3)) == slice(-4, 5)
    assert periodic.halo(slice(0, 8)) == slice(0, 12)  # it would cover the axis
    v = np.arange(12.0)[:, None, None] * np.ones((12, 6, 7))
    assert list(periodic.take_rows(v, slice(-2, 3))[:, 0, 0]) == [10, 11, 0, 1, 2]
    assert np.shares_memory(periodic.take_rows(v, slice(3, 8)), v)


def test_real_slabs_are_one_row_from_n_84():
    # 24^3 points a slab: rows of 84^2 = 7056 points fit once, of 83^2 twice
    g = build_patch((0, 0, 0), (1, 1, 1), (84, 84, 84), (False,) * 3, 0)
    assert {s.stop - s.start for s in g.slabs()} == {1}
    g = build_patch((0, 0, 0), (1, 1, 1), (83, 83, 83), (False,) * 3, 0)
    assert {s.stop - s.start for s in g.slabs()} == {2, 1}


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
def test_slab_derivative_is_partial_derivative_on_every_row(rows, periodic, monkeypatch):
    g = build_patch((0, -1, 2), (2 * PI, 1.5, 3), (13, 6, 7), (periodic, False, True), 0)
    monkeypatch.setattr(grid_module, "_SLAB_POINTS", rows * 6 * 7)
    slabs = g.slabs()
    assert slabs[0].start == 0 and slabs[-1].stop == 13  # slabs at both faces
    assert {s.stop - s.start for s in slabs[:-1]} == {rows}
    rng = np.random.default_rng(rows)
    # a scalar, one slot, a 1-form and a slot-valued 1-form
    for comps in [(), (1,), (3,), (2, 3)]:
        v = rng.normal(size=comps + g.shape)
        for axis in range(3):
            full = partial_derivative(v, axis, g)
            for sl in slabs:
                window = g.take_rows(v, g.halo(sl))
                assert np.array_equal(slab_derivative(window, axis, g, sl),
                                      full[..., sl, :, :]), (comps, axis, sl)
                # the halo rows themselves, from the halo of the halo (the
                # rows naturality differentiates a pullback on)
                wide = g.halo(sl)
                window = g.take_rows(v, g.halo(wide))
                assert np.array_equal(slab_derivative(window, axis, g, wide),
                                      g.take_rows(full, wide)), (comps, axis, wide)


def test_slab_derivative_rejects_a_window_of_other_rows():
    g = build_patch((0, 0, 0), (1, 1, 1), (12, 6, 7), (False,) * 3, 0)
    v = np.zeros(g.shape)
    with pytest.raises(GridMismatch):
        slab_derivative(v[3:7], 0, g, slice(5, 6))
