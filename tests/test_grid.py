import numpy as np
import pytest

from skybps import grid as grid_module
from skybps.errors import BoundsError, GridMismatch, ResolutionError
from oracles import integrate, take_rows
from skybps.grid import (
    build_patch,
    exterior_d,
    extrapolate_margin,
    partial_derivative,
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


@pytest.mark.parametrize("n", [16, 17, 48])
@pytest.mark.parametrize("rows", [0, 1, 4])
def test_sub_box_on_rows_is_the_rule_on_its_points(n, rows):
    # an inset of a whole number of steps: the sub-box is the grid less that
    # many rows at each bounded face, with the composite rule on its points
    g = build_patch((0, -1, 2), (2 * PI, 1.5, 3), (n, n + 1, n + 3), (True, False, False), 0.1)
    for i in (1, 2):
        inset = rows * g.h[i]
        assert g.inset_rows(i, inset) == (rows, 0.0)
        assert g.box(inset)[0] == slice(0, n)  # a periodic axis keeps every point
        assert g.box(inset)[i] == slice(rows, g.n[i] - rows)
        x = g.axis_points(i)[rows:g.n[i] - rows]
        # the same rule on a grid that meshes the sub-box's span with its points
        sub = build_patch((0, x[0], 0), (1, x[-1], 1), (5, len(x), 5), (False,) * 3, 0)
        assert np.allclose(g.axis_weights(i, inset), sub.axis_weights(1), rtol=1e-13, atol=0)
    assert np.array_equal(g.axis_weights(0, 0.3), g.axis_weights(0))
    for i in range(3):
        assert np.array_equal(g.axis_weights(i, 0.0), g.axis_weights(i))


@pytest.mark.parametrize("n", [16, 17, 48])
@pytest.mark.parametrize("inset", [0.013, 0.05, 0.27])
def test_sub_box_between_rows_integrates_exactly_over_its_span(n, inset):
    # the sub-box of an inset between rows reads one row beyond each face
    # and integrates cubics exactly over [lo_eff + inset, hi_eff - inset]
    g = build_patch((0, -1, 2), (2 * PI, 1.5, 3), (n, n + 1, n + 3), (True, False, False), 0.1)
    for i in (1, 2):
        k, s = g.inset_rows(i, inset)
        assert 0 < s < 1 and k == int(inset / g.h[i])
        assert g.box(inset)[i] == slice(k, g.n[i] - k)
        x, w = g.axis_points(i)[g.box(inset)[i]], g.axis_weights(i, inset)
        a, b = g.lo_eff[i] + inset, g.hi_eff[i] - inset
        assert x[0] < a < x[1] and x[-2] < b < x[-1]
        for p in range(4):
            exact = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
            assert np.sum(w * x**p) == pytest.approx(exact, rel=1e-13, abs=1e-13), p


def test_sub_box_needs_5_rows_inside_it():
    g = build_patch((0, 0, 0), (1, 1, 1), (5, 18, 5), (False,) * 3, 0)  # h = 1/17
    assert len(g.axis_weights(1, 5.5 / 17)) == 8  # 6 rows inside, one beyond each face
    assert len(g.axis_weights(1, 6 / 17)) == 6
    for inset in (6.5 / 17, 7 / 17):
        with pytest.raises(ResolutionError):
            g.axis_weights(1, inset)


def test_sub_box_between_rows_converges_at_fourth_order():
    # cos on a box whose faces stay 0.4 steps outside a row as the steps
    # halve: the error falls as h^4
    errors = []
    for n in (17, 33, 65, 129):
        g = build_patch((0, 0, 0), (1, 1, 1), (5, n, 5), (False,) * 3, 0)
        inset = 3.6 * g.h[1]
        x, w = g.axis_points(1)[g.box(inset)[1]], g.axis_weights(1, inset)
        a, b = inset, 1 - inset
        errors.append(abs(np.sum(w * np.cos(3 * x)) - (np.sin(3 * b) - np.sin(3 * a)) / 3))
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    assert all(14 < r < 18 for r in ratios), ratios


@pytest.mark.parametrize("inset", [0.0, 0.2, 0.33])
def test_sub_box_row_sums_read_the_sub_box_alone(inset):
    n = 20
    g = build_patch((0, -1, 2), (1.5, 1.5, 3), (n, n, n), (False, False, True), 0.1)
    rng = np.random.default_rng(int(100 * inset))
    f = 0.5 + rng.random(g.shape)
    box = g.box(inset)
    outside = np.ones(g.shape, bool)
    outside[box] = False
    f[outside] = np.nan  # a point outside the sub-box does not enter its sums
    w = g.weights(inset=inset)
    full = np.sum(f[box] * w, axis=(1, 2))
    assert full.shape == (box[0].stop - box[0].start,) and np.all(np.isfinite(full))
    assert np.array_equal(g.row_sums(f, inset=inset), full)
    for rows in (1, 3, 7):
        sums = []
        for a in range(0, n, rows):
            sl = slice(a, min(a + rows, n))
            at = g.in_box(sl, inset)
            part = g.row_sums(f[sl], sl, inset)
            assert (at is None) == (len(part) == 0)
            if at is not None:
                assert at[2:] == box[1:] and len(part) == at[1].stop - at[1].start
            sums.append(part)
        assert np.array_equal(np.concatenate(sums), full), rows


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
    assert list(take_rows(periodic, v, slice(-2, 3))[:, 0, 0]) == [10, 11, 0, 1, 2]
    assert np.shares_memory(take_rows(periodic, v, slice(3, 8)), v)


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
                window = take_rows(g, v, g.halo(sl))
                assert np.array_equal(partial_derivative(window, axis, g, sl),
                                      full[..., sl, :, :]), (comps, axis, sl)
                # the halo rows themselves, from the halo of the halo (the
                # rows naturality differentiates a pullback on)
                wide = g.halo(sl)
                window = take_rows(g, v, g.halo(wide))
                assert np.array_equal(partial_derivative(window, axis, g, wide),
                                      take_rows(g, full, wide)), (comps, axis, wide)


def test_slab_derivative_rejects_a_window_of_other_rows():
    g = build_patch((0, 0, 0), (1, 1, 1), (12, 6, 7), (False,) * 3, 0)
    v = np.zeros(g.shape)
    with pytest.raises(GridMismatch):
        partial_derivative(v[3:7], 0, g, slice(5, 6))
    # along axis 0 the rows alone are not the halo, at a face or inside
    for rows in (slice(5, 6), slice(0, 2), slice(10, 12)):
        with pytest.raises(GridMismatch):
            partial_derivative(v[rows], 0, g, rows)
        partial_derivative(v[rows], 1, g, rows)  # along axes 1 and 2 they are read


@pytest.mark.parametrize("comps", [(), (3,), (2, 3)])
def test_derivative_bits_do_not_depend_on_memory_layout(comps):
    g = build_patch((0, -1, 2), (1, 1.5, 3), (12, 6, 7), (False,) * 3, 0)
    v = np.random.default_rng(len(comps)).normal(size=comps + g.shape)
    # the same values held Fortran-ordered, and with the last axis outermost
    layouts = [np.asfortranarray(v), np.moveaxis(np.moveaxis(v, -1, 0).copy(), 0, -1)]
    for axis in range(3):
        for rows in (None, slice(0, 1), slice(1, 3), slice(5, 6), slice(11, 12)):
            win = slice(None) if rows is None else g.halo(rows)
            want = partial_derivative(v[..., win, :, :], axis, g, rows)
            for held in layouts:
                assert np.array_equal(partial_derivative(held[..., win, :, :], axis, g, rows),
                                      want), (comps, axis, rows)


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
def test_exterior_d_is_its_partial_derivatives(rows, periodic, monkeypatch):
    g = build_patch((0, -1, 2), (2 * PI, 1.5, 3), (13, 6, 7), (periodic, False, True), 0)
    monkeypatch.setattr(grid_module, "_SLAB_POINTS", rows * 6 * 7)
    rng = np.random.default_rng(rows)

    def d(w, k, sl):
        return partial_derivative(w, k, g, sl)

    for slot in [(), (2,)]:
        f = rng.normal(size=slot + g.shape)
        w = rng.normal(size=slot + (3,) + g.shape)
        for sl in [None] + g.slabs():
            fw, ww = (v if sl is None else take_rows(g, v, g.halo(sl)) for v in (f, w))
            grad = exterior_d(fw, 0, g, sl)
            for k in range(3):
                assert np.array_equal(grad[..., k, :, :, :], d(fw, k, sl)), (slot, sl, k)
            curl = exterior_d(ww, 1, g, sl)
            for m in range(3):
                i, j = (m + 1) % 3, (m + 2) % 3
                assert np.array_equal(curl[..., m, :, :, :],
                                      d(ww[..., j, :, :, :], i, sl) - d(ww[..., i, :, :, :], j, sl)
                                      ), (slot, sl, m)
            div = d(ww[..., 0, :, :, :], 0, sl) + d(ww[..., 1, :, :, :], 1, sl)
            div += d(ww[..., 2, :, :, :], 2, sl)
            assert np.array_equal(exterior_d(ww, 2, g, sl), div), (slot, sl)
