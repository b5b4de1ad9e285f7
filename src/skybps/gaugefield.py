"""Gauged configurations (phi, A) over a patch: curvature, covariant
differential, equivariant pullback and its naturality check.

phi is given through its target-chart components phi^mu(x), as a triple of
arrays that broadcast to the points of the rows asked for: each component is
held on the axes it varies along, so the target's chart data at phi (g_N,
I, mu and the invariant forms, with their complex-step partials) is formed
on the axes that the coordinates it reads vary along.  A stacked (3, ...)
array of full components is one such triple.  Maps that wind around
periodic axes (identity maps, fibre shifts) carry an explicit
``phi_winding`` slope matrix so that finite differences act on the periodic
remainder only.  A is given through its Lie-algebra components A^a_lambda(x).

A Configuration holds no field of the grid's size.  It holds evaluators of
its closed forms on a range of rows of the first axis, and a verify
evaluates them one slab at a time (:meth:`Configuration.slab`): phi and A on
the rows around the slab that its stencils read (``PatchGrid.halo``), g_M on
the slab's rows.  A :class:`Slab` forms its derived fields once, in one
fixed order, whichever check reads it first: F, the Bianchi residual, d^A
phi and I(phi).  The Bianchi and naturality residuals are pointwise on the
slab's rows, and the pass takes their maxima over each sub-box of the grid
(``PatchGrid.box``).  The checks that a field held on the whole grid would
have had on construction (finiteness, the target chart, the family's own
bounds) are folded over the slabs by a :class:`Survey`, and so are the
family's diagnostics and whether g_M is riemannian on each sub-box.  On a
grid of one slab the rows are the whole grid and no halo is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ChartExit, DegreeOverflow, NonFinite, SkybpsError
from .exterior import (Metric3, StarMap, _adjugate, _cross_into, _det, _dot, _matvec,
                       assert_finite, hodge_star, mat_det)
from .grid import PatchGrid, _cut, exterior_d
from .lie_target import TargetGeometry, _chart_zeros, target_d


@dataclass
class Configuration:
    """A gauged Skyrme pair (phi, A) with base metric over a PatchGrid.

    ``fields(rows)`` returns (phi, A) on a range of rows of the first axis:
    phi a triple of target-chart components, arrays of three point axes
    that broadcast to the rows' points (*rows), each of length 1 along an
    axis it is constant along (a stacked (3, *rows) array is one such
    triple), and A (dim g, 3, *rows) Lie-valued 1-form components;
    ``metric(rows)`` returns g_M (3, 3, *rows).  On a periodic axis ``rows``
    may leave [0, n), and the rows are taken mod n.  Each call returns fresh
    arrays that the caller owns.  orientation: sign of the coordinate frame
    dx^0 ^ dx^1 ^ dx^2 against the orientation of M.

    ``diagnostics`` are (name, fn, combine): fn(rows) is a pointwise field
    of the family on rows (broadcast to their points), and ``combine``
    (``np.maximum`` or ``np.minimum``) reduces it over the points of the
    grid or of a sub-box.  ``guard`` maps the whole grid's values to the
    error that makes the configuration invalid, or None.  A name that
    starts with an underscore is folded for the guard only and not reported.
    """

    grid: PatchGrid
    target: TargetGeometry
    fields: Callable
    metric: Callable
    orientation: int = 1
    phi_winding: np.ndarray | None = None  # (3 target, 3 axes) linear slopes
    diagnostics: tuple = ()
    guard: Callable | None = None

    def __post_init__(self):
        if self.phi_winding is None:
            self.phi_winding = np.zeros((3, 3))

    def slab(self, rows: slice) -> Slab:
        """The fields of one slab, with its derivative halo as the window
        (see :class:`Slab`)."""
        return Slab(self, rows, self.grid.halo(rows))

    def bianchi_residual(self, slab: Slab) -> np.ndarray:
        """|dF^a + f^a_bc A^b ^ F^c| (3-form coefficient, per algebra slot)
        at each point of one slab's rows, formed with F (:meth:`Slab._derive`)."""
        return slab.inner("bianchi")


@dataclass
class Slab:
    """One slab's fields, formed in one fixed order whatever reads them
    first: phi and A on the halo of the ``window`` when the slab is made,
    then, at the first read of a derived field (:meth:`_derive`), F, the
    Bianchi residual, d^A phi and I(phi); g_M and the star on the slab's
    ``rows``.  The window is their derivative halo (``PatchGrid.halo``).

    Each field is held on the rows its readers need, until its last reader:
    phi and d^A phi on the window, which the naturality checks
    differentiate; F, I(phi) and the Bianchi residual on the slab's rows.
    phi is held as its components (see :class:`Configuration`), and I(phi)
    on the axes the coordinates it reads vary along; a field of first-axis
    length 1 is constant along it and is held on any rows as it is.
    A, which the :class:`Survey` reads first, is dropped once d^A phi is
    formed, g_M once the star (with its closed-form inverse) is built, and
    :meth:`take` hands the rest over.
    """

    config: Configuration
    rows: slice
    window: slice

    def __post_init__(self):
        halo = self.config.grid.halo(self.window)
        # name -> (the field, the rows of the first axis it is held on)
        phi, A = self.config.fields(halo)
        self._held = {"phi": (tuple(phi), halo), "A": (A, halo)}

    @property
    def phi(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """phi's components on the window."""
        return self._on("phi", self.window)

    @property
    def P(self) -> np.ndarray:
        """d^A phi^mu = d phi^mu - A^a I_a^mu(phi) on the window; shape
        (3 target, 3 form, *window)."""
        return self._on("P", self.window)

    def inner(self, name: str) -> np.ndarray:
        """The field ``name`` (phi's components, P, F, kil for I(phi),
        bianchi, or A before any of the derived ones) on the slab's rows: a
        view."""
        return self._on(name, self.rows)

    def take(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
        """(phi, d^A phi, F, I(phi)) on the slab's rows, handed over: each is
        copied out of a field held on more rows, and the slab keeps none of
        them, so each is freed with the caller's last use."""
        self.inner("P")  # formed here if no check has read the slab
        out = tuple(_each(_copy_rows, *self._held.pop(name), self.rows)
                    for name in ("phi", "P", "F", "kil"))
        self._held.clear()
        return out

    def _on(self, name: str, rows: slice):
        if name not in self._held:
            self._derive()
        return _each(_cut, *self._held[name], rows)

    def _derive(self):
        """F on the window from A on its halo, the Bianchi residual on the
        slab's rows, then d^A phi and I(phi) on the window from phi on its
        halo and A on the window; each input is cut down or dropped after
        its last reader."""
        c, grid, rows, window = self.config, self.config.grid, self.rows, self.window
        halo, f = grid.halo(window), c.target.algebra.f
        A, phi = self._held.pop("A")[0], self._held["phi"][0]
        F = assert_finite(_curvature(A, f, grid, window), "curvature")
        # the Bianchi residual |dF^a + f^a_bc A^b ^ F^c| on the slab's rows
        div = exterior_d(F, 2, grid, rows)
        F, on_rows = _copy_rows(F, window, rows), _cut(A, halo, rows)
        for a, b, e in zip(*np.nonzero(f)):
            div[a] += f[a, b, e] * _dot(on_rows[b], F[e])
        self._held.update(bianchi=(np.abs(div, out=div), rows), F=(F, rows))
        del F, on_rows, div
        A = _copy_rows(A, halo, window)
        P = _dphi(c, phi, window)
        phi = _each(_copy_rows, phi, halo, window)
        self._held["phi"] = (phi, window)
        kil = c.target.killing_fn(phi)
        for m in range(3):  # one form component of A^a I_a(phi) at a time
            P[:, m] -= _slot_contract(kil, A[:, m:m + 1])[:, 0]
        del A
        self._held["P"] = (assert_finite(P, "covariant differential"), window)
        self._held["kil"] = (_copy_rows(kil, window, rows), rows)

    @cached_property
    def gM(self) -> Metric3:
        return Metric3(self.config.metric(self.rows))

    @cached_property
    def star(self) -> StarMap:
        star = hodge_star(self.gM, self.config.orientation)
        del self.gM  # its last reader
        return star


def _copy_rows(values: np.ndarray, held: slice, rows: slice) -> np.ndarray:
    """:func:`_cut` as an array of its own, so that ``values`` can be freed;
    a field constant along the first axis (see :func:`_cut`) is not cut."""
    out = values if rows == held else _cut(values, held, rows)
    return out if out is values else out.copy()


def _each(cut, values, held: slice, rows: slice):
    """``cut(values, held, rows)``, or of each component where ``values``
    is phi's triple."""
    if isinstance(values, tuple):
        return tuple(cut(v, held, rows) for v in values)
    return cut(values, held, rows)


def _dphi(c: Configuration, phi, rows: slice) -> np.ndarray:
    """Plain differential d phi^mu on rows, winding-aware, from phi's
    components on ``c.grid.halo(rows)``, broadcast to its points first;
    shape (3, 3, *rows), a fresh array."""
    grid, w = c.grid, c.phi_winding
    win = grid.halo(rows)
    phi = np.stack([np.broadcast_to(v, grid.points_shape(win)) for v in phi])
    if np.any(w):
        # phi minus its linear winding: the part that is periodic
        lin = np.zeros(phi.shape)
        for lam, pts in enumerate(grid.open_mesh(win)):
            lin += w[:, lam, None, None, None] * pts
        phi -= lin
        del lin
    out = exterior_d(phi, 0, grid, rows)
    out += w[:, :, None, None, None]
    return out


class Survey:
    """The checks of a configuration that read every grid point, folded over
    its slabs in the order the pass reads them.

    :meth:`read` takes a slab's phi (its components) and A on its rows, its
    g_M and its diagnostics.  It keeps whether phi and A are finite, the
    extrema of each bounded target-chart component of phi and the combined
    diagnostics of the whole grid, and, for each sub-box that ``insets`` names
    (``PatchGrid.box``), whether g_M is riemannian on it and its combined
    diagnostics.  ``failed`` is set once the slabs read so far already fail
    a check; :meth:`close` raises, after the last slab, the error that the
    whole grid fails first: the family's guard, then non-finite phi,
    non-finite A, then phi leaving the chart, whose message quotes the
    grid's extrema.
    """

    def __init__(self, config: Configuration, insets):
        self.config = config
        self.insets = tuple(insets)
        self.riemannian = [True] * len(self.insets)
        self.values: dict[str, float] = {}
        self._box_values: list[dict[str, float]] = [{} for _ in self.insets]
        self._finite = {"phi": True, "A": True}
        self._extrema: dict[int, list[float]] = {}
        self.failed = False

    def read(self, slab: Slab):
        c, rows = self.config, slab.rows
        phi = slab.inner("phi")
        for name, values in (("phi", phi), ("A", (slab.inner("A"),))):
            self._finite[name] = self._finite[name] and all(
                bool(np.all(np.isfinite(v))) for v in values)
        if self._finite["phi"]:
            for mu in range(3):
                if not c.target.periodic[mu]:
                    lo, hi = float(phi[mu].min()), float(phi[mu].max())
                    old = self._extrema.setdefault(mu, [lo, hi])
                    old[:] = [min(old[0], lo), max(old[1], hi)]
        boxes = [(c.grid.in_box(rows, d), vals) for d, vals in zip(self.insets, self._box_values)]
        for name, fn, combine in c.diagnostics:
            v = np.broadcast_to(fn(rows), c.grid.points_shape(rows))
            for at, vals in [((...,), self.values)] + boxes:
                if at is not None:
                    x = float(combine.reduce(v[at], axis=None))
                    vals[name] = float(combine(vals[name], x)) if name in vals else x
        mask = slab.gM.riemannian_mask()
        self.riemannian = [ok and (at is None or bool(np.all(mask[at])))
                           for ok, (at, _) in zip(self.riemannian, boxes)]
        self.failed = not all(self._finite.values()) or self._chart_exit() is not None

    @property
    def diagnostics(self) -> list[dict[str, float]]:
        """The configuration's reported diagnostics over the slabs read, one
        dict for each sub-box."""
        return [{k: v for k, v in vals.items() if not k.startswith("_")}
                for vals in self._box_values]

    def _chart_exit(self) -> ChartExit | None:
        target = self.config.target
        for mu, (vmin, vmax) in sorted(self._extrema.items()):
            lo, hi = target.lo[mu], target.hi[mu]
            if vmin <= lo or vmax >= hi:
                return ChartExit(f"phi^{mu} in [{vmin:.4g}, {vmax:.4g}] leaves the "
                                 f"open target chart ({lo:.4g}, {hi:.4g})")
        return None

    def close(self):
        guard = self.config.guard
        error: SkybpsError | None = guard(self.values) if guard is not None else None
        for name, ok in self._finite.items():
            if error is None and not ok:
                error = NonFinite(f"{name} contains non-finite values")
        if error is None:
            error = self._chart_exit()
        if error is not None:
            raise error


def _curvature(A: np.ndarray, f: np.ndarray, grid: PatchGrid, rows: slice) -> np.ndarray:
    """Curvature of the Lie-valued 1-form A (dim g, 3, *grid) in dual storage.

    F^a_m = d_{m+1} A^a_{m+2} - d_{m+2} A^a_{m+1}
            + sum_{b<c} f^a_bc (A^b_{m+1} A^c_{m+2} - A^b_{m+2} A^c_{m+1}),

    indices mod 3.  Only the nonzero structure constants are visited, so an
    abelian algebra does no quadratic work.  F is formed on ``rows`` from A
    on ``grid.halo(rows)``.
    """
    F = exterior_d(A, 1, grid, rows)
    A = _cut(A, grid.halo(rows), rows)
    for a, b, c in zip(*np.nonzero(f)):
        if b < c:
            for m in range(3):
                i, j = (m + 1) % 3, (m + 2) % 3
                F[a, m] += f[a, b, c] * (A[b, i] * A[c, j] - A[b, j] * A[c, i])
    return F


def cofactor(P: np.ndarray) -> np.ndarray:
    """Map induced on 2-forms by the 1-form pullback P[mu, lam].

    C[m, rho] = (1/2) eps_mkl eps_rho-mu-nu P[mu, k] P[nu, l]; pulls a target
    dual 2-form b_rho back to the base dual component m.  This is the
    adjugate of P: column rho is the cross product of rows rho+1 and rho+2.
    """
    return _adjugate(P)


def det_p(P: np.ndarray) -> np.ndarray:
    """det of the pullback matrix: phi^{*A}(dy^1^dy^2^dy^3) = det_p dx^1^dx^2^dx^3."""
    return _det(P)


# ---------------------------------------------------------------------------
# equivariant pullback
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivariantFormSpec:
    """Coefficient data of an invariant q-form on the target.

    ``coeff`` is a chart evaluator (see ``TargetGeometry``): it maps a
    chart point y to the form's components (3, ...) in dual storage (see
    ``exterior``).
    """

    q: int
    coeff: callable


def equivariant_pullback(P: np.ndarray, F: np.ndarray, p: int, q: int,
                         coeff: np.ndarray) -> np.ndarray:
    """phi^{*A} of an equivariant form: F fills algebra slots, d^A phi form slots.

    P is d^A phi (3, 3, *sp) and F the curvature (dim g, 3, *sp) on the same
    points (the full grid or some of its rows); ``coeff`` holds the form's
    coefficients of bidegree (p, q) at phi there, with axes (algebra,)*p,
    then (value 3,) if tangent-valued, then (components,) if q > 0, then
    points that broadcast to P's.  Returns dual-storage components
    of the degree-(2p+q) result, with a leading value axis when the form is
    tangent-valued.  Degrees above 3 are rejected; p >= 2 cannot occur below
    degree 4 on a 3-manifold.  Every contraction is a pointwise multiply-add
    kernel, summed in index order.
    """
    deg = 2 * p + q
    if deg > 3:
        raise DegreeOverflow(f"pullback of degree {deg} > 3 (p={p}, q={q})")
    if p >= 2:
        raise DegreeOverflow("p >= 2 needs degree >= 4, unreachable on a 3-manifold")
    if p == 0:
        if q == 0:
            return coeff
        if q == 1:
            return _matvec(np.swapaxes(P, 0, 1), coeff)
        if q == 2:
            return _matvec(cofactor(P), coeff)
        return coeff * det_p(P)
    if q == 0:
        # (p=1, q=0): a 2-form; value slot optional
        return _slot_contract(coeff, F)
    # (p=1, q=1): the 3-form F^a ^ phi^*(coeff_a), phi^*(coeff_a) a 1-form
    return _dot(F, _matvec(np.swapaxes(P, 0, 1), coeff))


def _slot_contract(coeff: np.ndarray, F: np.ndarray) -> np.ndarray:
    """out[..., m] = sum_a coeff[a, ...] F[a, m], summed in slot order."""
    sp = F.shape[-3:]
    out = np.empty(coeff.shape[1:-3] + F.shape[1:2] + sp, np.result_type(coeff, F))
    tmp = np.empty(coeff.shape[1:-3] + sp, out.dtype)
    for m in range(F.shape[1]):
        row = out[..., m, :, :, :]
        np.multiply(coeff[0], F[0, m], out=row)
        for a in range(1, len(F)):
            np.multiply(coeff[a], F[a, m], out=tmp)
            row += tmp
    return out


# ---------------------------------------------------------------------------
# naturality of the pullback against the equivariant differential
# ---------------------------------------------------------------------------


def pullback_naturality_residual(c: Configuration, spec: EquivariantFormSpec,
                                 slab: Slab) -> np.ndarray:
    """|phi^{*A}(d_g beta) - d(phi^{*A} beta)| at each point of one slab's
    rows, per form component.

    d_g beta(X) = d(beta(X)) - iota_{nu(X)} beta(X): the first part raises q,
    the second raises p.  ``spec`` is an invariant (p = 0) form of degree 1
    or 2, the cases that are not trivial on a 3-manifold; its target-side
    exterior derivative is exact (``target_d``), the outer differential uses
    the 4th-order grid stencils, so the slab's phi and d^A phi are read on
    its window.  Each intermediate is freed after its last reader.
    """
    q, grid, rows = spec.q, c.grid, slab.rows
    P, F, kil = (slab.inner(name) for name in ("P", "F", "kil"))

    # exterior-derivative part of d_g beta, pulled back
    lhs = equivariant_pullback(P, F, 0, q + 1, target_d(spec.coeff, slab.inner("phi"), q))

    # contraction part: (iota_{nu(I_a)} beta) is a (1, q-1) form
    beta = spec.coeff(slab.phi)
    on_rows = _cut(beta, slab.window, rows)
    if q == 1:
        coeff = np.stack([_dot(k, on_rows) for k in kil])
    else:
        # (iota_{I_a} B)_l = (b x I_a)_l in dual storage
        coeff = np.stack([_cross_into(np.empty(np.broadcast_shapes(on_rows.shape, k.shape),
                                               np.result_type(on_rows, k)), on_rows, k)
                          for k in kil])
    del on_rows
    lhs -= equivariant_pullback(P, F, 1, q - 1, coeff)
    del coeff, P, F, kil

    # d(phi^{*A} beta) by grid finite differences
    pb = equivariant_pullback(slab.P, None, 0, q, beta)
    del beta
    lhs -= exterior_d(pb, q, grid, rows)
    return np.abs(lhs, out=lhs)


def naturality_check_specs(target: TargetGeometry) -> list[tuple[str, EquivariantFormSpec]]:
    """Invariant (p = 0) forms on which the naturality residual is nontrivial.

    For circle-fibered targets the moment 1-form itself is invariant, as is
    its companion iota_nu V_N; for the sphere-orbit targets the invariant
    forms are radial profiles of dxi and of the orbit area form.  Each
    form's coefficients are a chart evaluator (see ``TargetGeometry``).
    """
    if target.algebra.dim == 1:
        def mu_one_form(y):
            return target.mu_fn(y)[0]

        def nu_volume(y):
            return np.sqrt(mat_det(target.metric_fn(y))) * target.killing_fn(y)[0]

        return [
            ("mu-1form", EquivariantFormSpec(1, mu_one_form)),
            ("iota-nu-volume-2form", EquivariantFormSpec(2, nu_volume)),
        ]

    def radial_one_form(y):
        out = _chart_zeros((3,), y, y[0])
        out[0] = np.cos(y[0])
        return out

    def radial_area_form(y):
        # s(xi) * (area form of the orbit sphere), dual storage: omega = sin(u) du^dv
        out = _chart_zeros((3,), y, y[0], y[1])
        out[0] = (1.0 + 0.25 * y[0]) * np.sin(y[1])
        return out

    return [
        ("radial-1form", EquivariantFormSpec(1, radial_one_form)),
        ("radial-area-2form", EquivariantFormSpec(2, radial_area_form)),
    ]
