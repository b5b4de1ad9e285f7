"""Gauged configurations (phi, A) over a patch: curvature, covariant
differential, equivariant pullback and its naturality check.

phi is given through its target-chart components phi^mu(x); maps that wind
around periodic axes (identity maps, fibre shifts) carry an explicit
``phi_winding`` slope matrix so that finite differences act on the periodic
remainder only.  A is given through its Lie-algebra components A^a_lambda(x).

A Configuration holds no field of the grid's size.  It holds evaluators of
its closed forms on a range of rows of the first axis, and a verify
evaluates them one slab at a time (:meth:`Configuration.slab`): phi and A on
the rows around the slab that its stencils read (``PatchGrid.halo``), g_M on
the slab's rows.  d phi, d^A phi and F are formed there, the Bianchi and
naturality residuals are those of one slab, which the margin's pass combines
by max, and the checks that a field held on the whole grid would have had on
construction (finiteness, the target chart, the family's own bounds) are
folded over the slabs by a :class:`Survey`.  On a grid of one slab the rows
are the whole grid and no halo is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ChartExit, DegreeOverflow, NonFinite, SkybpsError
from .exterior import (Metric3, StarMap, _adjugate, _cross_into, _det, _matvec, assert_finite,
                       hodge_star, mat_det)
from .grid import PatchGrid, _take_rows, slab_derivative
from .lie_target import TargetGeometry, target_partials


@dataclass
class Configuration:
    """A gauged Skyrme pair (phi, A) with base metric over a PatchGrid.

    ``fields(rows)`` returns (phi, A) on a range of rows of the first axis:
    phi (3, *rows) target-chart components and A (dim g, 3, *rows) Lie-valued
    1-form components; ``metric(rows)`` returns g_M (3, 3, *rows).  On a
    periodic axis ``rows`` may leave [0, n), and the rows are taken mod n.
    Each call returns fresh arrays that the caller owns.  orientation: sign
    of the coordinate frame dx^0 ^ dx^1 ^ dx^2 against the orientation of M.

    ``diagnostics`` are (name, fn, combine): fn(rows) is a scalar of the
    family on rows, and ``combine`` (max or min) folds the slabs' values into
    the grid's.  ``guard`` maps those grid values to the error that makes
    the configuration invalid, or None.  A name that starts with an
    underscore is folded for the guard only and not reported.
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

    def slab(self, rows: slice, halo: bool = False) -> Slab:
        """The fields of one slab, evaluated when first read (see :class:`Slab`)."""
        return Slab(self, rows, self.grid.halo(rows) if halo else rows)

    def bianchi_residual(self, slab: Slab) -> float:
        """max |dF^a + f^a_bc A^b ^ F^c| (3-form coefficient, per algebra slot)
        on one slab's rows, from F on its halo."""
        F, rows = slab.F, slab.rows
        div = sum(slab_derivative(F[:, m], m, self.grid, rows) for m in range(3))
        A, F = slab.inner(slab.A), slab.inner(F)
        f = self.target.algebra.f
        for a, b, c in zip(*np.nonzero(f)):
            div[a] += f[a, b, c] * _dot(A[b], F[c])
        return float(np.max(np.abs(div)))


@dataclass
class Slab:
    """One slab's fields: phi and A on the rows ``window`` around the slab's
    ``rows``, d^A phi, F and I(phi) there, g_M and the base star on the
    slab's rows.

    Each is formed on first read; phi, A, d^A phi, F and I(phi) are kept
    until :meth:`take`.  A slab read by a stencil check has the derivative
    halo as its window (``PatchGrid.halo``); otherwise the window is the
    slab's own rows.  phi and A are evaluated once, on the halo of the
    window, which d^A phi and F on the window read.  ``inner`` cuts a window
    field down to the slab's rows.
    """

    config: Configuration
    rows: slice
    window: slice

    def inner(self, values: np.ndarray) -> np.ndarray:
        a = self.rows.start - self.window.start
        return values[..., a:a + self.rows.stop - self.rows.start, :, :]

    def take(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d^A phi, F, I(phi)) on the slab's rows, handed over: the slab
        keeps none of them, nor phi and A, so each is freed with the
        caller's last use."""
        names = ("P", "F", "kil")
        out = tuple(self.inner(getattr(self, k)) for k in names)
        for k in names + ("_fields",):
            self.__dict__.pop(k, None)  # the cached_property's stored value
        return out

    @cached_property
    def _fields(self) -> tuple[np.ndarray, np.ndarray]:
        """phi and A on the halo of the window."""
        c = self.config
        return c.fields(c.grid.halo(self.window))

    def _on_window(self, values: np.ndarray) -> np.ndarray:
        """A field on the halo of the window, cut to the window (mod the halo's
        length, which on a periodic axis may be the whole axis)."""
        a = self.window.start - self.config.grid.halo(self.window).start
        return _take_rows(values, slice(a, a + self.window.stop - self.window.start),
                          values.shape[-3])

    @property
    def phi(self) -> np.ndarray:
        return self._on_window(self._fields[0])

    @property
    def A(self) -> np.ndarray:
        return self._on_window(self._fields[1])

    @cached_property
    def kil(self) -> np.ndarray:
        return self.config.target.killing_fn(self.phi)

    @cached_property
    def P(self) -> np.ndarray:
        """d^A phi^mu = d phi^mu - A^a I_a^mu(phi) on the window; shape
        (3 target, 3 form, *window)."""
        c = self.config
        out = _dphi(c, self._fields[0], self.window)
        out -= _slot_contract(self.kil, self.A)
        return assert_finite(out, "covariant differential")

    @cached_property
    def F(self) -> np.ndarray:
        """F^a = dA^a + (1/2) f^a_bc A^b ^ A^c on the window, dual storage."""
        c = self.config
        F = _curvature(self._fields[1], c.target.algebra.f, c.grid, self.window)
        return assert_finite(F, "curvature")

    @cached_property
    def gM(self) -> Metric3:
        return Metric3(self.config.metric(self.rows))

    @cached_property
    def star(self) -> StarMap:
        return hodge_star(self.gM, self.config.orientation)


def _dphi(c: Configuration, phi: np.ndarray, rows: slice) -> np.ndarray:
    """Plain differential d phi^mu on rows, winding-aware, from phi on
    ``c.grid.halo(rows)``; shape (3, 3, *rows), a fresh array."""
    grid, w = c.grid, c.phi_winding
    if np.any(w):
        # phi minus its linear winding: the part that is periodic
        win = grid.halo(rows)
        x = [grid.axis_points(i) for i in range(3)]
        x[0] = x[0][grid.row_index(win)]
        lin = np.zeros(phi.shape)
        for lam, pts in enumerate(x):
            shape = [1, 1, 1]
            shape[lam] = len(pts)
            lin += w[:, lam, None, None, None] * pts.reshape(shape)
        phi = phi - lin
    out = np.stack([slab_derivative(phi, lam, grid, rows) for lam in range(3)], axis=1)
    out += w[:, :, None, None, None]
    return out


class Survey:
    """The checks of a configuration that read every grid point, folded over
    its slabs in the order the margin's pass reads them.

    :meth:`read` takes a slab's phi and A on its rows, its g_M and its
    diagnostics.  It keeps whether phi and A are finite, the extrema of each
    bounded target-chart component of phi, whether g_M is riemannian and the
    combined diagnostics.  ``failed`` is set once the slabs read so far
    already fail a check; :meth:`close` raises, after the last slab, the
    error that the whole grid fails first: the family's guard, then
    non-finite phi, non-finite A, then phi leaving the chart, whose message
    quotes the grid's extrema.
    """

    def __init__(self, config: Configuration):
        self.config = config
        self.riemannian = True
        self.values: dict[str, float] = {}
        self._finite = {"phi": True, "A": True}
        self._extrema: dict[int, list[float]] = {}
        self.failed = False

    def read(self, slab: Slab):
        c = self.config
        phi = slab.inner(slab.phi)
        for name, values in (("phi", phi), ("A", slab.inner(slab.A))):
            self._finite[name] = self._finite[name] and bool(np.all(np.isfinite(values)))
        if self._finite["phi"]:
            for mu in range(3):
                if not c.target.periodic[mu]:
                    lo, hi = float(phi[mu].min()), float(phi[mu].max())
                    old = self._extrema.setdefault(mu, [lo, hi])
                    old[:] = [min(old[0], lo), max(old[1], hi)]
        for name, fn, combine in c.diagnostics:
            v = fn(slab.rows)
            self.values[name] = combine(self.values[name], v) if name in self.values else v
        self.riemannian = self.riemannian and slab.gM.riemannian
        self.failed = not all(self._finite.values()) or self._chart_exit() is not None

    @property
    def diagnostics(self) -> dict[str, float]:
        """The configuration's reported diagnostics over the slabs read."""
        return {k: v for k, v in self.values.items() if not k.startswith("_")}

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
    # dA[k][:, j] = d_k A_{k+1+j}: the two components whose curl uses d_k
    dA = [slab_derivative(A[:, [(k + 1) % 3, (k + 2) % 3]], k, grid, rows) for k in range(3)]
    start = rows.start - grid.halo(rows).start
    A = _take_rows(A, slice(start, start + rows.stop - rows.start), A.shape[-3])
    F = np.empty(A.shape, np.result_type(A, float))
    for m in range(3):
        i, j = (m + 1) % 3, (m + 2) % 3
        np.subtract(dA[i][:, 0], dA[j][:, 1], out=F[:, m])
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
    """Coefficient data of an equivariant form of bidegree (p, q).

    ``coeff`` maps chart points y (3, ...) to the coefficient array with axes
    (algebra,)*p + (value 3,) if tangent-valued + (components of q,) if q > 0,
    then the point axes.  Total degree is 2p + q.
    """

    p: int
    q: int
    coeff: callable


def equivariant_pullback(P: np.ndarray, F: np.ndarray, p: int, q: int,
                         coeff: np.ndarray) -> np.ndarray:
    """phi^{*A} of an equivariant form: F fills algebra slots, d^A phi form slots.

    P is d^A phi (3, 3, *sp) and F the curvature (dim g, 3, *sp) on the same
    points (the full grid or some of its rows); ``coeff`` holds the form's
    coefficients of bidegree (p, q) at phi there, laid out as for
    :class:`EquivariantFormSpec`.  Returns dual-storage components
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
    out = np.empty(coeff.shape[1:-3] + (3,) + sp, np.result_type(coeff, F))
    tmp = np.empty(coeff.shape[1:-3] + sp, out.dtype)
    for m in range(3):
        row = out[..., m, :, :, :]
        np.multiply(coeff[0], F[0, m], out=row)
        for a in range(1, len(F)):
            np.multiply(coeff[a], F[a, m], out=tmp)
            row += tmp
    return out


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum of u * v over every axis but the last three, in C order."""
    sp = u.shape[-3:]
    u, v = u.reshape((-1,) + sp), v.reshape((-1,) + sp)
    out = u[0] * v[0]
    tmp = np.empty_like(out)
    for k in range(1, len(u)):
        np.multiply(u[k], v[k], out=tmp)
        out += tmp
    return out


# ---------------------------------------------------------------------------
# naturality of the pullback against the equivariant differential
# ---------------------------------------------------------------------------


def pullback_naturality_residual(c: Configuration, spec: EquivariantFormSpec,
                                 slab: Slab) -> float:
    """max-norm of phi^{*A}(d_g beta) - d(phi^{*A} beta) on one slab's rows.

    d_g beta(X) = d(beta(X)) - iota_{nu(X)} beta(X): the first part raises q,
    the second raises p.  For p >= 1 or 2p + q >= 3 both sides are forms of
    degree > 3 and the residual vanishes structurally (returns 0).  The
    meaningful cases on a 3-manifold are invariant (p = 0) forms of degree
    1 or 2; target-side coefficient derivatives are exact (complex step), the
    outer differential uses the 4th-order grid stencils, so the slab's
    d^A phi and I(phi) are read on its halo.
    """
    p, q = spec.p, spec.q
    if p >= 1 or 2 * p + q >= 3:
        return 0.0
    grid, rows = c.grid, slab.rows

    # d(phi^{*A} beta) by grid finite differences
    beta = spec.coeff(slab.phi)
    pb = equivariant_pullback(slab.P, None, p, q, beta)
    if q == 1:
        d = [slab_derivative(pb, k, grid, rows) for k in range(3)]
        rhs = np.stack([d[(m + 1) % 3][(m + 2) % 3] - d[(m + 2) % 3][(m + 1) % 3]
                        for m in range(3)])
    else:  # q == 2
        rhs = sum(slab_derivative(pb[m], m, grid, rows) for m in range(3))
    del pb

    # exterior-derivative part of d_g beta, pulled back
    dbeta = target_partials(spec.coeff, slab.inner(slab.phi))
    P, F, kil, beta = (slab.inner(x) for x in (slab.P, slab.F, slab.kil, beta))
    if q == 1:
        curl = np.stack([dbeta[(m + 1) % 3, (m + 2) % 3] - dbeta[(m + 2) % 3, (m + 1) % 3]
                         for m in range(3)])
        lhs = equivariant_pullback(P, F, 0, 2, curl)
    else:
        lhs = equivariant_pullback(P, F, 0, 3, dbeta[0, 0] + dbeta[1, 1] + dbeta[2, 2])

    # contraction part: (iota_{nu(I_a)} beta) is a (1, q-1) form
    if q == 1:
        contr = np.stack([_dot(k, beta) for k in kil])
    else:
        # (iota_{I_a} B)_l = (b x I_a)_l in dual storage
        contr = np.stack([_cross_into(np.empty(k.shape, np.result_type(beta, k)), beta, k)
                          for k in kil])
    lhs -= equivariant_pullback(P, F, 1, q - 1, contr)
    lhs -= rhs
    return float(np.max(np.abs(lhs)))


def naturality_check_specs(target: TargetGeometry) -> list[tuple[str, EquivariantFormSpec]]:
    """Invariant (p = 0) forms on which the naturality residual is nontrivial.

    For circle-fibered targets the moment 1-form itself is invariant, as is
    its companion iota_nu V_N; for the sphere-orbit targets the invariant
    forms are radial profiles of dxi and of the orbit area form.
    """
    if target.algebra.dim == 1:
        def mu_one_form(y):
            return target.mu_fn(y)[0]

        def nu_volume(y):
            return target.vol_coeff(mat_det(target.metric_fn(y))) * target.killing_fn(y)[0]

        return [
            ("mu-1form", EquivariantFormSpec(0, 1, mu_one_form)),
            ("iota-nu-volume-2form", EquivariantFormSpec(0, 2, nu_volume)),
        ]

    def radial_one_form(y):
        out = np.zeros((3,) + np.shape(y[0]), dtype=np.result_type(y))
        out[0] = np.cos(y[0])
        return out

    def radial_area_form(y):
        # s(xi) * (area form of the orbit sphere), dual storage: omega = sin(u) du^dv
        out = np.zeros((3,) + np.shape(y[0]), dtype=np.result_type(y))
        out[0] = (1.0 + 0.25 * y[0]) * np.sin(y[1])
        return out

    return [
        ("radial-1form", EquivariantFormSpec(0, 1, radial_one_form)),
        ("radial-area-2form", EquivariantFormSpec(0, 2, radial_area_form)),
    ]
