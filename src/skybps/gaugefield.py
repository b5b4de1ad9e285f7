"""Gauged configurations (phi, A) over a patch: curvature, covariant
differential, equivariant pullback and its naturality check.

phi is stored through its target-chart components phi^mu(x); maps that wind
around periodic axes (identity maps, fibre shifts) carry an explicit
``phi_winding`` slope matrix so that finite differences act on the periodic
remainder only.  A is stored through its Lie-algebra components A^a_lambda(x).

Derived fields are pure functions of the configuration, and a Configuration
is treated as immutable after construction.  Only the fields that need
stencils, d^A phi and F, are memoized on the full grid; pointwise fields (the
target fields at phi, the base star) are evaluated afresh on each call, and
the verify pass evaluates them slab by slab (``PatchGrid.slabs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChartExit, DegreeOverflow, GridMismatch
from .exterior import EPS, Metric3, _adjugate, _det, assert_finite, mat_det
from .grid import PatchGrid, partial_derivative
from .lie_target import TargetGeometry, target_partials


@dataclass
class Configuration:
    """A gauged Skyrme pair (phi, A) with base metric over a PatchGrid.

    phi: (3, *grid) target-chart components; A: (dim g, 3, *grid) Lie-valued
    1-form components (None means A = 0); gM: base metric; orientation: sign
    of the coordinate frame dx^0 ^ dx^1 ^ dx^2 against the orientation of M.
    """

    grid: PatchGrid
    target: TargetGeometry
    phi: np.ndarray
    A: np.ndarray | None
    gM: Metric3
    orientation: int = 1
    phi_winding: np.ndarray | None = None  # (3 target, 3 axes) linear slopes
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.phi.shape != (3,) + self.grid.shape:
            raise GridMismatch("phi components do not match the grid")
        d = self.target.algebra.dim
        if self.A is None:
            self.A = np.zeros((d, 3) + self.grid.shape)
        if self.A.shape != (d, 3) + self.grid.shape:
            raise GridMismatch("A components do not match the grid/algebra")
        if self.gM.g.shape != (3, 3) + self.grid.shape:
            raise GridMismatch("gM does not match the grid")
        if self.phi_winding is None:
            self.phi_winding = np.zeros((3, 3))
        assert_finite(self.phi, "phi")
        assert_finite(self.A, "A")
        self._check_chart()

    def _check_chart(self):
        for mu in range(3):
            if self.target.periodic[mu]:
                continue
            lo, hi = self.target.lo[mu], self.target.hi[mu]
            vals = self.phi[mu]
            if vals.min() <= lo or vals.max() >= hi:
                raise ChartExit(
                    f"phi^{mu} in [{vals.min():.4g}, {vals.max():.4g}] leaves the "
                    f"open target chart ({lo:.4g}, {hi:.4g})"
                )

    # -- derived fields ----------------------------------------------------

    def dphi(self) -> np.ndarray:
        """Plain differential d phi^mu, winding-aware; shape (3, 3, *grid).

        Not memoized: the pipeline reads it only to form the memoized d^A phi,
        so each call returns a fresh array that the caller owns.
        """
        mesh = np.stack(self.grid.meshes())
        rem = self.phi - np.einsum("ml,lxyz->mxyz", self.phi_winding, mesh)
        out = np.stack(
            [partial_derivative(rem, lam, self.grid) for lam in range(3)], axis=1
        )
        out += self.phi_winding[:, :, None, None, None]
        return out

    def curvature(self) -> np.ndarray:
        """F^a = dA^a + (1/2) f^a_bc A^b ^ A^c, dual storage (dim g, 3, *grid)."""
        if "F" not in self._memo:
            F = _curvature(self.A, self.target.algebra.f, self.grid)
            self._memo["F"] = assert_finite(F, "curvature")
        return self._memo["F"]

    def covariant_differential(self) -> np.ndarray:
        """d^A phi^mu = d phi^mu - A^a I_a^mu(phi); shape (3 target, 3 form, *grid).

        d phi becomes d^A phi in place, one slab at a time, so I(phi) is never
        held on the full grid.
        """
        if "P" not in self._memo:
            out = self.dphi()  # fresh, so the caller owns it
            for sl in self.grid.slabs():
                kil = self.target.killing_fn(self.phi[:, sl])  # (a, mu, *slab)
                out[:, :, sl] -= np.einsum("alxyz,amxyz->mlxyz", self.A[:, :, sl], kil)
            self._memo["P"] = assert_finite(out, "covariant differential")
        return self._memo["P"]

    def bianchi_residual(self) -> float:
        """max |dF^a + f^a_bc A^b ^ F^c| (3-form coefficient, per algebra slot)."""
        F = self.curvature()
        div = sum(partial_derivative(F[:, m], m, self.grid) for m in range(3))
        quad = np.einsum(
            "abc,bmxyz,cmxyz->axyz", self.target.algebra.f, self.A, F, optimize=True
        )
        return float(np.max(np.abs(div + quad)))


def _curvature(A: np.ndarray, f: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Curvature of the Lie-valued 1-form A (dim g, 3, *grid) in dual storage.

    F^a_m = d_{m+1} A^a_{m+2} - d_{m+2} A^a_{m+1}
            + sum_{b<c} f^a_bc (A^b_{m+1} A^c_{m+2} - A^b_{m+2} A^c_{m+1}),

    indices mod 3.  Only the nonzero structure constants are visited, so an
    abelian algebra does no quadratic work.
    """
    # dA[k][:, j] = d_k A_{k+1+j}: the two components whose curl uses d_k
    dA = [partial_derivative(A[:, [(k + 1) % 3, (k + 2) % 3]], k, grid) for k in range(3)]
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
    degree 4 on a 3-manifold.
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
            return np.einsum("...uxyz,ulxyz->...lxyz", coeff, P)
        if q == 2:
            return np.einsum("...rxyz,mrxyz->...mxyz", coeff, cofactor(P))
        return coeff * det_p(P)
    if q == 0:
        # (p=1, q=0): a 2-form; value slot optional
        return np.einsum("a...xyz,amxyz->...mxyz", coeff, F)
    # (p=1, q=1): a 3-form
    return np.einsum("auxyz,amxyz,umxyz->xyz", coeff, F, P, optimize=True)


# ---------------------------------------------------------------------------
# naturality of the pullback against the equivariant differential
# ---------------------------------------------------------------------------


def pullback_naturality_residual(c: Configuration, spec: EquivariantFormSpec) -> float:
    """max-norm of phi^{*A}(d_g beta) - d(phi^{*A} beta).

    d_g beta(X) = d(beta(X)) - iota_{nu(X)} beta(X): the first part raises q,
    the second raises p.  For p >= 1 or 2p + q >= 3 both sides are forms of
    degree > 3 and the residual vanishes structurally (returns 0).  The
    meaningful cases on a 3-manifold are invariant (p = 0) forms of degree
    1 or 2; target-side coefficient derivatives are exact (complex step), the
    outer differential uses the 4th-order grid stencils.
    """
    p, q = spec.p, spec.q
    if p >= 1 or 2 * p + q >= 3:
        return 0.0
    grid = c.grid
    P, F = c.covariant_differential(), c.curvature()

    # d(phi^{*A} beta) by grid finite differences
    beta = spec.coeff(c.phi)
    pb = equivariant_pullback(P, F, p, q, beta)
    if q == 1:
        grads = np.stack([partial_derivative(pb, k, grid) for k in range(3)])
        rhs = np.einsum("mkl,klxyz->mxyz", EPS, grads)
    else:  # q == 2
        rhs = sum(partial_derivative(pb[m], m, grid) for m in range(3))

    # exterior-derivative part of d_g beta, pulled back
    dbeta = target_partials(spec.coeff, c.phi)
    if q == 1:
        lhs = equivariant_pullback(P, F, 0, 2, np.einsum("mkl,klxyz->mxyz", EPS, dbeta))
    else:
        lhs = equivariant_pullback(P, F, 0, 3, np.einsum("mmxyz->xyz", dbeta))

    # contraction part: (iota_{nu(I_a)} beta) is a (1, q-1) form
    if q == 1:
        contr = np.einsum("alxyz,lxyz->axyz", c.target.killing_fn(c.phi), beta)
    else:
        # (iota_{I_a} B)_l = (b x I_a)_l in dual storage
        contr = np.cross(beta[None], c.target.killing_fn(c.phi), axisa=1, axisb=1, axisc=1)
    lhs = lhs - equivariant_pullback(P, F, 1, q - 1, contr)
    return float(np.max(np.abs(lhs - rhs)))


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
