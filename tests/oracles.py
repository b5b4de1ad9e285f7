"""Reference implementations that the tests compare the package against.

None of this runs in ``skybps verify``, ``sweep`` or ``obstruction``:

- the round 3-sphere's adjoint-interval profile family, and the profiles an
  adjoint-interval target carries;
- rows of a whole-grid array, a Configuration held as whole-grid arrays,
  and a configuration's phi, A and g_M on every row, from its own
  evaluators;
- the whole-grid quadrature of a field;
- the perturbation bump formed on the whole grid;
- finite gauge transformations, with the group actions on the target charts;
- d phi, d^A phi and F on every row, and the named equivariant forms pulled
  back from them;
- a slab check's maximum over a configuration's slabs, without the pass;
- the target-level equivariance, nu-homomorphism and Sigma-duality residuals;
- the trace residual of a star-like map and the metric it recovers;
- the group-valued form of the SU(2) energy;
- the round 3-sphere metric of the spherical family's special parameters;
- the twisted spinorial family's scalar BPS2 conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from skybps.energy_degree import BPSParams, _pair
from skybps.errors import ConstraintViolated, GridMismatch, SkybpsError
from skybps.exterior import EPS, Metric3, StarMap, hodge_star, mat_det, mat_inv
from skybps.gaugefield import Configuration, _curvature, _dphi, equivariant_pullback
from skybps.grid import PatchGrid, _cut, partial_derivative
from skybps.lie_target import (
    AdjointIntervalFamily,
    TargetGeometry,
    qconj,
    qmul,
    sph_x,
    su2_algebra,
    target_partials,
)


class TargetMismatch(SkybpsError):
    """An operation was handed a target geometry it does not support."""


# ---------------------------------------------------------------------------
# configurations as whole-grid arrays
# ---------------------------------------------------------------------------


def take_rows(grid: PatchGrid, values: np.ndarray, rows: slice) -> np.ndarray:
    """``values[..., rows, :, :]`` on the first axis, rows taken mod n; a view
    unless the rows wrap around a periodic axis."""
    return _cut(values, slice(0, grid.n[0]), rows)


def from_arrays(grid: PatchGrid, target: TargetGeometry, phi: np.ndarray,
                A: np.ndarray | None, gM, orientation: int = 1,
                phi_winding: np.ndarray | None = None) -> Configuration:
    """A Configuration whose evaluators read phi (3, *grid), A (dim g, 3,
    *grid; None means A = 0) and g_M (a Metric3 or a (3, 3, *grid) array)."""
    if phi.shape != (3,) + grid.shape:
        raise GridMismatch("phi components do not match the grid")
    d = target.algebra.dim
    A = np.zeros((d, 3) + grid.shape) if A is None else A
    if A.shape != (d, 3) + grid.shape:
        raise GridMismatch("A components do not match the grid/algebra")
    g = gM.g if isinstance(gM, Metric3) else gM
    if g.shape != (3, 3) + grid.shape:
        raise GridMismatch("gM does not match the grid")

    def fields(rows):
        return take_rows(grid, phi, rows).copy(), take_rows(grid, A, rows).copy()

    def metric(rows):
        return take_rows(grid, g, rows).copy()

    return Configuration(grid, target, fields, metric, orientation, phi_winding)


def full_fields(c: Configuration) -> tuple[np.ndarray, np.ndarray, Metric3]:
    """phi, A and g_M of c on every row, from its evaluators."""
    rows = slice(0, c.grid.n[0])
    phi, A = c.fields(rows)
    return phi, A, Metric3(c.metric(rows))


def integrate(f: np.ndarray, grid: PatchGrid) -> float:
    """Composite quadrature of ``f`` over the patch: the sum of its row sums
    (``PatchGrid.row_sums``), as the margin's pass integrates."""
    if f.shape != grid.shape:
        raise GridMismatch(f"integrand shape {f.shape} != grid shape {grid.shape}")
    return float(np.sum(grid.row_sums(f)))


def perturbed_phi(c: Configuration, eps: float, seed: int = 0) -> np.ndarray:
    """phi of ``cli.perturb_configuration(c, eps, seed)`` on the whole grid,
    with the bump formed on the whole grid: a product of per-axis factors,
    broadcast to the grid."""
    rng = np.random.default_rng(seed)
    grid = c.grid
    bump = 1.0
    for ax in range(3):
        lo, hi = grid.lo_eff[ax], grid.hi_eff[ax]
        t = (grid.axis_points(ax) - lo) / (hi - lo)
        f = np.sin(np.pi * t) ** 3 if not grid.periodic[ax] else np.sin(2 * np.pi * t)
        bump = bump * f.reshape([-1 if i == ax else 1 for i in range(3)])
    phi = full_fields(c)[0]
    for mu in range(3):
        phi[mu] = phi[mu] + eps * rng.uniform(0.5, 1.0) * bump
    return phi


# ---------------------------------------------------------------------------
# adjoint-interval profiles
# ---------------------------------------------------------------------------


def round_s3_family() -> AdjointIntervalFamily:
    """Round 3-sphere: h1 = 1, h2 = sin, eta1 = -1, eta2 = -sin(2 xi)/2."""
    return AdjointIntervalFamily(
        h1=lambda xi: np.ones_like(xi),
        h2=np.sin,
        eta1=lambda xi: -np.ones_like(xi),
        eta2=lambda xi: -0.5 * np.sin(2.0 * xi),
        interval=(0.0, np.pi),
        compact="s3",
        name="round-s3",
    )


def adjoint_profiles(target: TargetGeometry, xi: np.ndarray):
    """(h1^2, h2^2, eta1, eta2) of an adjoint-interval target at the points xi.

    They are read off the metric and the moment map at the orbit point
    (u, v) = (pi/2, 0), where x = e_1 and x_u = -e_3 exactly.
    """
    y = np.stack([xi, np.full_like(xi, np.pi / 2), np.zeros_like(xi)])
    g, mu = target.metric_fn(y), target.mu_fn(y)
    return g[0, 0], g[1, 1], mu[0, 0], -mu[2, 1]


# ---------------------------------------------------------------------------
# SU(2) quaternion helpers and the group actions on target charts
# ---------------------------------------------------------------------------


def qexp(v: np.ndarray) -> np.ndarray:
    """exp of a pure quaternion (components (3, ...)) as a unit quaternion."""
    norm = np.sqrt(np.sum(v * v, axis=0))
    small = norm < 1e-300
    n = np.where(small, 1.0, norm)
    sinc = np.where(small, 1.0, np.sin(norm) / n)
    return np.concatenate([np.cos(norm)[None], sinc[None] * v])


def qrot(q: np.ndarray) -> np.ndarray:
    """SO(3) matrix R[a, b] with q e_b q^{-1} = R[a, b] e_a."""
    w, x, y, z = q
    return np.stack(
        [
            np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)]),
            np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)]),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z]),
        ]
    )


def sph_chart_of_x(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse chart: (u, v) with v wrapped into [0, 2 pi)."""
    u = np.arccos(np.clip(x[2], -1.0, 1.0))
    v = np.mod(np.arctan2(x[1], x[0]), 2.0 * np.pi)
    return u, v


def u1_action(lam: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Shift the theta fiber of a u1-fibered chart (theta, x, y) by lam."""
    out = np.array(y, copy=True)
    out[0] = out[0] + lam
    return out


def adjoint_action(lam_quat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rotate the S^2 chart part by the adjoint action of a quaternion field."""
    u, v = y[1], y[2]
    x = sph_x(u, v)
    r = qrot(lam_quat)
    xr = np.einsum("ab...,b...->a...", r, x)
    ur, vr = sph_chart_of_x(xr)
    out = np.array(y, copy=True)
    out[1], out[2] = ur, vr
    return out


def _action(target: TargetGeometry):
    """The finite group action on the target's chart, or None: the fiber shift
    on u1-fibered targets, the orbit-sphere rotation on adjoint-interval ones."""
    if "mu_y" in target.extras:
        return u1_action
    if target.name.startswith("adjoint-interval["):
        return adjoint_action
    return None


def fiber_axis(target: TargetGeometry) -> int | None:
    """A chart axis that a one-parameter subgroup of the action translates
    isometrically, or None: the theta fiber (0) of u1-fibered targets, the
    azimuth v (2) of adjoint-interval targets, where exp(t e_3) rotates the
    orbit sphere about its polar axis.  The metric does not depend on it."""
    return {u1_action: 0, adjoint_action: 2}.get(_action(target))


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------


def gauge_transform(c: Configuration, lam: np.ndarray, finite: bool = True,
                    lam_winding: np.ndarray | None = None):
    """Apply a gauge transformation phi -> exp(-lam) . phi, A -> exp(-lam) . A.

    ``lam`` has shape (dim g, *grid).  In finite mode a new Configuration is
    returned; in infinitesimal mode the pair of first-order variation fields
    (phi_dot, A_dot) is returned instead.  ``lam_winding`` (dim g, 3) declares
    linear growth of lam along the axes so its differential is exact for
    non-periodic profiles on periodic axes.
    """
    grid, target = c.grid, c.target
    phi, A, gM = full_fields(c)
    d = target.algebra.dim
    if lam.shape != (d,) + grid.shape:
        raise GridMismatch("gauge parameter does not match the grid/algebra")
    if lam_winding is None:
        lam_winding = np.zeros((d, 3))
    mesh = np.stack(grid.meshes())
    rem = lam - np.einsum("al,lxyz->axyz", lam_winding, mesh)
    dlam = np.stack([partial_derivative(rem, k, grid) for k in range(3)], axis=1)
    dlam += lam_winding[:, :, None, None, None]

    if not finite:
        kil = c.target.killing_fn(phi)
        phi_dot = np.einsum("axyz,amxyz->mxyz", lam, kil)
        a_dot = dlam + np.einsum("abc,blxyz,cxyz->alxyz", target.algebra.f, A, lam)
        return phi_dot, a_dot

    action = _action(target)
    if target.algebra.dim == 1:
        if action is None:
            raise ValueError("target does not define a finite u(1) action")
        phi_new = action(lam[0], phi)
        a_new = A + dlam
        winding = c.phi_winding.copy()
        winding[fiber_axis(target)] += lam_winding[0]
        return from_arrays(grid, target, phi_new, a_new, gM, c.orientation, winding)

    if action is None:
        raise ValueError("target does not define a finite group action")
    u = qexp(-lam)  # group element acting on the target
    g = qexp(lam)
    phi_new = action(u, phi)
    # continuity across periodic wraps: keep the winding, re-wrap the remainder
    phi_new = _rewrap(phi_new, phi, target)
    dg = np.stack([partial_derivative(g, k, grid) for k in range(3)], axis=1)
    pure = np.stack([qmul(qconj(g), dg[:, k]) for k in range(3)], axis=1)
    maurer = pure[1:]  # e-basis components of g^{-1} dg
    rot = qrot(qconj(g))
    conjugated = np.einsum("baxyz,alxyz->blxyz", rot, A)
    a_new = maurer + conjugated
    return from_arrays(grid, target, phi_new, a_new, gM, c.orientation, c.phi_winding.copy())


def _rewrap(phi_new: np.ndarray, phi_old: np.ndarray, target: TargetGeometry) -> np.ndarray:
    """Shift periodic target components by full periods to stay near phi_old."""
    out = np.array(phi_new, copy=True)
    for mu in range(3):
        if not target.periodic[mu]:
            continue
        period = target.hi[mu] - target.lo[mu]
        jump = out[mu] - phi_old[mu]
        out[mu] = phi_old[mu] + (np.mod(jump + 0.5 * period, period) - 0.5 * period)
    return out


# ---------------------------------------------------------------------------
# derived fields and named equivariant forms on the full grid
# ---------------------------------------------------------------------------


def full_grid_field(c: Configuration, name: str) -> np.ndarray:
    """d phi ("dphi"), d^A phi ("P") or F ("F") of c on every row,
    slice(0, n) of the first axis."""
    rows = slice(0, c.grid.n[0])
    if name == "dphi":
        return _dphi(c, c.fields(rows)[0], rows)
    return c.slab(rows).inner(name)


# the tensors that g_N derives, from the einsum formulas: the volume
# coefficient sqrt(det g_N), the Hodge tensor Sigma = sqrt(det g_N) g_N^-1
# (value slot, dual slot) and the metric dual g_N^-1 mu of the moment map


def target_volume(g):
    return np.sqrt(mat_det(g))


def target_sigma(g):
    return np.sqrt(mat_det(g)) * mat_inv(g)


def target_mu_sharp(g, mu):
    return np.einsum("mn...,an...->am...", mat_inv(g), mu)


@dataclass(frozen=True)
class FormSpec:
    """An equivariant form of bidegree (p, q) that can pull itself back on a
    whole configuration; ``coeff`` is laid out as for ``equivariant_pullback``."""

    p: int
    q: int
    coeff: Callable

    def pullback(self, c: Configuration) -> np.ndarray:
        """phi^{*A} of this form on the configuration c."""
        return equivariant_pullback(full_grid_field(c, "P"), full_grid_field(c, "F"),
                                    self.p, self.q, self.coeff(full_fields(c)[0]))


def standard_specs(target: TargetGeometry) -> dict[str, FormSpec]:
    """The named equivariant forms used by the energy and degree."""
    t = target
    return {
        "volume": FormSpec(0, 3, lambda y: target_volume(t.metric_fn(y))),
        "mu": FormSpec(1, 1, t.mu_fn),
        "sigma": FormSpec(0, 2, lambda y: target_sigma(t.metric_fn(y))),
        "nu": FormSpec(1, 0, t.killing_fn),
        "mu_sharp": FormSpec(1, 0, lambda y: target_mu_sharp(t.metric_fn(y), t.mu_fn(y))),
        "identity": FormSpec(0, 1, _identity_coeff),
    }


def _identity_coeff(y):
    eye = np.eye(3)
    return np.broadcast_to(
        eye.reshape(3, 3, 1, 1, 1), (3, 3) + np.shape(y[0])
    ).astype(np.result_type(y))


def over_slabs(c: Configuration, check) -> float:
    """max of the pointwise check(slab) over the slabs of c, each with its
    derivative halo: the value that a pass reports for the check on the
    whole grid."""
    return max(float(np.max(check(c.slab(sl)))) for sl in c.grid.slabs())


# ---------------------------------------------------------------------------
# target-level action diagnostics
# ---------------------------------------------------------------------------


def nu_homomorphism_residual(target: TargetGeometry, n=64) -> float:
    """max |I_a . dI_b - I_b . dI_a - f^c_ab I_c| over basis pairs and points."""
    y = np.stack(target.chart_grid(n).meshes())
    kil = target.killing_fn(y)
    dk = target_partials(target.killing_fn, y)  # (m, b, lam, *sp)
    adv = np.einsum("amxyz,mblxyz->ablxyz", kil, dk)
    bracket = adv - np.swapaxes(adv, 0, 1)
    expected = np.einsum("cab,clxyz->ablxyz", target.algebra.f, kil)
    return float(np.max(np.abs(bracket - expected)))


def equivariance_residual(target: TargetGeometry, n=48) -> dict:
    """Equivariance residuals of mu (Lie-slot 1-form) and Sigma (TN-valued 2-form).

    For each basis direction b the Lie derivative along nu(I_b) must be
    compensated by the coadjoint rotation of Lie slots (mu) and the tangent
    rotation of value slots (Sigma).
    """
    y = np.stack(target.chart_grid(n).meshes())
    kil = target.killing_fn(y)
    dk = target_partials(target.killing_fn, y)  # (m, b, lam, *sp)
    f = target.algebra.f

    mu = target.mu_fn(y)
    dmu = target_partials(target.mu_fn, y)  # (k, a, m, *sp)
    res_mu = (
        np.einsum("bnxyz,namxyz->abmxyz", kil, dmu)
        + np.einsum("anxyz,mbnxyz->abmxyz", mu, dk)
        + np.einsum("cab,cmxyz->abmxyz", f, mu)
    )

    def sigma(yc):
        return target_sigma(target.metric_fn(yc))

    sig = sigma(y)  # (value mu, dual m, *sp)
    dsig = target_partials(sigma, y)  # (k, mu, m, *sp)
    div_k = np.einsum("nbnxyz->bxyz", dk)
    # Lie derivative of the dual-stored 2-form slot: X.grad b + b div X - (b.grad) X
    lie_form = (
        np.einsum("bnxyz,nsmxyz->bsmxyz", kil, dsig)
        + sig[None] * div_k[:, None, None]
        - np.einsum("smxyz,mblxyz->bslxyz", sig, dk)
    )
    res_sig = lie_form - np.einsum("nmxyz,nbsxyz->bsmxyz", sig, dk)
    return {
        "mu_residual": float(np.max(np.abs(res_mu))),
        "sigma_residual": float(np.max(np.abs(res_sig))),
    }


def sigma_duality_residual(target: TargetGeometry, n=24) -> float:
    """max |g_N(u, Sigma(v, w)) - V_N(u, v, w)| over basis triples and points."""
    y = np.stack(target.chart_grid(n).meshes())
    g = target.metric_fn(y)
    sig, vol = target_sigma(g), target_volume(g)
    # Sigma(e_v, e_w) has components Sig[:, m] eps_mvw; pair with g and compare
    lhs = np.einsum("umxyz,mvw,euxyz->evwxyz", sig, EPS, g)
    rhs = EPS[..., None, None, None] * vol
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# the trace identity and metric recovery
# ---------------------------------------------------------------------------


def star_trace_residual(s: np.ndarray) -> float:
    """max over points and basis vectors V of |tr(iota_V o star)| for the
    star-like map of matrix s (a ``StarMap.s``).

    In dual storage the trace against V = E_k is eps_kij S_ji, so the residual
    is the largest antisymmetric part of S.
    """
    return float(
        max(
            np.max(np.abs(s[1, 2] - s[2, 1])),
            np.max(np.abs(s[2, 0] - s[0, 2])),
            np.max(np.abs(s[0, 1] - s[1, 0])),
        )
    )


def recover_metric(s: np.ndarray, trace_tol: float | None = 1e-8) -> Metric3:
    """Invert the star-like map of matrix s (a ``StarMap.s``) back to a
    metric tensor.

    Implements the bilinear left inverse
    g(V, W) = (1/2) sum_ij star(e^j)(V, E_i) star(e^i)(E_j, W) in coordinate
    bases.  The output may fail positive definiteness (``riemannian_mask``
    False somewhere); that is a legal result for star-like maps not built
    from a metric.
    """
    if trace_tol is not None:
        res = star_trace_residual(s)
        scale = max(float(np.max(np.abs(s))), 1.0)
        if res > trace_tol * scale:
            raise ConstraintViolated(
                f"trace residual {res:.3e} exceeds tolerance {trace_tol:.1e} * {scale:.3e}"
            )
    g = 0.5 * np.einsum("kim,jlp,mjxyz,pixyz->klxyz", EPS, EPS, s, s)
    g = 0.5 * (g + np.swapaxes(g, 0, 1))  # kill roundoff asymmetry
    return Metric3(g)


# ---------------------------------------------------------------------------
# SU(2) adjoint reduction of the energy
# ---------------------------------------------------------------------------


def su2_matrix_fields(c: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """Represent an adjoint round-sphere configuration by (U, A) fields.

    U = cos(xi) + sin(xi) x(u, v) as a unit quaternion field.  Requires the
    round adjoint-interval target (h1 = 1, h2 = sin).
    """
    if c.target.name != "adjoint-interval[round-s3]":
        raise TargetMismatch("SU(2) reduction needs the round adjoint-interval target")
    (xi, u, v), A, _ = full_fields(c)
    U = np.concatenate([np.cos(xi)[None], np.sin(xi) * sph_x(u, v)])
    return U, A


def _lie_pair(u, v, degree: int, star: StarMap) -> np.ndarray:
    """The pairing of Lie-algebra slots in an orthonormal basis (delta)."""
    return _pair(u, v, degree, star, np.eye(len(u))[:, :, None, None, None])


def energy_su2_reduced(U: np.ndarray, A: np.ndarray, grid: PatchGrid, gM: Metric3,
                       p: BPSParams, orientation: int = 1) -> float:
    """Energy in the group-valued form, for U: M -> SU(2) and an su(2) connection.

    Uses L^A = U^{-1}(dU + [A, U]) and the curvature couplings

        c1 |L|^2 + (c2/4) |L^L|^2 + (1/2)(4 c3 + c4) |F|^2
        + (1/2)(c4 - 4 c3) <F, U^{-1} F U>
        + (1/4) <(2 c5 - c6) F - (2 c5 + c6) U^{-1} F U, L^L>

    with L^L = L ^ L.  Agrees with ``energy_degree.energy`` on the round
    adjoint target.
    """
    if U.shape[0] != 4 or A.shape[:2] != (3, 3):
        raise TargetMismatch("need a quaternion U field and an su(2) connection")
    c1, c2, c3, c4, c5, c6 = p.c
    f = su2_algebra().f
    dU = np.stack([partial_derivative(U, k, grid) for k in range(3)], axis=1)  # (4, 3, *sp)
    Uc = qconj(U)
    L = np.empty((3, 3) + grid.shape)
    for lam in range(3):
        a_l = np.concatenate([np.zeros((1,) + grid.shape), A[:, lam]])
        comm = qmul(a_l, U) - qmul(U, a_l)
        L[:, lam] = qmul(Uc, dU[:, lam] + comm)[1:]
    lwl = 0.5 * np.einsum("abc,bixyz,cjxyz,mij->amxyz", f, L, L, EPS, optimize=True)

    F = _curvature(A, f, grid, slice(0, grid.n[0]))
    rot = qrot(Uc)
    UFU = np.einsum("baxyz,amxyz->bmxyz", rot, F)  # U^{-1} F U components

    star = hodge_star(gM, orientation)
    dens = (
        c1 * _lie_pair(L, L, 1, star)
        + 0.25 * c2 * _lie_pair(lwl, lwl, 2, star)
        + 0.5 * (4.0 * c3 + c4) * _lie_pair(F, F, 2, star)
        + 0.5 * (c4 - 4.0 * c3) * _lie_pair(F, UFU, 2, star)
        + 0.25 * _lie_pair((2.0 * c5 - c6) * F - (2.0 * c5 + c6) * UFU, lwl, 2, star)
    )
    return orientation * float(np.sum(dens * grid.weights()))


# ---------------------------------------------------------------------------
# the spherical family's round special case
# ---------------------------------------------------------------------------


def spherical_round_target_metric(xi):
    """Target metric components (h1^2, h2^2) of the special round parameters.

    With (c1, c2, beta) = (1, -1, 2 alpha) and h1 = 1/(1 + xi^2) the target
    metric is dxi^2/(1+xi^2)^2 + (xi^2/(1+xi^2)) g_S2, which the substitution
    arctan(xi) turns into the round 3-sphere.
    """
    return 1.0 / (1.0 + xi**2) ** 2, xi**2 / (1.0 + xi**2)


def bps2_scalar_conditions(res, alpha: float, beta: float, gamma: float):
    """The three scalar conditions under which the twisted spinorial member
    ``res`` solves BPS2, each as a maximum over its grid:
    alpha h2^2 + (beta/2) eta1 (1 - K) with K = 1 - alpha/beta,
    2 gamma B - alpha with B read off A, and eta2."""
    c = res.config
    _, h2sq, eta1, eta2 = adjoint_profiles(c.target, c.grid.meshes()[0])
    k = 1.0 - alpha / beta
    return (float(np.max(np.abs(alpha * h2sq + 0.5 * beta * eta1 * (1.0 - k)))),
            float(np.max(np.abs(2.0 * gamma * full_fields(c)[1][0, 0] - alpha))),
            float(np.max(np.abs(eta2))))
