"""Constructors for the explicit BPS families, each returning a ready
Configuration together with the scalars its report rows carry and the
identity checks that the pass runs on its slabs.

A family's fields are closed forms of the grid coordinates.  A constructor
evaluates each factor of them once, on the axis or the coordinate plane it
depends on (a profile of xi, the surface's conformal factor, the frame of the
orbit sphere), and returns a Configuration whose evaluators assemble phi, A
and g_M from those factors on the rows a slab asks for.  No constructor
forms a field of the grid's size.

Families
--------
identity_u1     identity section of a U(1)-fibered target with A = A_x dx and
                the conformally deformed base metric that solves BPS1.
dirac_monopole  covariantly constant sphere direction, xi = 1/(2r) on a
                radial window of flat R^3 (radial coordinate s = 1/(2r), so
                the xi field is linear and exactly differentiated).
spinorial       spin-bundle connection of a surface C shifted by half a
                Clifford multiplication; curvature (1/2)(1 - K) omega_C Phi.
twisted         spinorial data plus B Phi dxi with B = alpha / (2 gamma).
spherical       equivariant f(xi)-profile connection over I x S^2.
symplectic      area-form-normalized (a, w) data on C = S^2.

Surfaces use a single conformal chart.  Spheres are realized in the Mercator
chart z = tau + i v with Omega = R^2 sech^2(tau): the curvature is constant
1/R^2 and the omitted polar caps carry area fraction 1 - tanh(tau_max)
(4.95e-3 at the default tau_max = 3).  The surface factor is not
extrapolated over them, so degrees read low by about that fraction: the
spinorial degree is 0.99477 at tau_max = 3 and n = 48.

All constant-Phi families place Phi at the chart point (u, v) = (pi/2, 0)
(the su(2) direction e_1); gauge data written for the north pole in matrix
form is rotated by e_3 -> e_1, e_1 -> -e_3 before being read off in the
orthonormal basis e_a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConstraintViolated,
    NormalizationFailed,
    NotRiemannian,
    ParamInconsistent,
)
from .gaugefield import Configuration, Slab
from .grid import build_patch
from .lie_target import (
    AdjointIntervalFamily,
    TargetGeometry,
    _cstep,
    _triple,
    eta2_zero_family,
    make_adjoint_interval_target,
    monopole_family,
    shared,
    sph_frame,
    u1_s3_adjoint_target,
)

# ---------------------------------------------------------------------------
# shared adjoint-interval targets: profile families by their defining
# parameters, and targets by family
# ---------------------------------------------------------------------------


def _adjoint_target(fam: AdjointIntervalFamily) -> TargetGeometry:
    return shared(fam, lambda: make_adjoint_interval_target(fam))


def _round_eta2_zero(name: str) -> AdjointIntervalFamily:
    """The round 3-sphere's eta2 = 0 representative (h2 = sin on (0, pi))."""
    return shared(("eta2-zero", name),
                  lambda: eta2_zero_family(np.sin, (0.0, np.pi), compact="s3", name=name))


# ---------------------------------------------------------------------------
# conformal surface charts
# ---------------------------------------------------------------------------

_STEP = 1e-5  # central-difference step of the outer derivative of ln Omega


@dataclass
class SurfaceGeometry:
    """A surface C in a single conformal chart g_C = Omega (dx1^2 + dx2^2).

    ``omega``, ``gauss_k`` and ``dlog_omega`` are complex-safe evaluators of
    the conformal factor, the Gauss curvature and the gradient
    (d_1 ln Omega, d_2 ln Omega).  The declared curvature is checked against
    -(Delta ln Omega) / (2 Omega) to 1e-6 at construction.
    """

    omega: Callable
    gauss_k: Callable
    dlog_omega: Callable
    lo: tuple[float, float]
    hi: tuple[float, float]
    periodic: tuple[bool, bool]

    def __post_init__(self):
        x1 = np.linspace(self.lo[0] + 1e-3, self.hi[0] - 1e-3, 41)
        x2 = np.linspace(self.lo[1] + 1e-3, self.hi[1] - 1e-3, 37)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        k_ref = self.curvature_from_omega(X1, X2)
        res = np.max(np.abs(k_ref - self.gauss_k(X1, X2)))
        if res > 1e-6:
            raise ConstraintViolated(
                f"declared Gauss curvature differs from the conformal factor: {res:.3e}"
            )

    def levi_civita_da_coeff(self, x1, x2):
        """dx1^dx2 coefficient of da for a = (d1 lnOmega dx2 - d2 lnOmega dx1)/4."""
        d11 = _cstep(lambda a, b: self.dlog_omega(a, b)[0], (x1, x2), 0)
        d22 = _cstep(lambda a, b: self.dlog_omega(a, b)[1], (x1, x2), 1)
        return 0.25 * (d11 + d22)

    def curvature_from_omega(self, x1, x2):
        """K = -(Delta ln Omega) / (2 Omega); outer derivative by central step."""
        h = _STEP
        d2 = (self.dlog_omega(x1 + h, x2)[0] - self.dlog_omega(x1 - h, x2)[0]) / (2 * h)
        d2 += (self.dlog_omega(x1, x2 + h)[1] - self.dlog_omega(x1, x2 - h)[1]) / (2 * h)
        return -d2 / (2.0 * self.omega(x1, x2))

    def area(self) -> float:
        """Integral of omega_C over the chart on a 256 x 256 mesh."""
        # a patch with a unit third axis supplies the per-axis points and weights
        g = build_patch((self.lo[0], self.lo[1], 0.0), (self.hi[0], self.hi[1], 1.0),
                        (256, 256, 5), (self.periodic[0], self.periodic[1], False))
        x1, x2 = np.meshgrid(g.axis_points(0), g.axis_points(1), indexing="ij")
        w = g.axis_weights(0)[:, None] * g.axis_weights(1)[None, :]
        return float(np.sum(self.omega(x1, x2) * w))


def mercator_sphere(curvature: float = 1.0, tau_max: float = 3.0) -> SurfaceGeometry:
    """Round sphere of constant Gauss curvature K in the Mercator chart.

    Omega(tau) = sech^2(tau) / K on (-tau_max, tau_max) x (0, 2 pi); the two
    polar caps left out carry area fraction 1 - tanh(tau_max).
    """
    if curvature <= 0:
        raise ParamInconsistent("the Mercator sphere needs positive curvature")
    K = float(curvature)
    return SurfaceGeometry(
        omega=lambda t, v: (1.0 / (K * np.cosh(t) ** 2)) * np.ones_like(v),
        gauss_k=lambda t, v: K * np.ones_like(t * v),
        dlog_omega=lambda t, v: (-2.0 * np.tanh(t) * np.ones_like(v), np.zeros_like(t * v)),
        lo=(-tau_max, 0.0),
        hi=(tau_max, 2 * np.pi),
        periodic=(False, True),
    )


# ---------------------------------------------------------------------------
# shared result container
# ---------------------------------------------------------------------------


@dataclass
class FamilyResult:
    """A constructed family member, the scalars its report rows carry, and
    (name, fn) checks of its closed-form identities: fn(slab) is the
    residual's magnitude at each point of the rows of a :class:`Slab` of
    ``config``, maximized by the pass over each sub-box it reports.  Scalars
    that read every grid point are the configuration's ``diagnostics``,
    reduced by the pass as well; ``diagnostics`` here are of the whole
    grid."""

    family: str
    config: Configuration
    diagnostics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def _on_rows(values: np.ndarray, grid, rows: slice) -> np.ndarray:
    """A profile of the first axis (n0, ...) on ``rows``, shaped to broadcast
    over the other two: (rows, ..., 1, 1) for a 1-D profile."""
    return values[grid.row_index(rows)][(...,) + (None,) * (3 - values.ndim)]


def _constant_phi(grid, rows: slice) -> np.ndarray:
    """phi = (xi, pi/2, 0): xi is the first coordinate, and the sphere factor
    sits at the chart point of Phi = e_1."""
    phi = np.empty((3, rows.stop - rows.start) + grid.n[1:])
    phi[0] = _on_rows(grid.axis_points(0), grid, rows)
    phi[1] = np.pi / 2
    phi[2] = 0.0
    return phi


def _plane(grid, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate plane of axes i and j, as two (n_i, n_j) fields."""
    return tuple(np.meshgrid(grid.axis_points(i), grid.axis_points(j), indexing="ij"))


# ---------------------------------------------------------------------------
# identity section of a U(1)-fibered target
# ---------------------------------------------------------------------------


def identity_u1_solution(
    a_x: Callable,
    target: TargetGeometry | None = None,
    n=48,
    margin: float = 0.2,
) -> FamilyResult:
    """Identity map with connection A = A_x(theta, x) dx on a fibered target.

    Solves BPS1 with the conformally deformed base metric

        g_M = kappa [ f (dtheta + omega - A)^2 + h dx^2 ] + mu^2 / mu_y,
        kappa = 1 + 3 F_{theta x} mu_y / W,  W = d_x mu_y - d_y mu_x,

    and BPS2 holds with alpha = beta = gamma = 0.  A_x must not depend on y
    (the moment-dual flow) and kappa must stay positive on the grid.  A_x and
    F_{theta x} are evaluated on the (theta, x) plane, the target's profiles
    on the (x, y) plane.
    """
    target = target or u1_s3_adjoint_target()
    ex = target.extras
    grid = build_patch(target.lo, target.hi, _triple(n), target.periodic, margin)

    th, x = _plane(grid, 0, 1)
    ax_vals = a_x(th, x)
    f_tx = _cstep(a_x, (th, x), 0)
    x, y = _plane(grid, 1, 2)
    mu_x, mu_y = ex["mu_x"](x, y), ex["mu_y"](x, y)
    hh, om, w = ex["h"](x, y), ex["omega_x"](x, y), ex["w"](x, y)
    fib = w * w / (hh * mu_y)

    def kappa(rows):
        return 1.0 + 3.0 * _on_rows(f_tx, grid, rows) * mu_y / w

    def fields(rows):
        phi = grid.points(rows)
        A = np.zeros((1, 3) + phi.shape[1:])
        A[0, 1] = _on_rows(ax_vals, grid, rows)
        return phi, A

    def metric(rows):
        k = kappa(rows)
        omt = om - _on_rows(ax_vals, grid, rows)
        g = np.zeros((3, 3) + k.shape)
        g[0, 0] = k * fib
        g[0, 1] = g[1, 0] = k * fib * omt
        g[1, 1] = k * (fib * omt * omt + hh) + mu_x * mu_x / mu_y
        g[1, 2] = g[2, 1] = mu_x
        g[2, 2] = mu_y
        return g

    def guard(values):
        k = values["kappa_min"]
        if k <= 0:
            return NotRiemannian(f"conformal factor reaches {k:.4g} <= 0; shrink A or the margin")
        return None

    cfg = Configuration(grid, target, fields, metric, orientation=1, phi_winding=np.eye(3),
                        diagnostics=(("kappa_min", kappa, np.minimum),), guard=guard)
    return FamilyResult(family="identity-u1", config=cfg)


# ---------------------------------------------------------------------------
# Dirac monopole window
# ---------------------------------------------------------------------------


def dirac_monopole(n=48, r_window=(0.5, 2.0), margin: float = 0.1) -> FamilyResult:
    """Abelian monopole: xi = 1/(2r), Phi constant, a the degree-1 connection.

    Built in the radial coordinate s = 1/(2r) (so xi = s exactly) on the
    window s in [1/(2 r_max), 1/(2 r_min)], with the flat metric
    g_M = ds^2/(4 s^4) + (du^2 + sin^2 u dv^2)/(4 s^2) and orientation -1
    (s decreases with r).  Solves BPS1 in coordinates with eta1 = -h1^2 / 3;
    BPS2 requires beta = 0.
    """
    r0, r1 = r_window
    s0, s1 = 1.0 / (2.0 * r1), 1.0 / (2.0 * r0)
    pad = 0.05 * (s1 - s0)
    window = (s0 - pad, s1 + pad)
    target = _adjoint_target(shared(("monopole", window), lambda: monopole_family(window)))
    grid = build_patch((s0, 0.0, 0.0), (s1, np.pi, 2 * np.pi),
                       _triple(n), (False, False, True), margin)
    s, u = grid.axis_points(0), grid.axis_points(1)
    a_v = 0.5 * (1.0 - np.cos(u))  # a = (1 - cos u)/2 dv along Phi = e_1
    g_ss, g_uu, s_sq = 0.25 / s**4, 0.25 / s**2, s**2
    quarter_sin_sq = 0.25 * np.sin(u) ** 2

    def fields(rows):
        phi = _constant_phi(grid, rows)
        A = np.zeros((3, 3) + phi.shape[1:])
        A[0, 2] = a_v[:, None]
        return phi, A

    def metric(rows):
        g = np.zeros((3, 3, rows.stop - rows.start) + grid.n[1:])
        g[0, 0] = _on_rows(g_ss, grid, rows)
        g[1, 1] = _on_rows(g_uu, grid, rows)
        g[2, 2] = quarter_sin_sq[:, None] / _on_rows(s_sq, grid, rows)
        return g

    winding = np.zeros((3, 3))
    winding[0, 0] = 1.0
    cfg = Configuration(grid, target, fields, metric, orientation=-1, phi_winding=winding)
    return FamilyResult(family="dirac-monopole", config=cfg,
                        checks=[("abelian_bps_residual", _abelian_bps_residual)])


def _abelian_bps_residual(slab: Slab) -> np.ndarray:
    """|star d xi + da| at each point of a slab's rows, per component.  d xi
    (= ds exactly) is the xi row of d^A phi, since the action leaves xi
    fixed (I_a^xi = 0)."""
    dxi, da = slab.inner("P")[0], slab.inner("F")[0]
    return np.abs(slab.star.on_1(dxi[None])[0] + da)


# ---------------------------------------------------------------------------
# spinorial family and its twist
# ---------------------------------------------------------------------------


def spinorial_solution(
    surface: SurfaceGeometry | None = None,
    fam: AdjointIntervalFamily | None = None,
    n=48,
    margin: float = 0.1,
    twist_b: float = 0.0,
) -> FamilyResult:
    """Spin-bundle solution over M = I x C with h1 = 1.

    Phi is the constant direction e_1, A is the shifted spin connection of C
    (plus B Phi dxi when ``twist_b`` is nonzero), and

        g_M = dxi^2 + (h2^2 + (3/2) eta1 (1 - K)) g_C.

    In the matrix gauge A = [[-i a, -conj(w)], [w, i a]] with
    a = (d_1 lnOmega dx2 - d_2 lnOmega dx1)/4 and w = sqrt(Omega)/2 (dx1 + i dx2);
    after the e_3 -> e_1 frame rotation the components are (a, Re w, Im w).

    The conformal-block coefficient may fail positivity (a legal, flagged
    outcome); the configuration's diagnostics carry its minimum, and the
    checks the residuals of F = (1/2)(1 - K) omega_C Phi and of d^A phi.

    The default profile family is the eta2 = 0 representative of the round
    3-sphere metric (h2 = sin, eta1 = -2 sin^2); choosing eta2 = 0 removes
    the eta2/h2^2 = -cot(xi) amplification of finite-difference noise near
    the collapsed spheres.  Other families (e.g. the canonical round pair
    with eta2 = -sin(2 xi)/2, or constant-h2 data) can be passed explicitly.
    """
    surface = surface or mercator_sphere(1.0)
    fam = fam or _round_eta2_zero("round-metric-eta2-zero")
    xi0, xi1 = fam.interval
    sample = np.linspace(xi0 + 1e-6, xi1 - 1e-6, 64)
    if np.max(np.abs(fam.h1(sample) - 1.0)) > 1e-12:
        raise ParamInconsistent("spinorial data needs coordinates with h1 = 1")
    target = _adjoint_target(fam)
    grid = build_patch(
        (xi0, surface.lo[0], surface.lo[1]),
        (xi1, surface.hi[0], surface.hi[1]),
        _triple(n),
        (False, surface.periodic[0], surface.periodic[1]),
        margin,
    )
    # the surface's factors on the (x1, x2) plane, the profiles on the xi axis
    x1, x2 = _plane(grid, 1, 2)
    g1, g2 = surface.dlog_omega(x1, x2)
    a = {(0, 1): -0.25 * g2, (0, 2): 0.25 * g1}  # a, on the dx1 and dx2 slots
    om = surface.omega(x1, x2)
    sq = np.sqrt(om)
    half_sq = 0.5 * sq  # Re w and Im w
    xi = grid.axis_points(0)
    h2_sq, eta1 = fam.h2(xi) ** 2, 1.5 * fam.eta1(xi)
    one_minus_k = 1.0 - surface.gauss_k(x1, x2)

    def fields(rows):
        phi = _constant_phi(grid, rows)
        A = np.zeros((3, 3) + phi.shape[1:])
        for slot, values in a.items():
            A[slot] = values
        A[1, 1] = A[2, 2] = half_sq
        if twist_b != 0.0:
            A[0, 0] = twist_b
        return phi, A

    def coef(rows):
        return _on_rows(h2_sq, grid, rows) + _on_rows(eta1, grid, rows) * one_minus_k

    def metric(rows):
        c = coef(rows)
        g = np.zeros((3, 3) + c.shape)
        g[0, 0] = 1.0
        g[1, 1] = c * om
        g[2, 2] = c * om
        return g

    cfg = Configuration(grid, target, fields, metric, orientation=1, diagnostics=(
        ("conformal_coefficient_min", coef, np.minimum),))
    return FamilyResult(family="spinorial", config=cfg,
                        checks=_spinorial_checks(0.5 * one_minus_k * om, sq, twist_b))


def _spinorial_checks(curvature: np.ndarray, sq: np.ndarray, twist_b: float) -> list:
    """Checks of F = (1/2)(1 - K) omega_C Phi (plus the twist's part) and
    d^A phi = dxi e_0 + sqrt(Omega) (dx1 e_1 + dx2 e_2).  ``curvature`` is
    (1/2)(1 - K) Omega and ``sq`` sqrt(Omega) on the surface's plane."""
    def curvature_identity(slab: Slab) -> np.ndarray:
        F = slab.inner("F")
        pred = np.zeros_like(F)
        pred[0, 0] = curvature
        if twist_b != 0.0:
            # -B dxi ^ d^A Phi contributes B sqrt(Omega) on both transverse slots
            pred[1, 1] = pred[2, 2] = twist_b * sq
        return np.abs(F - pred)

    def covariant_differential(slab: Slab) -> np.ndarray:
        P = slab.inner("P")
        pred = np.zeros_like(P)
        pred[0, 0] = 1.0
        pred[1, 1] = pred[2, 2] = sq
        return np.abs(P - pred)

    return [("curvature_identity_residual", curvature_identity),
            ("covariant_differential_residual", covariant_differential)]


def twisted_spinorial_solution(
    alpha: float,
    gamma: float,
    beta: float | None = None,
    n=48,
    margin: float = 0.1,
) -> FamilyResult:
    """Spinorial data shifted by B Phi dxi, B = alpha / (2 gamma); eta2 = 0.

    For alpha = 0 this is exactly the spinorial configuration.  For nonzero
    alpha the surface curvature must be the constant K = 1 - alpha/beta >
    0 with beta supplied (or derived when a curvature is implied); the
    compatibility h2^2 = beta eta1 (K - 1)/(2 alpha) then holds identically
    for eta1 = -2 h2^2.  The profile is h2 = sin on (0, pi), the round
    3-sphere's eta2 = 0 representative.

    The base metric's conformal coefficient is then sin^2 xi (3K - 2), so
    g_M is riemannian only for K > 2/3, that is alpha/beta < 1/3.  For
    0 < K <= 2/3 the build succeeds and every row of a verify fails its
    ``riemannian`` check; at K = 2/3 the coefficient is zero up to
    rounding, which the check does not accept.
    """
    if gamma == 0.0:
        raise ParamInconsistent("the twist needs gamma != 0")
    b = alpha / (2.0 * gamma)
    fam = _round_eta2_zero("eta2-zero")
    if alpha == 0.0:
        surface = mercator_sphere(1.0)
    else:
        if beta is None or beta == 0.0:
            raise ParamInconsistent("alpha != 0 needs beta != 0 with K = 1 - alpha/beta")
        curvature = 1.0 - alpha / beta
        if curvature <= 0.0:
            raise ParamInconsistent(
                f"implied constant curvature {curvature:.4g} <= 0 is not a shipped surface"
            )
        surface = mercator_sphere(curvature)
        xi = np.linspace(1e-6, np.pi - 1e-6, 64)
        compat = np.sin(xi) ** 2 - beta * fam.eta1(xi) * (curvature - 1.0) / (2.0 * alpha)
        if np.max(np.abs(compat)) > 1e-10:
            raise ParamInconsistent("h2^2 = beta eta1 (K-1)/(2 alpha) fails")

    res = spinorial_solution(surface, fam, n=n, margin=margin, twist_b=b)
    res.family = "twisted-spinorial"
    return res


# ---------------------------------------------------------------------------
# spherical family
# ---------------------------------------------------------------------------


def spherical_solution(
    c1: float,
    c2: float,
    alpha: float,
    beta: float,
    xi_window=(0.2, 1.5),
    n=48,
    margin: float = 0.1,
    h1: Callable | None = None,
) -> FamilyResult:
    """Equivariant profile solution on M = I x S^2 with gamma = 0.

    phi is the identity, A = (f - 1)/2 x dx with f = sqrt(1 + c1 xi^2), and
    the target profiles (in the coordinate with eta2/eta1 = xi) are

        eta1 = c2 f^(-beta/alpha),  eta2 = xi eta1,
        h1 h2^2 = -(beta / 2 alpha) c1 c2 xi^2 f^(-beta/alpha - 2).

    The base metric is (1 - 3 alpha/beta)^2 (h1^2 dxi^2 + f^2 h2^2 g_S2) with
    the orientation carrying the sign of 1 - 3 alpha/beta.  The profiles are
    evaluated on the xi axis, the frame of the orbit sphere on the (u, v)
    plane, and the BPS2 residuals, which depend on xi alone, on the xi axis.
    """
    if alpha == 0.0 or beta == 0.0:
        raise ParamInconsistent("spherical family needs alpha != 0 and beta != 0")
    if abs(3.0 * alpha / beta - 1.0) < 1e-12:
        raise ParamInconsistent("3 alpha / beta = 1 leaves no base metric")
    expo = -beta / alpha

    def f(xi):
        return np.sqrt(1.0 + c1 * xi**2)

    def eta1(xi):
        return c2 * f(xi) ** expo

    def eta2(xi):
        return c2 * xi * f(xi) ** expo

    def h1h2sq(xi):
        return -(beta / (2.0 * alpha)) * c1 * c2 * xi**2 * f(xi) ** (expo - 2.0)

    xi_s = np.linspace(xi_window[0], xi_window[1], 64)
    if np.any(1.0 + c1 * xi_s**2 <= 0.0):
        raise ParamInconsistent("f^2 = 1 + c1 xi^2 must stay positive on the window")
    if np.any(h1h2sq(xi_s) <= 0.0):
        raise ParamInconsistent("h1 h2^2 <= 0 on the window: flip the sign of c1 c2 beta/alpha")
    if c1 == 0.0:
        raise ParamInconsistent("c1 = 0 forces f = 1 and F = 0 (excluded trivial branch)")

    h1_fn = h1 or (lambda xi: np.ones_like(xi))

    def h2_fn(xi):
        return np.sqrt(h1h2sq(xi) / h1_fn(xi))

    fam = shared(("spherical", c1, c2, alpha, beta, tuple(xi_window), h1),
                 lambda: AdjointIntervalFamily(h1=h1_fn, h2=h2_fn, eta1=eta1, eta2=eta2,
                                               interval=tuple(xi_window),
                                               name="spherical-profile"))
    target = _adjoint_target(fam)
    grid = build_patch((xi_window[0], 0.0, 0.0), (xi_window[1], np.pi, 2 * np.pi),
                       _triple(n), (False, False, True), margin)
    xi, u = grid.axis_points(0), grid.axis_points(1)

    x, xu, xv = sph_frame(*_plane(grid, 1, 2))
    # A_u and A_v are (f - 1)/2 times x cross x_u and x cross x_v
    half = 0.5 * (f(xi) - 1.0)
    cross = [np.cross(x, d, axisa=0, axisb=0, axisc=0)[:, None] for d in (xu, xv)]

    sign = 1.0 - 3.0 * alpha / beta
    g_xi = sign**2 * h1_fn(xi) ** 2
    g_sphere = sign**2 * f(xi) ** 2 * h2_fn(xi) ** 2
    sin_sq = np.sin(u) ** 2

    def fields(rows):
        phi = grid.points(rows)
        A = np.zeros((3, 3) + phi.shape[1:])
        for lam, values in zip((1, 2), cross):
            A[:, lam] = _on_rows(half, grid, rows) * values
        return phi, A

    def metric(rows):
        g = np.zeros((3, 3, rows.stop - rows.start) + grid.n[1:])
        g[0, 0] = _on_rows(g_xi, grid, rows)
        g[1, 1] = _on_rows(g_sphere, grid, rows)
        g[2, 2] = _on_rows(g_sphere, grid, rows) * sin_sq[:, None]
        return g

    winding = np.zeros((3, 3))
    winding[1, 1] = 1.0
    winding[2, 2] = 1.0
    cfg = Configuration(grid, target, fields, metric, orientation=int(np.sign(sign)),
                        phi_winding=winding)

    fp = c1 * xi / f(xi)
    bps2a = 2.0 * alpha * h1h2sq(xi) * f(xi) ** 2 + beta * eta1(xi) * (f(xi) ** 2 - 1.0)
    bps2b = 2.0 * alpha * h1h2sq(xi) * f(xi) + beta * eta2(xi) * fp
    return FamilyResult(
        family="spherical",
        config=cfg,
        diagnostics={
            "bps2a_residual": float(np.max(np.abs(bps2a))),
            "bps2b_residual": float(np.max(np.abs(bps2b))),
        },
    )


# ---------------------------------------------------------------------------
# symplectic family
# ---------------------------------------------------------------------------


def symplectic_solution(
    n=48,
    margin: float = 0.1,
    xi_phase: Callable | None = None,
    w_scale: float = 1.0,
) -> FamilyResult:
    """Area-normalized (a, w) data on C = S^2 with eta2 = 0 and beta != 0.

    omega_C := -2 da must equal 2 i w ^ conj(w); the construction uses the
    round unit sphere (Mercator chart, tau_max = 3) over xi in (0, pi) with
    h2 = sin, where a is half the Levi-Civita connection and w = sqrt(Omega)/2
    dz, optionally rotated by a xi-dependent phase (a gauge twist that leaves
    all invariants unchanged).  The normalization is checked on every grid
    point, in the pass.  ``w_scale`` exists to demonstrate that
    check and must be 1 for a valid construction.
    """
    surface = mercator_sphere(1.0)
    target = _adjoint_target(_round_eta2_zero("symplectic-base"))
    grid = build_patch((0.0, surface.lo[0], 0.0), (np.pi, surface.hi[0], 2 * np.pi),
                       _triple(n), (False, False, True), margin)
    xi = grid.axis_points(0)
    tau, v = _plane(grid, 1, 2)

    om = surface.omega(tau, v)
    sq = 0.5 * w_scale * np.sqrt(om)
    psi = xi_phase(xi) if xi_phase is not None else np.zeros_like(xi)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    g1, _ = surface.dlog_omega(tau, v)
    a_v = 0.25 * g1  # a = (d_tau ln Omega)/4 dv on the Mercator chart
    two_da = 2.0 * surface.levi_civita_da_coeff(tau, v)
    sin_sq = np.sin(xi) ** 2

    def w(rows):
        """w_xi = e^{i psi} (sq dtau + i sq dv): its real and imaginary parts'
        components on the (tau, v) axes."""
        c, s = _on_rows(cos_psi, grid, rows), _on_rows(sin_psi, grid, rows)
        return (sq * c, -sq * s), (sq * s, sq * c)

    def fields(rows):
        phi = _constant_phi(grid, rows)
        A = np.zeros((3, 3) + phi.shape[1:])
        (A[1, 1], A[1, 2]), (A[2, 1], A[2, 2]) = w(rows)
        A[0, 2] = a_v
        return phi, A

    def metric(rows):
        g = np.zeros((3, 3, rows.stop - rows.start) + grid.n[1:])
        g[0, 0] = 1.0
        g[1, 1] = _on_rows(sin_sq, grid, rows) * om
        g[2, 2] = _on_rows(sin_sq, grid, rows) * om
        return g

    def two_i_wwbar(rows):
        """2 i w ^ conj(w), its dtau^dv coefficient."""
        (re1, re2), (im1, im2) = w(rows)
        return 4.0 * (re1 * im2 - re2 * im1)

    def guard(values):
        # normalization 2 i w ^ conj(w) = -2 da, on the closed forms
        res, scale = values["normalization_residual"], values["_normalization_scale"] or 1.0
        if res > 1e-10 * scale:
            return NormalizationFailed(f"2 i w ^ conj(w) differs from -2 da by {res:.3e}")
        return None

    diagnostics = (
        ("normalization_residual", lambda rows: np.abs(two_i_wwbar(rows) + two_da), np.maximum),
        ("_normalization_scale", lambda rows: np.abs(two_i_wwbar(rows)), np.maximum),
    )
    cfg = Configuration(grid, target, fields, metric, orientation=1, diagnostics=diagnostics,
                        guard=guard)
    area = surface.area()
    return FamilyResult(family="symplectic", config=cfg,
                        diagnostics={"omega_c_integral_over_2pi": area / (2 * np.pi)})
