"""Lie-algebra data and target-geometry construction.

A :class:`TargetGeometry` bundles everything the energy and degree need about
the target 3-manifold N with its isometric group action: chart bounds, the
metric g_N, Killing-field components I_a, and moment-map coefficients
mu_{a;mu}.  The constructors supply closed-form chart data only; the tensors
derived from g_N (the volume coefficient sqrt(det g_N), the Hodge tensor
Sigma, the metric dual of the moment map) are formed where they are used,
with the kernels of ``exterior``.  ``target_d`` is the exterior derivative
of a dual-storage form on the chart, from its ``target_partials``.

A coefficient evaluator takes its chart point as a triple of arrays that
broadcast together, any of which may be complex; a stacked (3, ...) array is
one such triple.  Its value holds the points of the coordinates it reads,
broadcast together, so on an open mesh of the chart grid
(``PatchGrid.open_mesh``) each factor is formed on the axes it varies along.
Target-side partial derivatives are taken by complex step in one coordinate
at a time, which is exact to rounding for complex-safe closed forms (the
u1-fibered metric is the one evaluator that is not one, see
:func:`make_u1_fibered_target`).  The finite group actions and the
equivariance, nu-homomorphism and Sigma-duality residuals, which the tests
use as references, live in ``tests/oracles.py``.

Conventions.  su(2) uses the orthonormal basis e_a = -i sigma_a for the inner
product (X, Y) = -tr(XY)/2, in which [e_b, e_c] = 2 eps_abc e_a; u(1) is R
with the single generator 1.  SU(2) group elements are stored as unit
quaternions (q0, q1, q2, q3) <-> q0 + q_a e_a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConstraintViolated, MomentConditionFailed, NotRiemannian
from .exterior import EPS, _contraction_asymmetry, _dot, mat_det
from .grid import PatchGrid, build_patch, extrapolate_margin

_CSTEP = 1e-30


def _cstep(fn: Callable, args, k: int):
    """Complex-step partial of ``fn(*args)`` in argument ``k``.

    Only that argument is shifted; the others are passed unchanged.  Exact to
    rounding for complex-safe closed-form evaluators.
    """
    shifted = list(args)
    shifted[k] = shifted[k] + 1j * _CSTEP
    return np.imag(fn(*shifted)) / _CSTEP


def _chart_zeros(lead: tuple, y, *read) -> np.ndarray:
    """Zeros of shape ``lead`` + the broadcast shape of the coordinates
    ``read``, in the dtype of the chart point y: an evaluator's value holds
    the points of the coordinates it reads."""
    return np.zeros(lead + np.broadcast_shapes(*(np.shape(c) for c in read)), np.result_type(*y))


# ---------------------------------------------------------------------------
# Lie algebras and SU(2) quaternion helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants f^a_bc in an orthonormal basis, f[a, b, c]."""

    dim: int
    f: np.ndarray

    def __post_init__(self):
        f = self.f
        if f.shape != (self.dim,) * 3:
            raise ValueError("structure constants must be (dim, dim, dim)")
        if np.max(np.abs(f + np.swapaxes(f, 1, 2))) > 0:
            raise ValueError("structure constants not antisymmetric in lower indices")
        # Jacobi: f^a_be f^e_cd + f^a_ce f^e_db + f^a_de f^e_bc = 0
        jac = (
            np.einsum("abe,ecd->abcd", f, f)
            + np.einsum("ace,edb->abcd", f, f)
            + np.einsum("ade,ebc->abcd", f, f)
        )
        if np.max(np.abs(jac)) > 1e-14:
            raise ValueError("Jacobi identity fails")


def u1_algebra() -> LieAlgebraSpec:
    return LieAlgebraSpec(1, np.zeros((1, 1, 1)))


def su2_algebra() -> LieAlgebraSpec:
    """su(2) in the orthonormal basis e_a = -i sigma_a, so f^a_bc = 2 eps_abc."""
    return LieAlgebraSpec(3, 2.0 * EPS)


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion product, components on the leading axis (4, ...)."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ]
    )


def qconj(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[1:] = -out[1:]
    return out


# ---------------------------------------------------------------------------
# polar chart on the unit 2-sphere inside su(2)
# ---------------------------------------------------------------------------


def sph_x(u, v):
    """Unit vector x(u, v) = (sin u cos v, sin u sin v, cos u), shape (3, ...)."""
    return np.stack([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u) * np.ones_like(v)])


def sph_frame(u, v):
    """x(u, v) and its chart derivatives (x_u, x_v), each of shape (3, ...).

    One sin/cos of u and of v serves all three.
    """
    su, cu, sv, cv = np.sin(u), np.cos(u), np.sin(v), np.cos(v)
    one = np.ones_like(v)
    x = np.stack([su * cv, su * sv, cu * one])
    xu = np.stack([cu * cv, cu * sv, -su * one])
    xv = np.stack([-su * sv, su * cv, np.zeros_like(u * v)])
    return x, xu, xv


# ---------------------------------------------------------------------------
# target geometry container
# ---------------------------------------------------------------------------


@dataclass
class TargetGeometry:
    """Chart data for (N, g_N, G-action); immutable after construction.

    ``metric_fn``, ``killing_fn`` and ``mu_fn`` map a chart point y, a triple
    of arrays that broadcast together (a stacked (3, ...) array is one), to
    arrays of shape (3, 3, ...), (dim, 3, ...) and (dim, 3, ...)
    respectively.  The trailing shape is the broadcast of the coordinates
    the evaluator reads (``np.broadcast_shapes``), the dtype that of all
    three (``np.result_type(*y)``), and any coordinate may be complex, for
    complex-step derivatives.
    """

    name: str
    algebra: LieAlgebraSpec
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    periodic: tuple[bool, bool, bool]
    metric_fn: Callable
    killing_fn: Callable
    mu_fn: Callable
    has_moment_constraint: bool = True
    default_margin: float = 0.05
    volume_margins: tuple[float, ...] = (0.2, 0.1, 0.05)
    extras: dict = field(default_factory=dict)
    _volume_cache: dict = field(default_factory=dict, repr=False)
    _moment_cache: dict = field(default_factory=dict, repr=False)

    def chart_grid(self, n, margin: float | None = None) -> PatchGrid:
        m = self.default_margin if margin is None else margin
        return build_patch(self.lo, self.hi, _triple(n), self.periodic, m)

    def volume(self, n=96, margins=None) -> float:
        """Margin-extrapolated integral of V_N over the chart.

        V_N is evaluated once on the open mesh of each chart grid
        (``PatchGrid.open_mesh``), so on the axes its metric reads: two for
        every target built here, whose metric is invariant along the third.
        The quadrature (``PatchGrid.row_sums``) integrates it along an axis
        on which it has length 1 by that axis's weights summed.
        """
        margins = tuple(margins) if margins is not None else self.volume_margins
        key = (_triple(n), margins)
        if key not in self._volume_cache:
            vals = []
            for m in margins:
                grid = self.chart_grid(n, m)
                vol = np.sqrt(mat_det(self.metric_fn(grid.open_mesh())))
                vals.append(float(np.sum(grid.row_sums(vol))))
            self._volume_cache[key] = extrapolate_margin(margins, vals)
        return self._volume_cache[key]


# Targets, profile families and config sections by key, one object per key:
# a sweep point that leaves the target unchanged then reuses its Vol(N) and
# its moment-condition check.
_SHARED: dict = {}


def shared(key, make):
    """The object stored under ``key``, built by ``make()`` on first use.  A
    ``make`` that raises stores nothing."""
    if key not in _SHARED:
        _SHARED.setdefault(key, make())
    return _SHARED[key]


def _triple(n):
    if np.isscalar(n):
        return (int(n),) * 3
    return tuple(int(k) for k in n)


def target_partials(fn: Callable, y) -> np.ndarray:
    """Partial derivatives of a chart evaluator at the chart point y, a
    triple of arrays that broadcast together (or a stacked (3, ...) array).

    Returns d(fn)/dy^k stacked on a new leading axis k, by complex step in
    y^k alone: the other two coordinates stay real, so a factor that does
    not read y^k is formed in real arithmetic and contributes an exact 0.
    Exact to rounding for complex-safe closed forms; the u1-fibered
    metric's x and y partials are not (:func:`make_u1_fibered_target`).
    """
    return np.stack([_cstep(lambda *r: fn(r), tuple(y), k) for k in range(3)])


def target_d(fn: Callable, y, degree: int) -> np.ndarray:
    """Exterior derivative of the dual-storage ``degree``-form that the chart
    evaluator ``fn`` gives at the chart point y (see :func:`target_partials`).

    ``fn(y)`` has its form components on axis -4, after any leading axes.
    Of a 1-form c the result is the dual 2-form curl c,
    (d c)_m = d_{m+1} c_{m+2} - d_{m+2} c_{m+1} (indices mod 3), on the same
    axes; of a 2-form b it is the 3-form coefficient
    div b = d_0 b_0 + d_1 b_1 + d_2 b_2, without the component axis, from
    the partials of :func:`target_partials`.
    """
    if degree not in (1, 2):
        raise ValueError(f"target_d takes a 1-form or a 2-form, not degree {degree}")
    d = target_partials(fn, y)  # (k, ..., component, *shape)

    def part(k, m):
        return d[k, ..., m, :, :, :]

    if degree == 2:
        return part(0, 0) + part(1, 1) + part(2, 2)
    return np.stack([part((m + 1) % 3, (m + 2) % 3) - part((m + 2) % 3, (m + 1) % 3)
                     for m in range(3)], axis=-4)


# ---------------------------------------------------------------------------
# moment-map conditions
# ---------------------------------------------------------------------------


def verify_moment_conditions(target: TargetGeometry, n=64) -> dict:
    """Residuals of the moment-map conditions on the target chart.

    def_residual:        max_a, points, comps |(d mu(I_a) - iota_{nu(I_a)} V_N)|
    constraint_residual: max_{a<=b} |(iota_{nu(I_a)} mu(I_b) + (a<->b)) / 2|,
                         the symmetrized contraction that must vanish for the
                         degree to be defined.

    Both are formed on each slab of the n^3 chart grid (``PatchGrid.slabs``),
    from its open mesh (``PatchGrid.open_mesh``), and combined by max: each
    evaluator forms the slab's points of the axes it reads, and the
    residuals the points of the slab.  The result is kept on the target per
    n, so sweep points that share a target run the check once.
    """
    if n not in target._moment_cache:
        grid = target.chart_grid(n)
        def_res = con_res = 0.0
        for sl in grid.slabs():
            y = grid.open_mesh(sl)
            curl = target_d(target.mu_fn, y, 1)  # (a, comp, *sp)
            vol = np.sqrt(mat_det(target.metric_fn(y)))
            kil = target.killing_fn(y)
            def_res = max(def_res, float(np.max(np.abs(curl - vol * kil))))
            del curl, vol
            con_res = max(con_res, float(_contraction_asymmetry(kil, target.mu_fn(y))))
        target._moment_cache[n] = {"def_residual": def_res, "constraint_residual": con_res}
    return target._moment_cache[n]


# ---------------------------------------------------------------------------
# U(1)-fibered targets (principal orbit S^1)
# ---------------------------------------------------------------------------


def make_u1_fibered_target(
    mu_x: Callable,
    mu_y: Callable,
    h: Callable,
    omega_x: Callable,
    chart_lo=(0.0, 0.0, 0.0),
    chart_hi=(2 * np.pi, np.pi / 2, 4 * np.pi),
    chart_periodic=(True, False, True),
    name: str = "u1-fibered",
    validate: bool = True,
) -> TargetGeometry:
    """Circle-fibered target with nu = d/dtheta and mu-sharp = d/dy.

    The evaluators are functions of the base coordinates (x, y) of the chart
    (theta, x, y) and must be complex-safe.  The metric is assembled as

        g_N = (W^2 / (h mu_y)) (dtheta + omega)^2 + h dx^2 + mu^2 / mu_y,

    with W = d_x mu_y - d_y mu_x computed by complex step.  Requires mu_y > 0,
    h > 0 and W > 0 on the chart; W <= 0 makes d mu = iota_nu V_N unsolvable
    with a nondegenerate volume form.

    At a complex x or y the metric cannot take W by a second complex step,
    so it takes a real central difference of step 1e-7 there: its complex-
    step x and y partials are second-order differences, off by about 1e-9
    relative (the theta partial, at real x and y, is exact).
    """

    def _w(x, y):
        return _cstep(mu_y, (x, y), 0) - _cstep(mu_x, (x, y), 1)

    def metric_fn(yc):
        x, yy = yc[1], yc[2]
        mx, my, hh, om = mu_x(x, yy), mu_y(x, yy), h(x, yy), omega_x(x, yy)
        w = _w_complex(x, yy) if np.iscomplexobj(x) or np.iscomplexobj(yy) else _w(x, yy)
        f = w * w / (hh * my)
        g = _chart_zeros((3, 3), yc, x, yy)
        g[0, 0] = f
        g[0, 1] = g[1, 0] = f * om
        g[1, 1] = f * om * om + hh + mx * mx / my
        g[1, 2] = g[2, 1] = mx
        g[2, 2] = my
        return g

    def _w_complex(x, yy):
        # nested complex steps would collide; fall back to a tiny real step
        # pair on the already-complex arguments (second-order, scale 1e-7)
        e = 1e-7
        return (mu_y(x + e, yy) - mu_y(x - e, yy)) / (2 * e) - (
            mu_x(x, yy + e) - mu_x(x, yy - e)
        ) / (2 * e)

    def killing_fn(yc):
        k = _chart_zeros((1, 3), yc, *yc)
        k[0, 0] = 1.0
        return k

    def mu_fn(yc):
        x, yy = yc[1], yc[2]
        m = _chart_zeros((1, 3), yc, x, yy)
        m[0, 1] = mu_x(x, yy)
        m[0, 2] = mu_y(x, yy)
        return m

    t = TargetGeometry(
        name=name,
        algebra=u1_algebra(),
        lo=tuple(chart_lo),
        hi=tuple(chart_hi),
        periodic=tuple(chart_periodic),
        metric_fn=metric_fn,
        killing_fn=killing_fn,
        mu_fn=mu_fn,
        extras={"mu_x": mu_x, "mu_y": mu_y, "h": h, "omega_x": omega_x, "w": _w},
    )
    if validate:
        y = t.chart_grid(24).open_mesh()
        my = mu_y(y[1], y[2])
        hh = h(y[1], y[2])
        w = _w(y[1], y[2])
        if np.any(my <= 0) or np.any(hh <= 0):
            raise NotRiemannian("mu_y and h must be positive on the chart")
        if np.any(w <= 0):
            raise MomentConditionFailed(
                "d_x mu_y - d_y mu_x must be positive: d mu = iota_nu V_N fails"
            )
        res = verify_moment_conditions(t, n=24)
        if res["def_residual"] > 1e-5 or res["constraint_residual"] > 1e-5:
            raise MomentConditionFailed(f"moment-map residuals {res} exceed 1e-5")
    return t


def u1_s3_adjoint_target() -> TargetGeometry:
    """Adjoint U(1) action on the round 3-sphere in the (theta, x, y) chart.

    g_N = cos^2 x dtheta^2 + dx^2 + (1/4) sin^2 x dy^2 with mu = (1/4) sin^2 x dy.
    """
    return make_u1_fibered_target(
        mu_x=lambda x, y: np.zeros_like(x * y),
        mu_y=lambda x, y: 0.25 * np.sin(x) ** 2 * np.ones_like(y),
        h=lambda x, y: np.ones_like(x * y),
        omega_x=lambda x, y: np.zeros_like(x * y),
        name="u1-s3-adjoint",
        validate=False,
    )


# ---------------------------------------------------------------------------
# adjoint SU(2) targets on I x S^2 (principal orbit S^2)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class AdjointIntervalFamily:
    """Profile functions (h1, h2, eta1, eta2) on the interval, all complex-safe.

    The moment-map condition ties them together: 2 h1 h2^2 = eta2' - eta1 and
    the eta3 slot vanishes; this is enforced at construction on a dense sample.
    A family compares and hashes by identity, so it can key a shared target.
    """

    h1: Callable
    h2: Callable
    eta1: Callable
    eta2: Callable
    interval: tuple[float, float]
    compact: str | None = None  # None | "s3" | "s1xs2"
    name: str = "adjoint-family"

    def eta2_prime(self, xi):
        return _cstep(self.eta2, (xi,), 0)

    def __post_init__(self):
        a, b = self.interval
        pad = 1e-6 * (b - a)
        xi = np.linspace(a + pad, b - pad, 512)
        lhs = 2.0 * self.h1(xi) * self.h2(xi) ** 2
        rhs = self.eta2_prime(xi) - self.eta1(xi)
        res = float(np.max(np.abs(lhs - rhs)))
        if res > 1e-8:
            raise ConstraintViolated(
                f"2 h1 h2^2 = eta2' - eta1 fails: residual {res:.3e}"
            )
        if np.any(self.h1(xi) <= 0) or np.any(self.h2(xi) <= 0):
            raise ConstraintViolated("h1, h2 must be positive on the open interval")
        if self.compact is not None:
            self._check_compactification()

    def _check_compactification(self):
        a, b = self.interval
        eps = 1e-5 * (b - a)
        ends = np.array([a + eps, b - eps])
        if self.compact == "s3":
            # collapsing spheres at both ends: h2, eta1', eta2 -> 0
            d_eta1 = _cstep(self.eta1, (ends,), 0)
            checks = [self.h2(ends), d_eta1, self.eta2(ends)]
        elif self.compact == "s1xs2":
            per = [self.h1, self.h2, self.eta1, self.eta2]
            checks = [f(np.array([a + eps])) - f(np.array([b - eps])) for f in per]
        else:
            raise ValueError(f"unknown compactification {self.compact!r}")
        worst = max(float(np.max(np.abs(c))) for c in checks)
        if worst > 1e-3:
            raise ConstraintViolated(
                f"compactification limits violated (worst {worst:.3e})"
            )
        xi = np.linspace(a + 1e-9, b - 1e-9, 4097)
        vol = 4 * np.pi * np.trapezoid(self.h1(xi) * self.h2(xi) ** 2, xi)
        i1 = np.trapezoid(self.eta1(xi), xi)
        if abs(i1 + vol / (2 * np.pi)) > 1e-2 * max(abs(i1), 1e-30):
            raise ConstraintViolated("integral of eta1 differs from -Vol(N)/(2 pi)")


def eta2_zero_family(h2: Callable, interval, compact=None, name="eta2-zero") -> AdjointIntervalFamily:
    """Family with eta2 = 0, h1 = 1, so eta1 = -2 h2^2 (used by symplectic data)."""
    return AdjointIntervalFamily(
        h1=lambda xi: np.ones_like(xi),
        h2=h2,
        eta1=lambda xi: -2.0 * h2(xi) ** 2,
        eta2=lambda xi: np.zeros_like(xi),
        interval=tuple(interval),
        compact=compact,
        name=name,
    )


def monopole_family(xi_window=(0.15, 1.1)) -> AdjointIntervalFamily:
    """Coordinates with eta1 = -h1^2/3: h1 = 1, h2 = 1/sqrt(6), eta2 = 0."""
    c = 1.0 / np.sqrt(6.0)
    return AdjointIntervalFamily(
        h1=lambda xi: np.ones_like(xi),
        h2=lambda xi: c * np.ones_like(xi),
        eta1=lambda xi: -np.ones_like(xi) / 3.0,
        eta2=lambda xi: np.zeros_like(xi),
        interval=tuple(xi_window),
        name="monopole-window",
    )


def make_adjoint_interval_target(fam: AdjointIntervalFamily) -> TargetGeometry:
    """Adjoint SU(2) target N = I x S^2 in the chart (xi, u, v).

    g_N = h1^2 dxi^2 + h2^2 (du^2 + sin^2 u dv^2), the action rotates the
    sphere factor, and mu(X) = eta1 dxi (X, x) + eta2 (dx, X).
    """

    def metric_fn(y):
        xi, u = y[0], y[1]
        g = _chart_zeros((3, 3), y, xi, u)
        h2sq = fam.h2(xi) ** 2
        g[0, 0] = fam.h1(xi) ** 2
        g[1, 1] = h2sq
        g[2, 2] = h2sq * np.sin(u) ** 2
        return g

    def killing_fn(y):
        # I_a = 2 x cross e_a in the (u, v) frame: (I_a . x_u, I_a . x_v / sin^2 u)
        u, v = y[1], y[2]
        sv, cv = np.sin(v), np.cos(v)
        cot = np.cos(u) / np.sin(u)
        out = _chart_zeros((3, 3), y, u, v)
        out[0, 1] = 2.0 * sv
        out[1, 1] = -2.0 * cv
        out[0, 2] = 2.0 * cot * cv
        out[1, 2] = 2.0 * cot * sv
        out[2, 2] = -2.0
        return out

    def mu_fn(y):
        xi, u, v = y
        x, xu, xv = sph_frame(u, v)
        e1, e2 = fam.eta1(xi), fam.eta2(xi)
        out = _chart_zeros((3, 3), y, xi, u, v)
        out[:, 0] = e1 * x
        out[:, 1] = e2 * xu
        out[:, 2] = e2 * xv
        return out

    a, b = fam.interval
    return TargetGeometry(
        name=f"adjoint-interval[{fam.name}]",
        algebra=su2_algebra(),
        lo=(a, 0.0, 0.0),
        hi=(b, np.pi, 2 * np.pi),
        periodic=(False, False, True),
        metric_fn=metric_fn,
        killing_fn=killing_fn,
        mu_fn=mu_fn,
        default_margin=0.1,
        volume_margins=(0.12, 0.06, 0.03),
    )


# ---------------------------------------------------------------------------
# left action of SU(2) on itself (principal orbit S^3): the obstruction case
# ---------------------------------------------------------------------------


def make_su2_left_target(K: float = 1.0) -> TargetGeometry:
    """Left-translation target on SU(2) with invariant volume K times round.

    The chart is hyperspherical: U(xi, u, v) = cos xi + sin xi x(u, v) as a
    unit quaternion.  The unique left-equivariant moment-map candidate
    mu(X) = (K/4) tr(X theta_R) satisfies d mu(X) = iota_{nu(X)} V_N but has
    iota_{nu(X)} mu(X) = (K/2) |X|^2 != 0, so no valid degree exists here.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    scale = K ** (1.0 / 3.0)  # metric scale so that Vol = K * round volume

    def _quat(w, vec):
        """The quaternion (w, vec), w broadcast to vec's points."""
        return np.concatenate([np.broadcast_to(w, vec.shape[1:])[None], vec])

    def _q(y):
        xi, u, v = y
        return _quat(np.cos(xi), np.sin(xi) * sph_x(u, v))

    def _frame(y):
        """Chart basis vectors of the quaternion embedding and their norms."""
        xi, u, v = y
        x, xu, xv = sph_frame(u, v)
        d_xi = _quat(-np.sin(xi), np.cos(xi) * x)
        d_u = _quat(0.0, np.sin(xi) * xu)
        d_v = _quat(0.0, np.sin(xi) * xv)
        norms = (1.0, np.sin(xi) ** 2, np.sin(xi) ** 2 * np.sin(u) ** 2)
        return (d_xi, d_u, d_v), norms

    def metric_fn(y):
        xi, u = y[0], y[1]
        g = _chart_zeros((3, 3), y, xi, u)
        g[0, 0] = scale**2
        g[1, 1] = scale**2 * np.sin(xi) ** 2
        g[2, 2] = scale**2 * np.sin(xi) ** 2 * np.sin(u) ** 2
        return g

    def killing_fn(y):
        q = _q(y)
        frame, norms = _frame(y)
        out = _chart_zeros((3, 3), y, *y)
        for a in range(3):
            e = np.zeros_like(q)
            e[a + 1] = 1.0
            minus_xu = -qmul(e, q)
            for m in range(3):
                out[a, m] = np.sum(minus_xu * frame[m], axis=0) / norms[m]
        return out

    def mu_fn(y):
        q = _q(y)
        qc = qconj(q)
        frame, _ = _frame(y)
        out = _chart_zeros((3, 3), y, *y)
        for m in range(3):
            theta = qmul(frame[m], qc)  # theta_R(d_m) as a pure quaternion
            out[:, m] = -(K / 2.0) * theta[1:]
        return out

    return TargetGeometry(
        name=f"su2-left[K={K}]",
        algebra=su2_algebra(),
        lo=(0.0, 0.0, 0.0),
        hi=(np.pi, np.pi, 2 * np.pi),
        periodic=(False, False, True),
        metric_fn=metric_fn,
        killing_fn=killing_fn,
        mu_fn=mu_fn,
        has_moment_constraint=False,
        default_margin=0.15,
    )


def left_action_obstruction(K: float) -> float:
    """The constant iota_{nu_L(X)} mu(X) for unit basis X: equals K/2.

    Computed by contracting the constructed moment-map candidate with the
    left-translation Killing fields on a sample grid; the defining condition
    d mu = iota_nu V_N holds, yet this constant is bounded away from zero.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    target = make_su2_left_target(K)
    y = np.stack(target.chart_grid(24).meshes())
    kil, mu = target.killing_fn(y), target.mu_fn(y)
    diag = np.array([np.mean(_dot(kil[a], mu[a])) for a in range(len(kil))])
    val = float(np.mean(diag))
    if abs(val) < 1e-12 or np.max(np.abs(diag - val)) > 1e-9 * abs(val):
        raise ConstraintViolated("obstruction constant is not uniform over the basis")
    return val
