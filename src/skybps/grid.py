"""Structured coordinate patches with high-order differentiation and quadrature.

A :class:`PatchGrid` discretizes a coordinate box in R^3.  Periodic axes carry
uniformly spaced points that exclude the right endpoint (trapezoidal weights,
spectrally accurate for smooth periodic integrands); bounded axes are shrunk
by a coordinate-singularity ``margin`` and carry inclusive endpoints with
Simpson-type weights.  All derivatives are 4th-order finite differences,
formed by one kernel (:func:`partial_derivative`): central stencils in the
interior and on periodic axes, one-sided 5-point stencils (exact on
polynomials of degree <= 4) at bounded-axis endpoints, each an elementwise
multiply-add in point order.  :func:`exterior_d` composes it into the
gradient, curl and divergence of dual-storage forms.

Fields are streamed through slabs of the first axis (``PatchGrid.slabs``).  A
slab's derivative reads two halo rows on each side (``PatchGrid.halo``) and
gives, row for row, the bits of the full-grid derivative, whatever the memory
layout of the field.  A slab's densities are integrated on the slab:
the quadrature is a sum of row sums (:meth:`PatchGrid.row_sums`), and a row's
sum does not depend on the slab that holds the row.  A field constant along
the first axis may hold length 1 there, and is then the same on any rows
(:func:`_cut`).

A sub-box is the box that a coordinate ``inset`` more margin leaves at every
bounded face.  It has the grid's steps, and its own quadrature weights
(:meth:`PatchGrid.axis_weights`), which integrate over exactly that box: a
face between two rows is integrated over its part cell by the cubic through
the 4 nearest rows, which the sub-box's points (:meth:`PatchGrid.box`) then
include.  So one grid integrates a field over several margins at once.

Quantities that depend on the excluded margin slabs (volumes, degrees) are
recovered by power-law Richardson extrapolation over a decreasing sequence of
margins, see :func:`extrapolate_margin`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, GridMismatch, ResolutionError

# 4th-order one-sided first-derivative stencils for the two rows nearest a
# boundary (forward form; the backward form is the reversed negation).
_EDGE = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                  [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
# the Lagrange basis of the rows at -1, 0, 1, 2, one row of coefficients of
# 1, x, x^2 and x^3 each
_CUBIC_BASIS = np.array([[0.0, -2.0, 3.0, -1.0],
                         [6.0, -3.0, -6.0, 3.0],
                         [0.0, 6.0, 3.0, -3.0],
                         [0.0, -1.0, 0.0, 1.0]]) / 6.0
# successive extrapolation inputs closer than this count as converged
_MIN_SIGNAL = 1e-9
# Pointwise algebra runs in slabs of the first axis holding at most this many
# points: a (3, 3) field of a slab is then about 1 MB and stays in L2.
_SLAB_POINTS = 24**3


@dataclass(frozen=True)
class PatchGrid:
    """Immutable structured 3D coordinate patch.

    Attributes:
        lo, hi: requested box bounds (before margin shrinking).
        n: points per axis (>= 5).
        periodic: periodicity flags per axis.
        margin: singular-endpoint clearance applied to non-periodic axes.
        lo_eff, hi_eff: bounds actually meshed (shrunk on non-periodic axes).
        h: grid spacing per axis.
    """

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    n: tuple[int, int, int]
    periodic: tuple[bool, bool, bool]
    margin: float = 0.0
    lo_eff: tuple[float, float, float] = field(init=False)
    hi_eff: tuple[float, float, float] = field(init=False)
    h: tuple[float, float, float] = field(init=False)
    # axis_weights by (axis, inset), each built once
    _axis_weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lo_eff, hi_eff, h = [], [], []
        for i in range(3):
            if not np.isfinite(self.lo[i]) or not np.isfinite(self.hi[i]):
                raise BoundsError(f"axis {i}: non-finite bounds")
            if self.hi[i] <= self.lo[i]:
                raise BoundsError(f"axis {i}: hi={self.hi[i]} <= lo={self.lo[i]}")
            if self.n[i] < 5:
                raise ResolutionError(f"axis {i}: need n >= 5, got {self.n[i]}")
            if self.periodic[i]:
                a, b = self.lo[i], self.hi[i]
                step = (b - a) / self.n[i]
            else:
                if self.margin < 0:
                    raise BoundsError("margin must be >= 0")
                if self.margin >= (self.hi[i] - self.lo[i]) / 4.0:
                    raise BoundsError(
                        f"axis {i}: margin {self.margin} >= quarter of axis length"
                    )
                a, b = self.lo[i] + self.margin, self.hi[i] - self.margin
                step = (b - a) / (self.n[i] - 1)
            lo_eff.append(a)
            hi_eff.append(b)
            h.append(step)
        object.__setattr__(self, "lo_eff", tuple(lo_eff))
        object.__setattr__(self, "hi_eff", tuple(hi_eff))
        object.__setattr__(self, "h", tuple(h))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n

    def slabs(self) -> list[slice]:
        """Row ranges of the first axis, each at most ``_SLAB_POINTS`` points
        (and at least one row); a grid of up to 24^3 points is one slab."""
        n0, rows = self.n[0], slab_rows(self.n[1] * self.n[2])
        return [slice(i, min(i + rows, n0)) for i in range(0, n0, rows)]

    def halo(self, rows: slice) -> slice:
        """Rows of the first axis that the derivative of ``rows`` reads.

        Two more on each side.  At a bounded face they are clipped and the
        range widened to the 5 rows its one-sided stencils read.  On a
        periodic axis the range may leave [0, n) and rows are taken mod n
        (:meth:`row_index`); it becomes the whole axis once it would cover it.
        """
        a, b, n = rows.start, rows.stop, self.n[0]
        if self.periodic[0]:
            return slice(0, n) if b - a + 4 >= n else slice(a - 2, b + 2)
        return slice(max(0, min(a - 2, n - 5)), min(n, max(b + 2, 5)))

    def axis_points(self, i: int) -> np.ndarray:
        """1D coordinate array along axis i (periodic axes exclude hi)."""
        if self.periodic[i]:
            return self.lo_eff[i] + self.h[i] * np.arange(self.n[i])
        return np.linspace(self.lo_eff[i], self.hi_eff[i], self.n[i])

    def meshes(self, rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate fields (X0, X1, X2) on ``rows`` of the first axis (all
        by default)."""
        x0, x1, x2 = (self.axis_points(i) for i in range(3))
        return tuple(np.meshgrid(x0[rows], x1, x2, indexing="ij"))

    def open_mesh(self, rows: slice | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coordinates of ``rows`` of the first axis (all by default; mod
        n, as :meth:`row_index` takes them) on the axes they vary along:
        arrays of shapes (rows, 1, 1), (1, n1, 1) and (1, 1, n2), which
        broadcast to the fields of :meth:`meshes`."""
        x0, x1, x2 = (self.axis_points(i) for i in range(3))
        if rows is not None:
            x0 = x0[self.row_index(rows)]
        return x0[:, None, None], x1[None, :, None], x2[None, None, :]

    def points_shape(self, rows: slice) -> tuple[int, int, int]:
        """The shape of a field on ``rows`` of the first axis."""
        return (rows.stop - rows.start,) + self.n[1:]

    def row_index(self, rows: slice) -> np.ndarray:
        """Indices of ``rows`` of the first axis, taken mod n."""
        return np.arange(rows.start, rows.stop) % self.n[0]

    def inset_rows(self, i: int, inset: float = 0.0) -> tuple[int, float]:
        """(k, s) for the sub-box ``inset`` on axis i: it reads the points k
        rows in from each face, and its face lies s steps (0 <= s < 1)
        outside the next row in.  s is 0 where the inset falls on a row
        (to 1e-9 of a step), and k is 0 on a periodic axis."""
        if self.periodic[i]:
            return 0, 0.0
        t = inset / self.h[i]
        if abs(t - round(t)) <= 1e-9 * max(1.0, t):
            return round(t), 0.0
        k = math.floor(t)
        return k, k + 1 - t

    def box(self, inset: float = 0.0) -> tuple[slice, slice, slice]:
        """Index ranges of the points that the sub-box ``inset`` reads: all
        of a periodic axis; inset 0 is the whole grid."""
        return tuple(slice(k, n - k)
                     for n, (k, _) in zip(self.n, (self.inset_rows(i, inset) for i in range(3))))

    def in_box(self, rows: slice, inset: float = 0.0) -> tuple | None:
        """The index of the sub-box ``inset`` in a field on ``rows`` of the
        first axis (within [0, n)): (..., its rows counted from rows.start,
        the axis-1 range, the axis-2 range); None when no row of ``rows``
        lies in it."""
        b0, b1, b2 = self.box(inset)
        lo, hi = max(rows.start, b0.start), min(rows.stop, b0.stop)
        if lo >= hi:
            return None
        return (Ellipsis, slice(lo - rows.start, hi - rows.start), b1, b2)

    def axis_weights(self, i: int, inset: float = 0.0) -> np.ndarray:
        """Quadrature weights along axis i on the points of the sub-box
        ``inset`` (:meth:`box`); they sum to the length it spans.

        A face that falls s steps outside a row is integrated over its part
        cell by the cubic through the 4 rows nearest it, and the rows from
        the next one in by the composite rule, which on the whole axis is
        Simpson's, with the 3/8 rule on the last 3 intervals where the
        number of points is even.  Built on the first call for each axis
        and inset, and read-only.
        """
        key = (i, inset)
        if key not in self._axis_weights:
            w = self._build_axis_weights(i, inset)
            w.flags.writeable = False
            self._axis_weights[key] = w
        return self._axis_weights[key]

    def _build_axis_weights(self, i: int, inset: float) -> np.ndarray:
        n, h = self.n[i], self.h[i]
        if self.periodic[i]:
            return np.full(n, h)
        k, s = self.inset_rows(i, inset)
        n -= 2 * k
        if n - (2 if s else 0) < 5:
            raise ResolutionError(f"axis {i}: the sub-box of inset {inset} keeps "
                                  f"{n - (2 if s else 0)} rows inside it; it needs 5")
        if not s:
            return _composite_weights(n, h)
        w = np.zeros(n)
        w[1:-1] = _composite_weights(n - 2, h)
        cell = _part_cell_weights(s) * h
        w[:4] += cell
        w[-4:] += cell[::-1]
        return w

    def weights(self, rows: slice = slice(None), inset: float = 0.0,
                shape: tuple[int, ...] | None = None) -> np.ndarray:
        """Tensor-product quadrature weights of the sub-box ``inset`` on its
        ``rows`` of the first axis, counted from its first row (all by
        default).  Along an axis on which a field of ``shape`` has length 1,
        so is constant, they hold that axis's weights summed (over ``rows``
        on the first axis), so that the field is integrated along it; by
        default no axis is."""
        w = [self.axis_weights(i, inset) for i in range(3)]
        w[0] = w[0][rows]
        if shape is not None:
            w = [np.sum(a, keepdims=True) if m == 1 else a for a, m in zip(w, shape)]
        return w[0][:, None, None] * w[1][None, :, None] * w[2][None, None, :]

    def row_sums(self, f: np.ndarray, rows: slice = slice(None),
                 inset: float = 0.0) -> np.ndarray:
        """Quadrature sum over the sub-box ``inset`` of each row of the first
        axis of ``f``, the field on ``rows``, that lies in the sub-box: the
        one quadrature rule of the patch.

        A row's sum reads that row's points in the sub-box alone, so the sums
        of any partition of the rows into slabs are, row for row, the full
        grid's, and a point outside the sub-box does not enter them.

        An axis on which ``f`` has length 1 holds a field constant along it,
        integrated over the sub-box by that axis's weights summed
        (:meth:`weights`); on the first axis the rows of ``rows`` in the
        sub-box then give one sum.  A slab of one row is such a field, and
        its sum is the row's.
        """
        rows = slice(*rows.indices(self.n[0])[:2])
        at = self.in_box(rows, inset)
        if at is None:
            return np.zeros(0)
        first = rows.start + at[1].start - self.box(inset)[0].start
        shape = f.shape[-3:]
        w = self.weights(slice(first, first + at[1].stop - at[1].start), inset, shape)
        at = (Ellipsis,) + tuple(slice(None) if m == 1 else a for m, a in zip(shape, at[1:]))
        return np.sum(f[at] * w, axis=(1, 2))


def _composite_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n points of step h, with the 3/8 rule on
    the last 3 intervals where n is even."""
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
    else:
        # composite Simpson on the first n-4 intervals, 3/8 rule on the last 3
        m = n - 3
        w[0] = w[m - 1] = 1.0
        w[1 : m - 1 : 2] = 4.0
        w[2 : m - 1 : 2] = 2.0
        w[: m] *= h / 3.0
        w[m - 1 :] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


def _part_cell_weights(s: float) -> np.ndarray:
    """Weights, in steps, of the rows at -1, 0, 1, 2 that integrate their
    cubic interpolant over [-s, 0]: the Lagrange basis of those rows, as
    coefficients of 1, x, x^2 and x^3, against the moments of [-s, 0]."""
    moments = np.array([s, -s**2 / 2.0, s**3 / 3.0, -s**4 / 4.0])
    return _CUBIC_BASIS @ moments


def slab_rows(row_points: int) -> int:
    """Rows of the first axis in a slab, for rows of ``row_points`` points."""
    return max(1, _SLAB_POINTS // row_points)


def build_patch(lo, hi, n, periodic, margin=0.0) -> PatchGrid:
    """Construct a :class:`PatchGrid` with validated bounds and resolution."""
    return PatchGrid(tuple(map(float, lo)), tuple(map(float, hi)),
                     tuple(map(int, n)), tuple(map(bool, periodic)), float(margin))


def partial_derivative(values: np.ndarray, axis: int, grid: PatchGrid,
                       rows: slice | None = None) -> np.ndarray:
    """4th-order finite-difference d/dx_axis of a sampled field on ``rows``
    of the first axis (the whole grid by default).

    ``values`` may carry leading component axes; its last three hold the
    field on the rows ``grid.halo(rows)``, or, along axes 1 and 2, on
    ``rows`` alone.  Each point is formed by the same elementwise
    multiply-adds whatever the rows or the memory layout (:func:`_stencils`),
    so a slab's rows are, bit for bit, those rows of the whole grid's.
    """
    rows = slice(0, grid.n[0]) if rows is None else rows
    win, count = grid.halo(rows), rows.stop - rows.start
    # the rows ``values`` may hold: the halo, or along axes 1 and 2 the rows
    held = {win.stop - win.start} | ({count} if axis else set())
    if values.ndim < 3 or values.shape[-2:] != grid.shape[1:] or values.shape[-3] not in held:
        raise GridMismatch(f"field shape {values.shape[-3:]} does not fit rows {rows} "
                           f"(halo {win}) of grid {grid.shape}")
    if axis == 0:
        return _stencils(values, 0, grid, rows.start - win.start, rows.stop - win.start)
    return _stencils(values if values.shape[-3] == count else _cut(values, win, rows), axis, grid)


def exterior_d(window: np.ndarray, degree: int, grid: PatchGrid,
               rows: slice | None = None) -> np.ndarray:
    """The exterior derivative in dual storage on ``rows`` of the first axis
    (the whole grid by default), from a form on ``grid.halo(rows)``: the
    gradient of a function (a new form axis, the fourth-last), the curl of a
    1-form, the divergence of a 2-form (form axis fourth-last in each).
    Leading axes are carried along."""
    rows = slice(0, grid.n[0]) if rows is None else rows
    if degree == 2:
        out = partial_derivative(window[..., 0, :, :, :], 0, grid, rows)
        for m in (1, 2):
            out += partial_derivative(window[..., m, :, :, :], m, grid, rows)
        return out
    out = np.empty(window.shape[:-3] + (3,) * (degree == 0) + grid.points_shape(rows),
                   np.result_type(window, float))
    o = np.moveaxis(out, -4, 0)
    if degree == 0:  # one direction's derivative held at a time
        for k in range(3):
            o[k] = partial_derivative(window, k, grid, rows)
        return out
    # (dw)_m = d_{m+1} w_{m+2} - d_{m+2} w_{m+1}, indices mod 3, from d_k of
    # the two components that use it, one k at a time: components k+1 and k+2
    # mod 3 are a slice of w, so a view.  d_k w_{k+1} is the first term of
    # (dw)_{k+2} and d_k w_{k+2} the second of (dw)_{k+1}; a term that comes
    # before its partner waits in the output, so that each component is the
    # one rounded difference of its two terms
    for k, pair in enumerate((slice(1, 3), slice(2, None, -2), slice(0, 2))):
        d = np.moveaxis(partial_derivative(window[..., pair, :, :, :], k, grid, rows), -4, 0)
        if k == 0:
            o[2], o[1] = d
        elif k == 1:
            o[0] = d[0]
            o[2] -= d[1]
        else:
            np.subtract(d[0], o[1], out=o[1])
            o[0] -= d[1]
        del d  # freed before the next direction's pair is formed
    return out


def _cut(values: np.ndarray, held: slice, rows: slice) -> np.ndarray:
    """The ``rows`` of the first axis of a field held on the rows ``held``,
    taken mod its length (on a periodic axis the whole axis) outside them: a
    view where they lie in it.  A field of first-axis length 1 held on more
    than one row is constant along that axis, and is returned as it is."""
    a, b, n = rows.start - held.start, rows.stop - held.start, values.shape[-3]
    if n == 1 and held.stop - held.start > 1:
        return values
    if 0 <= a and b <= n:
        return values[..., a:b, :, :]
    return np.take(values, np.arange(a, b) % n, axis=-3)


def _stencils(v: np.ndarray, axis: int, grid: PatchGrid, a: int = 0,
              b: int | None = None) -> np.ndarray:
    """d/dx_axis on the points [a, b) (all by default) of ``v`` along its
    axis ``axis`` of the last three, of length m: the central stencil where
    two points of ``v`` lie on each side; elsewhere the central stencil taken
    mod m on a periodic axis, or the one-sided stencils of a bounded one,
    whose first and last two points are then faces of the grid."""
    h, m = grid.h[axis], v.shape[axis - 3]
    b = m if b is None else b

    def at(sel):
        return (Ellipsis, sel) + (slice(None),) * (2 - axis)

    out = np.empty(v[at(slice(b - a))].shape, np.result_type(v, float))
    lo, hi = max(a, 2), min(b, m - 2)
    if lo < hi:
        _central(lambda i: v[at(slice(lo + i, hi + i))], h, out=out[at(slice(lo - a, hi - a))])
    ends = [*range(a, min(b, 2)), *range(max(a, m - 2), b)]
    if grid.periodic[axis] and ends:
        ends = np.array(ends)
        out[at(ends - a)] = _central(lambda i: v[at((ends + i) % m)], h)
    elif not grid.periodic[axis]:
        for j in ends:
            # the forward stencil of point j from a face, or the backward one
            w, first = (_EDGE[j], 0) if j < 2 else (-_EDGE[m - 1 - j][::-1], m - 5)
            row = np.multiply(v[at(first)], w[0], out=out[at(j - a)])
            for k in range(1, 5):  # summed in point order
                row += v[at(first + k)] * w[k]
            row /= h
    return out


def _central(shifted, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """(f[-2] - 8 f[-1] + 8 f[1] - f[2]) / 12h, where ``shifted(i)`` is the
    field f shifted by i points along the axis (a view, or a copy that is
    then freed), summed left to right as that expression is, in ``out`` and
    one scratch field."""
    out = np.multiply(shifted(-1), 8.0, out=out)
    np.subtract(shifted(-2), out, out=out)
    scratch = np.multiply(shifted(1), 8.0)
    out += scratch
    del scratch
    out -= shifted(2)
    out /= 12.0 * h
    return out


def extrapolate_margin(margins, values):
    """Power-law Richardson extrapolation of ``values`` as margin -> 0.

    ``margins`` must be a decreasing geometric sequence (constant ratio).  A
    three-point fit v(m) = v0 + c * m^p determines the order p empirically;
    with two points a quadratic deficit is assumed.  When successive values
    agree to within 1e-9 the last value is returned (converged already).
    """
    margins = [float(m) for m in margins]
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0]
    if abs(values[-1] - values[-2]) < _MIN_SIGNAL:
        return values[-1]
    if len(values) == 2:
        r = margins[0] / margins[1]
        return values[1] + (values[1] - values[0]) / (r**2 - 1.0)
    m1, m2, m3 = margins[-3:]
    v1, v2, v3 = values[-3:]
    r = m1 / m2
    if abs(m2 / m3 - r) > 1e-9 * r:
        raise ValueError("margins must form a geometric sequence")
    d1, d2 = v1 - v2, v2 - v3
    if abs(d2) < _MIN_SIGNAL or abs(d1) < _MIN_SIGNAL or d1 * d2 <= 0:
        return v3
    ratio = d1 / d2
    if ratio <= 1.0:  # not decreasing: no power law to fit, keep finest value
        return v3
    u = 1.0 / ratio  # r^{-p}
    return v3 - d2 * u / (1.0 - u)
