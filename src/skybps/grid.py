"""Structured coordinate patches with high-order differentiation and quadrature.

A :class:`PatchGrid` discretizes a coordinate box in R^3.  Periodic axes carry
uniformly spaced points that exclude the right endpoint (trapezoidal weights,
spectrally accurate for smooth periodic integrands); bounded axes are shrunk
by a coordinate-singularity ``margin`` and carry inclusive endpoints with
Simpson-type weights.  All derivatives are 4th-order finite differences:
central stencils in the interior and on periodic axes, one-sided 5-point
stencils (exact on polynomials of degree <= 4) at bounded-axis endpoints.

Fields are streamed through slabs of the first axis (``PatchGrid.slabs``).  A
slab's derivative reads two halo rows on each side (``PatchGrid.halo``) and
gives, row for row, the bits of the full-grid derivative
(:func:`slab_derivative`).  A slab's densities are integrated on the slab:
the quadrature is a sum of row sums (:meth:`PatchGrid.row_sums`), and a row's
sum does not depend on the slab that holds the row.

Quantities that depend on the excluded margin slabs (volumes, degrees) are
recovered by power-law Richardson extrapolation over a decreasing sequence of
margins, see :func:`extrapolate_margin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, GridMismatch, ResolutionError

# 4th-order one-sided first-derivative stencils for the two rows nearest a
# boundary (forward form; the backward form is the reversed negation).
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
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

    def row_index(self, rows: slice) -> np.ndarray:
        """Indices of ``rows`` of the first axis, taken mod n."""
        return np.arange(rows.start, rows.stop) % self.n[0]

    def points(self, rows: slice) -> np.ndarray:
        """The coordinates of the points of ``rows`` of the first axis (mod
        n, so that they may leave [0, n) on a periodic axis), stacked: shape
        (3, rows, n1, n2)."""
        out = np.empty((3, rows.stop - rows.start) + self.n[1:])
        out[0] = self.axis_points(0)[self.row_index(rows), None, None]
        out[1] = self.axis_points(1)[:, None]
        out[2] = self.axis_points(2)
        return out

    def axis_weights(self, i: int) -> np.ndarray:
        """Composite quadrature weights along axis i; they sum to the axis length."""
        n, h = self.n[i], self.h[i]
        if self.periodic[i]:
            return np.full(n, h)
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

    def weights(self, rows: slice = slice(None)) -> np.ndarray:
        """Tensor-product quadrature weights on ``rows`` of the first axis
        (all by default); built afresh on each call."""
        w0, w1, w2 = (self.axis_weights(i) for i in range(3))
        return w0[rows, None, None] * w1[None, :, None] * w2[None, None, :]

    def row_sums(self, f: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Quadrature sum of each row of the first axis of ``f``, the field on
        ``rows``: the one quadrature rule of the patch.

        A row's sum reads that row alone, so the sums of any partition of the
        rows into slabs are, row for row, the full grid's.
        """
        return np.sum(f * self.weights(rows), axis=(1, 2))


def slab_rows(row_points: int) -> int:
    """Rows of the first axis in a slab, for rows of ``row_points`` points."""
    return max(1, _SLAB_POINTS // row_points)


def build_patch(lo, hi, n, periodic, margin=0.0) -> PatchGrid:
    """Construct a :class:`PatchGrid` with validated bounds and resolution."""
    return PatchGrid(tuple(map(float, lo)), tuple(map(float, hi)),
                     tuple(map(int, n)), tuple(map(bool, periodic)), float(margin))


def partial_derivative(values: np.ndarray, axis: int, grid: PatchGrid) -> np.ndarray:
    """4th-order finite-difference d/dx_axis of a sampled field.

    ``values`` may carry arbitrary leading component axes; the trailing three
    axes must match ``grid.shape``.  Periodic axes use the wrapped central
    stencil; bounded axes switch to one-sided 5-point stencils on the two
    rows nearest each endpoint.
    """
    if values.shape[-3:] != grid.shape:
        raise GridMismatch(f"field shape {values.shape[-3:]} != grid shape {grid.shape}")
    return _derivative(values, axis, grid.h[axis], grid.periodic[axis])


def slab_derivative(window: np.ndarray, axis: int, grid: PatchGrid, rows: slice) -> np.ndarray:
    """d/dx_axis on ``rows`` of the first axis, from ``window``, the field on
    the rows ``grid.halo(rows)``; bit-identical to those rows of
    :func:`partial_derivative`.

    Along axes 1 and 2 only the slab's own rows are differentiated, and
    ``window`` may hold those rows alone.  Along axis 0 the central stencil
    reads the halo; a slab at a bounded face differentiates its whole
    window, which holds the 5 rows that the one-sided stencils read, and
    drops the halo rows.
    """
    win = grid.halo(rows)
    if win == rows:  # the whole grid: one slab reads no halo
        return partial_derivative(window, axis, grid)
    if window.shape[-2:] != grid.shape[1:]:
        raise GridMismatch(f"field shape {window.shape[-3:]} does not fit grid {grid.shape}")
    h, periodic = grid.h[axis], grid.periodic[axis]
    if axis != 0 and window.shape[-3] == rows.stop - rows.start:
        return _derivative(window, axis, h, periodic)
    if window.shape[-3] != win.stop - win.start:
        raise GridMismatch(f"window of {window.shape[-3]} rows != halo {win} of rows {rows}")
    # the output rows, counted from the window's first row
    a, b = rows.start - win.start, rows.stop - win.start
    if axis != 0:
        return _derivative(_take_rows(window, slice(a, b), window.shape[-3]), axis, h, periodic)
    if a >= 2 and b + 2 <= window.shape[-3]:
        # every output row has two window rows on each side: the central
        # stencil, in the order partial_derivative sums it
        return _central(lambda i: window[..., a + i:b + i, :, :], h)
    return _take_rows(_derivative(window, 0, h, periodic), slice(a, b), window.shape[-3])


def _take_rows(values: np.ndarray, rows: slice, n: int) -> np.ndarray:
    """Rows of the third-last axis (length n), taken mod n outside [0, n)."""
    if 0 <= rows.start and rows.stop <= n:
        return values[..., rows, :, :]
    return np.take(values, np.arange(rows.start, rows.stop) % n, axis=-3)


def _derivative(values: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    """The stencils of :func:`partial_derivative` along one of the last three axes."""
    ax = values.ndim - 3 + axis
    v = np.moveaxis(values, ax, -1)
    n = v.shape[-1]
    out = np.empty_like(v)
    _central(lambda i: v[..., 2 + i:n - 2 + i], h, out=out[..., 2:-2])
    if periodic:
        # the two points at each end, whose stencil wraps around the axis
        ends = np.array([0, 1, n - 2, n - 1])
        out[..., ends] = _central(lambda i: v[..., (ends + i) % n], h)
        return np.moveaxis(out, -1, ax)
    head, tail = v[..., :5], v[..., -5:]
    if axis == 1:
        # copied to C order, as the full grid's are by tensordot, so that the
        # matrix-vector product sees the same memory layout on a slab of one row
        head, tail = np.ascontiguousarray(head), np.ascontiguousarray(tail)
    out[..., 0] = np.tensordot(head, _EDGE0, axes=([-1], [0])) / h
    out[..., 1] = np.tensordot(head, _EDGE1, axes=([-1], [0])) / h
    out[..., -1] = -np.tensordot(tail, _EDGE0[::-1], axes=([-1], [0])) / h
    out[..., -2] = -np.tensordot(tail, _EDGE1[::-1], axes=([-1], [0])) / h
    return np.moveaxis(out, -1, ax)


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
