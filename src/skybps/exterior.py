"""Pointwise exterior algebra and Hodge-star operations on 3D charts.

Differential forms are stored by their independent components: degrees
0,1,2,3 carry 1,3,3,1 components per point.  A 2-form B = (1/2) B_kl dx^k^dx^l
is stored through its epsilon-dual vector b_m = (1/2) eps_mkl B_kl, which makes
the algebra concrete:

    wedge of two 1-forms            -> cross product of component vectors
    wedge of a 1-form and a 2-form  -> dot product (3-form coefficient)
    exterior derivative of a 1-form -> curl, of a 2-form -> divergence
    contraction of a 2-form with V  -> cross product b x V

The Hodge star of a metric g maps 1-forms to 2-forms; in dual storage it is
the symmetric matrix  S = orientation * sqrt(det g) * g^{-1}.  Symmetry of S
is exactly the trace identity tr(iota_V o star) = 0 satisfied by every metric
star.  The trace residual and the recovery of g from S, which the tests use
as references, live in ``tests/oracles.py``.

The pointwise 3x3 kernels (determinant, adjugate, inverse, matrix-vector
product) are closed-form component arithmetic on the (3, 3, *spatial) layout:
the adjugate's columns are cross products of rows, adj[:, r] = m[r+1] x m[r+2]
(indices mod 3), and det m = m[0] . (m[1] x m[2]).  They take real or complex
input, so complex-step partials can pass through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonFinite, SingularMetric

# Levi-Civita symbol, used throughout for dual-storage algebra.
EPS = np.zeros((3, 3, 3))
EPS[0, 1, 2] = EPS[1, 2, 0] = EPS[2, 0, 1] = 1.0
EPS[0, 2, 1] = EPS[2, 1, 0] = EPS[1, 0, 2] = -1.0


def assert_finite(values: np.ndarray, what: str = "field") -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NonFinite(f"{what} contains non-finite values")
    return values


# ---------------------------------------------------------------------------
# metrics and star maps
# ---------------------------------------------------------------------------


def _cross_into(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i] = (a x b)[i] for (3, *spatial) component fields."""
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i, ...])
        out[i] -= a[k] * b[j]
    return out


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate of a (3, 3, *spatial) matrix field: column r is m[r+1] x m[r+2]."""
    adj = np.empty(m.shape, np.result_type(m, float))
    for r in range(3):
        _cross_into(adj[:, r], m[(r + 1) % 3], m[(r + 2) % 3])
    return adj


def _det(m: np.ndarray, adj_col0: np.ndarray | None = None) -> np.ndarray:
    """det m = m[0] . (m[1] x m[2]); pass adj[:, 0] when the adjugate is at hand."""
    if adj_col0 is None:
        adj_col0 = _cross_into(np.empty(m.shape[1:], np.result_type(m, float)), m[1], m[2])
    return m[0, 0] * adj_col0[0] + m[0, 1] * adj_col0[1] + m[0, 2] * adj_col0[2]


def mat_det(m: np.ndarray) -> np.ndarray:
    """Determinant of a (3, 3, *spatial) matrix field."""
    return _det(m)


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Inverse of a (3, 3, *spatial) matrix field.

    Raises ``SingularMetric`` when the determinant is zero or not finite at
    any point.
    """
    adj = _adjugate(m)
    det = _det(m, adj[:, 0])
    if not np.all(np.isfinite(det)) or np.any(det == 0):
        raise SingularMetric("matrix field is singular or non-finite at some grid point")
    adj /= det
    return adj


@dataclass
class Metric3:
    """Symmetric 3x3 metric components per grid point, shape (3, 3, *spatial).

    ``riemannian`` is computed from Sylvester minors, never assumed.  The
    determinant the last minor needs is kept (read-only) and is what ``det``
    returns.  ``g`` is symmetrized in place, one off-diagonal pair at a
    time, so no (3, 3, *spatial) temporary is formed; a read-only ``g`` is
    copied first.
    """

    g: np.ndarray
    riemannian: bool = field(init=False)
    _det: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = self.g if self.g.flags.writeable else self.g.copy()
        scale = max(float(np.max(g)), -float(np.min(g)), 1.0)
        pairs = ((0, 1), (0, 2), (1, 2))
        asym = 0.0
        for i, j in pairs:
            d = g[i, j] - g[j, i]
            asym = max(asym, float(np.max(np.abs(d, out=d))))
        if asym > 1e-12 * scale:
            raise ValueError(f"metric asymmetry {asym:.3e} exceeds tolerance")
        # 0.5 (g + g^T); on the diagonal that is g itself
        for i, j in pairs:
            s = g[i, j] + g[j, i]
            s *= 0.5
            g[i, j] = g[j, i] = s
        self.g = g
        self._det = mat_det(self.g)
        self._det.flags.writeable = False
        self.riemannian = bool(np.all(self.riemannian_mask()))

    def riemannian_mask(self) -> np.ndarray:
        g = self.g
        m1 = g[0, 0]
        m2 = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        return (m1 > 0) & (m2 > 0) & (self._det > 0)

    def det(self) -> np.ndarray:
        return self._det


@dataclass(frozen=True)
class StarMap:
    """Per-point linear map from 1-forms to 2-forms in dual storage.

    ``s`` includes the orientation sign; for a metric star it equals
    orientation * sqrt(det g) * g^{-1} and is symmetric.  The map is frozen,
    so its inverse is computed on first use and kept.
    """

    s: np.ndarray  # (3, 3, *spatial)

    def on_1(self, comps: np.ndarray) -> np.ndarray:
        """Apply to 1-form components (..., 3, *spatial) -> dual 2-form."""
        return _matvec(self.s, comps)

    def on_2(self, dual: np.ndarray) -> np.ndarray:
        """Apply the deg-2 -> deg-1 companion (inverse of ``on_1``)."""
        return _matvec(self.inverse_matrix(), dual)

    def inverse_matrix(self) -> np.ndarray:
        """S^{-1}, read-only and shared by every call."""
        return self._inverse

    @cached_property
    def _inverse(self) -> np.ndarray:
        inv = mat_inv(self.s)
        inv.flags.writeable = False
        return inv


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(3,3,*sp) matrix times (...,3,*sp) vector over the -4 axis.

    Row i is m[i,0] v_0 + m[i,1] v_1 + m[i,2] v_2, summed in that order and
    written in place; one (..., *sp) scratch buffer holds each product.
    """
    sp = np.broadcast_shapes(m.shape[2:], v.shape[-3:])
    out = np.empty(v.shape[:-4] + (3,) + sp, np.result_type(m, v))
    tmp = np.empty(v.shape[:-4] + sp, out.dtype)
    for i in range(3):
        row = out[..., i, :, :, :]
        np.multiply(m[i, 0], v[..., 0, :, :, :], out=row)
        for j in (1, 2):
            np.multiply(m[i, j], v[..., j, :, :, :], out=tmp)
            row += tmp
    return out


def hodge_star(metric: Metric3, orientation: int = 1, rows: slice = slice(None)) -> StarMap:
    """Star map orientation * sqrt(det g) * g^-1 of a riemannian metric on
    ``rows`` of the first spatial axis (all by default).

    Raises ``SingularMetric`` if det <= 0.
    """
    det = metric.det()[rows]
    if np.any(det <= 0):
        raise SingularMetric("metric determinant <= 0 on the grid")
    return StarMap(orientation * np.sqrt(det) * mat_inv(metric.g[:, :, rows]))
