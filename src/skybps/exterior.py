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
the symmetric matrix  S = orientation * sqrt(det g) * g^{-1}, and its inverse,
the star on 2-forms, is orientation * g / sqrt(det g) in closed form.
Symmetry of S is exactly the trace identity tr(iota_V o star) = 0 satisfied
by every metric star.  The same two objects of the target metric, the Hodge
tensor Sigma = sqrt(det g_N) g_N^{-1} and the volume coefficient
sqrt(det g_N), are formed from det g_N and g_N^{-1} where they are used.  The
trace residual and the recovery of g from S, which the tests use as
references, live in ``tests/oracles.py``.

The pointwise 3x3 kernels (determinant, adjugate, inverse, matrix-vector
product) are closed-form component arithmetic on the (3, 3, *spatial) layout:
the adjugate's columns are cross products of rows, adj[:, r] = m[r+1] x m[r+2]
(indices mod 3), and det m = m[0] . (m[1] x m[2]).  They take real or complex
input, so complex-step partials can pass through them.  So do the two
contractions over component axes: ``_dot``, and the symmetrized contraction
of Killing fields with a moment map (``_contraction_asymmetry``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# each Cholesky pivot of a positive definite metric exceeds this many ulps of
# max |g_ij| at the point
_MINOR_ULPS = 256


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
    return _inv_and_det(m)[0]


def _inv_and_det(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m^-1, det m) of a (3, 3, *spatial) matrix field, the determinant taken
    once from the adjugate's first column; raises as ``mat_inv`` does."""
    adj = _adjugate(m)
    det = _det(m, adj[:, 0])
    if not np.all(np.isfinite(det)) or np.any(det == 0):
        raise SingularMetric("matrix field is singular or non-finite at some grid point")
    adj /= det
    return adj, det


@dataclass
class Metric3:
    """Symmetric 3x3 metric components per grid point, shape (3, 3, *spatial).

    Where it is riemannian is computed from Sylvester minors, never assumed
    (``riemannian_mask``).  The determinant the last minor needs is kept
    (read-only) and is what ``det`` returns.  ``g`` is symmetrized in place,
    one off-diagonal pair at a time, so no (3, 3, *spatial) temporary is
    formed; a read-only ``g`` is copied first.
    """

    g: np.ndarray
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

    def riemannian_mask(self) -> np.ndarray:
        """Where g is positive definite: its pivots m1, m2/m1 and det/m2,
        from the leading minors m1, m2 and det (Sylvester), exceed
        ``_MINOR_ULPS`` ulps of max |g_ij| at the point.  A pivot that is
        zero up to rounding, as that of a metric which degenerates in exact
        arithmetic is, does not pass."""
        g = self.g
        tol = np.abs(g[0, 0])
        for i, j in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            tol = np.maximum(tol, np.abs(g[i, j]))
        tol *= _MINOR_ULPS * np.finfo(float).eps
        m1 = g[0, 0]
        m2 = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        return (m1 > tol) & (m2 > tol * m1) & (self._det > tol * m2)

    def det(self) -> np.ndarray:
        return self._det


@dataclass(frozen=True)
class StarMap:
    """Per-point linear map from 1-forms to 2-forms in dual storage.

    ``s`` includes the orientation sign; for a metric star it equals
    orientation * sqrt(det g) * g^{-1} and is symmetric.  ``s_inv`` is its
    inverse, orientation * g / sqrt(det g) for a metric star.
    """

    s: np.ndarray  # (3, 3, *spatial)
    s_inv: np.ndarray  # (3, 3, *spatial)

    def on_1(self, comps: np.ndarray) -> np.ndarray:
        """Apply to 1-form components (..., 3, *spatial) -> dual 2-form."""
        return _matvec(self.s, comps)

    def on_2(self, dual: np.ndarray) -> np.ndarray:
        """Apply the deg-2 -> deg-1 companion (inverse of ``on_1``)."""
        return _matvec(self.s_inv, dual)


def _is_zero(c: np.ndarray) -> bool:
    """Whether every entry of a matrix component field is exactly 0.

    A nonzero first entry, the usual case, answers without reading the rest.
    A product with such a component is +-0 wherever its other factor is
    finite, so a kernel that skips it leaves every nonzero sum bit for bit
    as it was.
    """
    return c.flat[0] == 0 and not c.any()


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(3,3,*sp) matrix times (...,3,*sp) vector over the -4 axis.

    Row i is m[i,0] v_0 + m[i,1] v_1 + m[i,2] v_2, summed in that order and
    written in place, with no product by a component that is exactly 0
    (``_is_zero``); one (..., *sp) scratch buffer holds each product.
    """
    sp = np.broadcast_shapes(m.shape[2:], v.shape[-3:])
    out = np.empty(v.shape[:-4] + (3,) + sp, np.result_type(m, v))
    cols = [[j for j in range(3) if not _is_zero(m[i, j])] for i in range(3)]
    tmp = np.empty(v.shape[:-4] + sp, out.dtype) if max(map(len, cols)) > 1 else None
    for i in range(3):
        row = out[..., i, :, :, :]
        if not cols[i]:
            row.fill(0)
            continue
        first, *rest = cols[i]
        np.multiply(m[i, first], v[..., first, :, :, :], out=row)
        for j in rest:
            np.multiply(m[i, j], v[..., j, :, :, :], out=tmp)
            row += tmp
    return out


def hodge_star(metric: Metric3, orientation: int) -> StarMap:
    """Star map orientation * sqrt(det g) * g^-1 of a riemannian metric, with
    its inverse orientation * g / sqrt(det g), on the points the metric
    holds.  The metric is read, not overwritten.

    Raises ``SingularMetric`` if det <= 0.
    """
    det = metric.det()
    if np.any(det <= 0):
        raise SingularMetric("metric determinant <= 0 on the grid")
    signed = orientation * np.sqrt(det)
    s = mat_inv(metric.g)
    s *= signed
    return StarMap(s, metric.g / signed)


# ---------------------------------------------------------------------------
# contractions over component axes
# ---------------------------------------------------------------------------


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


def _contraction_asymmetry(kil: np.ndarray, mu: np.ndarray, peak=np.max):
    """max |(q_ab + q_ba) / 2| over slot pairs a <= b, q_ab = sum_m I_a^m mu_{b;m}:
    the symmetrized contraction iota_{nu(I_a)} mu(I_b), which must vanish for
    the degree to be defined.  ``peak`` reduces each pair's nonnegative field
    over the points: to one maximum by default, to the maxima over each
    sub-box in the pass (see ``energy_degree._slab_pass``).

    Each pair sums its products in component order, both orders of the pair
    at each component, with two scratch buffers of the points' shape, the
    broadcast of the two fields'.
    """
    sp = np.broadcast_shapes(kil.shape[2:], mu.shape[2:])
    dt = np.result_type(kil, mu)
    sym, tmp = np.empty(sp, dt), np.empty(sp, dt)
    worst = 0.0
    for a in range(len(kil)):
        for b in range(a, len(kil)):
            sym.fill(0.0)
            for m in range(3):
                for x, y in ((a, b), (b, a)):
                    np.multiply(kil[x, m], mu[y, m], out=tmp)
                    sym += tmp
            worst = np.maximum(worst, 0.5 * peak(np.abs(sym, out=sym)))
    return worst
