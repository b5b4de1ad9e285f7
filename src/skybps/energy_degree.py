"""Gauged Skyrme energy, topological degree, BPS residuals and bound gap.

The energy of a configuration (phi, A) is

    E = int_M  c1 |d^A phi|^2 + c2 |Sig|^2 + c3 |nu|^2 + c4 |mus|^2
             + < c5 nu + c6 mus, Sig >

where hats over pullbacks are dropped: Sig = phi^{*A} Sigma, nu = phi^{*A} nu,
mus = phi^{*A} mu-sharp, and <a, b> = g_N(a ^ star_M b).  The coefficients
derive from three parameters (alpha, beta, gamma) via

    c1 = 1, c2 = 1 + alpha^2, c3 = gamma^2,
    c4 = 9 + beta^2, c5 = 2 alpha gamma, c6 = 2 (3 + alpha beta),

so that the density decomposes as a sum of squares plus twice the charge
density, giving E >= 6 Vol(N) |deg| with equality exactly on solutions of

    BPS1:  star_M d^A phi = phi^{*A}(Sigma + 3 mu-sharp)
    BPS2:  phi^{*A}(alpha Sigma + beta mu-sharp + gamma nu) = 0.

The degree is int_M phi^{*A}(V_N + mu) / int_N V_N; its integrand agrees
pointwise with (1/3) < star_M d^A phi, phi^{*A}(Sigma + 3 mu-sharp) >.

Every number a margin reports comes out of one pointwise pass,
``_margin_pass``, and its one reader ``bound_gap``: the energy and its terms,
the degree, the bound gap, the sup norms r1 and r2 of the two BPS equations,
and the decomposition and charge-cross residuals.  The pass reduces each
slab's densities to row sums and maxima before it forms the next slab, so no
density of the grid's size is held.  It reduces them once for each sub-box
of the grid it is asked for (``PatchGrid.box``), so one pass over the finest
grid serves every margin of a verify.  The group-valued SU(2) form of the
energy, which the tests compare against, is in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MomentConditionFailed
from .exterior import StarMap, _contraction_asymmetry, _inv_and_det, _is_zero, _matvec
from .gaugefield import Configuration, Slab, Survey, equivariant_pullback


@dataclass(frozen=True)
class BPSParams:
    """BPS parameters (alpha, beta, gamma) and the induced energy coefficients."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    @property
    def c(self) -> tuple[float, float, float, float, float, float]:
        a, b, g = self.alpha, self.beta, self.gamma
        return (1.0, 1.0 + a * a, g * g, 9.0 + b * b, 2.0 * a * g, 2.0 * (3.0 + a * b))


def bps_coefficients(alpha: float, beta: float, gamma: float) -> BPSParams:
    return BPSParams(float(alpha), float(beta), float(gamma))


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def _pair(u, v, degree: int, star: StarMap, gslot: np.ndarray) -> np.ndarray:
    """Pointwise 3-form coefficient of g(u ^ star v) for slot-valued forms."""
    return _pair_starred(u, star.on_1(v) if degree == 1 else star.on_2(v), gslot)


def _pair_starred(u, sv, gslot: np.ndarray) -> np.ndarray:
    """Pointwise g(u ^ star v) from sv = star v, which is read, not overwritten.

    u, sv have shape (slot, 3, *sp); gslot contracts the slots.  Products are
    summed in slot, then component, order, with no product by a component of
    gslot that is exactly 0 (``_is_zero``); the scratch buffers have shape *sp.
    """
    n = len(sv)
    dt = np.result_type(u, sv, gslot)
    sp = sv.shape[-3:]
    rho = np.zeros(sp, dt)
    prod = np.empty(sp, dt)
    tmp = np.empty(sp, dt)
    for b in range(n):
        slots = [a for a in range(n) if not _is_zero(gslot[a, b])]
        if not slots:
            continue
        first, *rest = slots
        for i in range(3):
            # lower the slot index of u: gslot[0, b] u^0_i + gslot[1, b] u^1_i + ...
            np.multiply(gslot[first, b], u[first, i], out=prod)
            for a in rest:
                np.multiply(gslot[a, b], u[a, i], out=tmp)
                prod += tmp
            np.multiply(sv[b, i], prod, out=prod)
            rho += prod
    return rho


# ---------------------------------------------------------------------------
# the pointwise pass
# ---------------------------------------------------------------------------


_TERMS = ("c1_dphi", "c2_sigma", "c3_nu", "c4_mu_sharp", "c5_nu_sigma", "c6_mu_sigma")


def _margin_pass(c: Configuration, p: BPSParams, checks=(), insets=(0.0,)) -> list[dict]:
    """All pointwise algebra of a configuration, one slab of rows at a time,
    reduced over each sub-box that ``insets`` names: one dict for each.

    Each slab (``PatchGrid.slabs``) evaluates phi, A and g_M, which a
    :class:`Survey` checks first.  It forms F, d^A phi and I(phi) once (see
    :class:`Slab`), takes g_N and mu at phi, det g_N and g_N^-1 once, the
    five pullbacks Sig, nu, mus, phi^{*A} V_N and phi^{*A} mu, then the
    base star (``hodge_star``, with its closed-form inverse).  The target's
    data at phi is formed on the axes that phi's components vary along (see
    :class:`Configuration`), and a maximum over a sub-box broadcasts it to
    the slab's points first.  From them it
    forms the energy densities,
    the Bogomolny density
      |star dphi - B|^2 + |alpha Sig + beta mus + gamma nu|^2 + 2 <star dphi, B>
    (B = Sig + 3 mus) with the two BPS sides, the cross density, the charge
    density and the pointwise terms of the orthogonality and contraction
    checks.  Each slab reduces them before the next is formed: the energy
    terms and the charge density to row sums (``PatchGrid.row_sums``), whose
    sums are their integrals, and the rest to maxima (``_slab_pass``), which
    combine over the slabs by max.  So no field of the grid's size is held,
    and every value is that of one full-grid pass.

    A sub-box is the box that the coordinate ``inset`` more margin leaves
    at every bounded face (``PatchGrid.box``); inset 0 is the whole grid.
    Each sub-box's row sums use its own quadrature weights, and its maxima
    read its points alone, so a value at a point outside it does not enter
    them.

    An energy term or a summand of the second BPS equation whose coefficient
    is exactly 0 is not formed: the term's integral is orientation * 0.0,
    and with alpha = beta = gamma = 0, r2 is 0.0.  Each would be a sum of
    +-0, so the reported values keep their bits (a zero term's dense sum
    has the other sign only where every one of its products is -0).

    ``checks`` are (name, fn) pairs that read the same slabs before the pass
    does: fn(slab) is the check's residual at each point of the slab's rows,
    and its maxima over each sub-box are returned under "checks", in any
    order at the same cost.  A slab's fields are formed on its derivative
    halo, which the stencil checks (Bianchi, naturality) differentiate.

    Once the slabs read so far fail the survey, the rest are only surveyed,
    and the survey's error is raised after the last.  A sub-box on which the
    metric is not riemannian still gets every value: the stencil checks and
    the charge-cross residual need no positive definite metric, and its
    "riemannian" flag tells the caller that its energy means nothing.
    """
    grid = c.grid
    survey = Survey(c, insets)
    sums = {k: np.zeros((len(insets), grid.n[0])) for k in _TERMS + ("charge",)}
    sups = {}
    found = {name: np.zeros(len(insets)) for name, _ in checks}
    for sl in grid.slabs():
        slab = c.slab(sl)
        survey.read(slab)
        if survey.failed:
            continue
        at = [grid.in_box(sl, d) for d in insets]

        def peak(a):  # the maximum over each sub-box's points on the slab
            a = np.broadcast_to(a, a.shape[:-3] + grid.points_shape(sl))
            return np.array([np.max(a[i]) if i is not None else 0.0 for i in at])

        for name, check in checks:
            found[name] = np.maximum(found[name], peak(check(slab)))
        dens, sup = _slab_pass(c, p, slab, peak)
        del slab  # and its star, before the row sums
        for key, v in dens.items():
            for i, (d, box) in enumerate(zip(insets, at)):
                if box is not None:
                    rows = slice(sl.start + box[1].start, sl.start + box[1].stop)
                    sums[key][i, rows] = grid.row_sums(v, sl, d)
        for key, v in sup.items():
            sups[key] = np.maximum(sups.get(key, np.zeros(len(insets))), v)
        del dens  # before the next slab's fields are formed
    survey.close()
    out = []
    for i, d in enumerate(insets):
        done = {key: float(v[i]) for key, v in sups.items()}
        done["charge_cross"] /= max(done.pop("charge_max"), 1.0)
        rows = grid.box(d)[0]
        integral = {key: c.orientation * float(np.sum(v[i, rows])) for key, v in sums.items()}
        out.append({"terms": {key: integral[key] for key in _TERMS},
                    "charge": integral["charge"],
                    "checks": {name: float(v[i]) for name, v in found.items()}, **done,
                    "riemannian": survey.riemannian[i], "diagnostics": survey.diagnostics[i]})
    return out


def _slab_pass(c: Configuration, p: BPSParams, slab: Slab, peak) -> tuple[dict, dict]:
    """The pass on one slab's rows: its integrands (the charge density and
    the energy terms with a nonzero coefficient) and its maxima, each by name.

    ``peak`` reduces a nonnegative field of the slab's rows to its maxima,
    one for each sub-box (see ``_margin_pass``).  Each slab-size field is dropped after its last
    reader, and all of them on return (the star with the slab, which the
    caller drops), so that a grid of one slab (n <= 24) holds few of them at
    once.
    """
    t = c.target
    y, P, F, kil = slab.take()
    sup = {}
    gN, mu = t.metric_fn(y), t.mu_fn(y)
    del y
    sup["asym"] = _contraction_asymmetry(kil, mu, peak)
    sup["mu_max"] = peak(np.abs(mu))
    # (p, q): Sig (0, 2), nu and mus (1, 0), V_N (0, 3), mu (1, 1), formed
    # so that I(phi), mu, F, g_N^-1 and det g_N are each freed after their
    # last pullback, and g_N^-1 and det g_N, taken together, are formed only
    # once the fields before them are freed: mu-sharp = g_N^-1 mu,
    # V_N = sqrt(det g_N) and Sig = sqrt(det g_N) g_N^-1, in place; the
    # charge density phi^{*A} V_N + phi^{*A} mu takes its mu part first, and
    # IEEE addition commutes, so its sum has the same bits
    nu = equivariant_pullback(P, F, 1, 0, kil)
    del kil
    charge = equivariant_pullback(P, F, 1, 1, mu)
    coeff, det = _inv_and_det(gN)
    sharp = _matvec(coeff, mu)
    del mu
    mus = equivariant_pullback(P, F, 1, 0, sharp)
    del F, sharp
    root = np.sqrt(det)
    del det
    charge += equivariant_pullback(P, None, 0, 3, root)
    coeff *= root
    del root
    sig = equivariant_pullback(P, None, 0, 2, coeff)
    del coeff
    star = slab.star  # where it is first applied, and g_M freed

    # the energy terms: each right operand is star-applied once and paired
    # with every left operand on it; a term whose coefficient is exactly 0
    # is not formed, and its row sums stay 0
    coef = dict(zip(_TERMS, p.c))
    terms = {}

    def pair_term(key, u, sv):
        if coef[key]:
            terms[key] = _pair_starred(u, sv, gN)
            terms[key] *= coef[key]

    s_op = star.on_2(sig)
    for key, u in (("c2_sigma", sig), ("c5_nu_sigma", nu), ("c6_mu_sigma", mus)):
        pair_term(key, u, s_op)
    del s_op
    if coef["c3_nu"]:
        pair_term("c3_nu", nu, star.on_2(nu))
    s_op = star.on_2(mus)
    pair_term("c4_mu_sharp", mus, s_op)
    if t.has_moment_constraint:
        ortho = _pair_starred(nu, s_op, gN)
        sup["ortho"] = peak(np.abs(ortho, out=ortho))
        del ortho
    del s_op

    # the second BPS side alpha Sig + beta mus + gamma nu, summed in that
    # order over the summands whose coefficient is not exactly 0 (nu is
    # freed here unless it is one of them), and its square in the
    # Bogomolny density
    #   |star dphi - B|^2 + |alpha Sig + beta mus + gamma nu|^2 + 2 <star dphi, B>
    # (B = Sig + 3 mus)
    summands = [(k, x) for k, x in ((p.alpha, sig), (p.beta, mus), (p.gamma, nu)) if k]
    del nu
    sup["r2"] = 0.0
    square = None
    if summands:
        (k, x), *rest = summands
        second = k * x
        for k, x in rest:
            second += k * x
        del summands, rest, x
        sup["r2"] = peak(np.abs(second))
        square = _pair(second, second, 2, star, gN)
        del second

    b = sig + 3.0 * mus
    del sig, mus
    star_dphi = star.on_1(P)
    pair_term("c1_dphi", P, star_dphi)
    del P
    cross = _pair(star_dphi, b, 2, star, gN)
    diff = star_dphi - b
    del b, star_dphi
    sup["r1"] = peak(np.abs(diff))
    bogomolny = _pair(diff, diff, 2, star, gN)
    del diff
    if square is not None:
        bogomolny += square
        del square
    bogomolny += 2.0 * cross
    out = {"charge": charge, **{k: terms[k] for k in _TERMS if k in terms}}
    del terms

    # the six-term density against the Bogomolny density, and the charge
    # density against the cross density, which agree pointwise up to roundoff
    first, *rest = (out[k] for k in _TERMS if k in out)
    six = first.copy()
    for term in rest:
        six += term
    sup["six_max"] = peak(np.abs(six))
    np.subtract(bogomolny, six, out=six)
    sup["decomposition"] = peak(np.abs(six, out=six))
    sup["charge_max"] = peak(np.abs(out["charge"]))
    cross /= 3.0
    np.subtract(out["charge"], cross, out=cross)
    sup["charge_cross"] = peak(np.abs(cross, out=cross))
    return out, sup


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


# relative bound on the symmetrized contraction iota_nu(I_a) mu(I_b) at phi
_CONSTRAINT_TOL = 1e-8


def bound_gap(c: Configuration, p: BPSParams, vol_n: float, checks=(),
              insets=(0.0,)) -> list[dict]:
    """Energy, degree and E - 6 Vol(N) |deg| of one pass, with its residuals,
    the configuration's diagnostics and the values of the ``checks`` run in
    it, for each sub-box that ``insets`` names (see ``_margin_pass``): one dict
    for each.

    A sub-box on which the metric is not riemannian has no energy to bound:
    its result is the pass's, with "riemannian" false.  For each other
    sub-box, in turn, raises MomentConditionFailed if nu-hat and
    mu-sharp-hat are not pointwise orthogonal on it (for targets with a
    valid moment map), then if the moment map violates the contraction
    constraint, which leaves the degree undefined.  The decomposition
    residual compares the Bogomolny density (see ``_margin_pass``) with the
    six-term density pointwise; the two agree given the coefficient map and
    that orthogonality.  The degree is the quadrature over the (margined)
    sub-box; callers extrapolate over margins.
    """
    return [_bound(done, vol_n) for done in _margin_pass(c, p, checks=checks, insets=insets)]


def _bound(done: dict, vol_n: float) -> dict:
    """:func:`bound_gap` of one sub-box, from its pass values."""
    if not done["riemannian"]:
        return done
    scale = max(done["six_max"], 1.0)
    if done.get("ortho", 0.0) > 1e-10 * scale:
        raise MomentConditionFailed(
            f"< nu-hat, mu-sharp-hat > = {done['ortho']:.3e} is not identically zero"
        )
    if done["asym"] > _CONSTRAINT_TOL * max(done["mu_max"], 1.0):
        raise MomentConditionFailed(
            "target moment map violates the contraction constraint; degree undefined"
        )
    energy = float(sum(done["terms"].values()))
    deg = done["charge"] / vol_n
    bound = 6.0 * vol_n * abs(deg)
    return {
        "riemannian": True,
        "energy": energy,
        "decomposition_residual": done["decomposition"] / scale,
        "degree": deg,
        "bound": bound,
        "gap": energy - bound,
        "terms": done["terms"],
        "r1": done["r1"],
        "r2": done["r2"],
        "charge_cross": done["charge_cross"],
        "checks": done["checks"],
        "diagnostics": done["diagnostics"],
    }

