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
density of the grid's size is held.  The group-valued SU(2) form of the
energy, which the tests compare against, is in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MomentConditionFailed
from .exterior import StarMap, hodge_star, mat_det, mat_inv
from .gaugefield import Configuration, Slab, equivariant_pullback


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


def _pair(u, v, degree: int, star: StarMap, gslot: np.ndarray | None) -> np.ndarray:
    """Pointwise 3-form coefficient of g(u ^ star v) for slot-valued forms."""
    return _pair_starred(u, star.on_1(v) if degree == 1 else star.on_2(v), gslot)


def _pair_starred(u, sv, gslot: np.ndarray | None) -> np.ndarray:
    """Pointwise g(u ^ star v) from sv = star v, which is read, not overwritten.

    u, sv have shape (slot, 3, *sp); gslot contracts the slots (None = delta,
    for Lie-algebra slots in an orthonormal basis).  Products are summed in
    slot, then component, order; the scratch buffers have shape *sp.
    """
    n = len(sv)
    dt = np.result_type(u, sv) if gslot is None else np.result_type(u, sv, gslot)
    sp = sv.shape[-3:]
    rho = np.zeros(sp, dt)
    prod = np.empty(sp, dt)
    if gslot is not None:
        tmp = np.empty(sp, dt)
    for b in range(n):
        for i in range(3):
            if gslot is None:
                np.multiply(sv[b, i], u[b, i], out=prod)
            else:
                # lower the slot index of u: gslot[0, b] u^0_i + gslot[1, b] u^1_i + ...
                np.multiply(gslot[0, b], u[0, i], out=prod)
                for a in range(1, n):
                    np.multiply(gslot[a, b], u[a, i], out=tmp)
                    prod += tmp
                np.multiply(sv[b, i], prod, out=prod)
            rho += prod
    return rho


# ---------------------------------------------------------------------------
# the pointwise pass
# ---------------------------------------------------------------------------


_TERMS = ("c1_dphi", "c2_sigma", "c3_nu", "c4_mu_sharp", "c5_nu_sigma", "c6_mu_sigma")


def _margin_pass(c: Configuration, p: BPSParams, checks=()) -> dict:
    """All pointwise algebra of a configuration, one slab of rows at a time.

    Each slab (``PatchGrid.slabs``) forms d^A phi and F on its rows, takes
    g_N, I and mu at phi (I once, shared with d^A phi), det g_N and g_N^-1
    once, the base star and its inverse, and the five pullbacks Sig, nu, mus,
    phi^{*A} V_N and phi^{*A} mu.  From them it forms the six energy
    densities, the Bogomolny density
      |star dphi - B|^2 + |alpha Sig + beta mus + gamma nu|^2 + 2 <star dphi, B>
    (B = Sig + 3 mus) with the two BPS sides, the cross density, the charge
    density and the pointwise terms of the orthogonality and contraction
    checks.  Each slab reduces them before the next is formed: the energy
    terms and the charge density to row sums (``PatchGrid.row_sums``), whose
    sums are their integrals over M, and the rest to maxima (``_slab_pass``),
    which combine over the slabs by max.  So no density of the grid's size is
    held, and every value is that of one full-grid pass.

    ``checks`` are (name, fn) pairs of stencil checks that read the same
    slabs: fn(slab) is the check's value on the slab's rows, and the slab's
    fields are then formed on its derivative halo.  Their maxima over the
    slabs are returned under "checks".
    """
    grid = c.grid
    sums = {k: np.empty(grid.n[0]) for k in _TERMS + ("charge",)}
    sups = {}
    found = {name: [] for name, _ in checks}
    for sl in grid.slabs():
        slab = c.slab(sl, halo=bool(checks))
        for name, check in checks:
            found[name].append(check(slab))
        dens, sup = _slab_pass(c, p, slab)
        for key, v in dens.items():
            sums[key][sl] = grid.row_sums(v, sl)
        for key, v in sup.items():
            sups.setdefault(key, []).append(v)
    done = {k: float(np.max(v)) for k, v in sups.items()}
    done["charge_cross"] /= max(done.pop("charge_max"), 1.0)
    integral = {k: c.orientation * float(np.sum(v)) for k, v in sums.items()}
    return {"terms": {k: integral[k] for k in _TERMS}, "charge": integral["charge"],
            "checks": {name: max(v) for name, v in found.items()}, **done}


def _slab_pass(c: Configuration, p: BPSParams, slab: Slab) -> tuple[dict, dict]:
    """The pass on one slab's rows: its seven integrands (the six energy
    terms and the charge density) and its maxima, each by name.

    Each slab-size field is dropped after its last reader, and all of them
    on return, so that a grid of one slab (n <= 24) holds few of them at once.
    """
    t, sl = c.target, slab.rows
    y, (P, F, kil) = c.phi[:, sl], slab.take()
    sup = {}
    gN, mu = t.metric_fn(y), t.mu_fn(y)
    sup["asym"] = _contraction_asymmetry(kil, mu)
    sup["mu_max"] = float(np.max(np.abs(mu)))
    det, inv = mat_det(gN), mat_inv(gN)
    # (p, q): Sig (0, 2), nu and mus (1, 0), V_N (0, 3), mu (1, 1)
    sig = equivariant_pullback(P, F, 0, 2, t.sigma_dual(det, inv))
    nu = equivariant_pullback(P, F, 1, 0, kil)
    mus = equivariant_pullback(P, F, 1, 0, t.mu_sharp(inv, mu))
    out = {"charge": equivariant_pullback(P, F, 0, 3, t.vol_coeff(det))
           + equivariant_pullback(P, F, 1, 1, mu)}
    del F, kil, mu, det, inv
    star = hodge_star(c.gM, c.orientation, sl)

    # the energy densities: each right operand is star-applied once and
    # paired with every left operand on it
    dens = {}
    s_op = star.on_2(sig)
    dens["c2_sigma"], dens["c5_nu_sigma"], dens["c6_mu_sigma"] = (
        _pair_starred(u, s_op, gN) for u in (sig, nu, mus))
    del s_op
    dens["c3_nu"] = _pair_starred(nu, star.on_2(nu), gN)
    s_op = star.on_2(mus)
    dens["c4_mu_sharp"] = _pair_starred(mus, s_op, gN)
    if t.has_moment_constraint:
        sup["ortho"] = float(np.max(np.abs(_pair_starred(nu, s_op, gN))))
    del s_op
    star_dphi = star.on_1(P)
    dens["c1_dphi"] = _pair_starred(P, star_dphi, gN)
    del P
    for key, coef in zip(_TERMS, p.c):
        out[key] = coef * dens[key]
    del dens

    # the Bogomolny density and the two BPS sides
    b = sig + 3.0 * mus
    cross = _pair(star_dphi, b, 2, star, gN)
    diff = star_dphi - b
    del b, star_dphi
    sup["r1"] = float(np.max(np.abs(diff)))
    bogomolny = _pair(diff, diff, 2, star, gN)
    del diff
    second = _second_equation(p, sig, mus, nu)
    del sig, mus, nu
    sup["r2"] = float(np.max(np.abs(second)))
    bogomolny += _pair(second, second, 2, star, gN)
    bogomolny += 2.0 * cross

    # the six-term density against the Bogomolny density, and the charge
    # density against the cross density, which agree pointwise up to roundoff
    first, *rest = (out[k] for k in _TERMS)
    six = first.copy()
    for term in rest:
        six += term
    sup["six_max"] = float(np.max(np.abs(six)))
    np.subtract(bogomolny, six, out=six)
    sup["decomposition"] = float(np.max(np.abs(six, out=six)))
    sup["charge_max"] = float(np.max(np.abs(out["charge"])))
    cross /= 3.0
    np.subtract(out["charge"], cross, out=cross)
    sup["charge_cross"] = float(np.max(np.abs(cross, out=cross)))
    return out, sup


def _second_equation(p: BPSParams, sig, mus, nu) -> np.ndarray:
    """alpha Sig + beta mus + gamma nu, summed in that order in one array."""
    out = p.alpha * sig
    tmp = np.empty_like(out)
    for coef, x in ((p.beta, mus), (p.gamma, nu)):
        np.multiply(coef, x, out=tmp)
        out += tmp
    return out


# ---------------------------------------------------------------------------
# the moment checks
# ---------------------------------------------------------------------------


# relative bound on the symmetrized contraction iota_nu(I_a) mu(I_b) at phi
_CONSTRAINT_TOL = 1e-8


def _contraction_asymmetry(kil: np.ndarray, mu: np.ndarray) -> float:
    """max |(q_ab + q_ba) / 2| over slot pairs a <= b, q_ab = sum_m I_a^m mu_{b;m}."""
    sp = kil.shape[2:]
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
            worst = max(worst, 0.5 * float(np.max(np.abs(sym, out=sym))))
    return worst


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def general_bound_coefficient(p: BPSParams) -> float | None:
    """Coefficient of Vol(N) |deg| in the general (non-BPS) lower bound.

    Reported as a number only; no sharpness or positivity validation is
    attempted (the parameter constraints making E positive are not pinned
    down here).
    """
    c1, c2, c3, c4, c5, c6 = p.c
    den = 4.0 * c3 * (9.0 * c2 + c4 - 3.0 * c6) - 9.0 * c5 * c5
    num = c1 * (c3 * (4.0 * c2 * c4 - c6 * c6) - c4 * c5 * c5)
    if den == 0.0 or num / den < 0.0:
        return None
    return 6.0 * float(np.sqrt(num / den))


def bound_gap(c: Configuration, p: BPSParams, vol_n: float, checks=()) -> dict:
    """Energy, degree and E - 6 Vol(N) |deg| of one pass, with its residuals
    and the values of the stencil ``checks`` run in it (see ``_margin_pass``).

    Raises MomentConditionFailed if nu-hat and mu-sharp-hat are not pointwise
    orthogonal (for targets with a valid moment map), then if the moment map
    violates the contraction constraint, which leaves the degree undefined.
    The decomposition residual compares the Bogomolny density (see
    ``_margin_pass``) with the six-term density pointwise; the two agree given
    the coefficient map and that orthogonality.  The degree is the quadrature
    over this (margined) patch; callers extrapolate over margins.
    """
    done = _margin_pass(c, p, checks)
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
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

CSV_HEADER = ["family", "params", "n", "margin", "E", "deg", "bound", "gap", "r1", "r2", "exit"]


@dataclass
class EnergyReport:
    """One verification row: energy, degree, bound and residuals."""

    family: str
    params: dict
    n: int
    margin: float
    energy: float
    degree: float
    bound: float
    gap: float
    r1: float
    r2: float
    terms: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    exit_code: int = 0

    def to_json_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k != "exit_code"}
        out["exit"] = self.exit_code
        return out

    def to_csv_row(self) -> list[str]:
        return [
            self.family,
            json.dumps(self.params, sort_keys=True, separators=(",", ":")),
            str(self.n),
            repr(self.margin),
            repr(self.energy),
            repr(self.degree),
            repr(self.bound),
            repr(self.gap),
            repr(self.r1),
            repr(self.r2),
            str(self.exit_code),
        ]
