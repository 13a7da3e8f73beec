"""Free-energy functionals and the asymptotic interconversion rate.

Free energies are computed in floating point even in rational mode (they
involve logarithms).  Rates use the Gibbs-relative value by default, which
vanishes exactly on free states; the literal functional remains available
via relative=False.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import CQState, GibbsContext, StateVector
from .errors import DimensionMismatch, FreeTarget, NotNormalized

_RATE_TOL = 1e-12


def free_energy(u: StateVector, ctx: GibbsContext) -> float:
    """F(u) = sum_i u_i (E_i + ln(u_i)/beta), with 0 ln 0 = 0."""
    policy = ctx.policy
    if u.dim != ctx.dim:
        raise DimensionMismatch(f"state has dimension {u.dim}, context has {ctx.dim}")
    if not policy.close(u.mass, policy.one()):
        raise NotNormalized(f"free energy needs a normalized state, mass {u.mass}")
    return _free_energy(u.w, ctx.energy_levels(), float(ctx.beta))


def _free_energy(w, energies, beta: float) -> float:
    """`free_energy` of the normalized entries w, one per energy level."""
    total = 0.0
    for ui, ei in zip(w, energies):
        x = float(ui)
        if x > 0:
            total += x * (ei + math.log(x) / beta)
    return total


def gibbs_free_energy(ctx: GibbsContext) -> float:
    """F(g) = -ln(Z)/beta."""
    return -math.log(float(ctx.partition)) / float(ctx.beta)


def resource_value(state: CQState, ctx: GibbsContext, relative: bool = True) -> float:
    """Branch-mass-weighted free energy of the conditionals.

    relative=True subtracts F(g) per branch, so free states score exactly 0.
    """
    return _resource_value(state.validate(ctx.policy), ctx, relative)


def _resource_value(state: CQState, ctx: GibbsContext, relative: bool) -> float:
    """`resource_value` of a state checked already: each column is summed
    once (in rational mode from its held `_ints`), and that mass both
    weighs and normalizes it."""
    if state.dim != ctx.dim:  # free_energy's first check, once per state
        raise DimensionMismatch(f"state has dimension {state.dim}, context has {ctx.dim}")
    exact = ctx.policy.exact
    energies, beta = ctx.energy_levels(), float(ctx.beta)
    base = gibbs_free_energy(ctx) if relative else 0.0
    total = 0.0
    for col in state.columns:
        mass = Fraction(sum(col._ints[1]), col._ints[0]) if exact else col.mass
        p_x = float(mass)
        if p_x == 0:
            continue
        u = [x / mass for x in col.w]  # col.normalized(), on the mass read once
        total += p_x * (_free_energy(u, energies, beta) - base)
    return total


def asymptotic_rate(source: CQState, target: CQState, ctx: GibbsContext) -> float:
    """Optimal copies-out per copy-in in the many-copy limit: f(U)/f(V)."""
    return _rate(resource_value(source, ctx), resource_value(target, ctx))


def _rate(f_u: float, f_v: float) -> float:
    """f_u/f_v; FreeTarget when |f_v| <= _RATE_TOL, and 0.0 when |f_u| <= it."""
    if abs(f_v) <= _RATE_TOL:
        raise FreeTarget("target is a free state; the rate is unbounded")
    if abs(f_u) <= _RATE_TOL:
        return 0.0
    return f_u / f_v
