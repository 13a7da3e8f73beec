"""Seeded random-instance generators for the CLI, tests and the benchmark.

Generators take explicit seeds (or random.Random instances) and are
deterministic given the seed; in rational mode every sampled quantity is a
Fraction so reruns are bit-for-bit identical.  A random thermal map is built
one partial level thermalization at a time, each step rewriting two rows.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (
    CQState,
    CTOPlan,
    GibbsContext,
    NumericPolicy,
    StateVector,
    TOMatrix,
    canonicalize_cq,
)

_DEN = 48  # denominator for rational-mode sampling


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _unit(rng: random.Random, policy: NumericPolicy):
    """A number in [0, 1]."""
    if policy.exact:
        return Fraction(rng.randint(0, _DEN), _DEN)
    return rng.random()


def _positive_unit(rng: random.Random, policy: NumericPolicy):
    if policy.exact:
        return Fraction(rng.randint(1, _DEN), _DEN)
    return rng.random() * (1 - 1e-6) + 1e-6


def random_context(d: int, seed, policy: NumericPolicy | None = None) -> GibbsContext:
    policy = policy or NumericPolicy()
    rng = _rng(seed)
    if policy.exact:
        raw = [Fraction(rng.randint(1, _DEN)) for _ in range(d)]
        total = sum(raw)
        return GibbsContext.from_weights([x / total for x in raw], policy)
    energies = [rng.uniform(0.0, 2.0) for _ in range(d)]
    return GibbsContext.from_energies(energies, beta=1.0, policy=policy)


def random_distribution(n: int, seed, policy: NumericPolicy) -> list:
    rng = _rng(seed)
    raw = [_positive_unit(rng, policy) for _ in range(n)]
    total = sum(raw)
    return [x / total for x in raw]


def random_state(ctx: GibbsContext, seed) -> StateVector:
    return StateVector(tuple(random_distribution(ctx.dim, seed, ctx.policy)))


def random_cq(ctx: GibbsContext, n_branches: int, seed) -> CQState:
    rng = _rng(seed)
    masses = random_distribution(n_branches, rng, ctx.policy)
    cols = [
        StateVector(tuple(
            m * x for x in random_distribution(ctx.dim, rng, ctx.policy)
        ))
        for m in masses
    ]
    return canonicalize_cq(CQState(tuple(cols)), ctx.policy)


def random_gibbs_stochastic(ctx: GibbsContext, steps: int, seed) -> TOMatrix:
    """Product of random partial level thermalizations, optionally mixed with
    the full-thermalization map; exactly Gibbs-stochastic by construction.
    Thermalizing levels {i, j} with strength lam rewrites rows i and j only:
    row i <- k_i*row_i + a_i*row_j, a_i = lam*g_i/(g_i + g_j), k_i = 1 - lam + a_i."""
    rng = _rng(seed)
    policy = ctx.policy
    d = ctx.dim
    one, zero = policy.one(), policy.zero()
    t = [[one if i == j else zero for j in range(d)] for i in range(d)]
    for _ in range(steps):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        lam = _unit(rng, policy)
        g_i, g_j = ctx.gibbs[i], ctx.gibbs[j]
        a_i = lam * (g_i / (g_i + g_j))
        a_j = lam * (g_j / (g_i + g_j))
        k_i, k_j = (one - lam) + a_i, (one - lam) + a_j
        t[i], t[j] = ([k_i * x + a_i * y for x, y in zip(t[i], t[j])],
                      [a_j * x + k_j * y for x, y in zip(t[i], t[j])])
    if d >= 1 and rng.random() < 0.3:
        w = _unit(rng, policy)
        t = [[(one - w) * x + w * g for x in row] for row, g in zip(t, ctx.gibbs)]
    return TOMatrix(tuple(tuple(row) for row in t))


def random_cto(ctx: GibbsContext, n_in: int, n_out: int, seed) -> CTOPlan:
    """Random plan: renormalized-uniform control rows, random branch maps."""
    rng = _rng(seed)
    policy = ctx.policy
    control = tuple(
        tuple(random_distribution(n_out, rng, policy)) for _ in range(n_in)
    )
    branch_maps = {
        (x, y): random_gibbs_stochastic(ctx, rng.randint(0, 4), rng)
        for x in range(n_in)
        for y in range(n_out)
    }
    return CTOPlan(control=control, branch_maps=branch_maps)
