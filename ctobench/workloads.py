"""The four workloads: the fixed instance set each builds from a seed, the
program calls one operation makes, and the check applied to its output.

Instance sizes follow fixed schedules; the seed only draws the contents, so
every seed times the same mix of sizes.  "Yes" inputs come from applying a
random plan with the benchmark's own arithmetic, "no" inputs are labelled by
the HiGHS decision LP in `oracle`, and LP-free answers by oracle formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import ctoconv as api
from ctoconv import testkit

import oracle
from oracle import require

FLOAT = api.NumericPolicy()
RATIONAL = api.NumericPolicy(mode="rational")

_ATTEMPTS = 50  # draws allowed per labelled input before set-up gives up
# Float targets give up this share of their mass.  A reachable pair is tight
# at s = 1, so rounding in the benchmark's own plan arithmetic can leave it
# infeasible by ~1e-16 in exact arithmetic, and the program's exact fallback
# then answers "no" (CHANGES.md, FOUND).  The shrink keeps every float "yes"
# pair strictly feasible and well inside the 1e-9 mass tolerance.
_FLOAT_SHRINK = 1 - 1e-10


@dataclass
class Op:
    kind: str  # check | refute | synth | screen
    run: Callable[[], object]  # the timed program calls
    check: Callable[[object], None]  # raises oracle.CheckFailed on a wrong output


@dataclass
class Pair:
    ctx: api.GibbsContext
    source: api.CQState
    target: api.CQState
    control: tuple | None  # control map of the generating plan ("yes" pairs)
    g: list
    src_cols: list
    tgt_cols: list


def _cols(state) -> list:
    return [list(c.w) for c in state.columns]


def _cq(cols) -> api.CQState:
    return api.CQState(tuple(api.StateVector(tuple(c)) for c in cols))


def _unit(rng: random.Random, exact: bool):
    return Fraction(rng.randint(0, 48), 48) if exact else rng.random()


# -- pairs for the LP workloads ----------------------------------------------------


def _reachable(rng, d, ell, m, policy, shrink=1):
    """A random source and the image of a random plan applied to it."""
    ctx = testkit.random_context(d, rng, policy)
    source = testkit.random_cq(ctx, ell, rng)
    plan = testkit.random_cto(ctx, ell, m, rng)
    maps = {k: t.t for k, t in plan.branch_maps.items()}
    tgt_cols = oracle.apply_plan(plan.control, maps, _cols(source))
    tgt_cols = [[x * shrink for x in col] for col in tgt_cols]
    return Pair(ctx, source, _cq(tgt_cols), plan.control, list(ctx.gibbs),
                _cols(source), tgt_cols)


def yes_pair(rng, d, ell, m, policy) -> Pair:
    return _reachable(rng, d, ell, m, policy, 1 if policy.exact else _FLOAT_SHRINK)


def no_pair(rng, d, ell, m, policy) -> Pair:
    """A reachable pair run backwards, kept once HiGHS finds it infeasible
    by at least the label margin."""
    for _ in range(_ATTEMPTS):
        fwd = _reachable(rng, d, m, ell, policy)
        if oracle.feasibility_slack(fwd.tgt_cols, fwd.src_cols, fwd.g) < -oracle.LABEL_MARGIN:
            return Pair(fwd.ctx, fwd.target, fwd.source, None, fwd.g,
                        fwd.tgt_cols, fwd.src_cols)
    raise RuntimeError(f"no clearly infeasible pair at d={d}, l={ell}, m={m}")


def check_op(p: Pair) -> Op:
    def run():
        return api.check_cto(p.source, p.target, p.ctx)

    def check(dec):
        require(dec.convertible, "reachable pair judged not convertible")
        oracle.check_control(dec.plan_seed, p.src_cols, p.tgt_cols, p.g)

    return Op("check", run, check)


def refute_op(p: Pair) -> Op:
    def run():
        dec = api.check_cto(p.source, p.target, p.ctx)
        if dec.convertible:
            return dec, None
        return dec, api.verify_witness(dec.witness, p.source, p.target, p.ctx)

    def check(out):
        dec, value = out
        require(not dec.convertible, "infeasible pair judged convertible")
        omega = oracle.check_witness(dec.witness.a, p.src_cols, p.tgt_cols, p.g)
        require(oracle.close(value, omega, p.ctx.policy.exact, 1e-9),
                "verify_witness differs from the recomputed functional")

    return Op("refute", run, check)


def synth_op(p: Pair) -> Op:
    """synthesize_cto on the generating plan's control map, then apply_cto."""
    decision = api.Decision(convertible=True, plan_seed=p.control)

    def run():
        plan = api.synthesize_cto(p.source, p.target, p.ctx, decision)
        return plan, api.apply_cto(plan, p.source, p.ctx)

    def check(out):
        plan, applied = out
        require(plan.control == p.control, "plan changed the given control map")
        maps = {k: t.t for k, t in plan.branch_maps.items()}
        require(len(maps) == len(p.src_cols) * len(p.tgt_cols), "plan lacks a branch map")
        oracle.check_plan(plan.control, maps, p.src_cols, p.tgt_cols, p.g, _cols(applied))

    return Op("synth", run, check)


# -- LP-free queries ---------------------------------------------------------------


def _thermalize(v, g, steps, rng):
    """v after random two-level partial thermalizations; each step is
    Gibbs-stochastic, so the result is thermo-majorized by v."""
    exact = oracle.is_exact(g)
    v = list(v)
    for _ in range(steps):
        i, j = rng.sample(range(len(v)), 2)
        lam = _unit(rng, exact)
        pool = (v[i] + v[j]) / (g[i] + g[j])
        v[i] = (1 - lam) * v[i] + lam * g[i] * pool
        v[j] = (1 - lam) * v[j] + lam * g[j] * pool
    return v


def _label(gap, exact: bool):
    """True/False when the gap is clear of the tolerance band, else None."""
    if gap >= (0 if exact else -1e-12):
        return True
    if gap < -oracle.LABEL_MARGIN:
        return False
    return None


def _labelled(draw):
    for _ in range(_ATTEMPTS):
        args, gap = draw()
        want = _label(gap, oracle.is_exact([gap]))
        if want is not None:
            return args, want
    raise RuntimeError("no clearly labelled query drawn")


def _bool_op(name, args, want) -> Op:
    def run():
        return getattr(api, name)(*args)

    def check(got):
        require(got is want, f"{name} returned {got}, oracle says {want}")

    return Op("screen", run, check)


def thermo_query(rng, ctx, yes: bool) -> Op:
    g = list(ctx.gibbs)

    def draw():
        u = testkit.random_state(ctx, rng)
        v = api.StateVector(tuple(_thermalize(u.w, g, ctx.dim, rng))) if yes \
            else testkit.random_state(ctx, rng)
        return (u, v, ctx), oracle.majorization_gap(u.w, v.w, g)

    args, want = _labelled(draw)
    return _bool_op("thermo_majorizes", args, want)


def pmin_query(rng, ctx) -> Op:
    g = list(ctx.gibbs)
    u = testkit.random_state(ctx, rng)
    v = api.StateVector(tuple(_thermalize(u.w, g, ctx.dim, rng)))
    want = oracle.p_min(u.w, v.w, g)

    def run():
        return api.p_min(u, v, ctx)

    def check(got):
        ok = got == want if ctx.policy.exact else oracle.rel_close(got, want)
        require(ok, f"p_min {got} differs from {want}")

    return Op("screen", run, check)


def state_to_ensemble_query(rng, ctx, m, yes: bool) -> Op:
    g = list(ctx.gibbs)

    def draw():
        u = testkit.random_state(ctx, rng)
        if yes:
            share = testkit.random_distribution(m, rng, ctx.policy)
            target = _cq([[q * x for x in _thermalize(u.w, g, ctx.dim, rng)] for q in share])
        else:
            target = testkit.random_cq(ctx, m, rng)
        return (u, target, ctx), oracle.state_to_ensemble_gap(u.w, _cols(target), g)

    args, want = _labelled(draw)
    return _bool_op("check_state_to_ensemble", args, want)


def ensemble_to_state_query(rng, ctx, ell, yes: bool) -> Op:
    g = list(ctx.gibbs)

    def draw():
        source = testkit.random_cq(ctx, ell, rng)
        if yes:
            parts = [_thermalize(c, g, ctx.dim, rng) for c in _cols(source)]
            v = api.StateVector(tuple(sum(xs) for xs in zip(*parts)))
        else:
            v = testkit.random_state(ctx, rng)
        return (source, v, ctx), oracle.ensemble_to_state_gap(_cols(source), v.w, g)

    args, want = _labelled(draw)
    return _bool_op("check_ensemble_to_state", args, want)


def embed_query(rng, ctx, k) -> Op:
    states = [testkit.random_state(ctx, rng) for _ in range(k)]
    gaps, incs = oracle.embedding([s.w for s in states], list(ctx.gibbs))
    exact = ctx.policy.exact

    def run():
        return api.embed_states(states, ctx)

    def check(out):
        ctx2, vecs = out
        require(len(ctx2.gibbs) == len(gaps), "embedding grid has the wrong size")
        require(all(oracle.close(a, b, exact, 1e-9) for a, b in zip(ctx2.gibbs, gaps)),
                "embedding grid gaps differ")
        for vec, inc in zip(vecs, incs):
            require(all(oracle.close(a, b, exact, 1e-9) for a, b in zip(vec.w, inc)),
                    "embedded increments differ")

    return Op("screen", run, check)


def phi_query(rng, ctx, ell) -> Op:
    state = testkit.random_cq(ctx, ell, rng)
    g = list(ctx.gibbs)
    exact = ctx.policy.exact
    grid = oracle.subset_sum_grid(g) if ctx.dim <= 6 else [i / 64 for i in range(1, 65)]
    values = oracle.phi_values(_cols(state), g, grid)
    energy = oracle.relative_free_energy(_cols(state), g, ctx.beta)

    def run():
        return api.phi_monotones(state, ctx)

    def check(out):
        require(len(out.abscissae) == len(grid), "monotone grid has the wrong size")
        require(all(oracle.close(a, b, exact, 1e-12) for a, b in zip(out.abscissae, grid)),
                "monotone grid differs")
        require(all(oracle.close(a, b, exact, 1e-9) for a, b in zip(out.values, values)),
                "monotone values differ")
        require(oracle.rel_close(out.free_energy, energy), "free energy differs")

    return Op("screen", run, check)


def rate_query(rng, ctx, ell, m) -> Op:
    source = testkit.random_cq(ctx, ell, rng)
    target = testkit.random_cq(ctx, m, rng)
    g = list(ctx.gibbs)
    want = (oracle.relative_free_energy(_cols(source), g, ctx.beta)
            / oracle.relative_free_energy(_cols(target), g, ctx.beta))

    def run():
        return api.asymptotic_rate(source, target, ctx)

    def check(got):
        require(oracle.rel_close(got, want, 1e-8), f"rate {got} differs from {want}")

    return Op("screen", run, check)


# -- workload definitions ------------------------------------------------------------

# (d, l, m, copies) per size class; "tiny" is the self-test's scale.  The
# copies put many similar operations around the median and the 90th
# percentile and keep the largest sizes to a few instances each, so
# that the figures move little from seed to seed and no call dominates.
# decide-float leaves out d=4 with l=m=6 or 8: there the float kernel fails
# on about one reachable pair in twenty and the exact fallback then runs for
# 10-170 s (CHANGES.md, FOUND).
DECIDE_SIZES = {
    "full": [(4, 3, 3, 40), (5, 3, 3, 40), (6, 3, 3, 40), (4, 8, 3, 60), (5, 4, 4, 80),
             (6, 5, 3, 80), (8, 3, 3, 88), (6, 4, 4, 40), (5, 5, 5, 12), (4, 3, 8, 4),
             (10, 4, 3, 6), (12, 3, 3, 4), (8, 4, 4, 4)],
    "tiny": [(4, 3, 3, 1)],
}
SYNTH_SIZES = {
    "full": [(4, 2, 2, 200), (4, 2, 6, 100), (5, 2, 2, 120), (4, 3, 3, 120), (6, 2, 2, 20),
             (4, 4, 4, 8), (4, 6, 2, 8), (5, 3, 3, 4), (7, 2, 2, 4), (8, 2, 2, 2),
             (4, 6, 6, 2), (6, 3, 3, 2)],
    "tiny": [(3, 2, 2, 1)],
}
# (d, l, m, copies, with synthesis); rational synthesis beyond d=4, l,m=3
# takes up to seconds, so the larger classes only check and refute
RATIONAL_SIZES = {
    "full": [(3, 2, 2, 120, True), (4, 2, 2, 92, True), (3, 3, 3, 36, True),
             (3, 4, 4, 2, True), (4, 3, 3, 4, True), (5, 2, 2, 2, True),
             (6, 2, 2, 2, True), (5, 3, 3, 2, False), (4, 4, 4, 2, False),
             (6, 3, 3, 2, False), (6, 4, 4, 2, False)],
    "tiny": [(3, 2, 2, 1, True)],
}


def decide_float(rng, scale):
    ops = []
    for d, ell, m, copies in DECIDE_SIZES[scale]:
        for _ in range(copies):
            ops.append(check_op(yes_pair(rng, d, ell, m, FLOAT)))
            ops.append(refute_op(no_pair(rng, d, ell, m, FLOAT)))
    return ops


def synth_float(rng, scale):
    return [synth_op(yes_pair(rng, d, ell, m, FLOAT))
            for d, ell, m, copies in SYNTH_SIZES[scale] for _ in range(copies)]


def exact_rational(rng, scale):
    ops = []
    for d, ell, m, copies, with_synth in RATIONAL_SIZES[scale]:
        for _ in range(copies):
            yes = yes_pair(rng, d, ell, m, RATIONAL)
            ops += [check_op(yes), synth_op(yes)] if with_synth else [check_op(yes)]
            ops.append(refute_op(no_pair(rng, d, ell, m, RATIONAL)))
    return ops


# (mode, d) contexts with the queries drawn on each
SCREEN_DIMS = {
    "full": 3 * ([(FLOAT, d) for d in (8, 16, 24, 32, 48, 64, 96, 128, 192, 256)]
                 + [(RATIONAL, d) for d in (3, 4, 5, 6, 8, 12, 16)]),
    "tiny": [(FLOAT, 5), (RATIONAL, 4)],
}


def lorenz_screen(rng, scale):
    ops = []
    for policy, d in SCREEN_DIMS[scale]:
        ctx = testkit.random_context(d, rng, policy)
        for yes in (True, False):
            ops.append(thermo_query(rng, ctx, yes))
            ops.append(state_to_ensemble_query(rng, ctx, 3, yes))
            ops.append(ensemble_to_state_query(rng, ctx, 3, yes))
        ops.append(pmin_query(rng, ctx))
        ops.append(embed_query(rng, ctx, 3))
        ops.append(rate_query(rng, ctx, 3, 2))
        if not policy.exact or d <= 6:
            ops.append(phi_query(rng, ctx, 3))
    return ops


WORKLOADS = {
    "decide-float": decide_float,
    "synth-float": synth_float,
    "exact-rational": exact_rational,
    "lorenz-screen": lorenz_screen,
}


def build(name: str, seed: int, scale: str = "full") -> list:
    """The workload's operations for this seed, in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    ops = WORKLOADS[name](rng, scale)
    rng.shuffle(ops)
    return ops
