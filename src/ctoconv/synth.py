"""Constructive side: explicit Gibbs-stochastic matrices and CTO plans.

Branch maps are built from the Lorenz embedding, with no search.  For a
target branch v mixed from sources u^x with coefficients c_x, the cells are
the segments of L[v] and T^x = B S E_x.  E_x[k][i] = |cell_k & I_i(u^x)| / g_i,
with I_i(u) level i's interval in u's Lorenz order, maps g to the cell
widths and u^x to its increments; row k stores only the levels whose
interval overlaps cell k, at most n + d - 1 entries for n cells.  A plan
puts each source and each target branch in Lorenz order once, and each
embedding is one walk along the grid and the intervals together, as both
increase in that order; the walk adds each piece's mass into
p = sum_x c_x E_x u^x as it places it.  S, a Hardy-Littlewood-Polya
sequence of at most n - 1 two-cell partial thermalizations, takes p to v's
increments q.  It needs the partial sums of p to dominate those of q with
equal totals, which is checked here (exactly in rational mode, within
eps_lp in float mode).
In rational mode the grid and level ends are integers over G and p, q over
one denominator, and each number a factor stores is one Fraction of them.
B[i][k] = |cell_k & I_i(v)| / |cell_k| maps the cells back to g and to v.
The grid points are ends of v's own level intervals (merging nearby bends
only joins cells), so level i lies in one cell k and row i of T is B[i][k]
times row k of S E_x.  Each factor is nonnegative and Gibbs-stochastic in
both modes, so no plan entry needs clamping.

A plan holds a map for each (x, y) with R[x][y] != 0, the pairs `apply_cto`
reads, and no other.  A map is kept as its factors (`TOMatrix.product`):
E_x's rows, and S and B, which branch y's sources share.  Applying one map
runs E_x, then the steps, then B; `apply_cto` in rational mode forms
sum_x R[x][y] E_x u^x on integers and runs branch y's steps and B once
(`core._exact_mix`).  Its dense rows `t`, which `canonicalize_cto`,
`validate` and the CLI plan file read, are built on demand.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .core import (CQState, CTOPlan, GibbsContext, NumericPolicy, StateVector,
                   TOMatrix, _check_entries, _exact_mix, canonicalize_cq)
from .errors import (DimensionMismatch, MassMismatch, NotConvertible,
                     NotStochasticSum, NotThermoMajorizing, ValidationError)
from .convert import Decision, check_cto
from .lorenz import _by_slope, build_lorenz, merged_bend_grid


def synthesize_to(u: StateVector, v: StateVector, ctx: GibbsContext) -> TOMatrix:
    """A Gibbs-stochastic matrix mapping u to v; needs u to thermo-majorize v."""
    policy = ctx.policy
    if u.dim != ctx.dim or v.dim != ctx.dim:
        raise DimensionMismatch("states do not match the context dimension")
    if not policy.close(u.mass, v.mass):
        raise MassMismatch(f"masses {u.mass} and {v.mass} differ")
    if u.mass == 0 and v.mass == 0:
        return TOMatrix.identity(ctx.dim, policy)
    try:
        (t,) = _branch_maps([_levels(u.normalized().validate(policy), ctx)],
                            [policy.one()], v.normalized(), ctx)
    except NotConvertible:
        raise NotThermoMajorizing("source does not thermo-majorize the target") from None
    return t


def synthesize_cto(source: CQState, target: CQState, ctx: GibbsContext,
                   decision: Decision | None = None) -> CTOPlan:
    """A plan realizing a convertible pair: control map plus used branch maps.

    A given decision's plan seed must be an ell x m row-stochastic matrix,
    and the source is checked with it (check_cto checks it otherwise).
    """
    policy = ctx.policy
    if source.dim != ctx.dim or target.dim != ctx.dim:
        raise DimensionMismatch("joint states do not match the context dimension")
    given = decision is not None
    if not given:
        decision = check_cto(source, target, ctx)  # validates both states
    if not decision.convertible:
        raise NotConvertible("pair is not convertible under CTO")
    control = decision.plan_seed
    ell, m, p = source.n_branches, target.n_branches, source.branch_masses
    if given:  # _branch_maps validates the target's columns
        source.validate(policy)
        if control is None or len(control) != ell or any(len(r) != m for r in control):
            raise ValidationError(f"plan seed is not an {ell} x {m} matrix")
        CTOPlan(control, {}).validate(ctx)  # nonnegative rows that sum to 1
    levels = [_levels(u, ctx) for u in source.columns]  # once per plan
    maps = {}
    for y in range(m):
        if not any(p[x] * control[x][y] > 0 for x in range(ell)):
            raise NotConvertible(f"target branch {y} receives no mass")
        support = [x for x in range(ell) if control[x][y] != 0]  # p[x] = 0 too
        ts = _branch_maps([levels[x] for x in support],
                          [control[x][y] for x in support],
                          target.columns[y], ctx)
        maps.update(((x, y), t) for x, t in zip(support, ts))
    return CTOPlan(control, maps)


def _branch_maps(sources, coeffs, target: StateVector, ctx: GibbsContext) -> list:
    """Gibbs-stochastic T_x = B S E_x with sum_x coeffs[x] T_x sources[x] = target.

    Sources come as `_levels` gives them; sources and target may be
    weighted, and the coefficients must carry the target's mass.  Raises
    NotConvertible when they cannot.  In rational mode the grid is L[v]'s
    integers over G, and p, q integers over den: c = a/b scales a source
    over D by den // (b D) * a."""
    policy, exact = ctx.policy, ctx.policy.exact
    by_slope = _by_slope(target.validate(policy), ctx)  # one sort, two uses
    curve = build_lorenz(target, ctx, by_slope)
    dq, cover_levels = _levels(target, ctx, by_slope)
    if exact:
        dens = [c.denominator * d for c, (d, _) in zip(coeffs, sources)]
        den = lcm(*dens, dq)
        coeffs = [den // d * c.numerator for c, d in zip(coeffs, dens)]
        grid, one, g = list(curve._ints[2]), den // dq, ctx._ints[1]
    else:
        grid, one, g = merged_bend_grid([curve], policy), policy.one(), ctx.gibbs
    n = len(grid) - 1
    widths = [grid[k + 1] - grid[k] for k in range(n)]
    p, q = [0 * one] * n, [0 * one] * n
    spreads = [_embedding(levels, grid, c, p, policy)
               for c, (_, levels) in zip(coeffs, sources)]
    cover = _embedding(cover_levels, grid, one, q, policy)
    steps = _transfers(p, q, widths, policy)
    home = [None] * ctx.dim  # level i -> (its cell k, B[i][k]), in level order
    for k, row in enumerate(cover):
        for i, x in row.items():  # rational: x = o / G_i, B[i][k] = Fraction(o, w_k)
            home[i] = (k, Fraction(x.numerator * (g[i] // x.denominator), widths[k])
                       if exact else x * g[i] / widths[k])
    return [TOMatrix.product(e, steps, home) for e in spreads]


def _levels(u: StateVector, ctx: GibbsContext, by_slope=None) -> tuple:
    """(D, levels): u's levels in Lorenz order as (i, lo, hi, g_i, u_i),
    [lo, hi] being level i's interval I_i(u), the partial sums of g in that
    order, the last ending at 1 (a float sum may stop short of it or pass
    it), and D = 1; by_slope is `_by_slope(u, ctx)` if the caller has it.
    In rational mode on its integers: lo, hi, G_i over G, and for u_i the
    slope key W_i (P // G_i) = (u_i / g_i) D / G, with D = W P."""
    slopes, order, ints = by_slope or _by_slope(u, ctx)
    if ints is None:
        g, w, den = ctx.gibbs, u.w, 1
        ends = list(accumulate([g[i] for i in order], initial=ctx.policy.zero()))
        ends[-1] = ctx.policy.one()
    else:  # the G_i sum to G
        big_g, g, big_w, _ = ints
        w, den = slopes, big_w * g[0] * ctx._ints[2][0]
        ends = list(accumulate([g[i] for i in order], initial=0))
    return den, [(i, lo, hi, g[i], w[i]) for i, lo, hi in zip(order, ends, ends[1:])]


def _embedding(levels, grid, c, p: list, policy: NumericPolicy) -> list:
    """Row k of E as {i: |cell_k & I_i| / g_i} over the levels i whose
    interval I_i overlaps cell k, at most n + d - 1 entries for n cells;
    adds c (E u)_k into p[k].  Levels come in Lorenz order (`_levels`), so
    their intervals and the grid are walked together: a level starts in
    the cell that holds its lower end and takes a piece of each cell that
    ends inside it.

    A level's pieces add up to one, so its last piece is one minus the
    others (zero if rounding makes them overshoot): in float mode
    |I_i| / g_i is off by ulp(lo) / g_i, which a tiny g_i makes large.  A
    level whose interval rounds away lies whole in the cell of its start.

    In rational mode on `_levels`' integers over G: a piece is an overlap o
    of G_i, its entry Fraction(o, G_i), adding o c w_i for `_branch_maps`' c.
    """
    exact, n = policy.exact, len(grid) - 1
    zero = 0 if exact else 0.0
    e, k = [{} for _ in range(n)], 0
    for i, lo, hi, gi, wi in levels:
        while k + 1 < n and grid[k + 1] <= lo:
            k += 1
        cw, rest = c * wi, gi if exact else 1.0
        while k + 1 < n and grid[k + 1] < hi:  # cell k ends inside I_i
            x = grid[k + 1] - max(lo, grid[k])
            x = x if exact else x / gi
            e[k][i] = Fraction(x, gi) if exact else x
            p[k] += x * cw
            rest -= x
            k += 1
        x = rest if rest > zero else zero  # rational: rest >= 0, the pieces are exact
        e[k][i] = Fraction(x, gi) if exact else x
        p[k] += x * cw
    return e


def _transfers(p, q, widths, policy: NumericPolicy) -> list:
    """Steps (j, k, 1 - lam, lam w_j/(w_j+w_k), lam w_k/(w_j+w_k)) whose
    product maps p to q and fixes the widths w, for q/w non-increasing.

    Each moves mass from the last cell where p exceeds q that has a later
    one where it falls short to the first such later one, closing one gap;
    lam <= 1 as q/w is sorted.  One walk from the right finds them: the
    cells still short to the right of j wait on a stack, the nearest on top.

    Scaling p and q together, or w, changes no test and no lam, so rational
    mode takes `_branch_maps`' integers and builds each step from them:
    lam = num / den, and lam w_j / (w_j + w_k) = delta w_j / den.
    """
    exact = policy.exact
    zero, one = (0, 1) if exact else (0.0, 1.0)
    gap = [a - b for a, b in zip(p, q)]
    acc = zero
    for r in gap:
        acc += r
        if not policy.leq(zero, acc, policy.eps_lp):
            raise NotConvertible("mixed source curve falls below the target curve")
    if not policy.close(acc, zero, policy.eps_lp):
        raise NotConvertible("control map does not carry the target branch's mass")
    steps, short = [], []
    for j in range(len(gap) - 1, -1, -1):
        if gap[j] < 0:
            short.append(j)
        while gap[j] > 0 and short:
            k = short[-1]
            wj, wk = widths[j], widths[k]
            den = (q[j] + gap[j]) * wk - (q[k] + gap[k]) * wj
            if gap[j] <= -gap[k]:
                delta, gap[j] = gap[j], zero
                gap[k] += delta
            else:
                delta, gap[k] = -gap[k], zero
                gap[j] -= delta
            if not gap[k] < 0:
                short.pop()
            if not den > 0:  # den > 0 and lam <= 1 hold exactly; these guard rounding
                continue
            num, ws = delta * (wj + wk), wj + wk
            if not exact:
                lam = min(one, num / den)
                steps.append((j, k, one - lam, lam * wj / ws, lam * wk / ws))
            elif num < den:
                steps.append((j, k, Fraction(den - num, den), Fraction(delta * wj, den),
                              Fraction(delta * wk, den)))
            else:
                steps.append((j, k, policy.zero(), Fraction(wj, ws), Fraction(wk, ws)))
    return steps


def apply_cto(plan: CTOPlan, state: CQState, ctx: GibbsContext) -> CQState:
    """Output branches: v^y = sum_x R[x][y] T^(x,y) u^x, then canonicalize.
    The state is checked first.  In rational mode a branch of synthesized
    maps is one integer pass (`core._exact_mix`); any other branch, one with
    a float included, sums its mapped columns, and a float output entry is
    refused: only a float control entry or map number can put one there."""
    if plan.n_in != state.n_branches:
        raise DimensionMismatch(
            f"plan expects {plan.n_in} source branches, state has "
            f"{state.n_branches}"
        )
    policy = ctx.policy
    state.validate(policy)
    d, exact = state.dim, policy.exact
    cols = []
    for y in range(plan.n_out):
        terms = []
        for x in range(plan.n_in):
            r = plan.control[x][y]
            if r == 0:
                continue
            t = plan.branch_maps.get((x, y))
            if t is None:
                raise ValidationError(
                    f"plan has no branch map for (x, y) = {(x, y)}, which its "
                    f"control uses")
            terms.append((r, t, state.columns[x]))
        acc = _exact_mix(terms) if exact and terms else None
        if acc is None:
            acc = [policy.zero()] * d
            for r, t, u in terms:
                acc = [a + r * b for a, b in zip(acc, t.apply(u).w)]
        if exact and any(isinstance(v, float) for v in acc):
            raise ValidationError(f"float entry in output branch {y} in rational "
                                  f"mode, from a float control entry or map number")
        cols.append(StateVector(tuple(acc)))
    return canonicalize_cq(CQState(tuple(cols)), policy)


def canonicalize_cto(terms, ctx: GibbsContext) -> CTOPlan:
    """Average an arbitrary indexed decomposition into the (x, y)-indexed form.

    terms: iterable of (sub-stochastic control part, TOMatrix) pairs whose
    control parts sum to a row-stochastic matrix.  Parts and maps are held
    to the entry rule: nonnegative, and no float in rational mode.
    """
    policy = ctx.policy
    terms = [(tuple(tuple(r) for r in part), t) for part, t in terms]
    if not terms:
        raise NotStochasticSum("empty decomposition")
    ell = len(terms[0][0])
    m = len(terms[0][0][0])
    d = ctx.dim
    total = [[policy.zero()] * m for _ in range(ell)]
    for part, t in terms:
        if len(part) != ell or any(len(r) != m for r in part):
            raise DimensionMismatch("ragged decomposition parts")
        if t.dim != d:
            raise DimensionMismatch("branch map dimension mismatch")
        for x in range(ell):
            _check_entries(part[x], policy, "sub-stochastic entry")
            for y in range(m):
                total[x][y] += part[x][y]
    for x in range(ell):
        if not policy.close(sum(total[x]), policy.one()):
            raise NotStochasticSum(
                f"row {x} of the summed control parts is not stochastic"
            )
    _check_entries((v for _, t in terms for row in t.t for v in row),
                   policy, "matrix entry")
    branch_maps = {}
    for x in range(ell):
        for y, r_xy in enumerate(total[x]):
            if r_xy == 0:
                continue
            acc = [[policy.zero()] * d for _ in range(d)]
            for part, t in terms:
                c = part[x][y]
                if c == 0:
                    continue
                for i, row in enumerate(t.t):
                    for j in range(d):
                        acc[i][j] += c * row[j]
            branch_maps[(x, y)] = TOMatrix(
                tuple(tuple(v / r_xy for v in row) for row in acc)
            )
    return CTOPlan(control=tuple(tuple(r) for r in total), branch_maps=branch_maps)
