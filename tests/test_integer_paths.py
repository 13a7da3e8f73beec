"""Rational hot paths on integer numerators against the Fraction formulas
they replace, kept here as oracles: the fraction-free basis solve, the exact
verifiers, the state checks on held integer forms, the grid rows over one
denominator, the row-generation scan, the witness functional summed by
parts, synthesis's levels, embedding and transfer steps over G, and rational
`apply_cto`'s one integer pass per target branch.  Answers must agree by
type, numerator and denominator (floats by their bits where the path is
shared).

Stdlib only: `PYTHONPATH=src python tests/test_integer_paths.py` runs every
test without pytest, as on an interpreter that has none.
"""

import math
import random
import sys
from bisect import insort
from fractions import Fraction as F
from itertools import accumulate

from ctoconv import (CQState, CTOPlan, Decision, GibbsContext, LinearSystem, NumericPolicy,
                     StateVector, TOMatrix, apply_cto, canonicalize_cto, check_cto, convert,
                     lp, synth, synthesize_cto, testkit, verify_witness)
from ctoconv.core import _check_entries, _exact_sum, vdot
from ctoconv.errors import ValidationError
from ctoconv.lorenz import (_by_slope, _int_grid, _int_rows, build_lorenz, cq_branch_curves,
                            merged_bend_grid)

import oracles

FLOATS = NumericPolicy()
RATIONAL = NumericPolicy(mode="rational")


def _same(a, b) -> bool:
    """Equal structure, Fractions by type, numerator and denominator and
    floats by their bits."""
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


# -- the Fraction formulas ------------------------------------------------------


def _fraction_gauss(a, b):
    """Gauss-Jordan elimination on Fractions, skipping zero entries."""
    k = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for c in range(k):
        p = next((i for i in range(c, k) if rows[i][c] != 0), None)
        if p is None:
            return None
        piv = F(rows[p][c])
        pr = [w / piv for w in rows[p]]
        rows[p], rows[c] = rows[c], pr
        for i, row in enumerate(rows):
            f = row[c]
            if i != c and f != 0:
                rows[i] = [u - f * w if w else u for u, w in zip(row, pr)]
    return [row[k] for row in rows]


def _fraction_verify_point(sys, point):
    if len(point) != sys.n_vars or any(x < 0 for x in point):
        return False
    support = [(j, x) for j, x in enumerate(point) if x]
    dot = lambda row: sum(a * x for j, x in support if (a := row[j]))  # noqa: E731
    return (all(dot(row) == b for row, b in sys.eq)
            and all(dot(row) >= b for row, b in sys.ineq))


def _fraction_verify_certificate(sys, certificate):
    y_eq, y_in = certificate
    if len(y_eq) != len(sys.eq) or len(y_in) != len(sys.ineq):
        return False
    if any(y < 0 for y in y_in):
        return False
    acc = [0] * sys.n_vars
    for y, (row, _) in zip(y_eq + y_in, sys.eq + sys.ineq):
        if y:
            for j, a in enumerate(row):
                if a:
                    acc[j] += y * a
    gain = sum(y * b for y, (_, b) in zip(y_eq + y_in, sys.eq + sys.ineq) if y)
    return all(c <= 0 for c in acc) and gain > 0


def _fraction_most_violated(col, cum_p, cum_q, y, pending):
    worst, pick = 0, None
    for i in pending:
        slack = sum(r * cum_p[i][x] for x, r in col) - cum_q[i][y]
        if slack < worst:
            worst, pick = slack, i
    return pick


def _fraction_check_cto(source, target, ctx, screen=True):
    """`check_cto` for ell, m >= 2 with the phi screen (unless `screen` is
    false) and the row-generation scan on Fractions."""
    policy = ctx.policy
    src_curves, tgt_curves = cq_branch_curves(source, ctx), cq_branch_curves(target, ctx)
    grid, cum_p, cum_q = convert._grid_values(src_curves, tgt_curves, policy)
    mix = [sum(row) for row in cum_p]
    # the phi screen: the row where sum_y L[v^y] most exceeds sum_x L[u^x], per i + 1
    gaps = [sum(q) - p for q, p in zip(cum_q, mix)]
    top = max(range(len(gaps)), key=lambda i: gaps[i] / (i + 1))  # first on ties
    if screen and gaps[top] > 0:
        n, m = len(cum_q), len(cum_q[0])
        col = [F(1, m * (top + 1)) if i <= top else F(0) for i in range(n)]
        return Decision(False, witness=convert.WitnessMatrix(tuple((v,) * m for v in col)))
    rows, left = [], []
    for y, curve in enumerate(tgt_curves):
        own = convert._own_rows(curve.bend_abscissae, grid)
        mass = cum_q[-1][y]
        top = max(own, key=lambda i: cum_q[i][y] - mass * mix[i])
        rows.append(sorted({top, own[-1]}))
        left.append([i for i in own if i not in rows[-1]])
    while True:
        decision, _ = convert._decide(cum_p, cum_q, policy, rows)
        if not decision.convertible:
            return decision
        added = False
        for y, pending in enumerate(left):
            col = [(x, r[y]) for x, r in enumerate(decision.plan_seed) if r[y]]
            i = _fraction_most_violated(col, cum_p, cum_q, y, pending)
            if i is not None:
                pending.remove(i)
                insort(rows[y], i)
                added = True
        if not added:
            return decision


def _increments_witness_value(witness, source, target, ctx):
    """The conversion functional on the curves' increments at every grid row."""
    _, cum_p, cum_q = convert._grid_values(cq_branch_curves(source, ctx),
                                           cq_branch_curves(target, ctx), ctx.policy)
    cols = list(zip(*witness.a))
    gain = sum(max(vdot(a, p) for a in cols) for p in zip(*oracles._increments(cum_p)))
    loss = sum(max(vdot(a, q) for a in cols) for q in zip(*oracles._increments(cum_q)))
    return gain - loss


def _fraction_embedding(levels, grid, c, p, policy):
    zero, one = policy.zero(), policy.one()
    n = len(grid) - 1
    e = [{} for _ in range(n)]
    k = 0
    for i, lo, hi, gi, wi in levels:
        while k + 1 < n and grid[k + 1] <= lo:
            k += 1
        cw, rest = c * wi, one
        while k + 1 < n and grid[k + 1] < hi:
            x = (grid[k + 1] - max(lo, grid[k])) / gi
            e[k][i] = x
            p[k] += x * cw
            rest -= x
            k += 1
        x = rest if rest > zero else zero
        e[k][i] = x
        p[k] += x * cw
    return e


def _fraction_transfers(p, q, widths, policy):
    zero, one = policy.zero(), policy.one()
    gap = [a - b for a, b in zip(p, q)]
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
            if den > 0:
                lam = min(one, delta * (wj + wk) / den)
                steps.append((j, k, one - lam, lam * wj / (wj + wk), lam * wk / (wj + wk)))
    return steps


def _fraction_checked_mass(u, policy):
    """`StateVector._checked_mass` in rational mode before the held form:
    the entry rule, then the mass as `_exact_sum`'s Fraction."""
    _check_entries(u.w, policy, "component")
    mass = _exact_sum(u.w)
    if not mass <= 1:
        raise ValidationError(f"state mass {mass} exceeds 1")
    return mass


def _fraction_rows(curves, xs):
    """The curves' values at xs as Fractions (`LorenzCurve.values`), then put
    over one denominator as `_over_lcm_rows` did: (D, integer rows)."""
    return convert._over_lcm_rows(convert._rows_of(curves, xs))


def _fraction_levels(u, ctx):
    """`synth._levels` before its integer ends: (i, lo, hi, g_i, u_i) with
    the ends Fraction(S, G) in rational mode, partial sums in float mode."""
    g, w = ctx.gibbs, u.w
    _, order, ints = _by_slope(u, ctx)
    if ints is None:
        ends = list(accumulate([g[i] for i in order], initial=ctx.policy.zero()))
    else:
        big_g, gs = ints[0], ints[1]
        ends = [F(s, big_g) for s in accumulate([gs[i] for i in order], initial=0)]
    ends[-1] = ctx.policy.one()
    return [(i, lo, hi, g[i], w[i]) for i, lo, hi in zip(order, ends, ends[1:])]


def _fraction_exact_embedding(levels, grid, c, p):
    """`synth._embedding`'s rational walk before p and q were integers: the
    Fraction grid and `_fraction_levels` put over G, each cell's mass added
    into p as a Fraction."""
    n, big_g = len(grid) - 1, math.lcm(*[gi.denominator for _, _, _, gi, _ in levels])
    grid = [s.numerator * (big_g // s.denominator) for s in grid]
    walk = [(i, *[x.numerator * (big_g // x.denominator) for x in (lo, hi, gi)],
             c.numerator * wi.numerator, c.denominator * wi.denominator)
            for i, lo, hi, gi, wi in levels]
    den = math.lcm(*[vd * gi for _, _, _, gi, _, vd in walk])
    acc, e, k = [0] * n, [{} for _ in range(n)], 0
    for i, lo, hi, gi, vn, vd in walk:
        cw = vn * (den // (vd * gi))
        while k + 1 < n and grid[k + 1] <= lo:
            k += 1
        rest = gi
        while k + 1 < n and grid[k + 1] < hi:
            o = grid[k + 1] - max(lo, grid[k])
            e[k][i] = F(o, gi)
            acc[k] += o * cw
            rest -= o
            k += 1
        e[k][i] = F(rest, gi)
        acc[k] += rest * cw
    for k, a in enumerate(acc):
        if a:
            p[k] = p[k] + F(a, den) if p[k] else F(a, den)
    return e


def _fraction_factors(states, coeffs, target, ctx):
    """`synth._branch_maps`' factors on the Fraction path: E's rows per
    source, the steps and B's home, from `_fraction_levels` and the
    Fraction grid, `_fraction_exact_embedding` (rational) or
    `_fraction_embedding` (float), and `_fraction_transfers`."""
    policy = ctx.policy
    grid = merged_bend_grid([build_lorenz(target, ctx)], policy)
    n = len(grid) - 1
    widths = [grid[k + 1] - grid[k] for k in range(n)]
    p, q = [policy.zero()] * n, [policy.zero()] * n

    def embed(u, c, acc):
        if policy.exact:
            return _fraction_exact_embedding(_fraction_levels(u, ctx), grid, c, acc)
        return _fraction_embedding(_fraction_levels(u, ctx), grid, c, acc, policy)

    spreads = [embed(u, c, p) for c, u in zip(coeffs, states)]
    cover = embed(target, policy.one(), q)
    steps = _fraction_transfers(p, q, widths, policy)
    home = [None] * ctx.dim
    for k, row in enumerate(cover):
        for i, x in row.items():
            home[i] = (k, x * ctx.gibbs[i] / widths[k])
    return spreads, steps, home


def _dense_t(e, steps, home, d):
    """The rows of B S E from its factors, on dense rows of E."""
    rows = [[r.get(c, F(0)) for c in range(d)] for r in e]
    for j, k, keep, a, b in steps:
        s = [x + y for x, y in zip(rows[j], rows[k])]
        rows[j] = [keep * x + a * v for x, v in zip(rows[j], s)]
        rows[k] = [keep * y + b * v for y, v in zip(rows[k], s)]
    return tuple(tuple(bk * x for x in rows[k]) for k, bk in home)


def _check_plan(plan, source, target, ctx, dense=None):
    """Every used map's factors, and apply_cto's output, equal the Fraction
    path's, and so do the dense rows of the first `dense` maps per branch
    (all when None)."""
    for y, v in enumerate(target.columns):
        support = [x for x in range(plan.n_in) if plan.control[x][y] != 0]
        spreads, steps, home = _fraction_factors(
            [source.columns[x] for x in support], [plan.control[x][y] for x in support], v, ctx)
        for j, (x, e) in enumerate(zip(support, spreads)):
            t = plan.branch_maps[(x, y)]
            assert _same((t._e, t._steps, t._home), (e, steps, home)), (x, y)
            if ctx.policy.exact and (dense is None or j < dense):
                assert _same(t.t, _dense_t(e, steps, home, ctx.dim))
    if ctx.policy.exact:
        assert _same([c.w for c in apply_cto(plan, source, ctx).columns],
                     _fraction_apply_cto(plan, source))


def _fraction_apply_cto(plan, state):
    """`apply_cto`'s columns with each used map applied by itself and the
    mapped columns summed as Fractions, then rescaled as `canonicalize_cq`
    does: zero-mass columns dropped, the rest scaled by 1/total."""
    cols = []
    for y in range(plan.n_out):
        acc = [F(0)] * state.dim
        for x in range(plan.n_in):
            r = plan.control[x][y]
            if r != 0:
                mapped = plan.branch_maps[(x, y)].apply(state.columns[x])
                acc = [a + r * b for a, b in zip(acc, mapped.w)]
        if sum(acc) > 0:
            cols.append(acc)
    total = sum(sum(c) for c in cols)
    if total != 1:
        cols = [[F(1) / total * x for x in c] for c in cols]
    return [tuple(c) for c in cols]


def _integer_branches(plan, state, ctx) -> int:
    """Checks `apply_cto` against the Fraction sum; returns the number of
    output branches that took the integer pass (`core._exact_mix`)."""
    mix, taken = synth._exact_mix, []

    def spy(terms):
        out = mix(terms)
        taken.append(out is not None)
        return out

    synth._exact_mix = spy
    try:
        got = apply_cto(plan, state, ctx)
    finally:
        synth._exact_mix = mix
    assert _same([c.w for c in got.columns], _fraction_apply_cto(plan, state))
    return sum(taken)


# -- instances ----------------------------------------------------------------


def _pairs(policy, seed, count, sizes=((3, 2, 2), (4, 2, 3), (4, 3, 3), (5, 3, 2))):
    """(ctx, source, target) pairs: each reachable target, then the first
    unreachable one of a walk toward the pure state, when there is one."""
    rng = random.Random(seed)
    for n in range(count):
        d, ell, m = sizes[n % len(sizes)]
        ctx = testkit.random_context(d, rng, policy)
        source = testkit.random_cq(ctx, ell, rng)
        target = apply_cto(testkit.random_cto(ctx, ell, m, rng), source, ctx)
        yield ctx, source, target
        far = oracles.perturb_to_infeasible(source, ctx, rng)
        if far is not None:
            yield ctx, source, far


def _one_unit(values):
    """values with one entry's numerator moved by +-1, one entry at a time."""
    for j, v in enumerate(values):
        for dn in (1, -1):
            yield values[:j] + (F(v.numerator + dn, v.denominator),) + values[j + 1:]


# -- tests ----------------------------------------------------------------------


def test_gauss_matches_fraction_elimination():
    """Random systems up to 7 x 7 with zero entries, dependent rows (singular)
    and zero leading entries (row swaps): the same Fractions, or None."""
    rng = random.Random(0)
    singular = swapped = 0
    for _ in range(3000):
        k = rng.randint(0, 7)

        def num():
            r = rng.random()
            return (F(0) if r < 0.35 else rng.randint(-3, 3) if r < 0.45
                    else F(rng.randint(-20, 20), rng.randint(1, 30)))

        a = [[num() for _ in range(k)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.3:
            i, j = rng.sample(range(k), 2)
            c = F(rng.randint(-5, 5), rng.randint(1, 5))
            a[i] = [c * x for x in a[j]]
        if k >= 2 and rng.random() < 0.3:
            a[0][0] = F(0)
        b = [num() for _ in range(k)]
        want = _fraction_gauss(a, b)
        assert _same(lp._gauss(a, b), want), (a, b)
        singular += want is None
        swapped += k >= 2 and a[0][0] == 0 and want is not None
    assert singular > 500 and swapped > 100


def test_exact_verifiers_match_fraction_formulas():
    """At tolerance 0, on the decision LPs of random pairs (the phi screen
    bypassed) and on random systems: every answer, each one-unit move of one of its numerators, a
    zero multiplier vector (gain exactly 0) and a point on a tight row
    (slack exactly 0) get the Fraction formula's verdict."""
    systems = [_random_system(seed) for seed in range(150)]
    solve = convert.solve_feasibility
    convert.solve_feasibility = lambda sys, policy: systems.append(sys) or solve(sys, policy)
    try:
        with oracles.phi_screen_bypassed():  # every refusal from an LP
            for ctx, source, target in _pairs(RATIONAL, 1, 24):
                check_cto(source, target, ctx)
    finally:
        convert.solve_feasibility = solve
    verdicts, tight = [], 0
    for sys in systems:
        res = lp.solve_feasibility(sys, RATIONAL)
        if res.status == lp.FEASIBLE:
            point = res.point
            tight += any(sum(a * x for a, x in zip(row, point)) == b for row, b in sys.ineq)
            for p in (point, *_one_unit(point)):
                verdict = lp.verify_point(sys, p, F(0))
                assert verdict == _fraction_verify_point(sys, p), (sys, p)
                verdicts.append(verdict)
        else:
            y_eq, y_in = res.certificate
            zero = (tuple(F(0) for _ in y_eq), tuple(F(0) for _ in y_in))
            cases = [(y_eq, y_in), zero, *((e, y_in) for e in _one_unit(y_eq)),
                     *((y_eq, i) for i in _one_unit(y_in))]
            for cert in cases:
                verdict = lp.verify_certificate(sys, cert, 0)
                assert verdict == _fraction_verify_certificate(sys, cert), (sys, cert)
                verdicts.append(verdict)
            assert not lp.verify_certificate(sys, zero, 0)
    assert tight > 20 and verdicts.count(True) > 100 and verdicts.count(False) > 100


def _random_system(seed):
    rng = random.Random(seed)
    n, n_eq, n_in = rng.randint(1, 6), rng.randint(0, 3), rng.randint(0, 5)

    def row():
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))

    return LinearSystem(n, eq=tuple((row(), F(rng.randint(-4, 4), rng.randint(1, 4)))
                                    for _ in range(n_eq)),
                        ineq=tuple((row(), F(rng.randint(-4, 4), rng.randint(1, 4)))
                                   for _ in range(n_in)))


def test_rational_decisions_match_fraction_scan():
    """check_cto's scan on integers takes the rows, ties included, that the
    Fraction scan takes: the same decision, by type and value.  So does its
    phi screen, and with the screen bypassed every pair takes the scan."""
    seen, screened = set(), []
    for ctx, source, target in _pairs(RATIONAL, 2, 40, ((3, 2, 2), (4, 3, 3), (5, 3, 4),
                                                        (6, 4, 4), (4, 4, 2))):
        with oracles.phi_screen_bypassed(screened):
            scanned = check_cto(source, target, ctx)
        for got, screen in ((check_cto(source, target, ctx), True), (scanned, False)):
            want = _fraction_check_cto(source, target, ctx, screen)
            assert _same((got.convertible, got.plan_seed, got.witness and got.witness.a),
                         (want.convertible, want.plan_seed, want.witness and want.witness.a))
        seen.add(got.convertible)
    assert seen == {True, False} and any(s is not None for s in screened)


def test_witness_by_parts_matches_increments_form():
    """verify_witness equals the increments form exactly in rational mode and
    within 1e-12 in float mode, for certificate witnesses (a refusal's, and
    its LP's with the phi screen bypassed) and for random ones, whose
    columns step down at most rows."""
    n = 0
    for policy in (RATIONAL, FLOATS):
        rng = random.Random(3)
        for ctx, source, target in _pairs(policy, 3, 30):
            decision = check_cto(source, target, ctx)
            with oracles.phi_screen_bypassed():
                scanned = check_cto(source, target, ctx)
            rows = len(merged_bend_grid(cq_branch_curves(target, ctx), policy)) - 1
            witnesses = [oracles.random_witness(rows, target.n_branches, rng, policy)]
            if not decision.convertible:
                witnesses += [decision.witness, scanned.witness]
            for w in witnesses:
                got = verify_witness(w, source, target, ctx)
                want = _increments_witness_value(w, source, target, ctx)
                if policy.exact:
                    assert _same(got, want)
                else:
                    assert type(got) is float and abs(got - want) <= 1e-12 * max(1, abs(want))
                n += 1
    assert n > 150


def test_embedding_and_transfers_match_fraction_formulas():
    """For each target branch of random plans: the embedding's rows, the
    transfer steps and B, as `_branch_maps` keeps them in its factors, equal
    the Fraction formulas' by type and value in rational mode and by bits
    in float mode."""
    n_steps = 0
    for policy in (RATIONAL, FLOATS):
        rng = random.Random(4)
        for _ in range(60):
            ctx = testkit.random_context(rng.randint(2, 7), rng, policy)
            source = testkit.random_cq(ctx, rng.randint(1, 4), rng)
            plan = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 4), rng)
            target = apply_cto(plan, source, ctx)
            levels = [synth._levels(u, ctx) for u in source.columns]
            for y, v in enumerate(target.columns):
                coeffs = [plan.control[x][y] for x in range(len(levels))]
                maps = synth._branch_maps(levels, coeffs, v, ctx)
                spreads, steps, home = _fraction_factors(source.columns, coeffs, v, ctx)
                for t, e in zip(maps, spreads):
                    assert _same((t._e, t._steps, t._home), (e, steps, home))
                if policy.exact:  # the two Fraction embeddings agree
                    grid = merged_bend_grid([build_lorenz(v, ctx)], policy)
                    got_p = [policy.zero()] * (len(grid) - 1)
                    want_p = list(got_p)
                    for c, u in zip(coeffs, source.columns):
                        lv = _fraction_levels(u, ctx)
                        assert _same(_fraction_exact_embedding(lv, grid, c, got_p),
                                     _fraction_embedding(lv, grid, c, want_p, policy))
                    assert _same(got_p, want_p)
                n_steps += len(steps)
    assert n_steps > 300


def test_mass_checks_match_exact_sum():
    """`_checked_mass` on held integer forms gives `_exact_sum`'s mass or
    the same error and message, for valid states and for a float, a NaN, a
    negative int, a negative Fraction and mass over 1, whether or not the
    form was read before."""
    rng = random.Random(9)
    bad = {"float": 0.25, "nan": float("nan"), "negative int": -1, "negative": F(-1, 7)}
    outcomes = set()
    for n in range(400):
        d = rng.randint(1, 6)
        w = [F(rng.randint(0, 9), rng.randint(1, 12)) for _ in range(d)]
        total = sum(w)
        if n % 3 and total:  # normalized or sub-normalized; else often over 1
            w = [x / total * F(rng.randint(1, 4), 4) for x in w]
        if n % 5 == 0:
            kind = rng.choice(sorted(bad))
            w[rng.randrange(d)] = bad[kind]
        for read_first in (False, True):
            u = StateVector(tuple(w))
            if read_first:
                try:
                    u._ints
                except ValidationError:
                    pass
            got = want = None
            try:
                got = u._checked_mass(RATIONAL)
            except ValidationError as exc:
                got = (type(exc), str(exc))
            try:
                want = _fraction_checked_mass(u, RATIONAL)
            except ValidationError as exc:
                want = (type(exc), str(exc))
            assert _same(got, want), (w, got, want)
            outcomes.add(want[1].split()[0] if isinstance(want, tuple) else "mass")
    assert outcomes == {"mass", "float", "negative", "state"}, outcomes


def test_grid_rows_match_fraction_values():
    """`_int_grid` is the merged bend grid over G, and `_int_rows` gives the
    (D, integer rows) that the Fraction values put over one denominator
    give, at every grid point and at repeated and skipped ones."""
    rng = random.Random(10)
    for ctx, source, target in _pairs(RATIONAL, 10, 40, ((2, 1, 2), (4, 3, 3), (6, 2, 4),
                                                          (8, 4, 4))):
        for a, b in ((source, target), (target, source)):
            curves = cq_branch_curves(a, ctx)
            grid = _int_grid(curves)
            big_g = ctx._ints[0]
            assert _same([F(s, big_g) for s in grid], merged_bend_grid(curves, RATIONAL))
            xs = grid[1:]
            some = sorted(rng.choices(xs, k=rng.randint(1, len(xs))))
            for pts in (xs, some):
                fr = [F(s, big_g) for s in pts]
                for c in (curves, cq_branch_curves(b, ctx)):
                    assert _same(_int_rows(c, pts), _fraction_rows(c, fr))


def _kinds(seed):
    """A rational pair of each kind from one seed, d 2-8 and l,m 1-4:
    (kind, ctx, source, target, generating control or None)."""
    rng = random.Random(seed)
    d, ell, m = rng.randint(2, 8), rng.randint(1, 4), rng.randint(1, 4)
    ctx = testkit.random_context(d, rng, RATIONAL)
    source = testkit.random_cq(ctx, ell, rng)
    gen = testkit.random_cto(ctx, ell, m, rng)
    target = apply_cto(gen, source, ctx)
    other = testkit.random_cq(ctx, m, rng)
    return [("reachable", ctx, source, target, gen.control),
            ("reversed", ctx, target, source, None),
            ("unrelated", ctx, source, other, None),
            ("unrelated back", ctx, other, source, None)]


def _check_pair(ctx, source, target, control, dense=None):
    """The decision, a refusal's functional, and the plans from the decision
    and from the generating control, against the Fraction path (`dense` as
    in `_check_plan`); returns the decision."""
    decision = check_cto(source, target, ctx)
    if source.n_branches > 1 and target.n_branches > 1:
        want = _fraction_check_cto(source, target, ctx)
        assert _same((decision.convertible, decision.plan_seed,
                      decision.witness and decision.witness.a),
                     (want.convertible, want.plan_seed, want.witness and want.witness.a))
    if not decision.convertible:
        assert _same(verify_witness(decision.witness, source, target, ctx),
                     _increments_witness_value(decision.witness, source, target, ctx))
        return decision
    for seed_control in (decision.plan_seed, control):
        if seed_control is not None:
            plan = synthesize_cto(source, target, ctx, Decision(True, seed_control))
            _check_plan(plan, source, target, ctx, dense)
    return decision


def test_every_pair_kind_matches_the_fraction_path():
    """500 seeded pairs of each kind: reachable, reversed, and an unrelated
    random target in each direction, of which some pass the phi screen, so
    refusals that reach the LP are covered.  Decisions (l, m >= 2),
    witnesses, `verify_witness` values, plan factors, dense t and apply_cto
    output equal the Fraction path's by type, numerator and denominator."""
    screen, screened = convert._phi_screen, []
    convert._phi_screen = lambda *args: screened.append(screen(*args)) or screened[-1]
    counts, by_lp = {}, 0
    try:
        for seed in range(500):
            for kind, ctx, source, target, control in _kinds(seed):
                del screened[:]
                decision = _check_pair(ctx, source, target, control)
                counts[kind, decision.convertible] = counts.get((kind, decision.convertible), 0) + 1
                by_lp += not decision.convertible and screened == [None]
    finally:
        convert._phi_screen = screen
    for kind in ("reachable", "reversed", "unrelated", "unrelated back"):
        assert counts.get((kind, True), 0) + counts.get((kind, False), 0) == 500
    assert counts["reachable", True] == 500 and counts["reversed", False] > 200
    assert counts["unrelated", True] > 20 and by_lp > 20, (counts, by_lp)


def test_large_pairs_match_the_fraction_path():
    """d=24, l=m=12 and d=48, l=m=16: a reachable pair and its reverse,
    with the dense rows of one map per target branch at d=24."""
    for d, n, seed in ((24, 12, 1), (24, 12, 2), (48, 16, 1)):
        rng = random.Random(seed)
        ctx = testkit.random_context(d, rng, RATIONAL)
        source = testkit.random_cq(ctx, n, rng)
        gen = testkit.random_cto(ctx, n, n, rng)
        target = apply_cto(gen, source, ctx)
        dense = 1 if d == 24 else 0
        assert _check_pair(ctx, source, target, gen.control, dense).convertible
        assert not _check_pair(ctx, target, source, None).convertible


def test_plans_apply_exactly():
    """A rational plan built from the integer factors maps each source to
    its target exactly."""
    built = 0
    for ctx, source, target in _pairs(RATIONAL, 5, 12):
        decision = check_cto(source, target, ctx)
        if decision.convertible:
            reached = apply_cto(synth.synthesize_cto(source, target, ctx, decision),
                                source, ctx)
            assert [c.w for c in reached.columns] == [c.w for c in target.columns]
            built += 1
    assert built >= 12


def test_integer_apply_matches_fraction_sum():
    """check_cto -> synthesize_cto plans whose control leaves pairs unused,
    and plans with one source or one target branch: every branch takes the
    integer pass and equals the Fraction sum."""
    rng = random.Random(29)
    with_zeros = one_sided = 0
    while with_zeros < 200 or one_sided < 40:
        d, ell, m = rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 4)
        ctx = testkit.random_context(d, rng, RATIONAL)
        source = testkit.random_cq(ctx, ell, rng)
        target = apply_cto(testkit.random_cto(ctx, ell, m, rng), source, ctx)
        decision = check_cto(source, target, ctx)
        plan = synthesize_cto(source, target, ctx, decision)
        assert _integer_branches(plan, source, ctx) == m
        with_zeros += any(r == 0 for row in plan.control for r in row)
        one_sided += ell == 1 or m == 1


def test_integer_apply_on_edge_plans():
    """The zero-mass source column case, and two plans at d=24, l=m=12 made
    with the generating control."""
    ctx = GibbsContext.from_weights((F(1, 3), F(2, 3)), RATIONAL)
    source = CQState((StateVector((F(1), F(0))), StateVector((F(0), F(0)))))
    target = CQState((StateVector((F(1, 2), F(0))), StateVector((F(1, 6), F(1, 3)))))
    plan = synthesize_cto(source, target, ctx)
    assert plan.control[1][0] > 0 and _integer_branches(plan, source, ctx) == 2
    for seed in (1, 2):
        rng = random.Random(seed)
        ctx = testkit.random_context(24, rng, RATIONAL)
        source = testkit.random_cq(ctx, 12, rng)
        gen = testkit.random_cto(ctx, 12, 12, rng)
        target = apply_cto(gen, source, ctx)
        plan = synthesize_cto(source, target, ctx,
                              Decision(convertible=True, plan_seed=gen.control))
        assert _integer_branches(plan, source, ctx) == 12


def test_dense_and_mixed_branches_keep_the_fraction_sum():
    """Dense maps (`random_cto`, `canonicalize_cto`), and a branch that mixes
    a product map with a dense one, are applied map by map."""
    rng = random.Random(7)
    for _ in range(20):
        ctx = testkit.random_context(rng.randint(2, 5), rng, RATIONAL)
        ell, m = rng.randint(1, 3), rng.randint(1, 3)
        source = testkit.random_cq(ctx, ell, rng)
        plan = testkit.random_cto(ctx, ell, m, rng)
        assert _integer_branches(plan, source, ctx) == 0
        other = testkit.random_cto(ctx, ell, m, rng)
        half = [[r / 2 for r in row] for row in plan.control]
        terms = [(half, plan.branch_maps[(0, 0)]), (half, other.branch_maps[(0, 0)])]
        assert _integer_branches(canonicalize_cto(terms, ctx), source, ctx) == 0
        target = apply_cto(plan, source, ctx)
        synthesized = synthesize_cto(source, target, ctx,
                                     Decision(convertible=True, plan_seed=plan.control))
        maps = dict(synthesized.branch_maps)
        if ell > 1:  # one of branch 0's maps dense: that branch takes the Fraction sum
            maps[(0, 0)] = TOMatrix(maps[(0, 0)].t)
        mixed = CTOPlan(plan.control, maps)
        assert _integer_branches(mixed, source, ctx) == m - (ell > 1)
        assert apply_cto(mixed, source, ctx) == target


if __name__ == "__main__":
    tests = [(k, f) for k, f in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
