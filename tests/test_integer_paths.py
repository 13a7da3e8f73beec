"""Rational hot paths on integer numerators against the Fraction formulas
they replace, kept here as oracles: the fraction-free basis solve, the exact
verifiers, the row-generation scan, the witness functional summed by parts,
synthesis's embedding and transfer steps, and rational `apply_cto`'s one
integer pass per target branch.  Answers must agree by type,
numerator and denominator (floats by their bits where the path is shared).

Stdlib only: `PYTHONPATH=src python tests/test_integer_paths.py` runs every
test without pytest, as on an interpreter that has none.
"""

import random
import sys
from bisect import insort
from fractions import Fraction as F

from ctoconv import (CQState, CTOPlan, Decision, GibbsContext, LinearSystem, NumericPolicy,
                     StateVector, TOMatrix, apply_cto, canonicalize_cto, check_cto, convert,
                     lp, synth, synthesize_cto, testkit, verify_witness)
from ctoconv.core import vdot
from ctoconv.lorenz import _by_slope, build_lorenz, cq_branch_curves, merged_bend_grid

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
        own = convert._own_rows(curve, grid)
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
    """For each target branch of random plans: the embedding's rows and its
    additions to p, and the transfer steps, equal the Fraction formulas' by
    type and value in rational mode and by bits in float mode."""
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
                by_slope = _by_slope(v, ctx.gibbs)
                grid = merged_bend_grid([build_lorenz(v, ctx, by_slope)], policy)
                n = len(grid) - 1
                widths = [grid[k + 1] - grid[k] for k in range(n)]
                sides = ([(plan.control[x][y], levels[x]) for x in range(len(levels))],
                         [(policy.one(), synth._levels(v, ctx, by_slope))])
                pq = []
                for groups in sides:  # the sources into p, then the target into q
                    got_p, want_p = [policy.zero()] * n, [policy.zero()] * n
                    for c, lv in groups:
                        got = synth._embedding(lv, grid, c, got_p, policy)
                        assert _same(got, _fraction_embedding(lv, grid, c, want_p, policy))
                    assert _same(got_p, want_p)
                    pq.append(want_p)
                want = _fraction_transfers(*pq, widths, policy)
                assert _same(synth._transfers(*pq, widths, policy), want)
                n_steps += len(want)
    assert n_steps > 300


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
