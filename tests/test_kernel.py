"""Simplex kernel: pricing that cannot cycle, the sparse pivot, pivot counts."""

import random
from fractions import Fraction as F

from ctoconv import check_cto, lp, solve_feasibility, testkit
from ctoconv._kernels import _simplex_py
from ctoconv._kernels._simplex_py import OPTIMAL, _pivot, run_simplex
from ctoconv.synth import apply_cto

from conftest import FLOATS, RATIONAL
import oracles
from test_lp import _random_system


def test_beale_cycling_lp_reaches_optimum():
    """Beale's (1955) LP, on which Dantzig pricing with a smallest-basic-index
    ratio tie-break cycles; the Bland fallback must reach the optimum -1/20."""
    tab = [
        [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0), F(0)],
        [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0), F(0)],
        [F(0), F(0), F(1), F(0), F(0), F(0), F(1), F(1)],
        [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0), F(0)],
    ]
    basis = [4, 5, 6]  # the slacks; columns 0..3 are x4..x7
    # retire_from at the rhs column: no column is retired
    status, swept = run_simplex(tab, basis, F(0), 10**6, len(tab[0]) - 1)
    assert status == OPTIMAL and 0 < swept < 10**4
    assert -tab[3][-1] == F(-1, 20)
    point = [F(0)] * 7
    for r, bv in enumerate(basis):
        point[bv] = tab[r][-1]
    assert point[:4] == [F(1, 25), F(0), F(1), F(0)]


def _dense_pivot(tab, basis, row, col):
    """The pivot over every column, as the kernel did before it skipped the
    zero columns of the pivot row."""
    pr = tab[row]
    piv = pr[col]
    if piv != 1:
        for j in range(len(pr)):
            pr[j] = pr[j] / piv
    for i, ri in enumerate(tab):
        if i == row:
            continue
        factor = ri[col]
        if factor != 0:
            for j in range(len(pr)):
                ri[j] = ri[j] - factor * pr[j]
            ri[col] = 0 * ri[col]
    basis[row] = col


def _random_tableau(rng, exact):
    m = rng.randint(1, 8)
    ncols = rng.randint(2, 14)

    def entry():
        if rng.random() < 0.6:
            return F(0) if exact else 0.0
        if exact:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.uniform(-3.0, 3.0)

    tab = [[entry() for _ in range(ncols)] for _ in range(m + 1)]
    row, col = rng.randrange(m), rng.randrange(ncols)
    if tab[row][col] == 0:
        tab[row][col] = F(rng.randint(1, 9), 7) if exact else rng.uniform(0.1, 3.0)
    if rng.random() < 0.2:
        tab[row][col] = F(1) if exact else 1.0
    basis = [rng.randrange(ncols) for _ in range(m)]
    return tab, basis, row, col


def test_pivot_matches_dense_reference():
    rng = random.Random(6)
    for exact in (False, True):
        for _ in range(300):
            tab, basis, row, col = _random_tableau(rng, exact)
            want_tab = [list(r) for r in tab]
            want_basis = list(basis)
            # cells swept: the pivot row and column, then the row's nonzero
            # columns in the pivot row unless its pivot is 1, and in every
            # other row with a nonzero entry in the pivot column
            nz = sum(1 for x in tab[row] if x != 0)
            rewritten = (tab[row][col] != 1) + sum(
                1 for i, r in enumerate(tab) if i != row and r[col] != 0)
            _dense_pivot(want_tab, want_basis, row, col)
            swept = _pivot(tab, basis, row, col, len(tab) - 1, len(tab[0]))
            assert swept == len(tab) + len(tab[0]) + nz * rewritten
            assert tab == want_tab
            assert basis == want_basis
            kind = F if exact else float
            assert all(type(x) is kind for r in tab for x in r)


def _count_pivots(monkeypatch):
    pivots = []
    orig = _simplex_py._pivot

    def counting(*args):
        pivots.append(args[2])
        return orig(*args)

    monkeypatch.setattr(_simplex_py, "_pivot", counting)
    return pivots


def test_pivot_count_guard(monkeypatch):
    """A float d=12, l=m=8 reachable pair decides in few pivots: 95 over the
    rounds of row generation, 109 with every own row in one LP, 132 with
    every artificial kept too, 565 with Bland's rule alone."""
    pivots = _count_pivots(monkeypatch)
    rng = random.Random(11)
    ctx = testkit.random_context(12, rng, FLOATS)
    source = testkit.random_cq(ctx, 8, rng)
    target = apply_cto(testkit.random_cto(ctx, 8, 8, rng), source, ctx)
    assert check_cto(source, target, ctx).convertible
    assert 0 < len(pivots) <= 200


def test_large_class_pivot_guard(monkeypatch):
    """Float d=24, l=m=12 pairs at seed 2 decide in few pivots: the reachable
    pair in 73 (333 with every own row in one LP, 496 with every artificial
    kept too), the perturbed unreachable one in 68 (264 and 1364) with the
    phi screen bypassed.  The screen refuses that pair in 0 pivots."""
    rng = random.Random(2)
    ctx = testkit.random_context(24, rng, FLOATS)
    source = testkit.random_cq(ctx, 12, rng)
    target = apply_cto(testkit.random_cto(ctx, 12, 12, rng), source, ctx)
    unreachable = oracles.perturb_to_infeasible(source, ctx, 2)
    pivots = _count_pivots(monkeypatch)
    assert check_cto(source, target, ctx).convertible
    assert 0 < len(pivots) <= 420
    pivots.clear()
    assert not check_cto(source, unreachable, ctx).convertible
    assert pivots == []
    screened = []
    with oracles.phi_screen_bypassed(screened):
        assert not check_cto(source, unreachable, ctx).convertible
    assert 0 < len(pivots) <= 800
    assert len(screened) == 1 and not screened[0].convertible


def test_left_artificials_stay_retired(monkeypatch):
    """No pivot enters an inequality-row artificial after it left the basis,
    and every such column is all zero, in the tableau's number type, when
    the kernel returns; over float and rational decisions, with the phi
    screen bypassed so that refusals run the LP too, and seeded random
    systems."""
    runs = []  # (retire_from, columns that left the basis) per kernel call
    retired = []
    run, pivot = lp.run_simplex, _simplex_py._pivot

    def kernel(tab, basis, eps, max_pivots, retire_from):
        runs.append((retire_from, set()))
        status = run(tab, basis, eps, max_pivots, retire_from)
        _, left = runs.pop()
        kind = type(tab[0][-1])
        for j in left:
            assert all(row[j] == 0 and type(row[j]) is kind for row in tab)
        retired.extend(left)
        return status

    def pivoting(tab, basis, row, col, m, ncols):
        retire_from, left = runs[-1]
        assert col not in left
        if basis[row] >= retire_from:
            left.add(basis[row])
        return pivot(tab, basis, row, col, m, ncols)

    monkeypatch.setattr(lp, "run_simplex", kernel)
    monkeypatch.setattr(_simplex_py, "_pivot", pivoting)
    for policy in (FLOATS, RATIONAL):
        rng = random.Random(8)
        with oracles.phi_screen_bypassed():
            for _ in range(6):
                ctx = testkit.random_context(rng.choice([3, 4, 5]), rng, policy)
                source = testkit.random_cq(ctx, rng.choice([2, 3, 4]), rng)
                target = apply_cto(testkit.random_cto(ctx, source.n_branches, 3, rng),
                                   source, ctx)
                assert check_cto(source, target, ctx).convertible
                unreachable = oracles.perturb_to_infeasible(source, ctx, rng)
                assert not check_cto(source, unreachable, ctx).convertible
        for seed in range(60):
            solve_feasibility(_random_system(seed, policy.exact), policy)
    assert retired
