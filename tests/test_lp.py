"""Feasibility solver: statuses, self-verified points and Farkas certificates."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import LinearSystem, lp, solve_feasibility
from ctoconv._kernels import _simplex_py
from ctoconv.errors import (DimensionMismatch, NumericBreakdown, SolveBudgetExceeded,
                            ValidationError)
from ctoconv.lp import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityResult,
    _refine_exact,
    verify_certificate,
    verify_point,
)

from conftest import FLOATS, RATIONAL, scipy_feasible
import oracles


def test_ragged_row_rejected():
    with pytest.raises(DimensionMismatch):
        LinearSystem(2, eq=(((1,), 1),))


@pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
def test_empty_system_is_feasible(policy):
    """No variables and no rows: feasible at the empty point.  One row
    0 >= 1 makes the same zero-variable system infeasible."""
    assert solve_feasibility(LinearSystem(0), policy) == FeasibilityResult(
        FEASIBLE, point=())
    res = solve_feasibility(LinearSystem(0, ineq=(((), 1),)), policy)
    assert res.status == INFEASIBLE


@pytest.mark.parametrize("ineq", [((1.0, -1.0), 0.25), ((1.0, 1.0), 0.5)],
                         ids=["feasible", "infeasible"])
def test_float_entry_refused_in_rational_mode(ineq):
    """A float in a rational system is refused typed where exact arithmetic
    first reads its denominator, whether or not the system is feasible."""
    sys_ = LinearSystem(2, eq=(((1.0, 1.0), 1.0),), ineq=(ineq,))
    with pytest.raises(ValidationError, match="float entry in rational mode"):
        solve_feasibility(sys_, RATIONAL)


def test_contradictory_bounds_infeasible():
    # x >= 1 and -x >= 0 cannot both hold for x >= 0
    sys = LinearSystem(1, ineq=(((F(1),), F(1)), ((F(-1),), F(0))))
    res = solve_feasibility(sys, RATIONAL)
    assert res.status == INFEASIBLE
    assert verify_certificate(sys, res.certificate, F(0))


def test_simplex_feasible():
    sys = LinearSystem(3, eq=(((F(1), F(1), F(1)), F(1)),))
    res = solve_feasibility(sys, RATIONAL)
    assert res.status == FEASIBLE
    assert sum(res.point) == F(1)
    assert all(x >= 0 for x in res.point)


def test_float_mode_matches_exact():
    sys_f = LinearSystem(
        2, eq=(((1.0, 1.0), 1.0),), ineq=(((1.0, -1.0), 0.25),)
    )
    res = solve_feasibility(sys_f, FLOATS)
    assert res.status == FEASIBLE
    assert verify_point(sys_f, res.point, FLOATS.eps_lp)
    assert all(type(x) is float for x in res.point)

    # x1 + x2 == 1 and x1 + x2 >= 2: the certificate holds built-in floats too
    bad = LinearSystem(2, eq=(((1.0, 1.0), 1.0),), ineq=(((1.0, 1.0), 2.0),))
    res = solve_feasibility(bad, FLOATS)
    assert res.status == INFEASIBLE
    assert verify_certificate(bad, res.certificate, FLOATS.eps_lp)
    y_eq, y_in = res.certificate
    assert all(type(v) is float for v in y_eq + y_in)


def test_rational_determinism():
    sys = LinearSystem(
        3,
        eq=(((F(1), F(1), F(1)), F(1)),),
        ineq=(((F(2), F(-1), F(0)), F(1, 3)),),
    )
    first = solve_feasibility(sys, RATIONAL)
    for _ in range(3):
        again = solve_feasibility(sys, RATIONAL)
        assert again == first


def test_negative_rhs_rows():
    # equality with negative right-hand side exercises the sign flip
    sys = LinearSystem(2, eq=(((F(-1), F(-1)), F(-1)),))
    res = solve_feasibility(sys, RATIONAL)
    assert res.status == FEASIBLE
    assert sum(res.point) == F(1)


def _fraction_runs(monkeypatch):
    """Spy on the kernel; the list collects one entry per Fraction-tableau run."""
    runs = []
    run = lp.run_simplex

    def spy(tab, *args):
        if isinstance(tab[0][-1], F):
            runs.append(len(tab))
        return run(tab, *args)

    monkeypatch.setattr(lp, "run_simplex", spy)
    return runs


def test_refine_exact_agrees_with_float(monkeypatch):
    """At a basis that answers, _refine_exact runs no Fraction kernel; at an
    empty basis it runs one from scratch, to the same verified answer."""
    runs = _fraction_runs(monkeypatch)
    sys = LinearSystem(
        2, eq=(((1.0, 1.0), 1.0),), ineq=(((1.0, -1.0), 0.25),)
    )
    # x >= 1 and -x >= 0; the basis holds x and row 1's artificial
    bad = LinearSystem(1, ineq=(((1.0,), 1.0), ((-1.0,), 0.0)))
    for basis, kernel_runs in (([0, 1], 0), ([], 1)):
        runs.clear()
        res = _refine_exact(sys, FLOATS, basis, True, [])
        assert res.status == FEASIBLE
        assert verify_point(sys, res.point, FLOATS.eps_lp)
        assert len(runs) == kernel_runs
    for basis, kernel_runs in (([0, 4], 0), ([], 1)):
        runs.clear()
        res = _refine_exact(bad, FLOATS, basis, False, [])
        assert res.status == INFEASIBLE
        assert verify_certificate(bad, res.certificate, FLOATS.eps_lp)
        assert len(runs) == kernel_runs


def test_refine_exact_judges_with_eps_lp():
    # x == 0.3 and x >= 0.1 + 0.2: infeasible by ~5.5e-17 in exact arithmetic,
    # feasible at the float path's tolerance, at the basis step (x and the
    # slack basic) and in the Fraction kernel run (empty basis) alike
    tight = LinearSystem(1, eq=(((1.0,), 0.3),), ineq=(((1.0,), 0.1 + 0.2),))
    assert solve_feasibility(tight, FLOATS).status == FEASIBLE
    for basis in ([0, 1], []):
        res = _refine_exact(tight, FLOATS, basis, True, [])
        assert res.status == FEASIBLE
        assert verify_point(tight, res.point, FLOATS.eps_lp)
        assert all(type(x) is float for x in res.point)

    # x1 + x2 == 1 and x1 + x2 >= 2 stays infeasible, with a certificate
    bad = LinearSystem(2, eq=(((1.0, 1.0), 1.0),), ineq=(((1.0, 1.0), 2.0),))
    res = _refine_exact(bad, FLOATS, [], False, [])
    assert res.status == INFEASIBLE
    assert verify_certificate(bad, res.certificate, FLOATS.eps_lp)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
def test_phase1_cost_row_is_dense_column_sums(monkeypatch, exact):
    policy = RATIONAL if exact else FLOATS
    starts = []
    run = lp.run_simplex

    def spy(tab, basis, eps, max_pivots, retire_from):
        starts.append(([list(row) for row in tab], retire_from))
        return run(tab, basis, eps, max_pivots, retire_from)

    monkeypatch.setattr(lp, "run_simplex", spy)
    for seed in range(40):
        sys = _random_system(seed, exact)
        starts.clear()
        solve_feasibility(sys, policy)
        tab, retire_from = starts[0]
        m = len(sys.eq) + len(sys.ineq)
        first_art = sys.n_vars + len(sys.ineq)
        # the first inequality-row artificial follows the eq-row artificials
        assert retire_from == first_art + len(sys.eq)
        for j in range(len(tab[0])):
            if first_art <= j < first_art + m:
                assert tab[m][j] == 0
            else:
                assert tab[m][j] == -sum(tab[r][j] for r in range(m))


def _random_system(seed, exact):
    """A small random system with equalities and inequalities of mixed sign."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    n_eq = rng.randint(0, 3)
    n_in = rng.randint(0, 5)

    def num():
        if exact:
            return F(rng.randint(-4, 4), rng.randint(1, 4))
        return rng.uniform(-2.0, 2.0)

    eq = tuple((tuple(num() for _ in range(n)), num()) for _ in range(n_eq))
    ineq = tuple((tuple(num() for _ in range(n)), num()) for _ in range(n_in))
    return LinearSystem(n, eq=eq, ineq=ineq)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_fuzz_against_oracle_exact(seed):
    sys = _random_system(seed, exact=True)
    res = solve_feasibility(sys, RATIONAL)
    assert (res.status == FEASIBLE) == scipy_feasible(sys)
    if res.status == FEASIBLE:
        assert verify_point(sys, res.point, F(0))
    else:
        assert verify_certificate(sys, res.certificate, F(0))


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_fuzz_against_oracle_float(seed):
    sys = _random_system(seed, exact=False)
    res = solve_feasibility(sys, FLOATS)
    if res.status == FEASIBLE:
        # a verified point is acceptable even when the system is marginally
        # infeasible exactly (the contract is eps_lp-tolerant)
        assert verify_point(sys, res.point, FLOATS.eps_lp)
    else:
        assert verify_certificate(sys, res.certificate, FLOATS.eps_lp)
        assert not scipy_feasible(sys)


def test_decision_lp_stress_large_instances():
    """End-to-end regression: larger random convertible instances once caused
    tableau corruption through near-tolerance pivots."""
    from ctoconv import NumericPolicy, check_cto, testkit
    from ctoconv.synth import apply_cto

    rng = random.Random(1)
    policy = NumericPolicy()
    for _ in range(40):
        ctx = testkit.random_context(rng.choice([3, 4, 5, 6]), rng, policy)
        source = testkit.random_cq(ctx, rng.choice([2, 3, 4]), rng)
        plan = testkit.random_cto(ctx, source.n_branches, rng.choice([2, 3, 4]), rng)
        target = apply_cto(plan, source, ctx)
        assert check_cto(source, target, ctx).convertible


def test_runs_without_numpy():
    """The package needs no numpy: a float and a rational check succeed with
    numpy blocked from import."""
    import ctoconv

    src = os.path.dirname(os.path.dirname(ctoconv.__file__))
    script = """
import sys
sys.modules["numpy"] = None
from fractions import Fraction as F
from ctoconv import CQState, GibbsContext, NumericPolicy, StateVector, check_cto
for policy, num in ((NumericPolicy(), float), (NumericPolicy(mode="rational"), F)):
    ctx = GibbsContext.from_weights((num(1) / 2, num(1) / 2), policy)
    source = CQState((StateVector((num(1), num(0))),))
    target = CQState((StateVector((num(3) / 4, num(1) / 4)),))
    assert check_cto(source, target, ctx).convertible
    assert not check_cto(target, source, ctx).convertible
"""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _count_swept(monkeypatch):
    """Spy on the pivot; the list collects the cells each pivot swept."""
    swept = []
    orig = _simplex_py._pivot

    def counting(*args):
        swept.append(orig(*args))
        return swept[-1]

    monkeypatch.setattr(_simplex_py, "_pivot", counting)
    return swept


@pytest.mark.parametrize("policy, num", [(RATIONAL, F), (FLOATS, float)])
def test_work_budget_bounds_pivots(monkeypatch, policy, num):
    """A solve may sweep as many cells as the budget holds, and reports them
    as its work; one cell short, it raises SolveBudgetExceeded, and float
    mode starts no exact re-solve."""
    swept = _count_swept(monkeypatch)

    def no_refine(*args):
        raise AssertionError("exact re-solve after a spent budget")

    system = LinearSystem(
        3,
        eq=(((num(1), num(1), num(1)), num(1)),),
        ineq=(((num(1), num(-1), num(0)), num(1) / 4),
              ((num(0), num(1), num(2)), num(1) / 2)),
    )
    res = solve_feasibility(system, policy)
    needed = sum(swept)
    assert res.status == FEASIBLE and res.work == needed
    # each pivot reads its row and column (9 + 4 cells) and rewrites some
    assert len(swept) >= 2 and all(13 < c <= 13 + 4 * 9 for c in swept)
    monkeypatch.setattr(lp, "_WORK_BUDGET", needed)
    assert solve_feasibility(system, policy).status == FEASIBLE
    monkeypatch.setattr(lp, "_WORK_BUDGET", needed - 1)
    monkeypatch.setattr(lp, "_refine_exact", no_refine)
    with pytest.raises(SolveBudgetExceeded) as info:
        solve_feasibility(system, policy)
    assert isinstance(info.value, NumericBreakdown)
    message = str(info.value)
    assert f"budget of {needed - 1} spent: {needed}" in message
    assert "3 rows" in message and "9 tableau columns" in message


def test_float_agrees_with_rational_on_tight_pairs(monkeypatch):
    """Reachable pairs at d=4 with l=m=6 and 8 are tight at s=1, and no mass
    is shaved off the target.  Built in Fractions and rounded to floats, the
    float decision must match the rational one without an exact re-solve."""
    from ctoconv import CQState, GibbsContext, StateVector, check_cto, testkit
    from ctoconv.synth import apply_cto

    refines = []
    orig = lp._refine_exact
    monkeypatch.setattr(lp, "_refine_exact",
                        lambda *args: refines.append(1) or orig(*args))

    def to_float(state):
        return CQState(tuple(StateVector(tuple(float(x) for x in c.w))
                             for c in state.columns))

    for k in (6, 8):
        rng = random.Random(k)
        for _ in range(10):
            ctx = testkit.random_context(4, rng, RATIONAL)
            source = testkit.random_cq(ctx, k, rng)
            target = apply_cto(testkit.random_cto(ctx, k, k, rng), source, ctx)
            assert check_cto(source, target, ctx).convertible
            fctx = GibbsContext.from_weights(tuple(float(g) for g in ctx.gibbs), FLOATS)
            refines.clear()  # every rational solve takes the exact step
            assert check_cto(to_float(source), to_float(target), fctx).convertible
            assert not refines


def test_exact_step_runs_once_per_rational_solve(monkeypatch):
    """Every rational answer comes from _refine_exact, called once per
    solve; a float solve whose tableau answer verifies never calls it."""
    calls = []
    orig = lp._refine_exact
    monkeypatch.setattr(lp, "_refine_exact",
                        lambda *args: calls.append(args[1]) or orig(*args))
    for seed in range(60):
        system = _random_system(seed, exact=True)
        calls.clear()
        res = solve_feasibility(system, RATIONAL)
        assert calls == [RATIONAL] and _exact_entries(res)
    sys_f = LinearSystem(2, eq=(((1.0, 1.0), 1.0),), ineq=(((1.0, -1.0), 0.25),))
    bad = LinearSystem(2, eq=(((1.0, 1.0), 1.0),), ineq=(((1.0, 1.0), 2.0),))
    calls.clear()
    assert solve_feasibility(sys_f, FLOATS).status == FEASIBLE
    assert solve_feasibility(bad, FLOATS).status == INFEASIBLE
    assert calls == []


def _exact_entries(res):
    """Every number of a result, which must all be Fractions."""
    nums = res.point if res.status == FEASIBLE else res.certificate[0] + res.certificate[1]
    return all(type(x) is F for x in nums)


def test_unrepresentable_float_image_solves_exactly(monkeypatch):
    """An entry beyond the float range sends the system straight to the
    Fraction kernel, which answers it exactly."""
    runs = _fraction_runs(monkeypatch)
    big = F(10**400)
    sys = LinearSystem(2, eq=(((big, F(1)), big + 1),), ineq=(((F(0), F(1)), F(1)),))
    res = solve_feasibility(sys, RATIONAL)
    assert res.status == FEASIBLE
    assert verify_point(sys, res.point, F(0)) and _exact_entries(res)
    bad = LinearSystem(1, ineq=(((big,), big), ((-big,), F(0))))
    res = solve_feasibility(bad, RATIONAL)
    assert res.status == INFEASIBLE
    assert verify_certificate(bad, res.certificate, F(0)) and _exact_entries(res)
    assert len(runs) == 2


def test_float_image_feasible_but_exactly_infeasible(monkeypatch):
    """x + y == 0 and x >= 1e-30 is feasible within float tolerance but not
    exactly: the basis answer fails verification at 0, and the Fraction
    kernel returns the exact certificate."""
    runs = _fraction_runs(monkeypatch)
    sys = LinearSystem(2, eq=(((F(1), F(1)), F(0)),),
                       ineq=(((F(1), F(0)), F(1, 10**30)),))
    res = solve_feasibility(sys, RATIONAL)
    assert res.status == INFEASIBLE
    assert verify_certificate(sys, res.certificate, F(0)) and _exact_entries(res)
    assert len(runs) == 1
    assert solve_feasibility(LinearSystem(2, eq=sys.eq, ineq=(((1.0, 0.0), 1e-30),)),
                             FLOATS).status == FEASIBLE


def test_fraction_kernel_budget_charges_each_cell(monkeypatch):
    """The Fraction kernel spends _FRACTION_CELL_COST budget units per swept
    cell: a solve sweeping c cells passes at c * cost and raises
    SolveBudgetExceeded one unit short.  A rational solve whose float image
    spends the budget raises at once, with no Fraction re-run."""
    swept = _count_swept(monkeypatch)
    runs = _fraction_runs(monkeypatch)
    big = F(10**400)  # no float image: the Fraction kernel runs alone
    system = LinearSystem(
        3,
        eq=(((big, big, big), big),),
        ineq=(((F(1), F(-1), F(0)), F(1, 4)), ((F(0), F(1), F(2)), F(1, 2))),
    )
    res = solve_feasibility(system, RATIONAL)
    budget = sum(swept) * lp._FRACTION_CELL_COST
    assert res.status == FEASIBLE and res.work == budget
    assert len(swept) >= 2 and runs == [4]
    monkeypatch.setattr(lp, "_WORK_BUDGET", budget)
    assert solve_feasibility(system, RATIONAL).status == FEASIBLE
    monkeypatch.setattr(lp, "_WORK_BUDGET", budget - 1)
    with pytest.raises(SolveBudgetExceeded, match=f"spent: {budget} on"):
        solve_feasibility(system, RATIONAL)

    small = LinearSystem(3, eq=(((F(1), F(1), F(1)), F(1)),), ineq=system.ineq)
    runs.clear()
    swept.clear()
    monkeypatch.setattr(lp, "_WORK_BUDGET", 1)  # less than one float pivot
    with pytest.raises(SolveBudgetExceeded):
        solve_feasibility(small, RATIONAL)
    assert runs == [] and len(swept) == 1


def _assert_same_as_fraction_kernel(sys):
    """The float-image basis answer has the Fraction kernel's status, holds
    only Fractions, and verifies at tolerance 0."""
    res = solve_feasibility(sys, RATIONAL)
    # an empty basis answers nothing, so the exact step runs the Fraction
    # kernel from scratch
    assert res.status == lp._refine_exact(sys, RATIONAL, [], False, []).status
    assert _exact_entries(res)
    if res.status == FEASIBLE:
        assert verify_point(sys, res.point, F(0))
    else:
        assert verify_certificate(sys, res.certificate, F(0))


def test_basis_answer_matches_fraction_kernel_on_random_systems():
    for seed in range(240):
        _assert_same_as_fraction_kernel(_random_system(seed, exact=True))


def test_basis_answer_matches_fraction_kernel_on_boundary_pairs(monkeypatch):
    """The decision LPs on both sides of the convertibility boundary: each
    source against itself (feasible, every row tight) and against the first
    unreachable target of a 40-step walk toward the pure state.  The phi
    screen is bypassed, so every refusal comes from an LP, and every pair
    the screen would refuse ends in an infeasible LP."""
    from ctoconv import check_cto, convert, testkit

    systems = []
    calls = []  # per check_cto call: the screen's answer, then each LP's status
    screen, solve = convert._phi_screen, convert.solve_feasibility

    def bypass(*args):
        calls.append([screen(*args)])
        return None

    def spy(sys, policy):
        systems.append(sys)
        res = solve(sys, policy)
        calls[-1].append(res.status)
        return res

    monkeypatch.setattr(convert, "_phi_screen", bypass)
    monkeypatch.setattr(convert, "solve_feasibility", spy)
    rng = random.Random(5)
    for _ in range(40):
        ctx = testkit.random_context(rng.choice([3, 4, 5, 6]), rng, RATIONAL)
        source = testkit.random_cq(ctx, rng.choice([2, 3, 4]), rng)
        assert check_cto(source, source, ctx).convertible
        assert oracles.perturb_to_infeasible(source, ctx, rng, max_steps=40) is not None
    assert len(systems) >= 80
    for sys in systems:
        _assert_same_as_fraction_kernel(sys)
    screened = [call for call in calls if call[0] is not None]
    assert len(screened) >= 20
    assert all(not call[0].convertible and call[-1] == INFEASIBLE for call in screened)


def test_rational_decisions_run_no_fraction_tableau(monkeypatch):
    """Rational check_cto at the benchmark's exact-rational sizes and at
    d=10, l=m=6 answers from the float kernel's final basis: the kernel
    never runs on a Fraction tableau.  The phi screen is bypassed, so the
    refusals it would give run the LP too."""
    from ctoconv import check_cto, testkit
    from ctoconv.synth import apply_cto

    runs = _fraction_runs(monkeypatch)
    floats = []
    orig = lp.run_simplex
    monkeypatch.setattr(lp, "run_simplex",
                        lambda tab, *args: floats.append(1) or orig(tab, *args))
    sizes = [(3, 2, 2), (4, 2, 2), (3, 3, 3), (3, 4, 4), (4, 3, 3), (5, 2, 2),
             (6, 2, 2), (5, 3, 3), (4, 4, 4), (6, 3, 3), (6, 4, 4), (10, 6, 6)]
    screened = []
    with oracles.phi_screen_bypassed(screened):
        for seed in range(100):
            d, ell, m = sizes[seed % len(sizes)]
            rng = random.Random(seed)
            ctx = testkit.random_context(d, rng, RATIONAL)
            source = testkit.random_cq(ctx, ell, rng)
            if seed % 2:
                target = apply_cto(testkit.random_cto(ctx, ell, m, rng), source, ctx)
                assert check_cto(source, target, ctx).convertible
            else:
                assert oracles.perturb_to_infeasible(source, ctx, rng) is not None
    assert floats and not runs
    assert sum(s is not None for s in screened) >= 25


def _dense_verify_point(sys, point, eps):
    """Reference verifier: every product of every row, zeros included."""
    if len(point) != sys.n_vars or any(x < -eps for x in point):
        return False
    for row, b in sys.eq:
        if abs(sum(a * x for a, x in zip(row, point)) - b) > eps:
            return False
    return all(sum(a * x for a, x in zip(row, point)) >= b - eps
               for row, b in sys.ineq)


def _dense_verify_certificate(sys, certificate, eps):
    y_eq, y_in = certificate
    if len(y_eq) != len(sys.eq) or len(y_in) != len(sys.ineq):
        return False
    if any(y < -eps for y in y_in):
        return False
    for j in range(sys.n_vars):
        combo = sum(y * row[j] for y, (row, _) in zip(y_eq, sys.eq))
        combo += sum(y * row[j] for y, (row, _) in zip(y_in, sys.ineq))
        if combo > eps:
            return False
    gain = sum(y * b for y, (_, b) in zip(y_eq, sys.eq))
    gain += sum(y * b for y, (_, b) in zip(y_in, sys.ineq))
    return gain > eps


def _perturbed(values, deltas):
    """values with one entry moved by each delta, or set to zero, in turn."""
    for j, v in enumerate(values):
        for new in [v + dv for dv in deltas] + [0 * v]:
            yield values[:j] + (new,) + values[j + 1:]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
def test_sparse_verifiers_match_dense_reference(exact):
    """verify_point and verify_certificate skip zero coordinates, multipliers
    and row entries; on 240 random systems their verdict equals the dense
    reference's on each answer and on every one-entry perturbation of it."""
    policy = RATIONAL if exact else FLOATS
    eps = F(0) if exact else policy.eps_lp
    # moves at the float tolerance flip some verdicts and keep others
    deltas = (F(1, 3), F(-1, 5)) if exact else (0.5, -0.2, 2e-7, -2e-7, 5e-8)
    verdicts = []
    for seed in range(240):
        sys = _random_system(seed, exact)
        res = solve_feasibility(sys, policy)
        if res.status == FEASIBLE:
            cases = [(verify_point, _dense_verify_point, p)
                     for p in [res.point, *_perturbed(res.point, deltas)]]
        else:
            y_eq, y_in = res.certificate
            cases = [(verify_certificate, _dense_verify_certificate, c)
                     for c in [(y_eq, y_in)]
                     + [(e, y_in) for e in _perturbed(y_eq, deltas)]
                     + [(y_eq, i) for i in _perturbed(y_in, deltas)]]
        for fast, dense, answer in cases:
            verdict = fast(sys, answer, eps)
            assert verdict == dense(sys, answer, eps), (seed, answer)
            verdicts.append(verdict)
    assert verdicts.count(True) > 200 and verdicts.count(False) > 200


def test_verifiers_reject_non_finite_entries():
    """NaN compares false with everything, so no tolerance test alone rejects
    it: a point or certificate with a NaN or infinite float entry fails."""
    nan, inf = float("nan"), float("inf")
    sys = LinearSystem(2, eq=(((1.0, 0.0), 1.0),))
    assert verify_point(sys, (1.0, 0.0), 1e-7)
    assert not verify_point(sys, (nan, nan), 1e-7)
    assert not verify_point(sys, (1.0, nan), 1e-7)
    assert not verify_point(sys, (1.0, inf), 1e-7)
    bad = LinearSystem(1, ineq=(((1.0,), 1.0), ((-1.0,), 0.0)))
    assert verify_certificate(bad, ((), (1.0, 1.0)), 1e-7)
    assert not verify_certificate(bad, ((), (1.0, nan)), 1e-7)
    assert not verify_certificate(bad, ((), (nan, nan)), 1e-7)
    both = LinearSystem(1, eq=(((1.0,), 0.0),), ineq=bad.ineq)
    assert not verify_certificate(both, ((nan,), (1.0, 1.0)), 1e-7)
