"""Feasibility solver: statuses, self-verified points and Farkas certificates."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import LinearSystem, solve_feasibility
from ctoconv.errors import DimensionMismatch
from ctoconv.lp import (
    FEASIBLE,
    INFEASIBLE,
    _refine_exact,
    verify_certificate,
    verify_point,
)

from conftest import FLOATS, RATIONAL, scipy_feasible


def test_ragged_row_rejected():
    with pytest.raises(DimensionMismatch):
        LinearSystem(2, eq=(((1,), 1),))


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


def test_refine_exact_agrees_with_float():
    sys = LinearSystem(
        2, eq=(((1.0, 1.0), 1.0),), ineq=(((1.0, -1.0), 0.25),)
    )
    res = _refine_exact(sys, FLOATS)
    assert res.status == FEASIBLE
    assert verify_point(sys, res.point, FLOATS.eps_lp)

    bad = LinearSystem(1, ineq=(((1.0,), 1.0), ((-1.0,), 0.0)))
    res = _refine_exact(bad, FLOATS)
    assert res.status == INFEASIBLE
    assert verify_certificate(bad, res.certificate, FLOATS.eps_lp)


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
