"""Generators and brute-force oracles used by the property suites."""

import hashlib
import operator
import random
from fractions import Fraction as F

import pytest

from ctoconv import (
    CQState,
    StateVector,
    apply_cto,
    check_cto,
    cli,
    testkit,
)
from ctoconv.core import TOMatrix
from ctoconv.errors import NotThermoMajorizing

from conftest import FLOATS, RATIONAL
import oracles


def _identity_rows(d, policy):
    one, zero = policy.one(), policy.zero()
    return [[one if i == j else zero for j in range(d)] for i in range(d)]


def _plt_rows(ctx, i, j, lam):
    """Dense partial level thermalization on levels {i, j} with strength lam."""
    g_i, g_j = ctx.gibbs[i], ctx.gibbs[j]
    block_i = g_i / (g_i + g_j)
    block_j = g_j / (g_i + g_j)
    one = ctx.policy.one()
    t = _identity_rows(ctx.dim, ctx.policy)
    t[i][i] = (one - lam) + lam * block_i
    t[j][i] = lam * block_j
    t[i][j] = lam * block_i
    t[j][j] = (one - lam) + lam * block_j
    return t


def _matmul(a, b):
    """Dense a @ b, each entry summed over every term, left to right from 0."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _dense_gibbs_stochastic(ctx, steps, seed):
    """Reference: `random_gibbs_stochastic` as a dense product of full
    d x d thermalization matrices, with the same draws in the same order."""
    rng = random.Random(seed)
    policy, d = ctx.policy, ctx.dim
    t = _identity_rows(d, policy)
    for _ in range(steps):
        if d < 2:
            break
        i, j = rng.sample(range(d), 2)
        lam = testkit._unit(rng, policy)
        t = _matmul(_plt_rows(ctx, i, j, lam), t)
    if d >= 1 and rng.random() < 0.3:
        w = testkit._unit(rng, policy)
        full = [[ctx.gibbs[i] for _ in range(d)] for i in range(d)]
        one = policy.one()
        t = [[(one - w) * t[i][j] + w * full[i][j] for j in range(d)]
             for i in range(d)]
    return t


def _exact_entries(rows):
    """Entries as comparable keys: floats by their bits, others by type and value."""
    return [[x.hex() if isinstance(x, float) else (type(x), x) for x in row]
            for row in rows]


class TestRandomGibbsStochastic:
    def test_zero_steps_can_be_identity(self, skew2):
        # seed 0 draws no full-thermalization mix; zero steps leave identity
        t = testkit.random_gibbs_stochastic(skew2, 0, 0)
        assert t.t == TOMatrix.identity(2, RATIONAL).t

    def test_full_plt_thermalizes_pair(self, uniform2):
        rows = _plt_rows(uniform2, 0, 1, F(1))
        assert rows == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
        # seed 38 draws lam = 1 and no full-thermalization mix
        assert testkit.random_gibbs_stochastic(uniform2, 1, 38).t == \
            tuple(map(tuple, rows))

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_equals_dense_product(self, policy):
        """Two-row updates give the dense product's entries exactly: floats
        bit for bit, Fractions by type and value."""
        rng = random.Random(2024)
        for _ in range(300):
            ctx = testkit.random_context(rng.randint(1, 24), rng.randrange(10**6), policy)
            steps, seed = rng.randint(0, 10), rng.randrange(10**6)
            got = testkit.random_gibbs_stochastic(ctx, steps, seed).t
            assert _exact_entries(got) == \
                _exact_entries(_dense_gibbs_stochastic(ctx, steps, seed))

    def test_console_instance_is_pinned(self, capsys):
        """The generator's output, through `ctoconv random`, is fixed: a change
        to it would silently change every seeded instance set."""
        cli.main(["random", "--mode", "rational", "--d", "6", "--l", "3",
                  "--m", "3", "--seed", "5"])
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == \
            "31bd6e84c2077305791a1a050e4b9216a33e2a4a7d4ed265b2f80af8a860ecd7"

    def test_always_valid(self, skew2):
        for seed in range(20):
            testkit.random_gibbs_stochastic(skew2, 4, seed).validate(skew2)

    def test_float_mode_valid(self):
        ctx = testkit.random_context(4, 3, FLOATS)
        for seed in range(10):
            testkit.random_gibbs_stochastic(ctx, 4, seed).validate(ctx)


class TestRandomCto:
    def test_single_branch_wrapper(self, skew2):
        plan = testkit.random_cto(skew2, 1, 1, 0)
        assert plan.n_in == plan.n_out == 1
        assert plan.control == ((F(1),),)
        plan.validate(skew2)

    def test_always_valid(self, skew2):
        for seed in range(10):
            testkit.random_cto(skew2, 2, 3, seed).validate(skew2)

    def test_seed_determinism(self, skew2):
        a = testkit.random_cto(skew2, 2, 2, 42)
        b = testkit.random_cto(skew2, 2, 2, 42)
        assert a.control == b.control
        assert {k: t.t for k, t in a.branch_maps.items()} == \
            {k: t.t for k, t in b.branch_maps.items()}


class TestGenerators:
    def test_random_context_valid(self):
        for seed in range(5):
            ctx = testkit.random_context(4, seed, RATIONAL)
            assert sum(ctx.gibbs) == F(1)
            ctx_f = testkit.random_context(4, seed, FLOATS)
            assert sum(ctx_f.gibbs) == pytest.approx(1.0)

    def test_random_cq_valid(self, skew2):
        for seed in range(5):
            state = testkit.random_cq(skew2, 3, seed)
            state.validate(RATIONAL)
            assert state.total_mass == F(1)

    def test_random_witness_valid(self):
        for seed in range(10):
            oracles.random_witness(4, 3, seed, RATIONAL).validate(RATIONAL)
            oracles.random_witness(4, 3, seed, FLOATS).validate(FLOATS)

    def test_two_column_source(self, uniform2):
        u = StateVector((F(1), F(0)))
        src = oracles.two_column_source(u, F(1, 4), uniform2)
        assert src.columns[0].w == (F(1, 4), F(0))
        assert src.columns[1].w == (F(3, 8), F(3, 8))

    def test_two_column_source_extreme_weights(self, uniform2):
        u = StateVector((F(1), F(0)))
        # p = 1 drops the Gibbs column, p = 0 drops the u column
        assert oracles.two_column_source(u, F(1), uniform2).n_branches == 1
        assert oracles.two_column_source(u, F(0), uniform2).n_branches == 1


class TestPminGridOracle:
    def test_worked_instance(self, uniform2):
        u = StateVector((F(1), F(0)))
        v = StateVector((F(3, 4), F(1, 4)))
        step = F(1, 100)
        val = oracles.pmin_grid_oracle(u, v, uniform2, step)
        assert abs(val - F(1, 2)) <= step

    def test_bisect_matches_scan(self, uniform2):
        u = StateVector((F(1), F(0)))
        v = StateVector((F(3, 4), F(1, 4)))
        step = F(1, 50)
        scan = oracles.pmin_grid_oracle(u, v, uniform2, step)
        fast = oracles.pmin_grid_oracle(u, v, uniform2, step, bisect=True)
        assert scan == fast

    def test_gibbs_target(self, uniform2):
        u = StateVector((F(1), F(0)))
        g = StateVector(uniform2.gibbs)
        assert oracles.pmin_grid_oracle(u, g, uniform2, F(1, 10)) == 0

    def test_self_target(self, skew2):
        u = StateVector((F(1), F(0)))
        assert oracles.pmin_grid_oracle(u, u, skew2, F(1, 10)) == 1

    def test_requires_majorization(self, skew2):
        g = StateVector(skew2.gibbs)
        with pytest.raises(NotThermoMajorizing):
            oracles.pmin_grid_oracle(g, StateVector((F(1), F(0))), skew2,
                                     F(1, 10))


class TestReachableSample:
    def test_all_reachable(self, skew2):
        rng = random.Random(1)
        state = testkit.random_cq(skew2, 2, rng)
        for out in oracles.reachable_sample(state, skew2, 5, rng):
            assert check_cto(state, out, skew2).convertible

    def test_free_states_stay_free(self, skew2):
        g = skew2.gibbs
        state = CQState((
            StateVector(tuple(F(1, 2) * x for x in g)),
            StateVector(tuple(F(1, 2) * x for x in g)),
        ))
        for out in oracles.reachable_sample(state, skew2, 5, 3):
            for col in out.columns:
                cond = col.normalized()
                assert cond.w == g


class TestPerturbToInfeasible:
    def test_produces_nonconvertible_target(self, skew2):
        rng = random.Random(2)
        found = 0
        for _ in range(10):
            source = testkit.random_cq(skew2, 2, rng)
            target = oracles.perturb_to_infeasible(source, skew2, rng)
            if target is None:
                continue
            found += 1
            assert not check_cto(source, target, skew2).convertible
        assert found >= 5

    def test_maximal_source_returns_none(self, uniform2):
        # the sharpest source converts to every perturbation of itself
        source = CQState((StateVector((F(1), F(0))),))
        assert oracles.perturb_to_infeasible(source, uniform2, 0) is None
