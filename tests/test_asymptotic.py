"""Free-energy functionals and asymptotic interconversion rates."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import (
    CQState,
    GibbsContext,
    StateVector,
    apply_cto,
    asymptotic_rate,
    free_energy,
    resource_value,
    testkit,
)
from ctoconv.asymptotic import gibbs_free_energy
from ctoconv.errors import DimensionMismatch, FreeTarget, NotNormalized

from conftest import FLOATS, RATIONAL


def _trivial_h(d=2):
    return GibbsContext.from_energies([0.0] * d, beta=1.0)


class TestFreeEnergy:
    def test_gibbs_state_value(self):
        ctx = GibbsContext.from_energies((0.0, 1.0, 0.5), beta=2.0)
        g = StateVector(ctx.gibbs)
        assert free_energy(g, ctx) == pytest.approx(gibbs_free_energy(ctx))

    def test_pure_state_trivial_hamiltonian(self):
        ctx = _trivial_h()
        assert free_energy(StateVector((1.0, 0.0)), ctx) == pytest.approx(0.0)

    def test_mixed_state_trivial_hamiltonian(self):
        ctx = _trivial_h()
        val = free_energy(StateVector((0.75, 0.25)), ctx)
        assert val == pytest.approx(0.75 * math.log(0.75)
                                    + 0.25 * math.log(0.25))
        assert val == pytest.approx(-0.5623, abs=5e-5)

    def test_requires_normalization(self):
        ctx = _trivial_h()
        with pytest.raises(NotNormalized):
            free_energy(StateVector((0.5, 0.25)), ctx)

    def test_state_of_another_dimension_rejected(self):
        """zip would cut the 3-level state to the 2-level context."""
        ctx = GibbsContext.from_energies((0.0, 1.0))
        u = StateVector((0.5, 0.3, 0.2))
        with pytest.raises(DimensionMismatch):
            free_energy(u, ctx)
        with pytest.raises(DimensionMismatch):
            resource_value(CQState((u,)), ctx)
        with pytest.raises(DimensionMismatch):
            asymptotic_rate(CQState((u,)), CQState((StateVector((0.7, 0.3)),)), ctx)

    def test_zero_component_handled(self):
        ctx = GibbsContext.from_energies((0.0, 1.0), beta=1.0)
        val = free_energy(StateVector((1.0, 0.0)), ctx)
        assert val == pytest.approx(0.0)  # E_0 = 0, ln 1 = 0


class TestResourceValue:
    def test_free_states_score_zero(self, skew2):
        g = skew2.gibbs
        state = CQState((
            StateVector(tuple(F(1, 3) * x for x in g)),
            StateVector(tuple(F(2, 3) * x for x in g)),
        ))
        assert resource_value(state, skew2) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_is_ln2(self):
        ctx = _trivial_h()
        state = CQState((StateVector((1.0, 0.0)),))
        assert resource_value(state, ctx) == pytest.approx(math.log(2))

    def test_mixed_state_value(self):
        ctx = _trivial_h()
        state = CQState((StateVector((0.75, 0.25)),))
        assert resource_value(state, ctx) == pytest.approx(0.1308, abs=5e-5)

    def test_literal_form_available(self):
        ctx = _trivial_h()
        state = CQState((StateVector((1.0, 0.0)),))
        assert resource_value(state, ctx, relative=False) == pytest.approx(0.0)

    def test_weighted_additivity(self):
        ctx = _trivial_h()
        a = StateVector((0.9, 0.1))
        b = StateVector((0.6, 0.4))
        joint = CQState((a.scaled(0.3), b.scaled(0.7)))
        parts = (
            0.3 * resource_value(CQState((a,)), ctx)
            + 0.7 * resource_value(CQState((b,)), ctx)
        )
        assert resource_value(joint, ctx) == pytest.approx(parts, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_and_zero_only_on_free(self, seed):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 4), rng, FLOATS)
        state = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        val = resource_value(state, ctx)
        assert val >= -1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_monotone_under_plans(self, seed):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 4), rng, FLOATS)
        state = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        plan = testkit.random_cto(ctx, state.n_branches, rng.randint(1, 3), rng)
        out = apply_cto(plan, state, ctx)
        assert resource_value(out, ctx) <= resource_value(state, ctx) + 1e-9


class TestAsymptoticRate:
    def test_self_rate_is_one(self):
        ctx = _trivial_h()
        state = CQState((StateVector((0.8, 0.2)),))
        assert asymptotic_rate(state, state, ctx) == pytest.approx(1.0)

    def test_worked_ratio(self):
        ctx = _trivial_h()
        source = CQState((StateVector((1.0, 0.0)),))
        target = CQState((StateVector((0.75, 0.25)),))
        assert asymptotic_rate(source, target, ctx) == pytest.approx(
            5.30, abs=0.01
        )

    def test_free_target_raises(self, skew2):
        g = skew2.gibbs
        source = CQState((StateVector((F(1), F(0))),))
        free = CQState((
            StateVector(tuple(F(1, 2) * x for x in g)),
            StateVector(tuple(F(1, 2) * x for x in g)),
        ))
        with pytest.raises(FreeTarget):
            asymptotic_rate(source, free, skew2)

    def test_free_source_rate_zero(self):
        ctx = _trivial_h()
        free = CQState((StateVector(ctx.gibbs),))
        target = CQState((StateVector((0.75, 0.25)),))
        assert asymptotic_rate(free, target, ctx) == 0.0
