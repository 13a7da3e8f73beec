"""Constructive side: Gibbs-stochastic realizations, full plans, application."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import (
    CQState,
    CTOPlan,
    Decision,
    GibbsContext,
    StateVector,
    TOMatrix,
    apply_cto,
    canonicalize_cto,
    check_cto,
    synthesize_cto,
    synthesize_to,
    testkit,
)
from ctoconv import lp, synth
from ctoconv.core import vdot
from ctoconv.errors import (
    DimensionMismatch,
    MassMismatch,
    NotConvertible,
    NotStochasticSum,
    NotThermoMajorizing,
    ValidationError,
)

from ctoconv import lorenz
from ctoconv.lorenz import _by_slope, build_lorenz, merged_bend_grid

from conftest import FLOATS, RATIONAL
import oracles
from test_integer_paths import _fraction_embedding


def _max_err(a: CQState, b: CQState) -> float:
    assert a.n_branches == b.n_branches
    return max(
        abs(float(x) - float(y))
        for ca, cb in zip(a.columns, b.columns)
        for x, y in zip(ca.w, cb.w)
    )


class TestSynthesizeTo:
    def test_identity_case(self, skew2):
        u = StateVector((F(3, 5), F(2, 5)))
        t = synthesize_to(u, u, skew2)
        t.validate(skew2)
        assert t.apply(u).w == u.w

    def test_thermalization(self, skew2):
        u = StateVector((F(1), F(0)))
        g = StateVector(skew2.gibbs)
        t = synthesize_to(u, g, skew2)
        t.validate(skew2)
        assert t.apply(u).w == g.w

    def test_worked_uniform2(self, uniform2):
        u = StateVector((F(1), F(0)))
        v = StateVector((F(3, 4), F(1, 4)))
        t = synthesize_to(u, v, uniform2)
        t.validate(uniform2)
        assert t.apply(u).w == v.w

    def test_requires_majorization(self, uniform2):
        g = StateVector(uniform2.gibbs)
        with pytest.raises(NotThermoMajorizing):
            synthesize_to(g, StateVector((F(1), F(0))), uniform2)

    def test_unequal_masses_refused(self, uniform2):
        # once mapped u to (1/4, 1/4), not v; thermo_majorizes refuses too
        u = StateVector((F(1, 2), F(0)))
        v = StateVector((F(1, 2), F(1, 2)))
        with pytest.raises(MassMismatch):
            synthesize_to(u, v, uniform2)

    def test_scale_invariant_on_branches(self, skew2):
        u = StateVector((F(1, 2), F(0)))
        v = StateVector((F(3, 8), F(1, 8)))
        t = synthesize_to(u, v, skew2)
        t.validate(skew2)
        assert t.apply(u).w == v.w

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_reachable_targets(self, seed):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 4), rng, RATIONAL)
        u = testkit.random_state(ctx, rng)
        v = testkit.random_gibbs_stochastic(ctx, 3, rng).apply(u)
        t = synthesize_to(u, v, ctx)
        t.validate(ctx)
        assert t.apply(u).w == v.w


class TestSynthesizeCto:
    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_plan_holds_exactly_the_used_pairs(self, policy):
        """A plan has a branch map for each (x, y) with R[x][y] != 0 and no
        other, and it still applies to the target."""
        ctx = testkit.random_context(3, 5, policy)
        source = testkit.random_cq(ctx, 2, 5)
        one, zero = policy.one(), policy.zero()
        half = one / 2
        every = {(x, y) for x in range(2) for y in range(2)}
        for control, keys in [(((half, half), (half, half)), every),
                              (((one, zero), (half, half)), every - {(0, 1)})]:
            plan = CTOPlan(control, {(x, y): TOMatrix.identity(3, policy)
                                     for x in range(2) for y in range(2)})
            target = apply_cto(plan, source, ctx)
            out = synthesize_cto(source, target, ctx, Decision(True, plan_seed=control))
            assert set(out.branch_maps) == keys
            out.validate(ctx)
            got = apply_cto(out, source, ctx)
            assert [x for c in got.columns for x in c.w] == pytest.approx(
                [x for c in target.columns for x in c.w], abs=1e-12)

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_zero_mass_source_column_gets_its_used_map(self, policy):
        """A source column of zero mass still has a control row summing to 1;
        the plan holds a map wherever that row is nonzero, so it applies."""
        num = F if policy.exact else (lambda a, b=1: a / b)
        ctx = GibbsContext.from_weights((num(1, 3), num(2, 3)), policy)
        source = CQState((StateVector((num(1), num(0))), StateVector((num(0), num(0)))))
        target = CQState((StateVector((num(1, 2), num(0))),
                          StateVector((num(1, 6), num(1, 3)))))
        plan = synthesize_cto(source, target, ctx)
        plan.validate(ctx)
        assert set(plan.branch_maps) == {(x, y) for x in range(2) for y in range(2)
                                         if plan.control[x][y] != 0}
        assert (1, 0) in plan.branch_maps and plan.control[1][0] > 0
        got = apply_cto(plan, source, ctx)
        if policy.exact:
            assert plan.control == ((F(1, 2), F(1, 2)), (F(1), F(0)))
            assert got == target
        else:
            assert [x for c in got.columns for x in c.w] == pytest.approx(
                [x for c in target.columns for x in c.w], abs=1e-12)

    def test_self_plan(self, skew2):
        rng = random.Random(1)
        state = testkit.random_cq(skew2, 2, rng)
        plan = synthesize_cto(state, state, skew2)
        plan.validate(skew2)
        assert apply_cto(plan, state, skew2) == state

    def test_thermal_to_ground_plan(self, skew2):
        source = CQState((
            StateVector((F(2, 3), F(0))),
            StateVector((F(0), F(1, 3))),
        ))
        target = CQState((StateVector((F(1), F(0))),))
        plan = synthesize_cto(source, target, skew2)
        plan.validate(skew2)
        # single output branch: the control map is the all-ones column
        assert plan.control == ((F(1),), (F(1),))
        assert apply_cto(plan, source, skew2) == target

    def test_boundary_threshold_plan(self, uniform2):
        source = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        target = CQState((StateVector((F(3, 4), F(1, 4))),))
        plan = synthesize_cto(source, target, uniform2)
        plan.validate(uniform2)
        assert apply_cto(plan, source, uniform2) == target

    def test_not_convertible_raises(self, uniform2):
        u = StateVector((F(1), F(0)))
        source = oracles.two_column_source(u, F(2, 5), uniform2)
        target = CQState((StateVector((F(3, 4), F(1, 4))),))
        with pytest.raises(NotConvertible):
            synthesize_cto(source, target, uniform2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_rational(self, seed):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 3), rng, RATIONAL)
        source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        gen = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 3), rng)
        target = apply_cto(gen, source, ctx)
        plan = synthesize_cto(source, target, ctx)
        plan.validate(ctx)
        assert apply_cto(plan, source, ctx) == target

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_float(self, seed):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 4), rng, FLOATS)
        source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        gen = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 3), rng)
        target = apply_cto(gen, source, ctx)
        plan = synthesize_cto(source, target, ctx)
        plan.validate(ctx)
        assert _max_err(apply_cto(plan, source, ctx), target) <= FLOATS.eps_lp


class TestSynthesisWithoutLP:
    """Branch maps come from the Lorenz embedding: no LP runs, and a control
    map that cannot work is refused instead of yielding a wrong plan."""

    @pytest.fixture(autouse=True)
    def no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("synthesis ran an LP")

        monkeypatch.setattr(lp, "_solve", refuse)

    @staticmethod
    def _reachable(seed, policy, d_max):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, d_max), rng, policy)
        source = testkit.random_cq(ctx, rng.randint(1, 4), rng)
        gen = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 4), rng)
        return ctx, source, gen, rng

    def test_synthesize_to_both_modes(self):
        for seed in range(40):
            policy = RATIONAL if seed % 2 else FLOATS
            ctx, source, _, rng = self._reachable(seed, policy, 6)
            u = source.columns[0].normalized()
            v = testkit.random_gibbs_stochastic(ctx, 3, rng).apply(u)
            t = synthesize_to(u, v, ctx)
            t.validate(ctx)
            assert all(x >= 0 for row in t.t for x in row)
            if policy.exact:
                assert t.apply(u).w == v.w
            else:
                assert max(abs(a - b) for a, b in zip(t.apply(u).w, v.w)) <= 1e-12

    def test_rational_plans_are_exact(self):
        for seed in range(40):
            ctx, source, gen, _ = self._reachable(seed, RATIONAL, 5)
            target = apply_cto(gen, source, ctx)
            decision = Decision(convertible=True, plan_seed=gen.control)
            plan = synthesize_cto(source, target, ctx, decision)
            assert plan.control == gen.control
            plan.validate(ctx)
            assert apply_cto(plan, source, ctx) == target

    def test_float_plans_are_nonnegative(self):
        for seed in range(60):
            ctx, source, gen, _ = self._reachable(seed, FLOATS, 9)
            target = apply_cto(gen, source, ctx)
            decision = Decision(convertible=True, plan_seed=gen.control)
            plan = synthesize_cto(source, target, ctx, decision)
            plan.validate(ctx)
            for t in plan.branch_maps.values():
                assert all(x >= 0 for row in t.t for x in row)  # no tolerance
            assert _max_err(apply_cto(plan, source, ctx), target) <= 1e-12

    def test_branch_needs_the_mixture_of_two_sources(self):
        ctx = GibbsContext.from_weights((F(1, 3), F(1, 3), F(1, 3)), RATIONAL)
        u1 = StateVector((F(1, 2), F(1, 2), F(0)))
        u2 = StateVector((F(1, 6), F(2, 3), F(1, 6)))
        v = StateVector((F(13, 24), F(1, 3), F(1, 8)))
        for u in (u1, u2):
            with pytest.raises(NotThermoMajorizing):
                synthesize_to(u, v, ctx)
        source = CQState((u1.scaled(F(1, 2)), u2.scaled(F(1, 2))))
        target = CQState((v,))
        decision = Decision(convertible=True, plan_seed=((F(1),), (F(1),)))
        plan = synthesize_cto(source, target, ctx, decision)
        plan.validate(ctx)
        assert apply_cto(plan, source, ctx) == target
        ident = TOMatrix.identity(3, RATIONAL)
        assert all(plan.branch_maps[(x, 0)].t != ident.t for x in range(2))

    def test_control_that_cannot_work_is_refused(self, uniform2):
        state = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        # swaps the pure and the Gibbs branch: the Gibbs branch cannot
        # become pure
        swap = Decision(convertible=True, plan_seed=((F(0), F(1)), (F(1), F(0))))
        with pytest.raises(NotConvertible):
            synthesize_cto(state, state, uniform2, swap)

    def test_control_with_wrong_branch_mass_is_refused(self, uniform2):
        state = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        # row-stochastic, but branch 0 gets mass 3/4 where the target has 1/2
        skewed = Decision(convertible=True,
                          plan_seed=((F(1), F(0)), (F(1, 2), F(1, 2))))
        with pytest.raises(NotConvertible):
            synthesize_cto(state, state, uniform2, skewed)
        # row 1 sums to 2: branch 1 gets twice its mass, and the mixed curve
        # still lies above its target curve; the seed is no control map
        double = Decision(convertible=True, plan_seed=((F(1), F(0)), (F(0), F(2))))
        with pytest.raises(ValidationError):
            synthesize_cto(state, state, uniform2, double)

    def test_given_decision_validates_source_and_seed(self):
        ctx = GibbsContext.from_weights((0.5, 0.5), FLOATS)
        target = CQState((StateVector((0.5, 0.5)),))
        bad = CQState((StateVector((1.2, -0.2)),))
        with pytest.raises(ValidationError):
            synthesize_cto(bad, target, ctx, Decision(True, plan_seed=((1.0,),)))
        good = CQState((StateVector((1.0, 0.0)),))
        for seed in (None, ((1.0, 0.0),), ((1.0,), (1.0,)), ((-0.5,),), ((0.5,),)):
            with pytest.raises(ValidationError):
                synthesize_cto(good, target, ctx, Decision(True, plan_seed=seed))
        plan = synthesize_cto(good, target, ctx, Decision(True, plan_seed=((1.0,),)))
        assert plan.control == ((1.0,),)


class TestApplyCto:
    def test_identity_plan(self, skew2):
        rng = random.Random(3)
        state = testkit.random_cq(skew2, 2, rng)
        ident = TOMatrix.identity(2, RATIONAL)
        plan = CTOPlan(
            control=((F(1), F(0)), (F(0), F(1))),
            branch_maps={(x, y): ident for x in range(2) for y in range(2)},
        )
        assert apply_cto(plan, state, skew2) == state

    def test_free_state_control_marginal(self, skew2):
        g = skew2.gibbs
        p = (F(1, 4), F(3, 4))
        state = CQState(tuple(
            StateVector(tuple(px * x for x in g)) for px in p
        ))
        rng = random.Random(5)
        plan = testkit.random_cto(skew2, 2, 2, rng)
        out = apply_cto(plan, state, skew2)
        # output is g tensored with the updated control marginal p . R
        q = [sum(p[x] * plan.control[x][y] for x in range(2)) for y in range(2)]
        expected = CQState(tuple(
            StateVector(tuple(qy * x for x in g)) for qy in q
        ))
        assert out == expected

    def test_branch_count_check(self, skew2):
        state = CQState((StateVector((F(1), F(0))),))
        plan = CTOPlan(
            control=((F(1),), (F(1),)),
            branch_maps={},
        )
        with pytest.raises(DimensionMismatch):
            apply_cto(plan, state, skew2)

    def test_missing_branch_map_named(self, skew2):
        """A plan without a map its control uses passes validation, as a
        plan seed does, and apply_cto names the missing (x, y)."""
        state = CQState((StateVector((F(1), F(0))),))
        plan = CTOPlan(control=((F(1),),), branch_maps={}).validate(skew2)
        with pytest.raises(ValidationError, match=r"\(0, 0\)"):
            apply_cto(plan, state, skew2)

    def test_rational_mode_refuses_float_entries(self):
        """A float control entry, or a float in a map the control uses, is a
        ValidationError in rational mode, as in `CTOPlan.validate`; so is a
        float-mode synthesized map, applied by its factors."""
        ctx = GibbsContext.from_weights((F(1, 2), F(1, 2)), RATIONAL)
        state = CQState((StateVector((F(1, 4), F(3, 4))),))
        float_identity = TOMatrix(((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValidationError, match="float entry in output branch 0"):
            apply_cto(CTOPlan(((F(1),),), {(0, 0): float_identity}), state, ctx)
        ident = TOMatrix.identity(2, RATIONAL)
        with pytest.raises(ValidationError, match="float entry in output branch 0"):
            apply_cto(CTOPlan(((1.0,),), {(0, 0): ident}), state, ctx)
        fctx = GibbsContext.from_weights((0.5, 0.5), FLOATS)
        t = synthesize_to(StateVector((0.25, 0.75)), StateVector((0.5, 0.5)), fctx)
        with pytest.raises(ValidationError, match="float entry in output branch 0"):
            apply_cto(CTOPlan(((F(1),),), {(0, 0): t}), state, ctx)
        # a float-free plan still applies
        assert apply_cto(CTOPlan(((F(1),),), {(0, 0): ident}), state, ctx) == state

    @pytest.mark.parametrize("where", ["control", "E", "step", "B"])
    def test_rational_mode_refuses_a_float_factor(self, where):
        """A float control entry, or a float in E, in a step's a or in B of a
        synthesized rational plan whose branch still shares its steps and B,
        is refused with the dense path's message."""
        rng = random.Random(4)
        ctx = testkit.random_context(4, rng, RATIONAL)
        source = testkit.random_cq(ctx, 2, rng)
        gen = testkit.random_cto(ctx, 2, 2, rng)
        target = apply_cto(gen, source, ctx)
        plan = synthesize_cto(source, target, ctx, Decision(convertible=True,
                                                         plan_seed=gen.control))
        assert apply_cto(plan, source, ctx) == target
        maps, ts = dict(plan.branch_maps), [plan.branch_maps[(x, 1)] for x in range(2)]
        steps, home = ts[0]._steps, ts[0]._home
        assert steps and all(t._steps is steps and t._home is home for t in ts)
        if where == "step":
            at = next(n for n, s in enumerate(steps) if s[3])
            j, k, keep, a, b = steps[at]
            steps = steps[:at] + [(j, k, keep, float(a), b)] + steps[at + 1:]
        elif where == "B":
            k, b = home[0]
            home = [(k, float(b))] + home[1:]
        for x, t in enumerate(ts):
            e = t._e
            if where == "E" and x == 0:
                row = next(r for r in e if any(r.values()))
                c = next(c for c, v in row.items() if v)
                e = [{**r, c: float(r[c])} if r is row else r for r in e]
            maps[(x, 1)] = TOMatrix.product(e, steps, home)
        control = [list(row) for row in plan.control]
        if where == "control":
            control[0][1] = float(control[0][1])
        with pytest.raises(ValidationError, match="float entry in output branch 1 in "
                                                  "rational mode"):
            apply_cto(CTOPlan(control, maps), source, ctx)

    def test_output_is_canonical(self, skew2):
        rng = random.Random(7)
        state = testkit.random_cq(skew2, 2, rng)
        plan = testkit.random_cto(skew2, 2, 3, rng)
        out = apply_cto(plan, state, skew2)
        out.validate(RATIONAL)
        assert out.total_mass == F(1)


class TestCanonicalizeCto:
    def test_single_term(self, skew2):
        t = testkit.random_gibbs_stochastic(skew2, 2, random.Random(1))
        part = ((F(1, 2), F(1, 2)),)
        plan = canonicalize_cto([(part, t)], skew2)
        assert plan.control == part
        assert plan.branch_maps[(0, 0)].t == t.t
        assert plan.branch_maps[(0, 1)].t == t.t

    def test_disjoint_supports_pick_unique_term(self, skew2):
        rng = random.Random(2)
        t1 = testkit.random_gibbs_stochastic(skew2, 2, rng)
        t2 = testkit.random_gibbs_stochastic(skew2, 2, rng)
        terms = [
            (((F(2, 3), F(0)),), t1),
            (((F(0), F(1, 3)),), t2),
        ]
        plan = canonicalize_cto(terms, skew2)
        assert plan.control == ((F(2, 3), F(1, 3)),)
        assert plan.branch_maps[(0, 0)].t == t1.t
        assert plan.branch_maps[(0, 1)].t == t2.t

    def test_action_preserved(self, skew2):
        rng = random.Random(3)
        terms = []
        # three random sub-stochastic parts summing to a stochastic row pair
        weights = [
            testkit.random_distribution(3, rng, RATIONAL) for _ in range(2)
        ]
        for j in range(3):
            part = tuple(
                (w[j] * F(1, 2), w[j] * F(1, 2)) for w in weights
            )
            terms.append((part, testkit.random_gibbs_stochastic(skew2, 2, rng)))
        plan = canonicalize_cto(terms, skew2)
        plan.validate(skew2)
        for seed in range(10):
            state = testkit.random_cq(skew2, 2, seed)
            direct = [
                [F(0), F(0)] for _ in range(2)
            ]
            for part, t in terms:
                for x in range(2):
                    for y in range(2):
                        if part[x][y] == 0:
                            continue
                        mapped = t.apply(state.columns[x])
                        for i in range(2):
                            direct[y][i] += part[x][y] * mapped.w[i]
            expected = CQState(tuple(StateVector(tuple(col)) for col in direct))
            assert apply_cto(plan, state, skew2) == expected

    def test_zero_total_gets_no_map(self, skew2):
        t = testkit.random_gibbs_stochastic(skew2, 2, random.Random(4))
        plan = canonicalize_cto([(((F(1), F(0)),), t)], skew2)
        assert list(plan.branch_maps) == [(0, 0)]
        plan.validate(skew2)

    def test_nonstochastic_sum_rejected(self, skew2):
        t = TOMatrix.identity(2, RATIONAL)
        with pytest.raises(NotStochasticSum):
            canonicalize_cto([(((F(1, 2), F(1, 4)),), t)], skew2)
        with pytest.raises(NotStochasticSum):
            canonicalize_cto([], skew2)

    @pytest.mark.parametrize("case", ["float part", "float map", "negative map"])
    def test_entry_rule_on_parts_and_maps(self, skew2, case):
        """Parts and maps are held to the entry rule: a float, which would
        come back as a float entry of the exact plan, and a negative entry
        are refused."""
        ident = TOMatrix.identity(2, RATIONAL)
        terms, message = {
            "float part": ([(((0.5,),), ident), (((F(1, 2),),), ident)],
                           "float sub-stochastic entry 0.5 in rational mode"),
            "float map": ([(((F(1),),), TOMatrix(((1.0, 0.0), (0.0, 1.0))))],
                          "float matrix entry 1.0 in rational mode"),
            "negative map": ([(((F(1),),), TOMatrix(((F(3, 2), F(0)), (F(-1, 2), F(1)))))],
                             "negative matrix entry -1/2"),
        }[case]
        with pytest.raises(ValidationError, match=message):
            canonicalize_cto(terms, skew2)


def _dense_embedding(u, grid, ctx):
    """Reference E: every cell against every level, zeros stored."""
    g, zero = ctx.gibbs, ctx.policy.zero()
    _, order, _ = _by_slope(u, ctx)
    ends = [zero]
    for i in order[:-1]:
        ends.append(ends[-1] + g[i])
    ends.append(grid[-1])
    e = [[zero] * ctx.dim for _ in grid[1:]]
    for i, lo, hi in zip(order, ends, ends[1:]):
        for k, row in enumerate(e):
            row[i] = max(zero, min(hi, grid[k + 1]) - max(lo, grid[k])) / g[i]
    return e


def _levels_state(source):
    """The source vector that `synth._levels` put in Lorenz order: u_i, or
    in rational mode u_i = Fraction(w_i G_i, D) from its integers."""
    den, levels = source
    w = [None] * len(levels)
    for i, _, _, gi, wi in levels:
        w[i] = F(wi * gi, den) if type(gi) is int else wi
    return StateVector(tuple(w))


def _dense_branch_maps(sources, coeffs, target, ctx):
    """Reference T_x = B S E_x with dense factors and d^2 generator sums."""
    policy = ctx.policy
    g, d = ctx.gibbs, ctx.dim
    grid = merged_bend_grid([build_lorenz(target, ctx)], policy)
    n = len(grid) - 1
    widths = [grid[k + 1] - grid[k] for k in range(n)]
    spreads = [_dense_embedding(u, grid, ctx) for u in sources]
    cover = _dense_embedding(target, grid, ctx)
    p = [sum(c * vdot(e[k], u.w) for c, e, u in zip(coeffs, spreads, sources))
         for k in range(n)]
    q = [vdot(row, target.w) for row in cover]
    steps = synth._transfers(p, q, widths, policy)
    gather = [[(k, cover[k][i] * g[i] / widths[k]) for k in range(n) if cover[k][i]]
              for i in range(d)]
    maps = []
    for e in spreads:
        for j, k, keep, a, b in steps:
            ej, ek = e[j], e[k]
            for c in range(d):
                s = ej[c] + ek[c]
                ej[c], ek[c] = keep * ej[c] + a * s, keep * ek[c] + b * s
        maps.append(TOMatrix(tuple(
            tuple(sum(b * e[k][c] for k, b in row) for c in range(d))
            for row in gather
        )))
    return maps


def _added_levels(u, ctx):
    """`synth._levels` before it took the ends from `_by_slope`'s integers:
    each interval end is the previous one plus g_i."""
    g, w = ctx.gibbs, u.w
    _, order, _ = _by_slope(u, ctx)
    out, lo = [], ctx.policy.zero()
    for i in order:
        hi = lo + g[i]
        out.append((i, lo, hi, g[i], w[i]))
        lo = hi
    i, lo, _, gi, wi = out[-1]
    out[-1] = (i, lo, ctx.policy.one(), gi, wi)
    return out


def _in_place_branch_maps(states, coeffs, target, ctx):
    """Reference rows of T_x as `synth._branch_maps` built them before it
    kept the factors: the steps mix E's sparse rows in place, then row i
    is B[i][k] times row k.  E, p and q come from the Fraction formulas
    (`_fraction_embedding` on `_added_levels`), the steps from
    `synth._transfers` on those Fractions."""
    policy = ctx.policy
    d, zero, one = ctx.dim, policy.zero(), policy.one()
    grid = merged_bend_grid([build_lorenz(target, ctx)], policy)
    n = len(grid) - 1
    widths = [grid[k + 1] - grid[k] for k in range(n)]
    p, q = [zero] * n, [zero] * n
    spreads = [_fraction_embedding(_added_levels(u, ctx), grid, c, p, policy)
               for c, u in zip(coeffs, states)]
    cover = _fraction_embedding(_added_levels(target, ctx), grid, one, q, policy)
    steps = [(j, k, keep, a, b, keep + a, keep + b)
             for j, k, keep, a, b in synth._transfers(p, q, widths, policy)]
    home = [None] * d
    for k, row in enumerate(cover):
        for i, x in row.items():
            home[i] = (k, x * ctx.gibbs[i] / widths[k])
    maps = []
    for e in spreads:
        for j, k, keep, a, b, ka, kb in steps:
            ej, ek = e[j], e[k]
            for c, x in ej.items():
                y = ek.get(c)
                if y is None:
                    ej[c], ek[c] = ka * x, b * x
                else:
                    s = x + y
                    ej[c], ek[c] = keep * x + a * s, keep * y + b * s
            if len(ek) > len(ej):
                for c, y in ek.items():
                    if c not in ej:
                        ej[c], ek[c] = a * y, kb * y
        rows = []
        for k, b in home:
            row = [zero] * d
            for c, x in e[k].items():
                row[c] = b * x
            rows.append(tuple(row))
        maps.append(tuple(rows))
    return maps


def _exact_entries(rows):
    """Entries by bits for floats, by type and value for Fractions."""
    return [[x.hex() if isinstance(x, float) else (type(x), x) for x in row]
            for row in rows]


def _rescanning_transfers(p, q, widths, policy):
    """Reference HLP steps: rescan the gaps before each step for the last
    cell over q that has a later short one, and the first such later one."""
    zero, one = policy.zero(), policy.one()
    gap = [a - b for a, b in zip(p, q)]
    steps = []
    while True:
        short = [k for k, r in enumerate(gap) if r < 0]
        over = [j for j in range(short[-1]) if gap[j] > 0] if short else []
        if not over:
            return steps
        j = over[-1]
        k = next(k for k in short if k > j)
        wj, wk = widths[j], widths[k]
        den = (q[j] + gap[j]) * wk - (q[k] + gap[k]) * wj
        if gap[j] <= -gap[k]:
            delta, gap[j] = gap[j], zero
            gap[k] += delta
        else:
            delta, gap[k] = -gap[k], zero
            gap[j] -= delta
        if den > 0:
            lam = min(one, delta * (wj + wk) / den)
            steps.append((j, k, one - lam, lam * wj / (wj + wk), lam * wk / (wj + wk)))


@pytest.mark.parametrize("seed", range(4))
def test_transfers_match_rescanning_reference(seed):
    """The one-walk step search gives the reference's steps, in its order,
    on random exact gap patterns with ties and zero gaps."""
    rng = random.Random(seed)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 9)
        widths = [F(rng.randint(1, 6)) for _ in range(n)]
        slopes = sorted((F(rng.randint(0, 6)) for _ in range(n)), reverse=True)
        q = [s * w for s, w in zip(slopes, widths)]
        p = [F(rng.choice([0, 0, 1, 2, 3, 6, 9])) for _ in range(n)]
        p[0] += sum(q) - sum(p)
        partial = [sum(p[:i + 1]) - sum(q[:i + 1]) for i in range(n)]
        if p[0] < 0 or min(partial) < 0:
            continue
        assert synth._transfers(p, q, widths, RATIONAL) == \
            _rescanning_transfers(p, q, widths, RATIONAL)
        checked += 1


class TestSparseEmbedding:
    """The sparse construction against the dense B S E_x it replaced."""

    @staticmethod
    def _against_dense(monkeypatch, in_place=None):
        """Run _branch_maps beside the dense reference; returns the list of
        (map, reference map) pairs, filled as synthesis runs.  With a list
        `in_place`, also fills it with (map, source, its apply before `t` was
        read, reference rows of `_in_place_branch_maps`)."""
        pairs = []
        orig = synth._branch_maps

        def both(sources, coeffs, target, ctx):
            maps = orig(sources, coeffs, target, ctx)
            states = [_levels_state(source) for source in sources]
            if in_place is not None:
                rows = _in_place_branch_maps(states, coeffs, target, ctx)
                in_place.extend((t, u, t.apply(u), ref)
                               for t, u, ref in zip(maps, states, rows))
            pairs.extend(zip(maps, _dense_branch_maps(states, coeffs, target, ctx)))
            return maps

        monkeypatch.setattr(synth, "_branch_maps", both)
        return pairs

    @staticmethod
    def _synthesize(seed, policy):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 10), rng, policy)
        source = testkit.random_cq(ctx, rng.randint(1, 5), rng)
        gen = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 5), rng)
        target = apply_cto(gen, source, ctx)
        decision = Decision(convertible=True, plan_seed=gen.control)
        synthesize_cto(source, target, ctx, decision)

    @staticmethod
    def _check_factors(in_place, exact):
        """Each map's rows `t` equal `_in_place_branch_maps`' (floats by bits,
        Fractions by type and value); its factored apply equals a dense
        matvec of `t` (== in rational mode, within 1e-12 in float mode) and
        gives the same vector before and after `t` is first read."""
        assert len(in_place) >= 200
        for t, u, before, ref in in_place:
            assert _exact_entries(t.t) == _exact_entries(ref)
            after = t.apply(u)
            assert after == before
            dense = [sum(x * y for x, y in zip(row, u.w)) for row in t.t]
            if exact:
                assert list(after.w) == dense
            else:
                assert max(abs(x - y) for x, y in zip(after.w, dense)) <= 1e-12

    def test_rational_maps_equal_dense(self, monkeypatch):
        in_place = []
        pairs = self._against_dense(monkeypatch, in_place)
        for seed in range(200):
            self._synthesize(seed, RATIONAL)
        assert len(pairs) >= 200
        for t, ref in pairs:
            assert t == ref
            assert all(type(x) is F for row in t.t for x in row)
        self._check_factors(in_place, exact=True)

    def test_float_maps_match_dense(self, monkeypatch):
        in_place = []
        pairs = self._against_dense(monkeypatch, in_place)
        for seed in range(200):
            self._synthesize(seed, FLOATS)
        assert len(pairs) >= 200
        for t, ref in pairs:
            for row, ref_row in zip(t.t, ref.t):
                assert all(x >= 0 for x in row)  # no tolerance, no clamp
                assert max(abs(x - y) for x, y in zip(row, ref_row)) <= 1e-12
        self._check_factors(in_place, exact=False)

    def test_level_below_eps_merge_shares_a_cell(self, monkeypatch):
        """A Gibbs weight below eps_merge: the bend closing that level's
        interval is merged away, so one grid cell holds it and the next
        level, and the maps still match the dense reference."""
        tiny = 4e-13
        assert tiny < FLOATS.eps_merge
        g = (0.4, 0.3, 0.2, 0.1 - tiny, tiny)
        ctx = GibbsContext.from_weights(g, FLOATS)
        # the tiny level has the largest slope in u and in v, so it comes first
        u = StateVector((0.5, 0.3, 0.1, 0.1 - 1e-12, 1e-12))
        v = StateVector(tuple((a + b) / 2 for a, b in zip(u.w, g)))
        grid = merged_bend_grid([build_lorenz(v, ctx)], FLOATS)
        assert grid[1] > FLOATS.eps_merge
        q = [0.0] * (len(grid) - 1)
        cover = synth._embedding(synth._levels(v, ctx)[1], grid, 1.0, q, FLOATS)
        assert sorted(cover[0]) == [0, 4]
        # the merge joins cells; it never splits a level of v between two
        assert sorted(i for row in cover for i in row) == list(range(5))
        pairs = self._against_dense(monkeypatch)
        t = synthesize_to(u, v, ctx)
        t.validate(ctx)
        assert all(x >= 0 for row in t.t for x in row)
        assert max(abs(a - b) for a, b in zip(t.apply(u).w, v.w)) <= 1e-12
        rng = random.Random(4)
        for _ in range(20):
            source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
            gen = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 3), rng)
            target = apply_cto(gen, source, ctx)
            decision = Decision(convertible=True, plan_seed=gen.control)
            synthesize_cto(source, target, ctx, decision)
        assert pairs[0][0] is t and len(pairs) > 20
        for t, ref in pairs:
            assert all(x >= 0 for row in t.t for x in row)
            assert max(abs(x - y) for r, s in zip(t.t, ref.t) for x, y in zip(r, s)) <= 1e-12

    def test_tiny_weight_late_in_the_order_keeps_column_sums(self):
        """A Gibbs weight of 4e-13 whose Lorenz-order interval starts near 1:
        |I_i| / g_i is off by ulp(lo) / g_i ~ 3e-4 there, but each level's
        pieces still sum to one, so every column of T does and the plan
        validates; likewise for a weight whose interval rounds away."""
        tiny = 4e-13
        ctx = GibbsContext.from_weights((0.4, 0.3, 0.2, 0.1 - tiny, tiny), FLOATS)
        u = StateVector((0.9, 0.05, 0.05, 0.0, 0.0))
        # v has mass 0.8; scaled to u's mass it keeps its curve's abscissae
        v = StateVector((0.5, 0.15, 0.05, 0.1 - 2e-13, 1e-13)).normalized()
        t = synthesize_to(u, v, ctx)
        t.validate(ctx)
        for c in range(ctx.dim):
            assert abs(sum(row[c] for row in t.t) - 1) <= 1e-15
        assert all(x >= 0 for row in t.t for x in row)
        assert max(abs(a - b) for a, b in zip(t.apply(u).w, v.w)) <= 1e-12

        # a weight of 1e-17 last in the order: its interval [1, 1] is empty
        ctx = GibbsContext.from_weights((0.3, 0.7 - 1e-17, 1e-17), FLOATS)
        t = synthesize_to(StateVector((0.6, 0.4, 0.0)), StateVector((0.5, 0.5, 0.0)), ctx)
        t.validate(ctx)
        assert all(abs(sum(row[c] for row in t.t) - 1) <= 1e-15 for c in range(3))

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_embedding_stores_at_most_n_plus_d_minus_1_entries(self, monkeypatch, policy):
        sizes = []
        orig = synth._embedding

        def spy(levels, grid, c, p, policy):
            e = orig(levels, grid, c, p, policy)
            n, d = len(grid) - 1, len(levels)
            sizes.append((sum(len(row) for row in e), n + d - 1))
            return e

        monkeypatch.setattr(synth, "_embedding", spy)
        for seed in range(40):
            self._synthesize(seed, policy)
        assert len(sizes) >= 40
        assert all(stored <= bound for stored, bound in sizes), sizes

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_each_source_is_ordered_once_per_plan(self, monkeypatch, policy):
        """synthesize_cto puts each source column in Lorenz order once, not
        once per target branch it feeds; each target branch is ordered once,
        for its curve and its levels both."""
        calls = []
        orig = lorenz._by_slope

        def spy(u, g):
            calls.append(u)
            return orig(u, g)

        monkeypatch.setattr(synth, "_by_slope", spy)
        monkeypatch.setattr(lorenz, "_by_slope", spy)
        rng = random.Random(5)
        multi = 0
        for _ in range(30):
            ctx = testkit.random_context(rng.randint(2, 8), rng, policy)
            source = testkit.random_cq(ctx, rng.randint(1, 4), rng)
            gen = testkit.random_cto(ctx, source.n_branches, rng.randint(2, 4), rng)
            target = apply_cto(gen, source, ctx)
            calls.clear()
            synthesize_cto(source, target, ctx,
                           Decision(convertible=True, plan_seed=gen.control))
            for u in source.columns + target.columns:
                assert sum(c is u for c in calls) == 1
            assert len(calls) == source.n_branches + target.n_branches
            multi += any(sum(x > 0 for x in r) > 1 for r in gen.control)
        assert multi  # some source fed more than one target branch

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_levels_equal_the_added_interval_ends(self, policy):
        """`_levels` gives the tuples that adding g_i to each end gave:
        floats by bits; in rational mode its integers lo, hi and G_i over G,
        and u_i = Fraction(w_i G_i, D), give them by type and value."""
        rng = random.Random(6)
        for _ in range(200):
            ctx = testkit.random_context(rng.randint(1, 12), rng, policy)
            u = testkit.random_state(ctx, rng)
            den, levels = synth._levels(u, ctx)
            if policy.exact:
                big_g = ctx._ints[0]
                levels = [(i, F(lo, big_g), F(hi, big_g), F(gi, big_g), F(wi * gi, den))
                          for i, lo, hi, gi, wi in levels]
            else:
                assert den == 1
            assert _exact_entries(levels) == _exact_entries(_added_levels(u, ctx))
