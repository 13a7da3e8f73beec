"""Domain types: contexts, states, plans, numeric policy and canonicalization."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import (
    CQState,
    CTOPlan,
    GibbsContext,
    NumericPolicy,
    StateVector,
    TOMatrix,
    build_lorenz,
    canonicalize_cq,
    testkit,
)
from ctoconv.core import encode_number, matvec, parse_number
from ctoconv.errors import (
    DimensionMismatch,
    NonPositiveGibbsWeight,
    NotNormalized,
    ValidationError,
    ZeroTotalMass,
)

from conftest import FLOATS, RATIONAL


class TestGibbsContext:
    def test_degenerate_spectrum(self):
        ctx = GibbsContext.from_energies((0.0, 0.0), beta=1.0)
        assert ctx.gibbs == (0.5, 0.5)
        assert ctx.partition == 2.0

    def test_weights_give_energies(self):
        ctx = GibbsContext.from_weights((F(2, 3), F(1, 3)), RATIONAL)
        e = ctx.energy_levels()
        assert e[0] == pytest.approx(math.log(1.5))
        assert e[1] == pytest.approx(math.log(3.0))
        assert ctx.beta == 1

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveGibbsWeight):
            GibbsContext.from_weights((F(1), F(0)), RATIONAL)

    def test_unnormalized_weights_rejected(self):
        with pytest.raises(NotNormalized):
            GibbsContext.from_weights((F(1, 2), F(1, 3)), RATIONAL)

    def test_weights_read_by_the_policy(self):
        ctx = GibbsContext.from_weights((F(3, 4), F(1, 4)), FLOATS)
        assert ctx.gibbs == (0.75, 0.25)
        assert all(type(g) is float for g in ctx.gibbs)
        with pytest.raises(ValidationError):
            GibbsContext.from_weights((F(3, 4), 0.25), RATIONAL)

    def test_float_mode_takes_float_weights(self):
        """A Fraction or int Gibbs weight is refused in float mode when the
        context is made, before a Lorenz curve could read rational
        arithmetic off its type."""
        for gibbs in ((F(1, 2), 0.5), (F(1, 2), F(1, 2)), (0.5, F(1, 2)), (1,)):
            with pytest.raises(ValidationError, match="float mode takes float"):
                GibbsContext(gibbs=gibbs, beta=1, partition=1, policy=FLOATS)
        ctx = GibbsContext(gibbs=(0.5, 0.5), beta=1, partition=1, policy=FLOATS)
        for w in ((0.5, 0.5), (F(1, 2), F(1, 2))):
            assert build_lorenz(StateVector(w), ctx).points == ((0.0, 0.0), (1.0, 1.0))

    def test_energies_need_float_mode(self):
        with pytest.raises(ValidationError):
            GibbsContext.from_energies((0.0, 1.0), policy=RATIONAL)

    def test_bad_beta(self):
        with pytest.raises(ValidationError):
            GibbsContext.from_energies((0.0, 1.0), beta=-1.0)

    def test_boltzmann_ratios(self):
        ctx = GibbsContext.from_energies((0.0, 1.0, 2.0), beta=0.5)
        g = ctx.gibbs
        assert g[0] / g[1] == pytest.approx(math.exp(0.5))
        assert g[1] / g[2] == pytest.approx(math.exp(0.5))
        assert sum(g) == pytest.approx(1.0)


class TestNumericPolicy:
    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            NumericPolicy(mode="decimal")

    def test_bad_tolerance_order(self):
        with pytest.raises(ValidationError):
            NumericPolicy(eps_cmp=1e-3, eps_lp=1e-9)

    def test_exactness_flag(self):
        assert RATIONAL.exact and not FLOATS.exact
        assert RATIONAL.one() == F(1) and isinstance(FLOATS.one(), float)

    def test_rational_constants_are_shared(self):
        """zero() and one() build no Fraction per call: a Fraction is
        immutable, so every policy hands out the same two."""
        other = NumericPolicy(mode="rational")
        assert RATIONAL.zero() is RATIONAL.zero() is other.zero()
        assert RATIONAL.one() is RATIONAL.one() is other.one()
        assert type(RATIONAL.zero()) is F and RATIONAL.zero() == 0
        assert type(RATIONAL.one()) is F and RATIONAL.one() == 1

    def test_parse_number(self):
        assert parse_number("2/3", "rational") == F(2, 3)
        assert parse_number(3, "rational") == F(3)
        assert parse_number(0.25, "float") == 0.25
        with pytest.raises(ValidationError):
            parse_number(0.25, "rational")
        with pytest.raises(ValidationError):
            parse_number(True, "float")
        with pytest.raises(ValidationError):
            parse_number(None, "float")

    def test_parse_number_takes_fractions(self):
        assert parse_number(F(1, 4), "rational") == F(1, 4)
        x = parse_number(F(1, 4), "float")
        assert x == 0.25 and type(x) is float

    @given(st.fractions())
    @settings(max_examples=50, deadline=None)
    def test_encode_parse_roundtrip(self, x):
        assert parse_number(encode_number(x), "rational") == x


class TestCanonicalize:
    def test_drops_zero_columns(self):
        state = CQState(((F(1, 2), F(0)), (F(0), F(1, 2)), (F(0), F(0))))
        out = canonicalize_cq(state, RATIONAL)
        assert out.n_branches == 2
        assert out.columns[0].w == (F(1, 2), F(0))
        assert out.columns[1].w == (F(0), F(1, 2))

    def test_single_column_unchanged(self):
        state = CQState(((F(1, 3), F(2, 3)),))
        assert canonicalize_cq(state, RATIONAL) == state

    def test_float_rescale(self):
        total = 0.999999999
        state = CQState(((0.5 * total, 0.0), (0.0, 0.5 * total)))
        out = canonicalize_cq(state, FLOATS)
        assert out.total_mass == pytest.approx(1.0, abs=1e-12)
        # every entry is multiplied by the same 1/total factor
        assert out.columns[0].w[0] == pytest.approx(0.5 * total / total)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroTotalMass):
            canonicalize_cq(CQState(((F(0), F(0)),)), RATIONAL)

    def test_far_from_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            canonicalize_cq(CQState(((0.4, 0.0),)), FLOATS)

    def test_large_negative_rejected(self):
        with pytest.raises(ValidationError):
            canonicalize_cq(CQState(((1.1, -0.1),)), FLOATS)

    def test_tiny_negative_clipped(self):
        out = canonicalize_cq(CQState(((1.0, -1e-12),)), FLOATS)
        assert out.columns[0].w[1] == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        ctx = testkit.random_context(3, seed, RATIONAL)
        state = testkit.random_cq(ctx, 2, seed)
        once = canonicalize_cq(state, RATIONAL)
        assert canonicalize_cq(once, RATIONAL) == once
        assert once.total_mass == F(1)


class TestStateVector:
    def test_mass_and_scale(self):
        v = StateVector((F(1, 4), F(1, 4)))
        assert v.mass == F(1, 2)
        assert v.scaled(F(2)).w == (F(1, 2), F(1, 2))
        assert v.normalized().w == (F(1, 2), F(1, 2))

    def test_validation(self):
        with pytest.raises(ValidationError):
            StateVector((F(-1, 4), F(1, 2))).validate(RATIONAL)
        with pytest.raises(ValidationError):
            StateVector((F(3, 4), F(1, 2))).validate(RATIONAL)
        with pytest.raises(ZeroTotalMass):
            StateVector((F(0), F(0))).normalized()
        with pytest.raises(ValidationError, match="float component"):
            StateVector((F(1, 2), 0.5)).validate(RATIONAL)
        StateVector((0.5, F(1, 2))).validate(FLOATS)


class TestCQState:
    def test_shape_accessors(self):
        u = CQState(((F(1, 2), F(0)), (F(0), F(1, 2))))
        assert u.n_branches == 2 and u.dim == 2
        assert u.branch_masses == (F(1, 2), F(1, 2))
        assert [c.w for c in u.conditionals()] == [(F(1), F(0)), (F(0), F(1))]

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            CQState(((F(1, 2), F(0)), (F(1, 2),))).validate(RATIONAL)

    def test_mass_must_be_one(self):
        with pytest.raises(NotNormalized):
            CQState(((F(1, 4), F(0)),)).validate(RATIONAL)

    def test_errors_come_in_a_fixed_order(self):
        """Negative entry, then a float in rational mode, then a column mass
        over 1, then a total other than 1: each state below has every fault
        of the ones after it, and raises its own."""
        faults = [
            ("negative component", ((F(-1, 2), 0.5, F(2)), (F(1, 4), F(0), F(0)))),
            ("float component", ((F(1, 2), 0.5, F(2)), (F(1, 4), F(0), F(0)))),
            ("exceeds 1", ((F(1, 2), F(1, 2), F(2)), (F(1, 4), F(0), F(0)))),
            ("!= 1", ((F(1, 2), F(1, 4), F(0)), (F(1, 2), F(0), F(0)))),
        ]
        for message, cols in faults:
            with pytest.raises(ValidationError, match=message) as info:
                CQState(cols).validate(RATIONAL)
            assert (info.type is NotNormalized) == (message == "!= 1")


class TestTOMatrix:
    def test_identity_valid(self, uniform2):
        TOMatrix.identity(2, RATIONAL).validate(uniform2)

    def test_apply(self):
        t = TOMatrix(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
        assert t.apply(StateVector((F(1), F(0)))).w == (F(1, 2), F(1, 2))

    @pytest.mark.parametrize("kind", [F, float])
    def test_apply_matches_dense_product(self, kind):
        """Skipping zero entries changes no value or type, a zero row included."""
        rng = random.Random(2)
        for _ in range(60):
            d = rng.randint(1, 6)
            rows = [[kind(F(rng.randint(1, 7), 8)) if rng.random() < 0.5 else kind(0)
                     for _ in range(d)] for _ in range(d)]
            w = [kind(F(rng.randint(0, 5), 16)) for _ in range(d)]
            out = TOMatrix(rows).apply(StateVector(w)).w
            assert out == tuple(matvec(rows, w))
            assert all(type(x) is kind for x in out)

    def test_column_sum_checked(self, uniform2):
        with pytest.raises(ValidationError):
            TOMatrix(((F(1), F(1)), (F(1), F(0)))).validate(uniform2)

    def test_gibbs_fix_checked(self, skew2):
        # doubly stochastic but does not fix g = (2/3, 1/3)
        swap = TOMatrix(((F(0), F(1)), (F(1), F(0))))
        with pytest.raises(ValidationError):
            swap.validate(skew2)

    def test_negative_entry_checked(self, uniform2):
        t = TOMatrix(((F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))))
        with pytest.raises(ValidationError):
            t.validate(uniform2)


class TestCTOPlan:
    def test_valid_plan(self, uniform2):
        ident = TOMatrix.identity(2, RATIONAL)
        plan = CTOPlan(
            control=((F(1, 2), F(1, 2)),),
            branch_maps={(0, 0): ident, (0, 1): ident},
        )
        plan.validate(uniform2)
        assert plan.n_in == 1 and plan.n_out == 2

    def test_nonstochastic_row_rejected(self, uniform2):
        plan = CTOPlan(control=((F(1, 2), F(1, 4)),), branch_maps={})
        with pytest.raises(ValidationError):
            plan.validate(uniform2)

    def test_out_of_range_branch_key(self, uniform2):
        ident = TOMatrix.identity(2, RATIONAL)
        plan = CTOPlan(control=((F(1),),), branch_maps={(0, 5): ident})
        with pytest.raises(DimensionMismatch):
            plan.validate(uniform2)


class TestHeldIntegerForms:
    """A rational context holds (G, [G_i], [P // G_i]) and a rational state
    (D, [n_i]) once read: attributes, not fields."""

    BAD = {
        "float": ((F(1, 2), 0.25, F(1, 4)), "float component 0.25 in rational mode"),
        "nan": ((F(1, 2), math.nan, F(1, 4)), "negative component nan"),
        "negative int": ((F(1, 2), -1, F(1, 4)), "negative component -1"),
        "negative Fraction": ((F(1, 2), F(-1, 3), F(1, 4)), "negative component -1/3"),
        "over-mass": ((F(1, 2), F(1, 3), F(1, 4)), "state mass 13/12 exceeds 1"),
    }

    @pytest.mark.parametrize("kind", sorted(BAD))
    @pytest.mark.parametrize("read_first", [False, True], ids=["fresh", "read"])
    def test_verdicts_and_messages_unchanged(self, kind, read_first):
        w, message = self.BAD[kind]
        u = StateVector(w)
        if read_first:  # a float entry has no form, and none is held
            try:
                u._ints
            except ValidationError:
                assert "_ints" not in u.__dict__
        for check in (lambda: u.validate(RATIONAL),
                      lambda: CQState((u,)).validate(RATIONAL)):
            with pytest.raises(ValidationError) as info:
                check()
            assert info.type is ValidationError and str(info.value) == message

    def test_one_state_under_two_contexts(self):
        """A state whose form is held answers under a second context with
        another G as a fresh state does."""
        a = GibbsContext.from_weights(("1/2", "1/3", "1/6"), RATIONAL)
        b = GibbsContext.from_weights(("1/5", "2/5", "2/5"), RATIONAL)
        assert a._ints[0] != b._ints[0]
        u = StateVector((F(3, 7), F(1, 7), F(3, 7)))
        v = StateVector((F(1, 3), F(1, 3), F(1, 3)))
        for ctx in (a, b, a):
            for w in (u, v):
                fresh = StateVector(tuple(w.w))
                assert build_lorenz(w, ctx) == build_lorenz(fresh, ctx)
                assert "_ints" in w.__dict__
        assert u._ints == (7, [3, 1, 3])

    def test_state_identity_unaffected(self):
        import dataclasses
        import pickle

        u = StateVector((F(1, 2), F(1, 3), F(1, 6)))
        fresh = StateVector(u.w)
        u.validate(RATIONAL)
        assert "_ints" in u.__dict__ and "_ints" not in fresh.__dict__
        assert u == fresh and hash(u) == hash(fresh) and repr(u) == repr(fresh)
        assert dataclasses.fields(u) == dataclasses.fields(fresh)
        assert dataclasses.asdict(u) == {"w": u.w}
        swapped = dataclasses.replace(u, w=(F(1, 6), F(1, 3), F(1, 2)))
        assert "_ints" not in swapped.__dict__ and swapped._ints == (6, [1, 2, 3])
        back = pickle.loads(pickle.dumps(u))
        assert back == u and repr(back) == repr(u) and back._ints == u._ints

    def test_context_form_follows_replace(self):
        import dataclasses
        import pickle

        ctx = GibbsContext.from_weights(("1/2", "1/3", "1/6"), RATIONAL)
        assert ctx._ints == (6, (3, 2, 1), (2, 3, 6))
        other = dataclasses.replace(ctx, gibbs=(F(1, 4), F(1, 4), F(1, 2)))
        assert other._ints == (4, (1, 1, 2), (2, 2, 1))
        assert ctx._ints == (6, (3, 2, 1), (2, 3, 6))
        same = GibbsContext.from_weights(("1/2", "1/3", "1/6"), RATIONAL)
        assert ctx == same and hash(ctx) == hash(same) and repr(ctx) == repr(same)
        assert "_ints" not in repr(ctx) and "_ints" not in dataclasses.asdict(ctx)
        assert pickle.loads(pickle.dumps(ctx))._ints == ctx._ints
        assert GibbsContext.from_weights((0.5, 0.5), FLOATS)._ints is None
