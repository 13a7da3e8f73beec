"""Decision theory: bend grids, P/Q increments, convertibility, corollaries,
witnesses and monotones."""

import dataclasses
import functools
import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import (
    CQState,
    GibbsContext,
    LinearSystem,
    StateVector,
    WitnessMatrix,
    check_cto,
    check_ensemble_to_state,
    check_state_to_ensemble,
    extract_witness,
    lt_majorize,
    omega,
    p_min,
    phi_monotones,
    sigma_grid,
    testkit,
    verify_witness,
)
from ctoconv import convert, core, lorenz, lp
from ctoconv.lorenz import (cq_branch_curves, embed_states, merged_bend_grid,
                            thermo_majorizes)
from ctoconv.synth import apply_cto, synthesize_cto, synthesize_to
from ctoconv.asymptotic import asymptotic_rate, resource_value
from ctoconv.errors import (
    DegenerateCertificate,
    DimensionMismatch,
    DimensionTooLarge,
    MassMismatch,
    NotNormalized,
    NotThermoMajorizing,
    OutOfRange,
    ValidationError,
    ZeroTotalMass,
)

from conftest import FLOATS, RATIONAL, scipy_feasible
import oracles
from oracles import conditional_lt_majorize, pq_increments


def _single(w):
    return CQState((StateVector(w),))


def _gibbs_column(ctx):
    return _single(ctx.gibbs)


def _target_grid(target, ctx):
    """The merged bend grid of the target's branch curves."""
    return merged_bend_grid(cq_branch_curves(target, ctx), ctx.policy)


def _n_segments(target, ctx):
    return len(_target_grid(target, ctx)) - 1


def _column(rows, x):
    return tuple(row[x] for row in rows)


class TestBendGrid:
    def test_gibbs_target_has_no_bends(self, uniform2):
        grid = _target_grid(_gibbs_column(uniform2), uniform2)
        assert grid == [F(0), F(1)]
        assert len(grid) - 1 == 1

    def test_single_bend(self, uniform2):
        grid = _target_grid(_single((F(3, 4), F(1, 4))), uniform2)
        assert grid == [F(0), F(1, 2), F(1)]
        assert len(grid) - 1 == 2

    def test_union_of_branch_bends(self, skew2):
        target = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 10), F(2, 5))),
        ))
        grid = _target_grid(target, skew2)
        assert grid == [F(0), F(1, 3), F(2, 3), F(1)]
        assert grid[1:-1] == [F(1, 3), F(2, 3)]


class TestBuildPQ:
    def test_trivial_gibbs_pair(self, uniform2):
        target = _gibbs_column(uniform2)
        p, q = pq_increments(target, target, uniform2)
        assert p == ((F(1),),)
        assert q == ((F(1),),)

    def test_single_columns(self, uniform2):
        source = _single((F(1), F(0)))
        target = _single((F(3, 4), F(1, 4)))
        p, q = pq_increments(source, target, uniform2)
        assert _column(p, 0) == (F(1), F(0))
        assert _column(q, 0) == (F(3, 4), F(1, 4))

    def test_two_branch_source(self, uniform2):
        source = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        target = _single((F(3, 4), F(1, 4)))
        p, q = pq_increments(source, target, uniform2)
        assert p == ((F(1, 2), F(1, 4)), (F(0), F(1, 4)))
        assert q == ((F(3, 4),), (F(1, 4),))

    def test_cumulative_reconstruction(self, skew2):
        rng = random.Random(5)
        source = testkit.random_cq(skew2, 2, rng)
        target = testkit.random_cq(skew2, 2, rng)
        p, _ = pq_increments(source, target, skew2)
        curves = cq_branch_curves(source, skew2)
        for x, curve in enumerate(curves):
            acc = F(0)
            for i, s in enumerate(_target_grid(target, skew2)[1:]):
                acc += p[i][x]
                assert acc == curve.value(s)

    def test_dimension_mismatch(self, uniform2, skew2):
        target = _gibbs_column(uniform2)
        three = GibbsContext.from_weights((F(1, 3), F(1, 3), F(1, 3)), RATIONAL)
        with pytest.raises(DimensionMismatch):
            pq_increments(_single((F(1), F(0), F(0))), target, three)


class TestCheckCto:
    def test_thermal_to_pure_eigenstate(self, skew2):
        """The correlated locally-thermal state converts to the most-likely
        pure level."""
        source = CQState((
            StateVector((F(2, 3), F(0))),
            StateVector((F(0), F(1, 3))),
        ))
        target = _single((F(1), F(0)))
        decision = check_cto(source, target, skew2)
        assert decision.convertible
        # and the control seed is row-stochastic
        for row in decision.plan_seed:
            assert sum(row) == F(1)
            assert all(r >= 0 for r in row)

    def test_free_states_stay_free(self, skew2):
        g = skew2.gibbs
        source = CQState((
            StateVector(tuple(F(1, 4) * x for x in g)),
            StateVector(tuple(F(3, 4) * x for x in g)),
        ))
        free_target = CQState((
            StateVector(tuple(F(1, 2) * x for x in g)),
            StateVector(tuple(F(1, 2) * x for x in g)),
        ))
        assert check_cto(source, free_target, skew2).convertible
        nonfree = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector(tuple(F(1, 2) * x for x in g)),
        ))
        decision = check_cto(source, nonfree, skew2)
        assert not decision.convertible
        assert decision.witness is not None

    def test_boundary_threshold_instance(self, uniform2):
        source = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        target = _single((F(3, 4), F(1, 4)))
        assert check_cto(source, target, uniform2).convertible

    def test_self_conversion(self, skew2):
        rng = random.Random(2)
        state = testkit.random_cq(skew2, 2, rng)
        assert check_cto(state, state, skew2).convertible


class TestCorollaries:
    def test_pure_state_dominates_ensemble(self, uniform2):
        u = StateVector((F(1), F(0)))
        target = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        assert check_state_to_ensemble(u, target, uniform2)

    def test_mixed_state_cannot_reach_pure_branch(self, uniform2):
        u = StateVector((F(3, 4), F(1, 4)))
        target = CQState((
            StateVector((F(1, 2), F(0))),   # conditional (1,0), mass 1/2
            StateVector((F(1, 4), F(1, 4))),
        ))
        assert not check_state_to_ensemble(u, target, uniform2)

    def test_gibbs_to_gibbs(self, skew2):
        g = StateVector(skew2.gibbs)
        assert check_state_to_ensemble(g, _gibbs_column(skew2), skew2)

    def test_ensemble_to_state_boundary(self, uniform2):
        source = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        assert check_ensemble_to_state(source, StateVector((F(3, 4), F(1, 4))),
                                       uniform2)
        assert not check_ensemble_to_state(
            source, StateVector((F(4, 5), F(1, 5))), uniform2
        )

    def test_anything_to_gibbs(self, skew2):
        rng = random.Random(9)
        source = testkit.random_cq(skew2, 3, rng)
        assert check_ensemble_to_state(source, StateVector(skew2.gibbs), skew2)

    def test_mass_checks(self, uniform2):
        target = _gibbs_column(uniform2)
        with pytest.raises(MassMismatch):
            check_state_to_ensemble(StateVector((F(1, 4), F(1, 4))), target,
                                    uniform2)
        with pytest.raises(MassMismatch):
            check_ensemble_to_state(target, StateVector((F(1, 4), F(1, 4))),
                                    uniform2)

    def test_single_register_checks_judge_with_eps_lp(self):
        """Target (3/4 u, (1/4, 0, 0)) exceeds u's curve by about 9e-8,
        between eps_cmp and eps_lp: the shortcut answers as check_cto."""
        ctx = GibbsContext.from_energies((0.0, 0.0, 1.0))
        u = StateVector((0.0, 1e-6 / (1 + 1e-6), 1 / (1 + 1e-6)))
        target = CQState((u.scaled(0.75), StateVector((0.25, 0.0, 0.0))))
        assert check_cto(_single(u.w), target, ctx).convertible
        assert check_state_to_ensemble(u, target, ctx)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_agreement_with_full_check(self, seed):
        """In both modes, on ell = 1 and m = 1 pairs both ways, the
        single-register checks answer as check_cto, which runs no LP there
        and agrees with the full-grid LP (`_checked_forced_decision`)."""
        rng = random.Random(seed)
        for policy in (RATIONAL, FLOATS):
            ctx = testkit.random_context(rng.randint(2, 4), rng, policy)
            u = testkit.random_state(ctx, rng)
            target = testkit.random_cq(ctx, rng.randint(1, 3), rng)
            if rng.random() < 0.5:
                target = apply_cto(testkit.random_cto(ctx, 1, target.n_branches, rng),
                                   _single(u.w), ctx)
            fast = check_state_to_ensemble(u, target, ctx)
            assert fast == _checked_forced_decision(_single(u.w), target, ctx).convertible
            source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
            v = testkit.random_state(ctx, rng)
            if rng.random() < 0.5:
                v = apply_cto(testkit.random_cto(ctx, source.n_branches, 1, rng),
                              source, ctx).columns[0]
            fast = check_ensemble_to_state(source, v, ctx)
            assert fast == _checked_forced_decision(source, _single(v.w), ctx).convertible

    def test_forced_controls_need_no_lp(self):
        """Reachable and random pairs with ell = 1 or m = 1, both ways and in
        both modes, d up to 8: check_cto answers them with no LP, as the
        full-grid LP does, with certificates and plans that hold."""
        verdicts = {}
        for policy in (RATIONAL, FLOATS):
            rng = random.Random(23)
            for k in range(24):
                ctx = testkit.random_context(rng.randint(2, 8), rng, policy)
                ell, m = (1, rng.randint(1, 4)) if k % 2 else (rng.randint(2, 4), 1)
                source = testkit.random_cq(ctx, ell, rng)
                target = (apply_cto(testkit.random_cto(ctx, ell, m, rng), source, ctx)
                          if k % 4 < 2 else testkit.random_cq(ctx, m, rng))
                for pair in ((source, target), (target, source)):
                    decision = _checked_forced_decision(*pair, ctx)
                    key = policy.mode, pair[0].n_branches == 1
                    verdicts.setdefault(key, set()).add(decision.convertible)
        assert len(verdicts) == 4
        assert all(v == {True, False} for v in verdicts.values())


class TestPMin:
    def test_worked_instance(self, uniform2):
        u = StateVector((F(1), F(0)))
        v = StateVector((F(3, 4), F(1, 4)))
        assert p_min(u, v, uniform2) == F(1, 2)

    def test_gibbs_target_is_free(self, uniform2):
        u = StateVector((F(1), F(0)))
        assert p_min(u, StateVector(uniform2.gibbs), uniform2) == 0

    def test_self_target_needs_full_weight(self, skew2):
        u = StateVector((F(1), F(0)))
        assert p_min(u, u, skew2) == 1

    def test_requires_majorization(self, skew2):
        g = StateVector(skew2.gibbs)
        with pytest.raises(NotThermoMajorizing):
            p_min(g, StateVector((F(1), F(0))), skew2)

    def test_threshold_is_sharp(self, uniform2):
        u = StateVector((F(1), F(0)))
        v = StateVector((F(3, 4), F(1, 4)))
        target = _single(v.w)
        for p, expected in ((F(0), False), (F(49, 100), False),
                            (F(1, 2), True), (F(3, 4), True), (F(1), True)):
            src = oracles.two_column_source(u, p, uniform2)
            assert check_cto(src, target, uniform2).convertible == expected


class TestOmega:
    def test_single_uniform_column(self):
        a = WitnessMatrix(((F(1, 3),), (F(1, 3),), (F(1, 3),)))
        assert omega(a, (F(1, 2), F(1, 4), F(1, 4))) == F(1, 3)

    def test_two_columns(self):
        a = WitnessMatrix(((F(1, 2), F(1, 4)), (F(0), F(1, 4))))
        assert omega(a, (F(3, 5), F(2, 5))) == F(3, 10)
        assert omega(a, (F(0), F(1))) == F(1, 4)

    def test_dimension_check(self):
        a = WitnessMatrix(((F(1, 2), F(1, 4)), (F(0), F(1, 4))))
        with pytest.raises(DimensionMismatch):
            omega(a, (F(1),))

    @given(st.integers(0, 10**6), st.fractions(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_positive_homogeneity(self, seed, c):
        rng = random.Random(seed)
        a = oracles.random_witness(3, 2, rng, RATIONAL)
        w = [F(rng.randint(0, 8), 8) for _ in range(3)]
        assert omega(a, [c * x for x in w]) == c * omega(a, w)


class TestWitness:
    def test_unit_multiplier_gives_flat_column(self):
        # lambda concentrated on the last grid row of branch 0
        y_in = (F(0), F(0), F(1), F(0), F(0), F(0))  # D=3, m=2, y-major
        a = extract_witness(((), y_in), 3, 2)
        assert a.column(0) == (F(1, 3), F(1, 3), F(1, 3))
        assert a.column(1) == (F(0), F(0), F(0))
        a.validate(RATIONAL)

    @staticmethod
    def _fold_reference(y_in, n_rows, m):
        """The fold before it went to integer numerators: a running sum of
        the multipliers' positive parts in their own type, then a division."""
        lam = [[y_in[y * n_rows + i] for y in range(m)] for i in range(n_rows)]
        zero = 0 * y_in[0]
        a = [[zero] * m for _ in range(n_rows)]
        for y in range(m):
            acc = zero
            for i in range(n_rows - 1, -1, -1):
                acc = acc + max(lam[i][y], zero)
                a[i][y] = acc
        total = sum(sum(row) for row in a)
        return tuple(tuple(v / total for v in row) for row in a)

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_fold_equals_the_reference(self, monkeypatch, policy):
        """On the refusals of reversed reachable pairs, with the phi screen
        bypassed so that each certificate comes from an LP, and on
        multipliers of mixed sign, the witness is the reference fold's:
        Fractions by type, numerator and denominator, floats by bits."""
        folds = []
        extract = convert.extract_witness

        def spy(certificate, n_rows, m):
            witness = extract(certificate, n_rows, m)
            folds.append((witness.a, self._fold_reference(certificate[1], n_rows, m)))
            return witness

        monkeypatch.setattr(convert, "extract_witness", spy)
        rng = random.Random(8)
        with oracles.phi_screen_bypassed():
            while len(folds) < 200:
                ctx = testkit.random_context(rng.randint(2, 6), rng, policy)
                source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
                plan = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 3), rng)
                check_cto(apply_cto(plan, source, ctx), source, ctx)
        for _ in range(100):  # multipliers of mixed sign, which the fold clips
            n_rows, m = rng.randint(1, 6), rng.randint(1, 4)
            y_in = [F(rng.randint(-3, 9), rng.randint(1, 12)) for _ in range(n_rows * m)]
            y_in[0] = abs(y_in[0]) + 1
            spy(((), [policy.number(v) for v in y_in]), n_rows, m)

        def key(x):
            return x.hex() if isinstance(x, float) else (type(x), x.numerator, x.denominator)

        for got, want in folds:
            assert [list(map(key, row)) for row in got] == \
                [list(map(key, row)) for row in want]

    def test_degenerate_certificate(self):
        with pytest.raises(DegenerateCertificate):
            extract_witness(((), (F(0), F(0))), 2, 1)

    def test_length_check(self):
        with pytest.raises(DimensionMismatch):
            extract_witness(((), (F(1),)), 2, 1)

    def test_subthreshold_instance_yields_negative_functional(self, uniform2):
        u = StateVector((F(1), F(0)))
        source = oracles.two_column_source(u, F(2, 5), uniform2)
        target = _single((F(3, 4), F(1, 4)))
        decision = check_cto(source, target, uniform2)
        assert not decision.convertible
        a = decision.witness
        a.validate(RATIONAL)
        assert verify_witness(a, source, target, uniform2) < 0

    def test_equal_states_give_zero(self, skew2):
        rng = random.Random(4)
        state = testkit.random_cq(skew2, 2, rng)
        for _ in range(20):
            a = oracles.random_witness(_n_segments(state, skew2), state.n_branches,
                                       rng, RATIONAL)
            assert verify_witness(a, state, state, skew2) == 0

    def test_convertible_pairs_never_negative(self, skew2):
        rng = random.Random(6)
        source = testkit.random_cq(skew2, 2, rng)
        plan = testkit.random_cto(skew2, 2, 2, rng)
        target = apply_cto(plan, source, skew2)
        for _ in range(100):
            a = oracles.random_witness(_n_segments(target, skew2), target.n_branches,
                                       rng, RATIONAL)
            assert verify_witness(a, source, target, skew2) >= 0

    def test_grid_shape_check(self, uniform2):
        a = WitnessMatrix(((F(1, 2),), (F(1, 2),), (F(0),)))
        target = _single((F(3, 4), F(1, 4)))  # grid has 2 segments
        with pytest.raises(DimensionMismatch):
            verify_witness(a, target, target, uniform2)

    def test_builds_each_curve_once(self, monkeypatch):
        rng = random.Random(11)
        ctx = testkit.random_context(5, rng, RATIONAL)
        state = testkit.random_cq(ctx, 3, rng)
        target = testkit.random_cq(ctx, 2, rng)
        a = oracles.random_witness(_n_segments(target, ctx), 2, rng, RATIONAL)
        calls = []
        build = lorenz.build_lorenz

        def spy(w, c, **kwargs):
            calls.append(w)
            return build(w, c, **kwargs)

        monkeypatch.setattr(lorenz, "build_lorenz", spy)
        monkeypatch.setattr(convert, "build_lorenz", spy)
        verify_witness(a, state, target, ctx)
        assert len(calls) == 3 + 2

    def test_refuses_a_column_that_rises(self):
        """The pair converts, so no witness refutes it; a column rising
        downwards is no witness and is refused, not scored -1/6."""
        ctx = GibbsContext.from_weights((F(1, 2), F(1, 4), F(1, 4)), RATIONAL)
        source = _single((F(1), F(0), F(0)))
        target = _single((F(1, 2), F(1, 3), F(1, 6)))
        assert check_cto(source, target, ctx).convertible
        rising = WitnessMatrix(((F(0),), (F(0),), (F(1),)))
        with pytest.raises(ValidationError, match="not non-increasing"):
            verify_witness(rising, source, target, ctx)

    def test_refuses_a_joint_state_of_mass_below_one(self):
        ctx = GibbsContext.from_weights((0.5, 0.5), FLOATS)
        whole, half = _single((1.0, 0.0)), _single((0.2, 0.3))
        witness = WitnessMatrix(((0.5,), (0.5,)))
        for source, target in ((whole, half), (half, whole)):
            with pytest.raises(NotNormalized):
                check_cto(source, target, ctx)
            with pytest.raises(NotNormalized):
                verify_witness(witness, source, target, ctx)

    def test_witness_matrix_validation(self):
        with pytest.raises(ValidationError):  # mass != 1
            WitnessMatrix(((F(1, 2),), (F(1, 4),))).validate(RATIONAL)
        with pytest.raises(ValidationError):  # increasing column
            WitnessMatrix(((F(1, 4),), (F(3, 4),))).validate(RATIONAL)
        with pytest.raises(ValidationError):  # negative entry
            WitnessMatrix(((F(3, 2),), (F(-1, 2),))).validate(RATIONAL)


class TestLtMajorize:
    def test_reflexive_with_identity_transfer(self):
        p = (F(1, 2), F(1, 3), F(1, 6))
        ok, theta = lt_majorize(p, p, RATIONAL, return_theta=True)
        assert ok
        # theta maps p to p and is lower-triangular column-stochastic
        for i, row in enumerate(theta):
            assert all(x == 0 for x in row[i + 1:])
            assert sum(theta[k][i] for k in range(3)) == F(1)
        assert [sum(theta[i][j] * p[j] for j in range(3)) for i in range(3)] \
            == list(p)

    def test_top_concentrated_is_maximal(self):
        rng = random.Random(8)
        for _ in range(10):
            q = testkit.random_distribution(3, rng, RATIONAL)
            assert lt_majorize((F(1), F(0), F(0)), q, RATIONAL)

    def test_order_matters(self):
        assert not lt_majorize((F(0), F(1)), (F(1), F(0)), RATIONAL)

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            lt_majorize((F(1),), (F(1, 2),), RATIONAL)

    def test_transfer_realizes_target(self):
        p = (F(1, 2), F(1, 2), F(0))
        q = (F(1, 4), F(1, 2), F(1, 4))
        ok, theta = lt_majorize(p, q, RATIONAL, return_theta=True)
        assert ok
        assert tuple(sum(theta[i][j] * p[j] for j in range(3))
                     for i in range(3)) == q


    def test_transfer_is_lower_triangular_and_exact(self):
        rng = random.Random(12)
        zero_entries = 0
        for _ in range(200):
            d = rng.randint(1, 6)
            q = [x if rng.random() < 0.7 else F(0)
                 for x in testkit.random_distribution(d, rng, RATIONAL)]
            q = [x / sum(q) for x in q] if sum(q) else [F(1, d)] * d
            p = list(q)
            for _ in range(rng.randint(0, 4)):  # move mass to earlier entries
                j = rng.randrange(d)
                i = rng.randrange(j + 1)
                amount = p[j] * F(rng.randint(0, 4), 4)
                p[j] -= amount
                p[i] += amount
            zero_entries += p.count(0)
            ok, theta = lt_majorize(p, q, RATIONAL, return_theta=True)
            assert ok
            for i in range(d):
                assert all(x == 0 for x in theta[i][i + 1:])
                assert all(x >= 0 for x in theta[i])
            for j in range(d):
                assert sum(theta[i][j] for i in range(d)) == 1
            assert [sum(theta[i][j] * p[j] for j in range(d)) for i in range(d)] \
                == q
        assert zero_entries > 0

    def test_float_transfer_skips_rounding_residue(self):
        # 0.1 + 0.2 leaves 5.6e-17 of room in row 0 after p_0 = 0.3 is poured
        p = (0.3, 0.7)
        q = (0.1 + 0.2, 0.7)
        ok, theta = lt_majorize(p, q, FLOATS, return_theta=True)
        assert ok
        assert theta == ((1.0, 0.0), (0.0, 1.0))

    def test_transfer_runs_no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lt_majorize ran an LP")

        monkeypatch.setattr(convert, "solve_feasibility", refuse)
        p = (F(1, 2), F(1, 2), F(0))
        ok, theta = lt_majorize(p, (F(1, 4), F(1, 2), F(1, 4)), RATIONAL,
                                return_theta=True)
        assert ok and theta[2][2] == 1


class TestConditionalLtMajorize:
    def test_identical_matrices(self):
        p = ((F(1, 2), F(1, 4)), (F(0), F(1, 4)))
        decision = conditional_lt_majorize(p, p, RATIONAL)
        assert decision.convertible

    def test_marginalization_is_feasible(self):
        p = ((F(1, 2), F(1, 4)), (F(0), F(1, 4)))
        marginal = ((F(3, 4),), (F(1, 4),))
        assert conditional_lt_majorize(p, marginal, RATIONAL).convertible

    def test_matches_check_cto_on_pq(self, uniform2):
        u = StateVector((F(1), F(0)))
        source = oracles.two_column_source(u, F(2, 5), uniform2)
        target = _single((F(3, 4), F(1, 4)))
        p, q = pq_increments(source, target, uniform2)
        assert not conditional_lt_majorize(p, q, RATIONAL).convertible

    def test_row_count_check(self):
        with pytest.raises(DimensionMismatch):
            conditional_lt_majorize(((F(1),),), ((F(1),), (F(0),)), RATIONAL)


class TestSigmaGrid:
    def test_uniform2(self, uniform2):
        assert sigma_grid(uniform2) == (F(1, 2),)

    def test_skew2(self, skew2):
        assert sigma_grid(skew2) == (F(1, 3), F(2, 3))

    def test_uniform3(self):
        ctx = GibbsContext.from_weights((F(1, 3),) * 3, RATIONAL)
        assert sigma_grid(ctx) == (F(1, 3), F(2, 3))

    def test_dimension_guard(self):
        ctx = GibbsContext.from_weights((F(1, 17),) * 17, RATIONAL)
        with pytest.raises(DimensionTooLarge):
            sigma_grid(ctx)

    def test_rational_d7_matches_permutation_prefix_sums(self):
        ctx = GibbsContext.from_weights(
            tuple(F(2**k, 127) for k in (3, 0, 6, 1, 5, 2, 4)), RATIONAL)
        brute = set()
        for perm in permutations(range(7)):
            acc = F(0)
            for k in perm[:-1]:
                acc += ctx.gibbs[k]
                brute.add(acc)
        grid = sigma_grid(ctx)
        assert grid == tuple(sorted(brute))
        assert len(grid) == 126
        assert all(type(s) is F for s in grid)

    def test_float_grid_merges_equal_sums(self):
        ctx = GibbsContext.from_weights((0.1, 0.2, 0.3, 0.4), FLOATS)
        # 0.1 + 0.2 and 0.3 differ only by rounding; 2^4 - 2 sums, 9 values
        assert sigma_grid(ctx) == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], abs=1e-12)


class TestPhiMonotones:
    def test_free_state_values_are_diagonal(self, skew2):
        g = skew2.gibbs
        state = CQState((
            StateVector(tuple(F(2, 5) * x for x in g)),
            StateVector(tuple(F(3, 5) * x for x in g)),
        ))
        report = phi_monotones(state, skew2)
        assert report.values == report.abscissae
        assert report.free_energy == pytest.approx(0.0, abs=1e-12)

    def test_correlated_state_saturates(self, uniform2):
        state = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(0), F(1, 2))),
        ))
        report = phi_monotones(state, uniform2, (F(1, 2),))
        assert report.values == (F(1),)

    def test_pure_column(self, uniform2):
        report = phi_monotones(_single((F(1), F(0))), uniform2, (F(1, 2),))
        assert report.values == (F(1),)

    def test_rational_uniform_fallback_is_exact(self):
        # d > 6 has no sigma grid; the i/64 fallback must stay rational
        ctx = testkit.random_context(7, 3, RATIONAL)
        report = phi_monotones(testkit.random_cq(ctx, 2, 4), ctx)
        assert len(report.abscissae) == 64
        assert all(type(s) is F for s in report.abscissae)
        assert all(type(v) is F for v in report.values)

    def test_out_of_range_abscissa(self, uniform2):
        with pytest.raises(OutOfRange):
            phi_monotones(_gibbs_column(uniform2), uniform2, (F(3, 2),))

    def test_nan_abscissa_is_out_of_range(self):
        ctx = GibbsContext.from_energies((0, 1, 2))
        with pytest.raises(OutOfRange):
            phi_monotones(_single((0.7, 0.2, 0.1)), ctx, [0.5, float("nan")])

    def test_abscissae_from_a_generator(self, skew2):
        state = testkit.random_cq(skew2, 2, 4)
        report = phi_monotones(state, skew2, (F(s, 4) for s in range(1, 5)))
        assert report.abscissae == (F(1, 4), F(1, 2), F(3, 4), F(1))
        assert len(report.values) == 4

    def test_abscissae_keep_the_given_order(self, skew2):
        state = testkit.random_cq(skew2, 3, 8)
        given = (F(3, 4), F(1, 5), F(1), F(0), F(1, 5), F(1, 2))
        report = phi_monotones(state, skew2, given)
        curves = cq_branch_curves(state, skew2)
        assert report.abscissae == given
        assert report.values == tuple(
            sum(c.value(s) for c in curves) for s in given)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_never_increases_under_plans(self, seed):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 4), rng, RATIONAL)
        source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        plan = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 3), rng)
        output = apply_cto(plan, source, ctx)
        before = phi_monotones(source, ctx)
        after = phi_monotones(output, ctx, before.abscissae)
        for b, a in zip(before.values, after.values):
            assert a <= b
        assert after.free_energy <= before.free_energy + 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_grid_sufficiency_off_grid(seed):
    """The control seed's guarantee extends off the bend grid by concavity."""
    rng = random.Random(seed)
    ctx = testkit.random_context(rng.randint(2, 4), rng, RATIONAL)
    source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
    plan = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 3), rng)
    target = apply_cto(plan, source, ctx)
    decision = check_cto(source, target, ctx)
    assert decision.convertible
    r = decision.plan_seed
    src_curves = cq_branch_curves(source, ctx)
    tgt_curves = cq_branch_curves(target, ctx)
    for _ in range(20):
        s = F(rng.randint(0, 128), 128)
        for y, cv in enumerate(tgt_curves):
            lhs = sum(r[x][y] * c.value(s) for x, c in enumerate(src_curves))
            assert lhs >= cv.value(s)


def _full_decision_system(source, target, ctx):
    """The decision LP with one row per branch at every union-grid point."""
    policy = ctx.policy
    p, q = pq_increments(source, target, ctx)
    ell, m = source.n_branches, target.n_branches
    zero, one = policy.zero(), policy.one()
    eq = []
    for x in range(ell):
        eq.append(([one if v // m == x else zero for v in range(ell * m)], one))
    ineq = []
    for y in range(m):
        cum_p, cum_q = [zero] * ell, zero
        for p_row, q_row in zip(p, q):
            cum_p = [a + b for a, b in zip(cum_p, p_row)]
            cum_q += q_row[y]
            row = [cum_p[v // m] if v % m == y else zero for v in range(ell * m)]
            ineq.append((row, cum_q))
    return LinearSystem(ell * m, eq=tuple(eq), ineq=tuple(ineq))


def _checked_forced_decision(source, target, ctx):
    """check_cto on a pair with ell = 1 or m = 1, run with
    `convert.solve_feasibility` raising, so no LP may run, and checked
    against the full-grid LP.  A refusal's closed-form Farkas certificate,
    caught on its way to `extract_witness`, holds on the full-grid system
    (at tolerance 0 in rational mode) and its witness has a negative
    functional; an acceptance's plan seed synthesizes a plan that reaches
    the target."""
    policy = ctx.policy
    certificates = []
    extract = convert.extract_witness

    def spy(certificate, n_rows, m):
        certificates.append(certificate)
        return extract(certificate, n_rows, m)

    def no_lp(*args):
        raise AssertionError("a forced control needs no LP")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convert, "extract_witness", spy)
        mp.setattr(convert, "solve_feasibility", no_lp)
        decision = check_cto(source, target, ctx)
    full = conditional_lt_majorize(*pq_increments(source, target, ctx), policy)
    assert decision.convertible == full.convertible
    if decision.convertible:
        reached = apply_cto(synthesize_cto(source, target, ctx, decision), source, ctx)
        for got, want in zip(reached.columns, target.columns):
            if policy.exact:
                assert got == want
            else:
                assert got.w == pytest.approx(want.w, abs=1e-9)
    else:
        eps = 0 if policy.exact else policy.eps_cmp
        system = _full_decision_system(source, target, ctx)
        assert lp.verify_certificate(system, certificates[0], eps)
        assert verify_witness(decision.witness, source, target, ctx) < 0
    return decision


def _decision_instances(policy, seed, count):
    """Reachable pairs, boundary refusals and unrelated random targets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ctx = testkit.random_context(rng.randint(2, 5), rng, policy)
        source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        kind = len(out) % 3
        if kind == 0:
            plan = testkit.random_cto(ctx, source.n_branches, rng.randint(1, 3), rng)
            target = apply_cto(plan, source, ctx)
        elif kind == 1:
            target = oracles.perturb_to_infeasible(source, ctx, rng)
            if target is None:
                continue
        else:
            target = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        out.append((ctx, source, target))
    return out


def _both_paths(source, target, ctx):
    """check_cto's decision, and its decision with the phi screen bypassed,
    which sends every ell, m >= 2 pair to row generation."""
    decision = check_cto(source, target, ctx)
    with oracles.phi_screen_bypassed():
        return decision, check_cto(source, target, ctx)


def _two_round_pair():
    """A rational pair whose decision takes two rounds of row generation."""
    ctx = GibbsContext.from_weights((F(1, 2), F(1, 4), F(1, 8), F(1, 8)),
                                    RATIONAL)
    source = CQState((StateVector((F(0), F(0), F(0), F(3, 8))),
                      StateVector((F(5, 8), F(0), F(0), F(0)))))
    target = CQState((
        StateVector((F(3, 8), F(0), F(0), F(0))),
        StateVector((F(0), F(5, 16), F(0), F(0))),
        StateVector((F(1, 16), F(1, 8), F(1, 8), F(0))),
    ))
    return source, target, ctx


class TestReducedDecisionLP:
    """check_cto keeps each target branch's own bends only; the answers must
    match the LP with every union-grid row, with and without the phi
    screen."""

    def test_rational_matches_full_grid_lp(self):
        verdicts = set()
        for ctx, source, target in _decision_instances(RATIONAL, 41, 120):
            p, q = pq_increments(source, target, ctx)
            full = conditional_lt_majorize(p, q, RATIONAL)
            for decision in _both_paths(source, target, ctx):
                assert decision.convertible == full.convertible
                verdicts.add(decision.convertible)
                if not decision.convertible:
                    a = decision.witness.validate(RATIONAL)
                    assert a.n_rows == len(p)
                    assert a.n_cols == target.n_branches
                    assert verify_witness(a, source, target, ctx) < 0
        assert verdicts == {True, False}

    def test_float_matches_scipy_on_full_system(self):
        verdicts = set()
        for ctx, source, target in _decision_instances(FLOATS, 43, 60):
            full = scipy_feasible(_full_decision_system(source, target, ctx))
            for decision in _both_paths(source, target, ctx):
                assert decision.convertible == full
                if not decision.convertible:
                    assert decision.witness.n_rows == _n_segments(target, ctx)
                    assert verify_witness(decision.witness, source, target, ctx) < 0
            verdicts.add(full)
        assert verdicts == {True, False}

    def test_one_row_per_own_bend_and_one(self, monkeypatch):
        """Row generation: every LP holds own-bend and s = 1 rows only, at most
        two per branch at first, and the answer satisfies every own row."""
        source, target, ctx = _two_round_pair()
        seen = []
        decide = convert._decide

        def spy(cum_p, cum_q, policy, rows, *dens):
            seen.append([set(r) for r in rows])
            return decide(cum_p, cum_q, policy, rows, *dens)

        monkeypatch.setattr(convert, "_decide", spy)
        decision = check_cto(source, target, ctx)
        curves = cq_branch_curves(target, ctx)
        assert [c.bend_abscissae for c in curves] == [
            (F(1, 2),), (F(1, 4),), (F(1, 8), F(3, 8), F(7, 8))]
        assert _n_segments(target, ctx) == 6  # s = 1/8, 1/4, 3/8, 1/2, 7/8, 1
        own = [{3, 5}, {1, 5}, {0, 2, 4, 5}]
        assert len(seen) == 2
        # s = 1 and the row where the conditional target curve most exceeds
        # the mixed source curve
        assert seen[0] == [{3, 5}, {1, 5}, {4, 5}]
        for rows in seen:
            assert all(r <= o for r, o in zip(rows, own))
        assert decision.convertible
        _, cum_p, cum_q = convert._grid_values(cq_branch_curves(source, ctx),
                                               cq_branch_curves(target, ctx), ctx.policy)
        r = decision.plan_seed
        for y, rows in enumerate(own):
            for i in rows:
                assert sum(r[x][y] * cum_p[i][x] for x in range(2)) >= cum_q[i][y]

    def test_budget_covers_every_round(self, monkeypatch):
        """The rounds of one decision share the work budget: at their summed
        work the decision passes, one unit short it raises, though every
        round alone fits."""
        from ctoconv.errors import SolveBudgetExceeded

        source, target, ctx = _two_round_pair()
        work = []
        solve = convert.solve_feasibility

        def spy(system, policy):
            res = solve(system, policy)
            work.append(res.work)
            return res

        monkeypatch.setattr(convert, "solve_feasibility", spy)
        assert check_cto(source, target, ctx).convertible
        total = sum(work)
        assert len(work) == 2 and max(work) < total - 1
        monkeypatch.setattr(lp, "_WORK_BUDGET", total)
        assert check_cto(source, target, ctx).convertible
        monkeypatch.setattr(lp, "_WORK_BUDGET", total - 1)
        with pytest.raises(SolveBudgetExceeded, match="rounds of one decision"):
            check_cto(source, target, ctx)

    def test_boundary_walks_match_full_grid_lp(self):
        """Walk reachable targets toward the steepest pure state, in float and
        in rational mode: 1/16 steps up to the first refusal, then 1/256
        steps across the last of them.  At every step check_cto agrees with
        the full-grid LP, with and without the phi screen, and every
        refusal's witness has a negative functional."""
        verdicts = []
        for policy, sizes in ((FLOATS, (4, 6, 8, 12)), (RATIONAL, (3, 4, 5))):
            rng = random.Random(17)
            for _ in range(10):
                ctx = testkit.random_context(rng.choice(sizes), rng, policy)
                source = testkit.random_cq(ctx, rng.randint(2, 4), rng)
                start = apply_cto(testkit.random_cto(ctx, source.n_branches,
                                                     rng.randint(2, 4), rng),
                                  source, ctx)
                walk = []
                for k in range(17):
                    walk.append(_toward_pure(start, ctx, k, 16))
                    if not check_cto(source, walk[-1], ctx).convertible:
                        break
                walk += [_toward_pure(start, ctx, 16 * (k - 1) + j, 256)
                         for j in range(1, 16)] if k else []
                for target in walk:
                    p, q = pq_increments(source, target, ctx)
                    full = conditional_lt_majorize(p, q, policy)
                    for decision in _both_paths(source, target, ctx):
                        assert decision.convertible == full.convertible
                        if not decision.convertible:
                            assert verify_witness(decision.witness, source,
                                                  target, ctx) < 0
                    verdicts.append(full.convertible)
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    def test_violation_scan_reads_nan_as_violated(self):
        """The scan picks the most negative slack below -tol, and a NaN
        slack, which compares false with everything, as violated."""
        nan = float("nan")
        col = [(0, 0.5), (1, 0.5)]
        cum_p = [[0.2, 0.4], [nan, 0.4], [0.6, 0.8], [1.0, 1.0]]
        cum_q = [[0.1], [0.1], [0.9], [1.0]]
        scan = convert._most_violated
        assert scan(col, cum_p, cum_q, 0, [0, 2, 3], 1e-7) == 2
        assert scan(col, cum_p, cum_q, 0, [0, 3], 1e-7) is None
        assert scan(col, cum_p, cum_q, 0, [0, 1, 3], 1e-7) == 1
        assert scan(col, cum_p, cum_q, 0, [0, 2, 1], 1e-7) == 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_large_float_pairs_answer(self, seed):
        """Float d=48, l=m=16: a reachable pair and its reverse answer both
        ways within the work budget, the reverse also with the phi screen
        bypassed."""
        rng = random.Random(seed)
        ctx = testkit.random_context(48, rng, FLOATS)
        source = testkit.random_cq(ctx, 16, rng)
        # branch y mixes the sources by a random control column, then
        # thermalizes partway: a CTO, cheaper to build than random_cto's
        control = [testkit.random_distribution(16, rng, FLOATS) for _ in range(16)]
        t = rng.uniform(0.05, 0.3)
        cols = []
        for y in range(16):
            w = [sum(control[x][y] * u.w[i] for x, u in enumerate(source.columns))
                 for i in range(48)]
            mass = sum(w)
            cols.append(StateVector(tuple((1 - t) * a + t * mass * g
                                          for a, g in zip(w, ctx.gibbs))))
        target = CQState(tuple(cols))
        assert check_cto(source, target, ctx).convertible
        for refusal in _both_paths(target, source, ctx):
            assert not refusal.convertible
            assert verify_witness(refusal.witness, target, source, ctx) < 0


def _screen_rows(source, target, ctx):
    """Per union-grid row i: gap_i = sum_y L[v^y](s_{i+1}) - sum_x L[u^x](s_{i+1}),
    and the threshold the phi screen needs gap_i to pass."""
    policy = ctx.policy
    _, cum_p, cum_q = convert._grid_values(cq_branch_curves(source, ctx),
                                           cq_branch_curves(target, ctx), policy)
    m = target.n_branches
    tol = 0 if policy.exact else policy.eps_lp
    return [(sum(q) - sum(p), (m * (i + 1) + 1) * tol)
            for i, (p, q) in enumerate(zip(cum_p, cum_q))]


def _screen_pairs(policy, seed, count):
    """Pairs with ell, m >= 2: reachable, the first unreachable target of a
    walk toward the pure state, reversed reachable and unrelated random."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ctx = testkit.random_context(rng.randint(3, 8), rng, policy)
        source = testkit.random_cq(ctx, rng.randint(2, 4), rng)
        m = rng.randint(2, 4)
        reached = apply_cto(testkit.random_cto(ctx, source.n_branches, m, rng), source, ctx)
        far = oracles.perturb_to_infeasible(source, ctx, rng)
        out += [(ctx, source, reached), (ctx, reached, source),
                (ctx, source, testkit.random_cq(ctx, m, rng))]
        if far is not None:
            out.append((ctx, source, far))
    return out


class TestPhiScreen:
    """For ell, m >= 2, check_cto refuses with no LP where some phi monotone
    sum_x L[u^x](s) grows at a union-grid row; every other pair goes to the
    LP unchanged."""

    @staticmethod
    def _decide_counting(source, target, ctx):
        """check_cto's decision, the certificates it folded, and its LP count."""
        certificates, solves = [], []
        extract, solve = convert.extract_witness, convert.solve_feasibility

        def spy(certificate, n_rows, m):
            certificates.append(certificate)
            return extract(certificate, n_rows, m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convert, "extract_witness", spy)
            mp.setattr(convert, "solve_feasibility",
                       lambda sys, policy: solves.append(sys) or solve(sys, policy))
            decision = check_cto(source, target, ctx)
        return decision, certificates, len(solves)

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_refusals_by_the_screen_and_by_the_lp(self, policy):
        """A pair refused by the screen runs no LP, and its certificate holds
        on the full-grid system (at tolerance 0 in rational mode).  An
        unreachable pair that passes the screen is refused by the LP.  Both
        witnesses verify: below 0 in rational mode, below -eps_lp in float
        mode."""
        screened = by_lp = 0
        bound = 0 if policy.exact else -policy.eps_lp
        for ctx, source, target in _screen_pairs(policy, 61, 400):
            decision, certificates, solves = self._decide_counting(source, target, ctx)
            fires = any(gap > tol for gap, tol in _screen_rows(source, target, ctx))
            assert (solves == 0) == fires
            if decision.convertible:
                continue
            assert verify_witness(decision.witness, source, target, ctx) < bound
            if fires:
                screened += 1
                eps = 0 if policy.exact else policy.eps_cmp
                system = _full_decision_system(source, target, ctx)
                assert lp.verify_certificate(system, certificates[0], eps)
            else:
                by_lp += 1
        assert screened >= 200 and by_lp >= 5

    def test_rational_functional_is_the_largest_gap_per_row(self):
        """A screened rational refusal's functional is exactly
        -gap_i / (m (i + 1)) at the row with the largest gap_i / (i + 1),
        the first of them on ties."""
        n = 0
        for ctx, source, target in _screen_pairs(RATIONAL, 67, 60):
            rows = _screen_rows(source, target, ctx)
            ratio = [gap / (i + 1) for i, (gap, _) in enumerate(rows)]
            i = ratio.index(max(ratio))
            if rows[i][0] <= 0:
                continue
            decision = check_cto(source, target, ctx)
            value = verify_witness(decision.witness, source, target, ctx)
            assert type(value) is F
            assert value == -rows[i][0] / (target.n_branches * (i + 1))
            n += 1
        assert n >= 20

    @pytest.mark.parametrize("m", [2, 3])
    def test_float_gap_inside_the_margin_goes_to_the_lp(self, m):
        """On uniform weights, sources (1/4, 1/4) twice and target branches
        (1/2m, 1/2m) with the first moved by delta: phi grows by delta at
        s = 1/2 only.  delta = m eps_lp lies in (eps_lp, (m + 1) eps_lp], so
        an LP decides; delta = (m + 3/2) eps_lp is refused with none."""
        ctx = GibbsContext.from_weights((0.5, 0.5), FLOATS)
        eps = FLOATS.eps_lp
        source = CQState((StateVector((0.25, 0.25)),) * 2)
        a = 1 / (2 * m)
        for delta, screened in ((m * eps, False), ((m + 1.5) * eps, True)):
            target = CQState((StateVector((a + delta, a - delta)),)
                             + (StateVector((a, a)),) * (m - 1))
            (gap, tol), (last, _) = _screen_rows(source, target, ctx)
            assert abs(gap - delta) < 1e-15 and abs(last) < 1e-15
            assert (eps < gap <= tol) != screened
            decision, _, solves = self._decide_counting(source, target, ctx)
            assert (solves == 0) == screened
            if screened:
                assert not decision.convertible

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_screen_changes_no_decision(self, policy):
        """On 500 seeded pairs, among them reachable targets and sources
        pushed 1e-9 to 1e-2 of the way toward the pure state: the same
        decisions and plan seeds (floats by bits, Fractions by type and
        value) as with the screen bypassed, and, where the screen does not
        refuse, the same witness."""
        def key(x):
            return x.hex() if isinstance(x, float) else (type(x), x)

        rng = random.Random(71)
        pushes = [(1, 10**9), (1, 10**7), (1, 10**5), (1, 10**3), (1, 10**2)]
        pairs, seen = [], set()
        while len(pairs) < 500:
            ctx = testkit.random_context(rng.randint(3, 6), rng, policy)
            source = testkit.random_cq(ctx, rng.randint(2, 4), rng)
            reached = apply_cto(testkit.random_cto(ctx, source.n_branches,
                                                   rng.randint(2, 4), rng), source, ctx)
            k, n = rng.choice(pushes)
            pairs += [(ctx, source, reached), (ctx, source, _toward_pure(reached, ctx, k, n)),
                      (ctx, source, _toward_pure(source, ctx, k, n))]
        for ctx, source, target in pairs:
            screened = []
            with oracles.phi_screen_bypassed(screened):
                scanned = check_cto(source, target, ctx)
            decision = check_cto(source, target, ctx)
            assert decision.convertible == scanned.convertible
            seed = decision.plan_seed
            assert (seed is None) == (scanned.plan_seed is None)
            if seed is not None:
                assert [list(map(key, r)) for r in seed] == \
                    [list(map(key, r)) for r in scanned.plan_seed]
            elif screened[0] is not None:
                assert decision == screened[0]
            else:
                assert decision.witness == scanned.witness
            seen.add((decision.convertible, screened[0] is None))
        assert seen == {(True, True), (False, True), (False, False)}


def _toward_pure(state, ctx, k, n):
    """The point k/n of the way from `state` to the pure state on the level
    of least Gibbs weight, each branch keeping its mass."""
    policy = ctx.policy
    top = min(range(ctx.dim), key=lambda i: ctx.gibbs[i])
    t = F(k, n) if policy.exact else k / n
    return CQState(tuple(
        StateVector(tuple((policy.one() - t) * w + (t * c.mass if i == top else 0 * w)
                          for i, w in enumerate(c.w)))
        for c in state.columns))


def _numbers(result):
    """Every number a result holds, through tuples, dicts, dataclasses and
    thermal maps: a map's rows `t`, and a product's factors, which `apply`
    reads instead."""
    if isinstance(result, (tuple, list)):
        for part in result:
            yield from _numbers(part)
    elif isinstance(result, dict):
        for part in result.values():
            yield from _numbers(part)
    elif isinstance(result, core.TOMatrix):
        yield from _numbers(result.t)
        if result._e is not None:
            yield from _numbers([result._e, result._steps, result._home])
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _numbers(getattr(result, field.name))
    else:
        yield result


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_rational_results_hold_no_float(seed):
    """Rational mode stays exact end to end: no decision, witness (with and
    without the phi screen), plan, threshold or monotone holds a float.  The
    one exception is the documented free_energy field of phi_monotones."""
    rng = random.Random(seed)
    ctx = testkit.random_context(rng.choice([2, 3, 4]), rng, RATIONAL)
    source = testkit.random_cq(ctx, rng.choice([1, 2, 3]), rng)
    target = apply_cto(testkit.random_cto(ctx, source.n_branches,
                                          rng.choice([1, 2, 3]), rng),
                       source, ctx)
    yes = check_cto(source, target, ctx)
    assert yes.convertible
    plan = synthesize_cto(source, target, ctx, yes)
    results = [yes, plan, apply_cto(plan, source, ctx)]
    unreachable = oracles.perturb_to_infeasible(source, ctx, rng)
    if unreachable is not None:
        for no in _both_paths(source, unreachable, ctx):
            gap = verify_witness(no.witness, source, unreachable, ctx)
            assert gap < 0
            results += [no, gap]
    u = source.columns[0].normalized()
    v = testkit.random_gibbs_stochastic(ctx, 3, rng).apply(u)
    monotones = phi_monotones(source, ctx)
    results += [p_min(u, v, ctx), monotones.abscissae, monotones.values]
    leaked = [x for x in _numbers(results) if isinstance(x, float)]
    assert not leaked


def test_numbers_reach_every_map_number():
    """`_numbers` finds a float held by a dense map or by any factor of a
    product, so `test_rational_results_hold_no_float` checks every map."""
    half, one = F(1, 2), F(1)
    e, steps, home = [{0: one}, {1: one}], [(0, 1, half, F(1, 4), F(1, 4))], [(0, one), (1, one)]
    float_maps = [core.TOMatrix(((one, 0.0), (F(0), one))),
                  core.TOMatrix.product([{0: 1.0}, {1: one}], steps, home),
                  core.TOMatrix.product(e, [(0, 1, 0.5, F(1, 4), F(1, 4))], home),
                  core.TOMatrix.product(e, steps, [(0, one), (1, 1.0)])]
    for t in float_maps:
        plan = core.CTOPlan(((one,),), {(0, 0): t})
        assert any(isinstance(x, float) for x in _numbers([plan]))
    exact = core.CTOPlan(((one,),), {(0, 0): core.TOMatrix.product(e, steps, home)})
    assert not any(isinstance(x, float) for x in _numbers([exact]))


def test_floats_do_not_enter_rational_mode():
    """Float weights and float state entries are refused in rational mode,
    where they would surface as float entries of T or of apply_cto's output."""
    for weights in ((0.75, 0.25), ("3/4", 0.25)):
        with pytest.raises(ValidationError, match="rational mode"):
            GibbsContext.from_weights(weights, RATIONAL)
    # a context is checked when made, so no invalid one reaches a caller
    ctx = GibbsContext.from_weights((F(3, 4), F(1, 4)), RATIONAL)
    for gibbs in ((0.5, 0.5), (F(1, 2), 0.5)):  # a float first, or past g[0]
        for call in (lambda: GibbsContext(gibbs=gibbs, beta=1, partition=1,
                                          policy=RATIONAL),
                     lambda: dataclasses.replace(ctx, gibbs=gibbs)):
            with pytest.raises(ValidationError, match="int or Fraction"):
                call()
    target = _single((F(3, 4), F(1, 4)))
    plan = synthesize_cto(_single((F(1), F(0))), target, ctx)
    floats = _single((1.0, 0.0))
    for call in (lambda: apply_cto(plan, floats, ctx),
                 lambda: check_cto(floats, target, ctx)):
        with pytest.raises(ValidationError, match="float component"):
            call()


class TestNoFloatInRationalObjects:
    """A plan, a thermal map or a witness with float entries is refused in
    rational mode, where it would put floats into an exact result."""

    @staticmethod
    def _tour():
        ctx = GibbsContext.from_weights((F(2, 3), F(1, 3)), RATIONAL)
        source = CQState((StateVector((F(2, 3), F(0))), StateVector((F(0), F(1, 3)))))
        return ctx, source, _single((F(1), F(0)))

    def test_float_control_seed(self):
        ctx, source, target = self._tour()
        seed = convert.Decision(True, plan_seed=((1.0,), (1.0,)))
        with pytest.raises(ValidationError, match="float control entry 1.0 in rational mode"):
            synthesize_cto(source, target, ctx, seed)

    def test_float_thermal_map(self):
        ctx = GibbsContext.from_weights((F(1, 2), F(1, 2)), RATIONAL)
        t = core.TOMatrix(((1.0, 0.0), (0.0, 1.0)))
        for call in (lambda: t.validate(ctx),
                     lambda: core.CTOPlan(((F(1),),), {(0, 0): t}).validate(ctx)):
            with pytest.raises(ValidationError, match="float matrix entry 1.0 in rational mode"):
                call()

    def test_float_witness(self):
        ctx, source, target = self._tour()
        witness = check_cto(target, source, ctx).witness
        assert verify_witness(witness, target, source, ctx) < 0
        floats = WitnessMatrix(tuple(tuple(map(float, row)) for row in witness.a))
        with pytest.raises(ValidationError, match="float witness entry .* in rational mode"):
            verify_witness(floats, target, source, ctx)


class TestValidatesEachColumnOnce:
    """Public entry points check each state column exactly once."""

    @staticmethod
    def _spy(monkeypatch):
        """Records each column checked and each column summed;
        StateVector.validate and CQState.validate both check a column
        through `_checked_mass`, which sums it through `mass` in float mode
        and derives its integer form `StateVector._ints` in rational mode.
        The form is held once derived, so the returned `forget` drops it
        from the given states, each call then counting its own derivations."""
        checked, summed = [], []
        check, mass, ints = StateVector._checked_mass, StateVector.mass.fget, \
            StateVector._ints.func

        def spy_check(self, policy):
            checked.append(self)
            return check(self, policy)

        def spy_mass(self):
            summed.append(self)
            return mass(self)

        def spy_ints(self):
            summed.append(self)
            return ints(self)

        def forget(states):
            for c in states:
                c.__dict__.pop("_ints", None)

        held = functools.cached_property(spy_ints)
        held.__set_name__(StateVector, "_ints")
        monkeypatch.setattr(StateVector, "_checked_mass", spy_check)
        monkeypatch.setattr(StateVector, "mass", property(spy_mass))
        monkeypatch.setattr(StateVector, "_ints", held)
        return checked, summed, forget

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_one_check_per_column(self, monkeypatch, policy):
        rng = random.Random(8)
        ctx = testkit.random_context(4, rng, policy)
        ell, m, k = 3, 2, 3
        source = testkit.random_cq(ctx, ell, rng)
        target = testkit.random_cq(ctx, m, rng)
        u = testkit.random_state(ctx, rng)
        g = StateVector(ctx.gibbs)  # every state thermo-majorizes it
        states = [u, g, testkit.random_state(ctx, rng)]
        witness = oracles.random_witness(_n_segments(target, ctx), m, rng, policy)
        plan = testkit.random_cto(ctx, ell, m, rng)
        reached = apply_cto(plan, source, ctx)
        decision = check_cto(source, reached, ctx)
        assert decision.convertible
        checked, summed, forget = self._spy(monkeypatch)
        # (call, columns checked, columns summed in float mode and forms
        # derived in rational mode, or None when not pinned): a column's
        # rational mass read after its check comes from the held form
        for call, checks, sums in [
            (lambda: check_cto(source, target, ctx), ell + m, (ell + m,) * 2),
            (lambda: verify_witness(witness, source, target, ctx), ell + m, (ell + m,) * 2),
            (lambda: check_state_to_ensemble(u, target, ctx), 1 + m, (1 + m,) * 2),
            (lambda: check_ensemble_to_state(source, u, ctx), ell + 1, (ell + 1,) * 2),
            (lambda: phi_monotones(source, ctx), ell, (2 * ell, ell)),
            (lambda: thermo_majorizes(u, g, ctx), 2, (2, 2)),
            (lambda: p_min(u, g, ctx), 2, (2, 2)),
            (lambda: embed_states(states, ctx), k, (k, k)),
            # a check, then one read of the mass that weighs and normalizes
            (lambda: resource_value(source, ctx), ell, (2 * ell, ell)),
            (lambda: asymptotic_rate(source, target, ctx), ell + m,
             (2 * (ell + m), ell + m)),
            (lambda: synthesize_to(u, g, ctx), 2, None),
            (lambda: synthesize_cto(source, reached, ctx, decision),
             ell + reached.n_branches, None),
            (lambda: apply_cto(plan, source, ctx), ell, None),
        ]:
            forget([*source.columns, *target.columns, *reached.columns, *states])
            checked.clear()
            summed.clear()
            call()
            assert len(checked) == checks
            if sums is not None:
                assert len(summed) == sums[policy.exact]

    BAD_COLUMNS = {
        "negative": (0.6, -0.1, 0.5),
        "nan": (float("nan"), 0.5, 0.5),
        "over-mass": (0.5, 0.4, 0.3),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_COLUMNS))
    def test_bad_column_raises_the_same_error(self, kind):
        ctx = GibbsContext.from_weights((0.5, 0.3, 0.2), FLOATS)
        good = CQState((StateVector((0.5, 0.3, 0.2)),))
        bad = CQState((StateVector(self.BAD_COLUMNS[kind]),))
        witness = WitnessMatrix(((1.0,),))
        u = StateVector((0.7, 0.2, 0.1))
        for call in [
            lambda: check_cto(bad, good, ctx),
            lambda: check_cto(good, bad, ctx),
            lambda: verify_witness(witness, bad, good, ctx),
            lambda: verify_witness(witness, good, bad, ctx),
            lambda: check_state_to_ensemble(u, bad, ctx),
        ]:
            with pytest.raises(ValidationError) as info:
                call()
            assert info.type is ValidationError
            assert ("exceeds 1" if kind == "over-mass" else "negative component") \
                in str(info.value)


class TestJointRuleOnCurves:
    """`cq_branch_curves` applies the joint rule to every entry point that
    takes a joint state: no columns raises ZeroTotalMass, a total other
    than one raises NotNormalized, and the source's error comes first."""

    @staticmethod
    def _setup(policy):
        ctx = GibbsContext.from_weights(("1/2", "3/10", "1/5"), policy)

        def col(*xs):
            return StateVector(tuple(policy.number(x) for x in xs))

        good = CQState((col("1/2", "3/10", "1/5"),))
        empty = CQState(())
        half = CQState((col("1/5", "1/5", "1/10"),))  # total 1/2
        return ctx, col("7/10", "1/5", "1/10"), good, empty, half

    @staticmethod
    def _cases(ctx, u, good, witness):
        """(entry point, a call on one joint state) for each joint state an
        entry point takes, the other state good."""
        return [
            ("check_cto source", lambda s: check_cto(s, good, ctx)),
            ("check_cto target", lambda s: check_cto(good, s, ctx)),
            ("verify_witness source", lambda s: verify_witness(witness, s, good, ctx)),
            ("verify_witness target", lambda s: verify_witness(witness, good, s, ctx)),
            ("check_state_to_ensemble", lambda s: check_state_to_ensemble(u, s, ctx)),
            ("check_ensemble_to_state", lambda s: check_ensemble_to_state(s, u, ctx)),
            ("phi_monotones", lambda s: phi_monotones(s, ctx)),
            ("cq_branch_curves", lambda s: cq_branch_curves(s, ctx)),
        ]

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_bad_joint_state_raises(self, policy):
        ctx, u, good, empty, half = self._setup(policy)
        witness = WitnessMatrix(((policy.one(),),))
        for name, call in self._cases(ctx, u, good, witness):
            with pytest.raises(ZeroTotalMass):
                call(empty)
            with pytest.raises(NotNormalized, match="joint state mass") as info:
                call(half)
            assert info.type is NotNormalized, name

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_source_error_comes_first(self, policy):
        ctx, u, _, empty, half = self._setup(policy)
        witness = WitnessMatrix(((policy.one(),),))
        for call in (lambda a, b: check_cto(a, b, ctx),
                     lambda a, b: verify_witness(witness, a, b, ctx)):
            with pytest.raises(ZeroTotalMass):
                call(empty, half)
            with pytest.raises(NotNormalized) as info:
                call(half, empty)
            assert info.type is NotNormalized
        unnormalized = StateVector(tuple(x / 2 for x in u.w))
        with pytest.raises(MassMismatch, match="source state"):
            check_state_to_ensemble(unnormalized, empty, ctx)
        with pytest.raises(NotNormalized, match="joint state mass"):
            check_ensemble_to_state(half, unnormalized, ctx)


_DYADIC = 2 ** 48


def _dyadic(xs):
    """Nonnegative Fractions rounded to multiples of 2^-48 summing to exactly
    one, the largest absorbing the rounding.  Each is exactly a float, and
    so is every partial sum, so float and rational arithmetic see the same
    numbers and Fraction(float(x)) == x."""
    n = [round(x * _DYADIC) for x in xs]
    n[n.index(max(n))] += _DYADIC - sum(n)
    return [F(k, _DYADIC) for k in n]


def _dyadic_pair(state):
    """A joint state rounded by `_dyadic` over all its entries, as floats and
    as the Fractions of those floats."""
    flat = _dyadic([F(x) for c in state.columns for x in c.w])
    d = state.dim
    cols = [flat[i:i + d] for i in range(0, len(flat), d)]
    as_float = CQState(tuple(StateVector(tuple(float(x) for x in c)) for c in cols))
    as_exact = CQState(tuple(StateVector(tuple(F(x) for x in c.w))
                             for c in as_float.columns))
    assert [x for c in as_exact.columns for x in c.w] == flat
    return as_float, as_exact


def test_float_agrees_with_rational_along_boundary_walks():
    """Float instances, rounded to dyadic numbers so that Fraction(float)
    gives the same instance in rational mode, walk a reachable target toward
    a pure state in 256 steps.  The rational answers switch from yes to no
    once (the reachable set is convex), and float check_cto agrees with
    them at every step but the two that straddle that switch, where its
    eps_lp may still answer yes.  At those two steps both modes answer the
    same with the phi screen bypassed."""
    rng = random.Random(29)
    walks, steps, crossed, straddling = 8, 256, 0, 0
    for _ in range(walks):
        d = rng.randint(3, 6)
        g = _dyadic([F(x) for x in testkit.random_context(d, rng, FLOATS).gibbs])
        ctx_f = GibbsContext.from_weights([float(x) for x in g], FLOATS)
        ctx_q = GibbsContext.from_weights([F(float(x)) for x in g], RATIONAL)
        src_f, src_q = _dyadic_pair(testkit.random_cq(ctx_f, rng.randint(1, 3), rng))
        plan = testkit.random_cto(ctx_f, src_f.n_branches, rng.randint(1, 3), rng)
        # a sixteenth of thermalization leaves every bend row slack at t = 0
        start = CQState(tuple(
            StateVector(tuple(F(w) * F(15, 16) + sum(map(F, c.w)) * gi / 16
                              for w, gi in zip(c.w, g)))
            for c in apply_cto(plan, src_f, ctx_f).columns))
        exact, approx = [], []
        for k in range(steps + 1):
            tgt_f, tgt_q = _dyadic_pair(_toward_pure(start, ctx_q, k, steps))
            exact.append(check_cto(src_q, tgt_q, ctx_q).convertible)
            approx.append(check_cto(src_f, tgt_f, ctx_f).convertible)
        first_no = exact.count(True)
        assert exact[0] and exact == sorted(exact, reverse=True)
        crossed += first_no <= steps
        for k in {first_no - 1, first_no} & set(range(steps + 1)):
            tgt_f, tgt_q = _dyadic_pair(_toward_pure(start, ctx_q, k, steps))
            with oracles.phi_screen_bypassed():  # the straddling steps on the LP
                assert check_cto(src_q, tgt_q, ctx_q).convertible == exact[k]
                assert check_cto(src_f, tgt_f, ctx_f).convertible == approx[k]
        differ = [k for k in range(steps + 1) if approx[k] != exact[k]]
        assert set(differ) <= {first_no - 1, first_no}
        straddling += len(differ)
    print(f"{crossed} of {walks} walks cross the rational boundary; float and "
          f"rational differ at {straddling} of the {2 * crossed} steps that "
          f"straddle it")
    assert crossed >= walks - 2
