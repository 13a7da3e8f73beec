"""Decision theory: bend grids, P/Q reduction, convertibility, corollaries,
witnesses and monotones."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import (
    CQState,
    GibbsContext,
    StateVector,
    WitnessMatrix,
    bend_grid,
    build_pq,
    check_cto,
    check_ensemble_to_state,
    check_state_to_ensemble,
    conditional_lt_majorize,
    extract_witness,
    lt_majorize,
    omega,
    p_min,
    phi_monotones,
    sigma_grid,
    testkit,
    verify_witness,
)
from ctoconv.lorenz import cq_branch_curves, _eval_clamped
from ctoconv.synth import apply_cto
from ctoconv.errors import (
    DegenerateCertificate,
    DimensionMismatch,
    DimensionTooLarge,
    MassMismatch,
    NotThermoMajorizing,
    OutOfRange,
    ValidationError,
)

from conftest import FLOATS, RATIONAL


def _single(w):
    return CQState((StateVector(w),))


def _gibbs_column(ctx):
    return _single(ctx.gibbs)


class TestBendGrid:
    def test_gibbs_target_has_no_bends(self, uniform2):
        grid = bend_grid(_gibbs_column(uniform2), uniform2)
        assert grid.abscissae == (F(0), F(1))
        assert grid.n_segments == 1

    def test_single_bend(self, uniform2):
        grid = bend_grid(_single((F(3, 4), F(1, 4))), uniform2)
        assert grid.abscissae == (F(0), F(1, 2), F(1))
        assert grid.n_segments == 2

    def test_union_of_branch_bends(self, skew2):
        target = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 10), F(2, 5))),
        ))
        grid = bend_grid(target, skew2)
        assert grid.abscissae == (F(0), F(1, 3), F(2, 3), F(1))
        assert grid.interior == (F(1, 3), F(2, 3))


class TestBuildPQ:
    def test_trivial_gibbs_pair(self, uniform2):
        target = _gibbs_column(uniform2)
        grid = bend_grid(target, uniform2)
        pq = build_pq(target, target, uniform2, grid)
        assert pq.p == ((F(1),),)
        assert pq.q == ((F(1),),)

    def test_single_columns(self, uniform2):
        source = _single((F(1), F(0)))
        target = _single((F(3, 4), F(1, 4)))
        grid = bend_grid(target, uniform2)
        pq = build_pq(source, target, uniform2, grid)
        assert pq.p_column(0) == (F(1), F(0))
        assert pq.q_column(0) == (F(3, 4), F(1, 4))

    def test_two_branch_source(self, uniform2):
        source = CQState((
            StateVector((F(1, 2), F(0))),
            StateVector((F(1, 4), F(1, 4))),
        ))
        target = _single((F(3, 4), F(1, 4)))
        grid = bend_grid(target, uniform2)
        pq = build_pq(source, target, uniform2, grid)
        assert pq.p == ((F(1, 2), F(1, 4)), (F(0), F(1, 4)))
        assert pq.q == ((F(3, 4),), (F(1, 4),))

    def test_cumulative_reconstruction(self, skew2):
        rng = random.Random(5)
        source = testkit.random_cq(skew2, 2, rng)
        target = testkit.random_cq(skew2, 2, rng)
        grid = bend_grid(target, skew2)
        pq = build_pq(source, target, skew2, grid)
        curves = cq_branch_curves(source, skew2)
        for x, curve in enumerate(curves):
            acc = F(0)
            for i, s in enumerate(grid.abscissae[1:]):
                acc += pq.p[i][x]
                assert acc == curve.value(s)

    def test_dimension_mismatch(self, uniform2, skew2):
        target = _gibbs_column(uniform2)
        grid = bend_grid(target, uniform2)
        three = GibbsContext.from_weights((F(1, 3), F(1, 3), F(1, 3)), RATIONAL)
        with pytest.raises(DimensionMismatch):
            build_pq(_single((F(1), F(0), F(0))), target, three, grid)


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

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_agreement_with_full_check(self, seed):
        rng = random.Random(seed)
        ctx = testkit.random_context(rng.randint(2, 4), rng, RATIONAL)
        u = testkit.random_state(ctx, rng)
        target = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        fast = check_state_to_ensemble(u, target, ctx)
        assert fast == check_cto(_single(u.w), target, ctx).convertible
        source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
        v = testkit.random_state(ctx, rng)
        fast = check_ensemble_to_state(source, v, ctx)
        assert fast == check_cto(source, _single(v.w), ctx).convertible


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
            src = testkit.two_column_source(u, p, uniform2)
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
        a = testkit.random_witness(3, 2, rng, RATIONAL)
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

    def test_degenerate_certificate(self):
        with pytest.raises(DegenerateCertificate):
            extract_witness(((), (F(0), F(0))), 2, 1)

    def test_length_check(self):
        with pytest.raises(DimensionMismatch):
            extract_witness(((), (F(1),)), 2, 1)

    def test_subthreshold_instance_yields_negative_functional(self, uniform2):
        u = StateVector((F(1), F(0)))
        source = testkit.two_column_source(u, F(2, 5), uniform2)
        target = _single((F(3, 4), F(1, 4)))
        decision = check_cto(source, target, uniform2)
        assert not decision.convertible
        a = decision.witness
        a.validate(RATIONAL)
        assert verify_witness(a, source, target, uniform2) < 0

    def test_equal_states_give_zero(self, skew2):
        rng = random.Random(4)
        state = testkit.random_cq(skew2, 2, rng)
        grid = bend_grid(state, skew2)
        for _ in range(20):
            a = testkit.random_witness(grid.n_segments, state.n_branches,
                                       rng, RATIONAL)
            assert verify_witness(a, state, state, skew2) == 0

    def test_convertible_pairs_never_negative(self, skew2):
        rng = random.Random(6)
        source = testkit.random_cq(skew2, 2, rng)
        plan = testkit.random_cto(skew2, 2, 2, rng)
        target = apply_cto(plan, source, skew2)
        grid = bend_grid(target, skew2)
        for _ in range(100):
            a = testkit.random_witness(grid.n_segments, target.n_branches,
                                       rng, RATIONAL)
            assert verify_witness(a, source, target, skew2) >= 0

    def test_grid_shape_check(self, uniform2):
        a = WitnessMatrix(((F(1, 2),), (F(1, 2),), (F(0),)))
        target = _single((F(3, 4), F(1, 4)))  # grid has 2 segments
        with pytest.raises(DimensionMismatch):
            verify_witness(a, target, target, uniform2)

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
        source = testkit.two_column_source(u, F(2, 5), uniform2)
        target = _single((F(3, 4), F(1, 4)))
        grid = bend_grid(target, uniform2)
        pq = build_pq(source, target, uniform2, grid)
        assert not conditional_lt_majorize(pq.p, pq.q, RATIONAL).convertible

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
        ctx = GibbsContext.from_weights((F(1, 7),) * 7, RATIONAL)
        with pytest.raises(DimensionTooLarge):
            sigma_grid(ctx)


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
