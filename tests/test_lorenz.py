"""Lorenz curves: construction, evaluation, majorization and embedding."""

import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctoconv import (
    CQState,
    GibbsContext,
    LorenzCurve,
    NumericPolicy,
    StateVector,
    apply_cto,
    build_lorenz,
    check_cto,
    check_ensemble_to_state,
    check_state_to_ensemble,
    embed_states,
    p_min,
    phi_monotones,
    testkit,
    thermo_majorizes,
    verify_witness,
)
from ctoconv.lorenz import merged_bend_grid
from ctoconv.errors import (
    DegenerateSource,
    DimensionMismatch,
    EmptyInput,
    MassMismatch,
    NotThermoMajorizing,
    OutOfRange,
)

from conftest import FLOATS, RATIONAL, lorenz_oracle


class TestBuildLorenz:
    def test_gibbs_state_is_diagonal(self, skew2):
        curve = build_lorenz(StateVector(skew2.gibbs), skew2)
        assert curve.points == ((F(0), F(0)), (F(1), F(1)))
        assert curve.bend_abscissae == ()

    def test_uniform2_vertices(self, uniform2):
        curve = build_lorenz(StateVector((F(3, 4), F(1, 4))), uniform2)
        assert curve.points == (
            (F(0), F(0)), (F(1, 2), F(3, 4)), (F(1), F(1))
        )

    def test_zero_vector(self, uniform2):
        curve = build_lorenz(StateVector((F(0), F(0))), uniform2)
        assert curve.mass == 0
        assert curve.value(F(1, 3)) == 0
        assert curve.value(F(1)) == 0

    def test_dimension_mismatch(self, uniform2):
        with pytest.raises(DimensionMismatch):
            build_lorenz(StateVector((F(1), F(0), F(0))), uniform2)

    def test_sorted_by_ratio(self, skew2):
        # w_2/g_2 = 3/5 / 1/3 > w_1/g_1, so level 2 comes first
        curve = build_lorenz(StateVector((F(2, 5), F(3, 5))), skew2)
        assert curve.points == (
            (F(0), F(0)), (F(1, 3), F(3, 5)), (F(1), F(1))
        )


class TestCurveInvariant:
    """Abscissae strictly increase from 0 and end at exactly 1, also when a
    Gibbs weight far below the float rounding of 1 comes last."""

    def test_tiny_weight_last_in_the_order(self):
        # 0.9526 + 0.0474 rounds to 1.0000000000000002 in float, before the
        # level of weight 2.7e-20 closes the curve
        ctx = GibbsContext.from_energies((0.0, 3.0, 45.0))
        u = StateVector((0.0, 1.0, 0.0))
        v = StateVector((0.5, 0.5, 0.0))
        cv = build_lorenz(v, ctx)
        assert cv.points == ((0.0, 0.0), (ctx.gibbs[1], 0.5), (1.0, 1.0))
        assert thermo_majorizes(u, v, ctx)
        assert check_cto(CQState((u,)), CQState((v,)), ctx).convertible
        assert p_min(u, v, ctx) == pytest.approx(
            (0.5 - ctx.gibbs[1]) / (1.0 - ctx.gibbs[1]), abs=1e-15)
        mono = phi_monotones(CQState((u.scaled(0.5), v.scaled(0.5))), ctx)
        assert all(0 < s < 1 for s in mono.abscissae)
        assert mono.values[1] == pytest.approx(0.75)

    def test_tiny_weight_between_two_levels(self):
        # the level of weight 1.4e-20 comes second in the order, and adding
        # it leaves the float abscissa 0.5 unchanged
        ctx = GibbsContext.from_energies((0.0, 0.0, 45.0))
        u = StateVector((0.6, 0.4, ctx.gibbs[2]))
        assert build_lorenz(u, ctx).points == ((0.0, 0.0), (0.5, 0.6), (1.0, 1.0))

    def test_steep_tiny_weight_segment_keeps_its_row(self):
        # L[e_4] rises to 1 over a Gibbs weight of 4.7e-13 < eps_merge: its
        # bend is not merged into s = 0, so no row is lost
        ctx = GibbsContext.from_energies((0.0, 0.0, 0.0, 0.0, 27.0))
        top = StateVector((0.0, 0.0, 0.0, 0.0, 1.0))
        grid = merged_bend_grid([build_lorenz(top, ctx)], ctx.policy)
        assert grid == [0.0, ctx.gibbs[4], 1.0]
        _, (embedded,) = embed_states([top], ctx)
        assert embedded.w == (1.0, 0.0)
        source = CQState((StateVector((1.0, 0.0, 0.0, 0.0, 0.0)),))
        target = CQState((source.columns[0].scaled(0.5), top.scaled(0.5)))
        assert not check_state_to_ensemble(source.columns[0], target, ctx)
        decision = check_cto(source, target, ctx)
        assert not decision.convertible
        assert verify_witness(decision.witness, source, target, ctx) < 0


class TestEvalLorenz:
    def test_origin(self, uniform2):
        curve = build_lorenz(StateVector((F(3, 4), F(1, 4))), uniform2)
        assert curve.value(F(0)) == 0

    def test_interpolation_left_segment(self, skew2):
        curve = build_lorenz(StateVector((F(1), F(0))), skew2)
        assert curve.value(F(1, 3)) == F(1, 2)

    def test_interpolation_right_segment(self, skew2):
        curve = build_lorenz(StateVector((F(1, 5), F(4, 5))), skew2)
        assert curve.value(F(2, 3)) == F(9, 10)

    def test_out_of_range(self, uniform2):
        curve = build_lorenz(StateVector((F(1), F(0))), uniform2)
        with pytest.raises(OutOfRange):
            curve.value(F(-1, 10))
        with pytest.raises(OutOfRange):
            curve.value(F(11, 10))

    def test_nan_abscissa_is_out_of_range(self):
        curve = build_lorenz(StateVector((0.7, 0.2, 0.1)),
                             GibbsContext.from_energies((0, 1, 2)))
        with pytest.raises(OutOfRange):
            curve.value(math.nan)
        with pytest.raises(OutOfRange):
            curve.values([0.5, math.nan])
        with pytest.raises(OutOfRange):
            curve.values([math.nan, 0.5])

    def test_values_refuses_a_decreasing_abscissa(self, uniform2):
        curve = build_lorenz(StateVector((F(3, 4), F(1, 4))), uniform2)
        assert curve.values([F(1, 4), F(1, 4), F(3, 4)]) == [
            F(3, 8), F(3, 8), F(7, 8)]
        with pytest.raises(OutOfRange):
            curve.values([F(3, 4), F(1, 4)])


def _reference_value(curve, s):
    """The curve at s by `bisect_right` on its abscissae, apart from the walk
    in `LorenzCurve.values`; the same interpolation formula."""
    pts = curve.points
    xs = tuple(p[0] for p in pts)
    if s < xs[0] or s > xs[-1]:
        raise OutOfRange(s)
    k = bisect_right(xs, s)
    if k >= len(pts):
        return pts[-1][1]
    (s0, t0), (s1, t1) = pts[k - 1], pts[k]
    if s == s0:
        return t0
    return t0 + (t1 - t0) * (s - s0) / (s1 - s0)


def _reference_build(w, ctx):
    """`build_lorenz`'s loop written through the policy's methods, one call
    per level: slopes within eps_merge extend a segment, and in float mode
    the abscissa is capped at 1 and a vertex at or before the last joins it."""
    policy, g = ctx.policy, ctx.gibbs
    ratios = [w.w[i] / g[i] for i in range(w.dim)]
    order = sorted(range(w.dim), key=ratios.__getitem__, reverse=True)
    noisy = not policy.exact
    pts = [(policy.zero(), policy.zero())]
    s = t = policy.zero()
    prev_slope = None
    for i in order:
        s = s + g[i]
        t = t + w.w[i]
        if noisy and s > 1.0:
            s = 1.0
        slope = ratios[i]
        if prev_slope is not None and (
                policy.close(prev_slope, slope, policy.eps_merge)
                or noisy and s <= pts[-1][0]):
            pts[-1] = (s, t)
        else:
            pts.append((s, t))
            prev_slope = slope
    pts[-1] = (policy.one(), t)
    return pts, order


def _bits(xs):
    """Floats by their bits (hex), other numbers by type, numerator and
    denominator: equal Fractions are told apart from an equal int."""
    return [x.hex() if isinstance(x, float)
            else (type(x).__name__, x.numerator, x.denominator) for x in xs]


def _walk_cases(exact, seed):
    """Seeded (state, context) pairs: random states; Gibbs weights down to
    1e-13 and 1e-17 in float mode; collinear levels (w_i / g_i equal on a
    group of levels); an all-zero column."""
    rng = random.Random(seed)
    policy = RATIONAL if exact else FLOATS
    if not exact:
        # the float cumulative abscissa passes 1 one level before the last,
        # and that level's weight, 5.7e-16, moves it on: the cap at 1 joins
        ctx = GibbsContext.from_energies((0.6, 0.2, 0.4, 0.2, 1.1, 0.6, 35.1))
        w = [k * g for k, g in zip((4, 7, 5, 6, 2, 3, 0), ctx.gibbs)]
        yield StateVector(tuple(x / sum(w) for x in w)), ctx
    for _ in range(60):
        d = rng.randint(2, 9)
        if exact:
            ctx = testkit.random_context(d, rng, RATIONAL)
        else:
            energies = [rng.choice((rng.uniform(0.0, 3.0), 30.0, 39.0, 1.0))
                        for _ in range(d)]
            ctx = GibbsContext.from_energies(energies)
        g = ctx.gibbs
        yield testkit.random_state(ctx, rng), ctx
        group = set(rng.sample(range(d), rng.randint(2, d)))
        c = testkit.random_distribution(2, rng, policy)[0]
        left = 1 - c * sum(g[i] for i in group)
        others = testkit.random_distribution(d, rng, policy)
        yield StateVector(tuple(c * g[i] if i in group else left * others[i]
                                for i in range(d))), ctx
        yield StateVector(tuple(0 * x for x in g)), ctx
    if exact:
        yield from _exact_walk_cases(rng)


_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _exact_walk_cases(rng):
    """Rational cases on the integer walk's edges: Gibbs weights 1/3, 1/7,
    1/11, ... of coprime denominators (G is their product); entries of 100+
    bits, from chained `apply_cto`; int entries; an all-int zero column."""
    for d in range(2, 9):
        head = [F(1, p) for p in rng.sample(_PRIMES, d - 1)]
        ctx = GibbsContext.from_weights(head + [1 - sum(head)], RATIONAL)
        g = ctx.gibbs
        yield testkit.random_state(ctx, rng), ctx
        yield StateVector(tuple(g[i] if i % 2 else 0 * g[i] for i in range(d))), ctx
        pure = [0] * d
        pure[rng.randrange(d)] = 1
        yield StateVector(tuple(pure)), ctx
        yield StateVector((0,) * d), ctx
    ctx = testkit.random_context(3, rng, RATIONAL)
    state = testkit.random_cq(ctx, 2, rng)
    while max(x.denominator.bit_length() for c in state.columns for x in c.w) < 100:
        plan = testkit.random_cto(ctx, state.n_branches, 2, rng)
        state = apply_cto(plan, state, ctx)
    for c in state.columns:
        yield c, ctx


def _walk_abscissae(curve, order, ctx, rng):
    """0, 1, every vertex twice, every cumulative Gibbs sum in the curve's
    order (where merged vertices lay), midpoints and random points."""
    one = ctx.policy.one()
    xs = [0 * one, one]
    for s in curve.abscissae:
        xs += [s, s]
    acc = 0 * one
    for i in order:
        acc = acc + ctx.gibbs[i]
        xs.append(min(acc, one))
    xs += [(a + b) / 2 for a, b in zip(curve.abscissae, curve.abscissae[1:])]
    xs += [F(rng.randint(0, 97), 97) if ctx.policy.exact else rng.random()
           for _ in range(8)]
    if ctx.policy.exact:  # ints, and floats amid the Fractions
        xs += [0, 1] + [rng.random() for _ in range(3)]
    return sorted(xs)


@pytest.mark.parametrize("exact", [False, True])
def test_values_match_bisect_reference(exact):
    """One walk gives, at every abscissa, the value of a `bisect_right`
    lookup: the same float bits, the same Fraction.  So does the curve
    given by the same points, which derives its own integers."""
    rng = random.Random(5)
    for w, ctx in _walk_cases(exact, 17):
        curve = build_lorenz(w, ctx)
        _, order = _reference_build(w, ctx)
        xs = _walk_abscissae(curve, order, ctx, rng)
        want = [_reference_value(curve, s) for s in xs]
        assert _bits(curve.values(xs)) == _bits(want)
        assert _bits([curve.value(s) for s in xs]) == _bits(want)
        assert _bits(LorenzCurve(curve.points).values(xs)) == _bits(want)


@pytest.mark.parametrize("exact", [False, True])
def test_build_matches_per_level_reference(exact):
    """The one-loop build gives the reference loop's vertices, bit for bit,
    and its values at them and between them."""
    rng = random.Random(9)
    for w, ctx in _walk_cases(exact, 23):
        curve = build_lorenz(w, ctx)
        pts, order = _reference_build(w, ctx)
        assert [_bits(p) for p in curve.points] == [_bits(p) for p in pts]
        assert curve.abscissae == tuple(s for s, _ in pts)
        xs = _walk_abscissae(curve, order, ctx, rng)
        assert _bits(curve.values(xs)) == _bits(
            [_reference_value(curve, s) for s in xs])


class TestRationalWalk:
    """Edges of the integer walk of a rational curve; its values are held
    to the generic formula by `test_values_match_bisect_reference`."""

    def test_hand_built_curve_derives_its_integers(self):
        curve = LorenzCurve(((0, 0), (F(1, 3), F(1, 2)), (1, 1)))
        xs = [0, F(1, 6), F(1, 3), F(2, 3), 1]
        assert _bits(curve.values(xs)) == _bits(
            [0, F(1, 4), F(1, 2), F(3, 4), 1])
        assert curve._ints == (3, 2, (0, 1, 3), (0, 1, 2))

    @pytest.mark.parametrize("xs", [
        [F(-1, 7)], [-1], [F(8, 7)], [2], [F(1, 2), F(9, 8)],
        [F(1, 2), F(1, 3)], [1, 0], [F(1, 2), 0.25], [0.75, F(1, 2)],
        [math.nan], [F(1, 2), math.nan], [math.nan, F(1, 2)],
        [F(1, 2), math.inf], [-math.inf],
    ], ids=repr)
    def test_out_of_range(self, xs):
        for w, ctx in _exact_walk_cases(random.Random(29)):
            curve = build_lorenz(w, ctx)
            with pytest.raises(OutOfRange):
                curve.values(xs)
            with pytest.raises(OutOfRange):
                LorenzCurve(curve.points).values(xs)


class TestThermoMajorizes:
    def test_everything_majorizes_gibbs(self, skew2):
        for seed in range(10):
            u = testkit.random_state(skew2, seed)
            assert thermo_majorizes(u, StateVector(skew2.gibbs), skew2)

    def test_uniform2_ordering(self, uniform2):
        u = StateVector((F(3, 4), F(1, 4)))
        v = StateVector((F(5, 8), F(3, 8)))
        assert thermo_majorizes(u, v, uniform2)
        assert not thermo_majorizes(v, u, uniform2)

    def test_crossing_curves_incomparable(self, skew2):
        u = StateVector((F(1), F(0)))
        v = StateVector((F(1, 5), F(4, 5)))
        assert not thermo_majorizes(u, v, skew2)
        assert not thermo_majorizes(v, u, skew2)

    def test_mass_mismatch(self, uniform2):
        with pytest.raises(MassMismatch):
            thermo_majorizes(
                StateVector((F(1), F(0))),
                StateVector((F(1, 4), F(1, 4))),
                uniform2,
            )

    def test_reflexive_and_transitive_sample(self, skew2):
        rng = random.Random(7)
        for _ in range(10):
            u = testkit.random_state(skew2, rng)
            t1 = testkit.random_gibbs_stochastic(skew2, 3, rng)
            t2 = testkit.random_gibbs_stochastic(skew2, 3, rng)
            v = t1.apply(u)
            w = t2.apply(v)
            assert thermo_majorizes(u, u, skew2)
            assert thermo_majorizes(u, v, skew2)
            assert thermo_majorizes(v, w, skew2)
            assert thermo_majorizes(u, w, skew2)


class TestEmbedStates:
    def test_identity_embedding(self, uniform2):
        ctx2, (w,) = embed_states([StateVector((F(3, 4), F(1, 4)))], uniform2)
        assert ctx2.gibbs == uniform2.gibbs
        assert w.w == (F(3, 4), F(1, 4))

    def test_two_state_embedding(self, skew2):
        states = [StateVector((F(1), F(0))), StateVector((F(1, 5), F(4, 5)))]
        ctx2, out = embed_states(states, skew2)
        assert ctx2.gibbs == (F(1, 3), F(1, 3), F(1, 3))
        assert out[0].w == (F(1, 2), F(1, 2), F(0))
        assert out[1].w == (F(4, 5), F(1, 10), F(1, 10))

    def test_mixture_linearity_after_embedding(self, skew2):
        """On the embedded grid, curves of mixtures equal mixtures of curves
        (in the original context only convexity holds)."""
        states = [StateVector((F(1), F(0))), StateVector((F(1, 5), F(4, 5)))]
        curves = [build_lorenz(w, skew2) for w in states]
        ctx2, out = embed_states(states, skew2)
        mix = StateVector(tuple((a + b) / 2
                                for a, b in zip(out[0].w, out[1].w)))
        assert mix.w == (F(13, 20), F(3, 10), F(1, 20))
        cmix = build_lorenz(mix, ctx2)
        for s in (F(1, 3), F(2, 3), F(1, 7), F(9, 10)):
            assert cmix.value(s) == sum(c.value(s) for c in curves) / 2

    def test_curves_preserved_exactly(self, skew2):
        rng = random.Random(3)
        states = [testkit.random_state(skew2, rng) for _ in range(3)]
        ctx2, out = embed_states(states, skew2)
        for w, w2 in zip(states, out):
            c1 = build_lorenz(w, skew2)
            c2 = build_lorenz(w2, ctx2)
            for k in range(11):
                s = F(k, 10)
                assert c1.value(s) == c2.value(s)

    def test_ratio_order_is_identity_order(self, skew2):
        rng = random.Random(11)
        states = [testkit.random_state(skew2, rng) for _ in range(3)]
        ctx2, out = embed_states(states, skew2)
        for w in out:
            ratios = [wi / gi for wi, gi in zip(w.w, ctx2.gibbs)]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("policy", [FLOATS, RATIONAL], ids=["float", "rational"])
    def test_gaps_keep_their_type_and_values(self, monkeypatch, policy):
        """The new context's weights are the grid gaps themselves, of the
        policy's type; none is read again through the number parser."""
        rng = random.Random(17)
        ctx = testkit.random_context(5, rng, policy)
        states = [testkit.random_state(ctx, rng) for _ in range(3)]
        grid = merged_bend_grid([build_lorenz(w, ctx) for w in states], policy)
        parsed = []
        orig = NumericPolicy.number
        monkeypatch.setattr(NumericPolicy, "number",
                            lambda self, tok: parsed.append(tok) or orig(self, tok))
        ctx2, _ = embed_states(states, ctx)
        assert not parsed
        assert ctx2.gibbs == tuple(b - a for a, b in zip(grid, grid[1:]))
        kind = F if policy.exact else float
        assert all(type(g) is kind for g in ctx2.gibbs)
        assert ctx2.beta == 1 and ctx2.partition == 1 and ctx2.energies is None

    def test_empty_input(self, uniform2):
        with pytest.raises(EmptyInput):
            embed_states([], uniform2)

    def test_subnormalized_rejected(self, uniform2):
        with pytest.raises(MassMismatch):
            embed_states([StateVector((F(1, 4), F(1, 4)))], uniform2)


# -- property tests -----------------------------------------------------------

_dims = st.integers(2, 5)
_seeds = st.integers(0, 10**6)


@given(_dims, _seeds)
@settings(max_examples=60, deadline=None)
def test_oracle_agreement_exact(d, seed):
    """Curve values match the independent hockey-stick evaluation exactly."""
    ctx = testkit.random_context(d, seed, RATIONAL)
    w = testkit.random_state(ctx, seed + 1)
    curve = build_lorenz(w, ctx)
    rng = random.Random(seed + 2)
    for _ in range(5):
        s = F(rng.randint(0, 64), 64)
        assert curve.value(s) == lorenz_oracle(w.w, ctx.gibbs, s)


@given(_dims, _seeds)
@settings(max_examples=60, deadline=None)
def test_oracle_agreement_float(d, seed):
    ctx = testkit.random_context(d, seed, FLOATS)
    w = testkit.random_state(ctx, seed + 1)
    curve = build_lorenz(w, ctx)
    rng = random.Random(seed + 2)
    for _ in range(5):
        s = rng.random()
        assert curve.value(s) == pytest.approx(
            lorenz_oracle(w.w, ctx.gibbs, s), abs=1e-9
        )


@given(_dims, _seeds, st.fractions(min_value=0, max_value=1))
@settings(max_examples=60, deadline=None)
def test_positive_homogeneity(d, seed, c):
    ctx = testkit.random_context(d, seed, RATIONAL)
    w = testkit.random_state(ctx, seed + 1)
    c1 = build_lorenz(w, ctx)
    c2 = build_lorenz(w.scaled(c), ctx)
    for k in range(9):
        s = F(k, 8)
        assert c2.value(s) == c * c1.value(s)


@given(_dims, _seeds)
@settings(max_examples=60, deadline=None)
def test_concave_and_monotone(d, seed):
    ctx = testkit.random_context(d, seed, RATIONAL)
    w = testkit.random_state(ctx, seed + 1)
    pts = build_lorenz(w, ctx).points
    slopes = [
        (t1 - t0) / (s1 - s0)
        for (s0, t0), (s1, t1) in zip(pts, pts[1:])
    ]
    assert all(sl >= 0 for sl in slopes)
    assert all(a > b for a, b in zip(slopes, slopes[1:]))  # bends are strict
    assert len(pts) <= d + 1


@given(_seeds)
@settings(max_examples=40, deadline=None)
def test_tie_invariance(seed):
    """Levels with equal ratios collapse to one segment, and the curve agrees
    with the order-free oracle, so the tie-break order cannot matter."""
    ctx = GibbsContext.from_weights((F(1, 4), F(1, 4), F(1, 2)), RATIONAL)
    rng = random.Random(seed)
    c = F(rng.randint(0, 5), 16)
    # levels 0 and 2 are tied in ratio (c / (1/4) == 2c / (1/2))
    w = StateVector((c, 1 - 3 * c, 2 * c))
    curve = build_lorenz(w, ctx)
    ratios = {c / F(1, 4), (1 - 3 * c) / F(1, 4)}
    assert len(curve.points) == len(ratios) + 1  # tied pair merged
    for k in range(9):
        s = F(k, 8)
        assert curve.value(s) == lorenz_oracle(w.w, ctx.gibbs, s)


@given(st.integers(1, 4), _dims, _seeds)
@settings(max_examples=60, deadline=None)
def test_mixture_convexity(n, d, seed):
    """Curve of a mixture never exceeds the mixture of the curves."""
    ctx = testkit.random_context(d, seed, RATIONAL)
    rng = random.Random(seed)
    states = [testkit.random_state(ctx, rng) for _ in range(n)]
    r = testkit.random_distribution(n, rng, RATIONAL)
    mix = StateVector(tuple(
        sum(rj * w.w[i] for rj, w in zip(r, states)) for i in range(d)
    ))
    curves = [build_lorenz(w, ctx) for w in states]
    cmix = build_lorenz(mix, ctx)
    grid = merged_bend_grid(curves + [cmix], RATIONAL)
    for s in grid:
        assert cmix.value(s) <= sum(
            rj * c.value(s) for rj, c in zip(r, curves)
        )


@given(st.integers(1, 3), _dims, _seeds)
@settings(max_examples=40, deadline=None)
def test_embedding_roundtrip_property(n, d, seed):
    ctx = testkit.random_context(d, seed, RATIONAL)
    rng = random.Random(seed)
    states = [testkit.random_state(ctx, rng) for _ in range(n)]
    ctx2, out = embed_states(states, ctx)
    assert sum(ctx2.gibbs) == 1
    for w, w2 in zip(states, out):
        assert sum(w2.w) == 1
        c1, c2 = build_lorenz(w, ctx), build_lorenz(w2, ctx2)
        for k in range(9):
            assert c1.value(F(k, 8)) == c2.value(F(k, 8))


_energies = st.lists(st.floats(0.0, 50.0), min_size=2, max_size=5)
_weights = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=5,
                    max_size=5)


def _normalized(ws, d):
    w = ws[:d]
    total = sum(w)
    return StateVector(tuple(x / total for x in w) if total else
                       (1.0,) + (0.0,) * (d - 1))


@given(_energies, _weights, _weights, st.floats(0.05, 0.95))
@settings(max_examples=150, deadline=None)
def test_curve_invariant_up_to_50_kT(energies, wu, wv, q):
    """Over energies up to 50 kT the curves keep the invariant, no query
    raises OutOfRange, and the single-register checks answer as check_cto
    does on their l = 1 and m = 1 pairs (all judge with eps_lp)."""
    ctx = GibbsContext.from_energies(energies)
    d = ctx.dim
    u, v = _normalized(wu, d), _normalized(wv, d)
    for w in (u, v):
        xs = [s for s, _ in build_lorenz(w, ctx).points]
        assert xs[0] == 0 and xs[-1] == 1.0
        assert all(a < b for a, b in zip(xs, xs[1:]))
    assert thermo_majorizes(u, v, ctx) in (True, False)
    try:
        assert 0 <= p_min(u, v, ctx) <= 1
    except (NotThermoMajorizing, DegenerateSource):
        pass
    mixed = CQState((u.scaled(q), v.scaled(1 - q)))
    assert len(phi_monotones(mixed, ctx).values) > 0
    for single, source, target in (
            (check_state_to_ensemble(u, mixed, ctx), CQState((u,)), mixed),
            (check_ensemble_to_state(mixed, v, ctx), mixed, CQState((v,)))):
        assert single == check_cto(source, target, ctx).convertible
