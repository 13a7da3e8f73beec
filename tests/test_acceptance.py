"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json
import math
import random
import time
from fractions import Fraction as F

import pytest

from ctoconv import (
    CQState,
    GibbsContext,
    NumericPolicy,
    StateVector,
    apply_cto,
    asymptotic_rate,
    build_lorenz,
    check_cto,
    check_ensemble_to_state,
    check_state_to_ensemble,
    cli,
    embed_states,
    omega,
    p_min,
    phi_monotones,
    synthesize_cto,
    testkit,
    verify_witness,
)
from ctoconv.lorenz import merged_bend_grid

import oracles

FLOATS = NumericPolicy()
RATIONAL = NumericPolicy(mode="rational")


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_convertible(rng, policy, dims=(2, 3, 4), branches=(1, 2, 3)):
    ctx = testkit.random_context(rng.choice(list(dims)), rng, policy)
    source = testkit.random_cq(ctx, rng.choice(list(branches)), rng)
    plan = testkit.random_cto(ctx, source.n_branches,
                              rng.choice(list(branches)), rng)
    target = apply_cto(plan, source, ctx)
    return ctx, source, target


_SOUND_INSTANCES = []


def _sound_instances():
    """The 500 decided instances of criterion 1 (regenerated if needed)."""
    if not _SOUND_INSTANCES:
        rng = random.Random(20260823)
        for _ in range(500):
            ctx, source, target = _random_convertible(rng, FLOATS)
            _SOUND_INSTANCES.append(
                (ctx, source, target, check_cto(source, target, ctx))
            )
    return _SOUND_INSTANCES


def test_criterion_1_soundness_of_reachable_conversions():
    """500 random reachable targets must all be judged convertible in < 60 s."""
    start = time.perf_counter()
    failures = sum(
        1 for _, _, _, decision in _sound_instances() if not decision.convertible
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: soundness on 500 reachable instances",
        failures == 0 and elapsed < 60.0,
        f"{500 - failures}/500 convertible in {elapsed:.1f} s",
    )


def test_criterion_2_constructive_completeness():
    """Synthesized plans reproduce the target within 1e-7; exactly when rational."""
    worst = 0.0
    for ctx, source, target, decision in _sound_instances():
        plan = synthesize_cto(source, target, ctx, decision)
        result = apply_cto(plan, source, ctx)
        assert result.n_branches == target.n_branches
        err = max(
            abs(a - b)
            for ca, cb in zip(result.columns, target.columns)
            for a, b in zip(ca.w, cb.w)
        )
        worst = max(worst, err)
    rng = random.Random(7)
    exact_ok = True
    for _ in range(50):
        ctx, source, target = _random_convertible(rng, RATIONAL)
        plan = synthesize_cto(source, target, ctx)
        exact_ok = exact_ok and apply_cto(plan, source, ctx) == target
    _report(
        "criterion 2: constructive completeness",
        worst <= 1e-7 and exact_ok,
        f"max float error {worst:.2e}; 50 rational reruns exact: {exact_ok}",
    )


def test_criterion_3_witness_duality():
    """Witnesses certify every non-convertible pair, from the phi screen or
    from the LP (the screen bypassed); random witnesses never go negative on
    convertible pairs."""
    rng = random.Random(31)
    found = 0
    worst_neg = -math.inf
    while found < 200:
        ctx = testkit.random_context(rng.choice([2, 3, 4]), rng, FLOATS)
        source = testkit.random_cq(ctx, rng.choice([1, 2, 3]), rng)
        target = oracles.perturb_to_infeasible(source, ctx, rng)
        if target is None:
            continue
        found += 1
        with oracles.phi_screen_bypassed():
            refusals = [check_cto(source, target, ctx)]
        refusals.append(check_cto(source, target, ctx))
        for decision in refusals:
            assert not decision.convertible
            decision.witness.validate(FLOATS)
            value = verify_witness(decision.witness, source, target, ctx)
            worst_neg = max(worst_neg, value)
            assert value <= -1e-7
    worst_pos = 0.0
    for k in range(200):
        ctx, source, target = _random_convertible(rng, FLOATS)
        p, q = oracles.pq_increments(source, target, ctx)
        for _ in range(1000):
            a = oracles.random_witness(len(p), target.n_branches, rng, FLOATS)
            value = (
                sum(omega(a, col) for col in zip(*p))
                - sum(omega(a, col) for col in zip(*q))
            )
            worst_pos = min(worst_pos, value)
            assert value >= -1e-9
    _report(
        "criterion 3: witness duality",
        True,
        f"400 witnesses of 200 refusals, screen on and off, all <= {worst_neg:.2e}; "
        f"200x1000 random functionals all >= {worst_pos:.2e}",
    )


def test_criterion_4_monotonicity():
    """Curve-value and free-energy monotones never increase under plans."""
    rng = random.Random(404)
    grid20 = tuple((k + 1) / 21 for k in range(20))
    for _ in range(1000):
        ctx = testkit.random_context(rng.choice([2, 3, 4]), rng, FLOATS)
        source = testkit.random_cq(ctx, rng.choice([1, 2, 3]), rng)
        plan = testkit.random_cto(ctx, source.n_branches,
                                  rng.choice([1, 2, 3]), rng)
        output = apply_cto(plan, source, ctx)
        before = phi_monotones(source, ctx, grid20)
        after = phi_monotones(output, ctx, grid20)
        for b, a in zip(before.values, after.values):
            assert a <= b + 1e-9
        assert after.free_energy <= before.free_energy + 1e-9
    _report("criterion 4: monotonicity under 1000 random plans", True)


def test_criterion_5_lorenz_convexity():
    """Mixture curves never exceed curve mixtures at the bend abscissae."""
    rng = random.Random(55)
    for _ in range(1000):
        d = rng.randint(2, 5)
        n = rng.randint(1, 4)
        ctx = testkit.random_context(d, rng, FLOATS)
        states = [testkit.random_state(ctx, rng) for _ in range(n)]
        r = testkit.random_distribution(n, rng, FLOATS)
        mix = StateVector(tuple(
            sum(rj * w.w[i] for rj, w in zip(r, states)) for i in range(d)
        ))
        curves = [build_lorenz(w, ctx) for w in states]
        cmix = build_lorenz(mix, ctx)
        for s in merged_bend_grid(curves + [cmix], FLOATS):
            assert cmix.value(s) <= sum(
                rj * c.value(s) for rj, c in zip(r, curves)
            ) + 1e-9
    _report("criterion 5: Lorenz convexity on 1000 random mixtures", True)


def test_criterion_6_embedding():
    """Embedded curves match the originals; mixtures embed linearly."""
    rng = random.Random(66)
    for k in range(200):
        exact = k % 2 == 0
        policy = RATIONAL if exact else FLOATS
        d = rng.randint(2, 5)
        n = rng.randint(1, 3)
        ctx = testkit.random_context(d, rng, policy)
        states = [testkit.random_state(ctx, rng) for _ in range(n)]
        ctx2, out = embed_states(states, ctx)
        originals = [build_lorenz(w, ctx) for w in states]
        embedded = [build_lorenz(w, ctx2) for w in out]
        for _ in range(50):
            s = (F(rng.randint(0, 1024), 1024) if exact else rng.random())
            for c1, c2 in zip(originals, embedded):
                if exact:
                    assert c1.value(s) == c2.value(s)
                else:
                    assert abs(c1.value(s) - c2.value(s)) <= 1e-12
        # mixture of embedded states curves like the mixture of the curves
        r = testkit.random_distribution(n, rng, policy)
        mix = StateVector(tuple(
            sum(rj * w.w[i] for rj, w in zip(r, out))
            for i in range(len(out[0].w))
        ))
        cmix = build_lorenz(mix, ctx2)
        for s in cmix.bend_abscissae + (policy.one(),):
            want = sum(rj * c.value(s) for rj, c in zip(r, originals))
            if exact:
                assert cmix.value(s) == want
            else:
                assert abs(cmix.value(s) - want) <= 1e-9
    _report("criterion 6: embedding preserves curves (200 collections)", True)


def test_criterion_7_corollary_agreement():
    """Single-register shortcuts agree with the full decision; the threshold
    closed form matches grid search."""
    rng = random.Random(77)
    for k in range(300):
        policy = RATIONAL if k % 2 == 0 else FLOATS
        ctx = testkit.random_context(rng.randint(2, 4), rng, policy)
        if k % 2 == 0:
            u = testkit.random_state(ctx, rng)
            target = testkit.random_cq(ctx, rng.randint(1, 3), rng)
            fast = check_state_to_ensemble(u, target, ctx)
            full = check_cto(CQState((u,)), target, ctx).convertible
        else:
            source = testkit.random_cq(ctx, rng.randint(1, 3), rng)
            v = testkit.random_state(ctx, rng)
            fast = check_ensemble_to_state(source, v, ctx)
            full = check_cto(source, CQState((v,)), ctx).convertible
        assert fast == full
    step = F(1, 1000)
    worst = 0.0
    for _ in range(100):
        ctx = testkit.random_context(rng.randint(2, 4), rng, RATIONAL)
        u = testkit.random_state(ctx, rng)
        v = testkit.random_gibbs_stochastic(ctx, rng.randint(1, 3), rng).apply(u)
        closed = p_min(u, v, ctx)
        grid = oracles.pmin_grid_oracle(u, v, ctx, step, bisect=True)
        worst = max(worst, abs(float(closed - grid)))
        assert abs(closed - grid) <= step
    _report(
        "criterion 7: corollary agreement",
        True,
        f"300 shortcut decisions agree; max p_min gap {worst:.1e} <= 1e-3",
    )


def test_criterion_8_worked_example(tmp_path):
    """The correlated locally-thermal state converts to the ground-state
    column, and never back, for random spectra in d = 2, 3, 4."""
    rng = random.Random(88)
    for d in (2, 3, 4):
        energies = sorted(rng.uniform(0.0, 2.0) for _ in range(d))
        ctx = GibbsContext.from_energies(energies, beta=1.0)
        ground = min(range(d), key=lambda i: energies[i])
        correlated = {
            "columns": [
                [ctx.gibbs[x] if i == x else 0.0 for i in range(d)]
                for x in range(d)
            ]
        }
        pure = {"columns": [[1.0 if i == ground else 0.0 for i in range(d)]]}
        doc = {
            "gibbs": {"beta": 1.0, "energies": energies},
            "source": correlated,
            "target": pure,
        }
        path = tmp_path / f"worked{d}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 0
        rev = dict(doc, source=pure, target=correlated)
        path.write_text(json.dumps(rev))
        assert cli.main(["check", str(path)]) == 1
    _report("criterion 8: worked example forward/reverse for d in {2,3,4}", True)


def test_criterion_9_analytic_anchors():
    ctx = GibbsContext.from_energies([0.3, 1.1, 0.2], beta=1.3)
    diag = build_lorenz(StateVector(ctx.gibbs), ctx)
    rng = random.Random(99)
    for _ in range(100):
        s = rng.random()
        assert abs(diag.value(s) - s) <= 1e-12

    uniform2 = GibbsContext.from_weights((F(1, 2), F(1, 2)), RATIONAL)
    threshold = p_min(StateVector((F(1), F(0))),
                      StateVector((F(3, 4), F(1, 4))), uniform2)
    assert threshold == F(1, 2)

    trivial = GibbsContext.from_energies([0.0, 0.0], beta=1.0)
    rate = asymptotic_rate(
        CQState((StateVector((1.0, 0.0)),)),
        CQState((StateVector((0.75, 0.25)),)),
        trivial,
    )
    expected = math.log(2) / (math.log(2)
                              + 0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(rate - 5.30) <= 0.01 and rate == pytest.approx(expected)
    _report(
        "criterion 9: analytic anchors",
        True,
        f"diagonal exact, p_min = 1/2 exact, rate = {rate:.4f}",
    )
