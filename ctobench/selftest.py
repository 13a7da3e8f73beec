"""Fast self-test of the benchmark harness (about a second).

    python3 ctobench/selftest.py

Runs every workload for one round at the tiny scale, traced and untraced,
with all of its output checks; checks that the printed metric names match
BENCHMARK.json; feeds every checker a tampered output it must reject; and
runs the harness from a directory without src/, where it must fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

ROOT = run.HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
run.import_ctoconv()

import oracle  # noqa: E402  (needs ctoconv on the path, set by run)
import workloads  # noqa: E402


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except oracle.CheckFailed:
        return True
    return False


def test_every_workload_runs_and_checks():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    for name in names:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run(name, seed=0, seconds=0.0, trace=trace, scale="tiny")
            assert record["correct"], (name, record["wrong"])
            assert record["failed"] == 0 and record["attempted"] >= 1, name
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            assert got == want, (name, group, set(got) ^ set(want))


def test_same_seed_same_inputs():
    a = workloads.build("exact-rational", 3, "tiny")
    b = workloads.build("exact-rational", 3, "tiny")
    assert [op.run() for op in a] == [op.run() for op in b]


def test_checkers_reject_tampered_outputs():
    import random

    rng = random.Random(1)
    for policy in (workloads.FLOAT, workloads.RATIONAL):
        one = policy.one()
        yes = workloads.yes_pair(rng, 4, 2, 2, policy)
        good = yes.control
        oracle.check_control(good, yes.src_cols, yes.tgt_cols, yes.g)
        half = tuple(tuple(x / 2 for x in row) for row in good)
        assert _rejects(oracle.check_control, half, yes.src_cols, yes.tgt_cols, yes.g)
        # no control map satisfies the inequalities of an infeasible pair
        no = workloads.no_pair(rng, 4, 2, 2, policy)
        even = tuple(tuple(one / 2 for _ in range(2)) for _ in range(2))
        assert _rejects(oracle.check_control, even, no.src_cols, no.tgt_cols, no.g)

        rows = len(oracle.bend_grid(no.tgt_cols, no.g)) - 1
        flat = [[one / (2 * rows)] * 2 for _ in range(rows)]  # functional is 0
        assert _rejects(oracle.check_witness, flat, no.src_cols, no.tgt_cols, no.g)
        rising = [[one * (i + 1) for _ in range(2)] for i in range(rows)]
        total = sum(sum(r) for r in rising)
        rising = [[x / total for x in r] for r in rising]
        assert _rejects(oracle.check_witness, rising, no.src_cols, no.tgt_cols, no.g)

        d = len(yes.g)
        ident = [[one if i == j else 0 * one for j in range(d)] for i in range(d)]
        maps = {(x, y): ident for x in range(2) for y in range(2)}
        src_image = oracle.apply_plan(good, maps, yes.src_cols)
        # identity maps reproduce the control mixture, not the target
        assert _rejects(oracle.check_plan, good, maps, yes.src_cols, yes.tgt_cols,
                        yes.g, src_image)
        squeezed = [row[:] for row in ident]
        squeezed[0][0] = one / 2
        maps[(0, 0)] = squeezed
        assert _rejects(oracle.check_plan, good, maps, yes.src_cols, src_image,
                        yes.g, src_image)

    op = workloads.thermo_query(rng, workloads.testkit.random_context(
        5, rng, workloads.FLOAT), yes=True)
    assert _rejects(op.check, not op.run())


def test_fails_without_sources():
    bare = run.HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "ctobench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "ctobench")
    cmd = SPEC["command"] + ["--workload", "decide-float", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail overall
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
