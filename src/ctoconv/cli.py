"""Command-line front end: JSON instances in, machine-readable results out.

Exit codes: 0 success / convertible, 1 clean mathematical negative
(not convertible, mismatch on --expect-target), 2 input error, 3 internal
or numeric error.  stdout carries only the payload; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import asymptotic, convert, lorenz, synth, testkit
from .core import (
    CQState,
    CTOPlan,
    FLOAT,
    GibbsContext,
    NumericPolicy,
    RATIONAL,
    StateVector,
    TOMatrix,
    canonicalize_cq,
    encode_number,
)
from .errors import (
    CtoConvError,
    DegenerateCertificate,
    FreeTarget,
    NumericBreakdown,
    ParseError,
    ValidationError,
)


@dataclass
class Instance:
    ctx: GibbsContext
    source: CQState | None
    target: CQState | None
    policy: NumericPolicy


def _leaves(node):
    if isinstance(node, list):
        for item in node:
            yield from _leaves(item)
    else:
        yield node


def _detect_mode(doc: dict) -> str:
    """Rational mode iff every numeric leaf is an int or an 'a/b' string."""
    pools = []
    gibbs = doc.get("gibbs", {})
    if "weights" in gibbs:
        pools.append(gibbs["weights"])
    else:
        return FLOAT  # energies/beta form implies float arithmetic
    for key in ("source", "target"):
        if key in doc and doc[key] is not None:
            pools.append(doc[key].get("columns", []))
    for pool in pools:
        for leaf in _leaves(pool):
            if not isinstance(leaf, (str, int)) or isinstance(leaf, bool):
                return FLOAT
    return RATIONAL


def _build_policy(doc: dict, args) -> NumericPolicy:
    spec = dict(doc.get("policy") or {})
    mode = spec.pop("mode", None)
    if getattr(args, "policy", None):
        mode = args.policy
    if mode is None:
        mode = _detect_mode(doc)
    kwargs = {}
    for key in ("eps_cmp", "eps_lp", "eps_merge"):
        if key in spec:
            kwargs[key] = float(spec.pop(key))
    if spec:
        raise ParseError(f"unknown policy fields: {sorted(spec)}")
    if getattr(args, "eps", None) is not None:
        kwargs["eps_lp"] = float(args.eps)
    return NumericPolicy(mode=mode, **kwargs)


def _parse_columns(node, policy: NumericPolicy, field: str) -> CQState:
    if not isinstance(node, dict) or "columns" not in node:
        raise ParseError(f"field '{field}' must be an object with 'columns'")
    cols = node["columns"]
    if not isinstance(cols, list) or not cols:
        raise ParseError(f"'{field}.columns' must be a non-empty list")
    try:
        state = CQState(tuple(
            StateVector(tuple(policy.number(x) for x in col)) for col in cols
        ))
        return canonicalize_cq(state, policy)
    except ValidationError as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def parse_instance(text: str, args=None) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance must be a JSON object")
    if "gibbs" not in doc:
        raise ParseError("missing field 'gibbs'")
    policy = _build_policy(doc, args or argparse.Namespace())
    gibbs = doc["gibbs"]
    if "weights" in gibbs:
        ctx = GibbsContext.from_weights(
            [policy.number(x) for x in gibbs["weights"]], policy
        )
    elif "energies" in gibbs:
        ctx = GibbsContext.from_energies(
            [float(e) for e in gibbs["energies"]],
            beta=float(gibbs.get("beta", 1.0)),
            policy=policy,
        )
    else:
        raise ParseError("'gibbs' needs either 'weights' or 'energies'")
    source = target = None
    if doc.get("source") is not None:
        source = _parse_columns(doc["source"], policy, "source")
        _check_dim(source, ctx, "source")
    if doc.get("target") is not None:
        target = _parse_columns(doc["target"], policy, "target")
        _check_dim(target, ctx, "target")
    return Instance(ctx=ctx, source=source, target=target, policy=policy)


def _check_dim(state: CQState, ctx: GibbsContext, field: str):
    if state.dim != ctx.dim:
        raise ValidationError(
            f"{field} has dimension {state.dim}, context has {ctx.dim}"
        )


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _require(inst: Instance, field: str) -> CQState:
    state = getattr(inst, field)
    if state is None:
        raise ValidationError(f"this command requires the '{field}' field")
    return state


def _single_state(inst: Instance, field: str) -> StateVector:
    state = _require(inst, field)
    if state.n_branches != 1:
        raise ValidationError(f"'{field}' must have exactly one column here")
    return state.columns[0].normalized()


def _encode(obj):
    if isinstance(obj, Fraction):
        return encode_number(obj)
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _emit(payload):
    print(json.dumps(_encode(payload)))


def _rows(matrix) -> list:
    return [list(row) for row in matrix]


def _witness_payload(inst: Instance, decision: convert.Decision) -> dict:
    value = convert.verify_witness(
        decision.witness, inst.source, inst.target, inst.ctx
    )
    return {
        "convertible": False,
        "witness": _rows(decision.witness.a),
        "omega_value": value,
    }


# -- command handlers ---------------------------------------------------------


def _cmd_check(args) -> int:
    inst = parse_instance(_read(args.file), args)
    decision = convert.check_cto(_require(inst, "source"),
                                 _require(inst, "target"), inst.ctx)
    if decision.convertible:
        _emit({"convertible": True, "R": _rows(decision.plan_seed)})
        return 0
    _emit(_witness_payload(inst, decision))
    return 1


def _cmd_witness(args) -> int:
    inst = parse_instance(_read(args.file), args)
    decision = convert.check_cto(_require(inst, "source"),
                                 _require(inst, "target"), inst.ctx)
    if decision.convertible:
        _emit({"convertible": True})
        return 0
    _emit(_witness_payload(inst, decision))
    return 1


def _cmd_pmin(args) -> int:
    inst = parse_instance(_read(args.file), args)
    u = _single_state(inst, "source")
    v = _single_state(inst, "target")
    _emit({"p_min": convert.p_min(u, v, inst.ctx)})
    return 0


def _cmd_synth(args) -> int:
    inst = parse_instance(_read(args.file), args)
    source = _require(inst, "source")
    target = _require(inst, "target")
    decision = convert.check_cto(source, target, inst.ctx)
    if not decision.convertible:
        _emit(_witness_payload(inst, decision))
        return 1
    plan = synth.synthesize_cto(source, target, inst.ctx, decision)
    payload = {
        "R": _rows(plan.control),
        "T": {f"{x},{y}": _rows(t.t) for (x, y), t in sorted(plan.branch_maps.items())},
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(_encode(payload), fh)
        print(json.dumps({"plan": args.output}))
    else:
        _emit(payload)
    return 0


def _parse_plan(text: str, policy: NumericPolicy) -> CTOPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed plan JSON: {exc}") from exc
    if "R" not in doc or "T" not in doc:
        raise ParseError("plan needs fields 'R' and 'T'")
    control = tuple(
        tuple(policy.number(x) for x in row) for row in doc["R"]
    )
    branch_maps = {}
    for key, rows in doc["T"].items():
        try:
            x, y = (int(tok) for tok in key.split(","))
        except ValueError as exc:
            raise ParseError(f"bad branch-map key {key!r}") from exc
        branch_maps[(x, y)] = TOMatrix(tuple(
            tuple(policy.number(v) for v in row) for row in rows
        ))
    return CTOPlan(control=control, branch_maps=branch_maps)


def _cmd_apply(args) -> int:
    inst = parse_instance(_read(args.file), args)
    source = _require(inst, "source")
    plan = _parse_plan(_read(args.plan), inst.policy)
    plan.validate(inst.ctx)
    result = synth.apply_cto(plan, source, inst.ctx)
    _emit({"columns": [list(c.w) for c in result.columns]})
    if args.expect_target:
        target = _require(inst, "target")
        if result.n_branches != target.n_branches:
            return 1
        err = max(
            abs(a - b)
            for ca, cb in zip(result.columns, target.columns)
            for a, b in zip(ca.w, cb.w)
        )
        if not inst.policy.leq(err, 0, inst.policy.eps_lp):
            print(f"mismatch: max deviation {err}", file=sys.stderr)
            return 1
    return 0


def _cmd_rate(args) -> int:
    inst = parse_instance(_read(args.file), args)
    source = _require(inst, "source")
    target = _require(inst, "target")
    relative = not args.raw
    f_u = asymptotic.resource_value(source, inst.ctx, relative=relative)
    f_v = asymptotic.resource_value(target, inst.ctx, relative=relative)
    try:
        rate = f_u / f_v if args.raw else asymptotic.asymptotic_rate(
            source, target, inst.ctx
        )
    except (FreeTarget, ZeroDivisionError):
        rate = "inf"
    _emit({"f_source": f_u, "f_target": f_v, "rate": rate})
    return 0


def _cmd_lorenz(args) -> int:
    inst = parse_instance(_read(args.file), args)
    source = _require(inst, "source")
    curves = lorenz.cq_branch_curves(source, inst.ctx)
    if args.csv:
        if len(curves) != 1:
            raise ValidationError("--csv output needs a single-column source")
        for s, t in curves[0].points:
            print(f"{float(s)},{float(t)}")
        return 0
    if len(curves) == 1:
        _emit({"points": [list(p) for p in curves[0].points]})
    else:
        _emit({"curves": [{"points": [list(p) for p in c.points]} for c in curves]})
    return 0


def _cmd_monotone(args) -> int:
    inst = parse_instance(_read(args.file), args)
    source = _require(inst, "source")
    abscissae = None
    if args.grid:
        if args.grid == "sigma":
            abscissae = convert.sigma_grid(inst.ctx)
        elif args.grid.startswith("uniform:"):
            n = int(args.grid.split(":", 1)[1])
            abscissae = convert.uniform_grid(n, inst.policy)
        else:
            raise ParseError("--grid must be 'sigma' or 'uniform:N'")
    report = convert.phi_monotones(source, inst.ctx, abscissae)
    payload = {
        "abscissae": list(report.abscissae),
        "source": list(report.values),
        "f_source": report.free_energy,
    }
    if inst.target is not None:
        t_report = convert.phi_monotones(inst.target, inst.ctx, report.abscissae)
        payload["target"] = list(t_report.values)
        payload["f_target"] = t_report.free_energy
    _emit(payload)
    return 0


def _cmd_embed(args) -> int:
    inst = parse_instance(_read(args.file), args)
    source = _require(inst, "source")
    states = source.conditionals()
    ctx2, embedded = lorenz.embed_states(states, inst.ctx)
    _emit({
        "gibbs": list(ctx2.gibbs),
        "states": [list(w.w) for w in embedded],
        "masses": list(source.branch_masses),
    })
    return 0


def _cmd_random(args) -> int:
    policy = NumericPolicy(mode=args.mode)
    rng = random.Random(args.seed)
    ctx = testkit.random_context(args.d, rng, policy)
    source = testkit.random_cq(ctx, args.l, rng)
    plan = testkit.random_cto(ctx, args.l, args.m, rng)
    target = synth.apply_cto(plan, source, ctx)
    _emit({
        "gibbs": {"weights": list(ctx.gibbs)},
        "source": {"columns": [list(c.w) for c in source.columns]},
        "target": {"columns": [list(c.w) for c in target.columns]},
        "policy": {"mode": policy.mode},
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctoconv",
        description="Convertibility of quasiclassical athermality resources "
                    "under conditioned thermal operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="instance JSON file, or '-' for stdin")
        p.add_argument("--policy", choices=[FLOAT, RATIONAL],
                       help="override the instance arithmetic mode")
        p.add_argument("--eps", type=float, help="override the LP tolerance")

    common(sub.add_parser("check", help="decide convertibility"))
    common(sub.add_parser("pmin", help="threshold weight for (p u, (1-p) g) -> v"))
    common(sub.add_parser("witness", help="non-convertibility witness matrix"))
    p = sub.add_parser("synth", help="synthesize an explicit plan")
    common(p)
    p.add_argument("-o", "--output", help="write the plan JSON to this file")
    p = sub.add_parser("apply", help="apply a plan to the source state")
    p.add_argument("plan", help="plan JSON file")
    common(p)
    p.add_argument("--expect-target", action="store_true",
                   help="exit 1 unless the result matches the target")
    common(sub.add_parser("rate", help="asymptotic interconversion rate"))
    sub.choices["rate"].add_argument("--raw", action="store_true",
                                     help="use the literal free energy")
    p = sub.add_parser("lorenz", help="emit Lorenz curve vertices")
    common(p)
    p.add_argument("--csv", action="store_true", help="CSV 's,t' lines")
    p = sub.add_parser("monotone", help="curve-value monotones on a fixed grid")
    common(p)
    p.add_argument("--grid", help="'sigma' or 'uniform:N'")
    common(sub.add_parser("embed", help="re-express states on their bend grid"))
    p = sub.add_parser("random", help="emit a random convertible instance")
    p.add_argument("--d", type=int, default=2, help="system dimension")
    p.add_argument("--l", type=int, default=2, help="source branches")
    p.add_argument("--m", type=int, default=2, help="target branches")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[FLOAT, RATIONAL], default=FLOAT)
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "pmin": _cmd_pmin,
    "witness": _cmd_witness,
    "synth": _cmd_synth,
    "apply": _cmd_apply,
    "rate": _cmd_rate,
    "lorenz": _cmd_lorenz,
    "monotone": _cmd_monotone,
    "embed": _cmd_embed,
    "random": _cmd_random,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericBreakdown, DegenerateCertificate) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CtoConvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
