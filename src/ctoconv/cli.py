"""Command-line front end: JSON instances in, machine-readable results out.

`main` parses the arguments, loads the instance once and runs the
subcommand's handler on it.  The arithmetic mode comes from the instance
or `--policy`; the tolerances come only from the instance's `policy`
field.  Every payload is JSON, Fractions encoded as 'a/b' strings.

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
        if isinstance(doc.get(key), dict):
            pools.append(doc[key].get("columns", []))
    for pool in pools:
        for leaf in _leaves(pool):
            if not isinstance(leaf, (str, int)) or isinstance(leaf, bool):
                return FLOAT
    return RATIONAL


def _float(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParseError(f"'{field}' must be a number, got {value!r}") from None


def _list(node, field: str) -> list:
    if not isinstance(node, list):
        raise ParseError(f"'{field}' must be a list")
    return node


def _matrix(node, policy: NumericPolicy, field: str) -> tuple:
    """A list of lists of numbers, in the policy's number type."""
    return tuple(
        tuple(policy.number(x) for x in _list(row, f"{field}[{i}]"))
        for i, row in enumerate(_list(node, field))
    )


def _build_policy(doc: dict, args) -> NumericPolicy:
    spec = doc.get("policy")
    if not isinstance(spec, (dict, type(None))):
        raise ParseError("field 'policy' must be an object")
    spec = dict(spec or {})
    mode = spec.pop("mode", None)
    if getattr(args, "policy", None):
        mode = args.policy
    if mode is None:
        mode = _detect_mode(doc)
    kwargs = {}
    for key in ("eps_cmp", "eps_lp", "eps_merge"):
        if key in spec:
            kwargs[key] = _float(spec.pop(key), f"policy.{key}")
    if spec:
        raise ParseError(f"unknown policy fields: {sorted(spec)}")
    return NumericPolicy(mode=mode, **kwargs)


def _parse_columns(node, policy: NumericPolicy, field: str) -> CQState:
    if not isinstance(node, dict) or "columns" not in node:
        raise ParseError(f"field '{field}' must be an object with 'columns'")
    if not node["columns"]:
        raise ParseError(f"'{field}.columns' must be a non-empty list")
    try:
        cols = _matrix(node["columns"], policy, f"{field}.columns")
        state = CQState(tuple(StateVector(col) for col in cols))
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
    gibbs = doc["gibbs"]
    if not isinstance(gibbs, dict):
        raise ParseError("field 'gibbs' must be an object")
    policy = _build_policy(doc, args or argparse.Namespace())
    if "weights" in gibbs:
        ctx = GibbsContext.from_weights(_list(gibbs["weights"], "gibbs.weights"),
                                        policy)
    elif "energies" in gibbs:
        ctx = GibbsContext.from_energies(
            [_float(e, "gibbs.energies")
             for e in _list(gibbs["energies"], "gibbs.energies")],
            beta=_float(gibbs.get("beta", 1.0), "gibbs.beta"),
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
    return Instance(ctx=ctx, source=source, target=target)


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


def _emit(payload):
    print(json.dumps(payload, default=encode_number))


def _witness_payload(inst: Instance, decision: convert.Decision) -> dict:
    value = convert.verify_witness(
        decision.witness, inst.source, inst.target, inst.ctx
    )
    return {
        "convertible": False,
        "witness": decision.witness.a,
        "omega_value": value,
    }


# -- command handlers: each takes the loaded instance and the arguments -------


def _cmd_check(inst: Instance, args) -> int:
    decision = convert.check_cto(_require(inst, "source"),
                                 _require(inst, "target"), inst.ctx)
    if decision.convertible:
        _emit({"convertible": True, "R": decision.plan_seed})
        return 0
    _emit(_witness_payload(inst, decision))
    return 1


def _cmd_witness(inst: Instance, args) -> int:
    decision = convert.check_cto(_require(inst, "source"),
                                 _require(inst, "target"), inst.ctx)
    if decision.convertible:
        _emit({"convertible": True})
        return 0
    _emit(_witness_payload(inst, decision))
    return 1


def _cmd_pmin(inst: Instance, args) -> int:
    u = _single_state(inst, "source")
    v = _single_state(inst, "target")
    _emit({"p_min": convert.p_min(u, v, inst.ctx)})
    return 0


def _cmd_synth(inst: Instance, args) -> int:
    source = _require(inst, "source")
    target = _require(inst, "target")
    decision = convert.check_cto(source, target, inst.ctx)
    if not decision.convertible:
        _emit(_witness_payload(inst, decision))
        return 1
    plan = synth.synthesize_cto(source, target, inst.ctx, decision)
    payload = {
        "R": plan.control,
        "T": {f"{x},{y}": t.t for (x, y), t in sorted(plan.branch_maps.items())},
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, default=encode_number)
        payload = {"plan": args.output}
    _emit(payload)
    return 0


def _parse_plan(text: str, policy: NumericPolicy) -> CTOPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed plan JSON: {exc}") from exc
    if not isinstance(doc, dict) or "R" not in doc or "T" not in doc:
        raise ParseError("plan needs fields 'R' and 'T'")
    if not isinstance(doc["T"], dict):
        raise ParseError("plan field 'T' must be an object")
    control = _matrix(doc["R"], policy, "R")
    branch_maps = {}
    for key, rows in doc["T"].items():
        try:
            x, y = (int(tok) for tok in key.split(","))
        except ValueError as exc:
            raise ParseError(f"bad branch-map key {key!r}") from exc
        branch_maps[(x, y)] = TOMatrix(_matrix(rows, policy, f"T.{key}"))
    return CTOPlan(control=control, branch_maps=branch_maps)


def _cmd_apply(inst: Instance, args) -> int:
    policy = inst.ctx.policy
    source = _require(inst, "source")
    plan = _parse_plan(_read(args.plan), policy)
    plan.validate(inst.ctx)
    result = synth.apply_cto(plan, source, inst.ctx)
    _emit({"columns": [c.w for c in result.columns]})
    if args.expect_target:
        target = _require(inst, "target")
        if result.n_branches != target.n_branches:
            print(f"mismatch: {result.n_branches} output branches, target has "
                  f"{target.n_branches}", file=sys.stderr)
            return 1
        err = max(
            abs(a - b)
            for ca, cb in zip(result.columns, target.columns)
            for a, b in zip(ca.w, cb.w)
        )
        if not policy.leq(err, 0, policy.eps_lp):
            print(f"mismatch: max deviation {err}", file=sys.stderr)
            return 1
    return 0


def _cmd_rate(inst: Instance, args) -> int:
    source = _require(inst, "source")
    target = _require(inst, "target")
    relative = not args.raw
    f_u = asymptotic.resource_value(source, inst.ctx, relative=relative)
    f_v = asymptotic.resource_value(target, inst.ctx, relative=relative)
    try:
        rate = f_u / f_v if args.raw else asymptotic._rate(f_u, f_v)
    except (FreeTarget, ZeroDivisionError):
        rate = "inf"
    _emit({"f_source": f_u, "f_target": f_v, "rate": rate})
    return 0


def _cmd_lorenz(inst: Instance, args) -> int:
    source = _require(inst, "source")
    curves = lorenz.cq_branch_curves(source, inst.ctx)
    if args.csv:
        if len(curves) != 1:
            raise ValidationError("--csv output needs a single-column source")
        for s, t in curves[0].points:
            print(f"{float(s)},{float(t)}")
        return 0
    if len(curves) == 1:
        _emit({"points": curves[0].points})
    else:
        _emit({"curves": [{"points": c.points} for c in curves]})
    return 0


def _cmd_monotone(inst: Instance, args) -> int:
    source = _require(inst, "source")
    abscissae = None
    if args.grid:
        kind, _, n = args.grid.partition(":")
        if args.grid == "sigma":
            abscissae = convert.sigma_grid(inst.ctx)
        elif kind == "uniform" and n.isdecimal() and int(n) > 0:
            abscissae = convert.uniform_grid(int(n), inst.ctx.policy)
        else:
            raise ParseError("--grid must be 'sigma' or 'uniform:N' with N >= 1")
    report = convert.phi_monotones(source, inst.ctx, abscissae)
    payload = {
        "abscissae": report.abscissae,
        "source": report.values,
        "f_source": report.free_energy,
    }
    if inst.target is not None:
        t_report = convert.phi_monotones(inst.target, inst.ctx, report.abscissae)
        payload["target"] = t_report.values
        payload["f_target"] = t_report.free_energy
    _emit(payload)
    return 0


def _cmd_embed(inst: Instance, args) -> int:
    source = _require(inst, "source")
    states = source.conditionals()
    ctx2, embedded = lorenz.embed_states(states, inst.ctx)
    _emit({
        "gibbs": ctx2.gibbs,
        "states": [w.w for w in embedded],
        "masses": source.branch_masses,
    })
    return 0


def _cmd_random(_, args) -> int:
    policy = NumericPolicy(mode=args.mode)
    rng = random.Random(args.seed)
    ctx = testkit.random_context(args.d, rng, policy)
    source = testkit.random_cq(ctx, args.l, rng)
    plan = testkit.random_cto(ctx, args.l, args.m, rng)
    target = synth.apply_cto(plan, source, ctx)
    _emit({
        "gibbs": {"weights": ctx.gibbs},
        "source": {"columns": [c.w for c in source.columns]},
        "target": {"columns": [c.w for c in target.columns]},
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

    def command(name, run, text, *, plan=False):
        """A subcommand that reads an instance (after a plan, for apply)."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        if plan:
            p.add_argument("plan", help="plan JSON file")
        p.add_argument("file", help="instance JSON file, or '-' for stdin")
        p.add_argument("--policy", choices=[FLOAT, RATIONAL],
                       help="override the instance arithmetic mode")
        return p

    command("check", _cmd_check, "decide convertibility")
    command("pmin", _cmd_pmin, "threshold weight for (p u, (1-p) g) -> v")
    command("witness", _cmd_witness, "non-convertibility witness matrix")
    command("synth", _cmd_synth, "synthesize an explicit plan").add_argument(
        "-o", "--output", help="write the plan JSON to this file")
    command("apply", _cmd_apply, "apply a plan to the source state",
            plan=True).add_argument(
        "--expect-target", action="store_true",
        help="exit 1 unless the result matches the target")
    command("rate", _cmd_rate, "asymptotic interconversion rate").add_argument(
        "--raw", action="store_true", help="use the literal free energy")
    command("lorenz", _cmd_lorenz, "emit Lorenz curve vertices").add_argument(
        "--csv", action="store_true", help="CSV 's,t' lines")
    command("monotone", _cmd_monotone,
            "curve-value monotones on a fixed grid").add_argument(
        "--grid", help="'sigma' or 'uniform:N'")
    command("embed", _cmd_embed, "re-express states on their bend grid")
    p = sub.add_parser("random", help="emit a random convertible instance")
    p.set_defaults(run=_cmd_random)
    p.add_argument("--d", type=int, default=2, help="system dimension")
    p.add_argument("--l", type=int, default=2, help="source branches")
    p.add_argument("--m", type=int, default=2, help="target branches")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[FLOAT, RATIONAL], default=FLOAT)
    return parser


def main(argv=None) -> int:
    """Parse the arguments, load the instance (every command but random
    reads one) and run the command; errors become exit codes 2 and 3."""
    args = build_parser().parse_args(argv)
    try:
        inst = parse_instance(_read(args.file), args) if "file" in args else None
        return args.run(inst, args)
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
