"""Per-layer tracing for the benchmark's traced run.

`LayerTracer` wraps the module-level names through which ctoconv's layers
call each other, then restores them.  It edits no file: it rebinds
attributes of the imported modules and classes, and a function is rebound in
every ctoconv module that imported it by name, so calls such as
`convert.build_lorenz(...)` are seen too.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the spans it encloses, so the self times of all layers add up to the
traced part of each operation without double counting.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

from ctoconv import _kernels, asymptotic, convert, core, lorenz, lp, synth
from ctoconv._kernels import _simplex_py

# (owner, attribute, layer key) of every timed span
SPANS = [
    (core, "validate_context", "core.validate"),
    (core.CQState, "validate", "core.validate"),
    (core.StateVector, "validate", "core.validate"),
    (lorenz, "build_lorenz", "lorenz.build"),
    (lorenz.LorenzCurve, "value", "lorenz.value"),
    (lorenz, "merged_bend_grid", "lorenz.grid"),
    (lorenz, "thermo_majorizes", "lorenz.self"),
    (lorenz, "embed_states", "lorenz.self"),
    (convert, "check_cto", "convert.self"),
    (convert, "check_state_to_ensemble", "convert.self"),
    (convert, "check_ensemble_to_state", "convert.self"),
    (convert, "p_min", "convert.self"),
    (convert, "phi_monotones", "convert.self"),
    (convert, "extract_witness", "convert.witness"),
    (convert, "verify_witness", "convert.witness"),
    (lp, "solve_feasibility", "lp.assembly"),
    (lp, "verify_point", "lp.verify"),
    (lp, "verify_certificate", "lp.verify"),
    (lp, "_refine_exact", "lp.refine"),
    (_kernels, "run_simplex_float", "kernel"),
    (_kernels, "run_simplex_exact", "kernel"),
    (synth, "synthesize_cto", "synth.self"),
    (synth, "synthesize_to", "synth.self"),
    (synth, "apply_cto", "synth.apply"),
    (asymptotic, "asymptotic_rate", "asymptotic"),
    (asymptotic, "resource_value", "asymptotic"),
    (asymptotic, "free_energy", "asymptotic"),
    (asymptotic, "gibbs_free_energy", "asymptotic"),
]

# per-layer metrics: name -> (unit, value from a finished tracer per operation)
METRICS = {
    "convert.lp_rows": ("count/op", lambda t: t.counts["convert.lp_rows"]),
    "convert.lp_vars": ("count/op", lambda t: t.counts["convert.lp_vars"]),
    "convert.self_ms": ("ms/op", lambda t: t.ms("convert.self")),
    "convert.witness_ms": ("ms/op", lambda t: t.ms("convert.witness")),
    "lp.solves": ("count/op", lambda t: t.calls["lp.assembly"]),
    "lp.tableau_cells": ("count/op", lambda t: t.counts["lp.tableau_cells"]),
    "lp.assembly_ms": ("ms/op", lambda t: t.ms("lp.assembly")),
    "lp.verify_ms": ("ms/op", lambda t: t.ms("lp.verify")),
    "lp.refine_calls": ("count/op", lambda t: t.calls["lp.refine"]),
    "lp.refine_ms": ("ms/op", lambda t: t.ms("lp.refine")),
    "kernel.ms": ("ms/op", lambda t: t.ms("kernel")),
    "kernel.pivots": ("count/op", lambda t: t.counts["kernel.pivots"]),
    "synth.lp_solves": ("count/op", lambda t: t.counts["synth.lp_solves"]),
    "synth.lp_vars": ("count/op", lambda t: t.counts["synth.lp_vars"]),
    "synth.self_ms": ("ms/op", lambda t: t.ms("synth.self")),
    "synth.apply_ms": ("ms/op", lambda t: t.ms("synth.apply")),
    "lorenz.build_calls": ("count/op", lambda t: t.calls["lorenz.build"]),
    "lorenz.build_ms": ("ms/op", lambda t: t.ms("lorenz.build")),
    "lorenz.value_calls": ("count/op", lambda t: t.calls["lorenz.value"]),
    "lorenz.value_ms": ("ms/op", lambda t: t.ms("lorenz.value")),
    "lorenz.grid_ms": ("ms/op", lambda t: t.ms("lorenz.grid")),
    "lorenz.self_ms": ("ms/op", lambda t: t.ms("lorenz.self")),
    "core.validate_ms": ("ms/op", lambda t: t.ms("core.validate")),
    "asymptotic.ms": ("ms/op", lambda t: t.ms("asymptotic")),
}


class LayerTracer:
    """Context manager: installs the span wrappers on entry, removes them on
    exit.  Totals accumulate in `self_s`, `calls` and `counts`."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [layer key, seconds spent in enclosed spans]
        self._undo = []

    def ms(self, key: str) -> float:
        return self.self_s[key] * 1e3

    def per_op(self, n_ops: int) -> dict:
        return {name: {"value": get(self) / n_ops, "unit": unit}
                for name, (unit, get) in METRICS.items()}

    # -- wrappers ----------------------------------------------------------

    def _span(self, key, fn, hook=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            stack.append([key, 0.0])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                _, inner = stack.pop()
                self_s[key] += dt - inner
                calls[key] += 1
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def _on_solve(self, args):
        """Size of each LP, charged to the layer whose span called it."""
        system = args[0]
        rows = len(system.eq) + len(system.ineq)
        cols = system.n_vars + len(system.ineq) + rows + 1
        self.counts["lp.tableau_cells"] += (rows + 1) * cols
        caller = self._stack[-1][0] if self._stack else None
        if caller == "convert.self":
            self.counts["convert.lp_rows"] += rows
            self.counts["convert.lp_vars"] += system.n_vars
        elif caller == "synth.self":
            self.counts["synth.lp_solves"] += 1
            self.counts["synth.lp_vars"] += system.n_vars

    def _count_pivot(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["kernel.pivots"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ----------------------------------------------------

    def _rebind(self, owner, name, new):
        orig = getattr(owner, name)
        self._undo.append((owner, name, orig))
        setattr(owner, name, new)
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "ctoconv" or mod_name.startswith("ctoconv.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def __enter__(self):
        installed = set()
        for owner, name, key in SPANS:
            fn = getattr(owner, name)
            if fn in installed:
                continue  # one function under two names, already rebound
            hook = self._on_solve if fn is lp.solve_feasibility else None
            wrapper = self._span(key, fn, hook)
            installed.add(wrapper)
            self._rebind(owner, name, wrapper)
        self._rebind(_simplex_py, "_pivot", self._count_pivot(_simplex_py._pivot))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)
        return False
