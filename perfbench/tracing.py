"""Spans around the calls into racd's layers, recorded from the benchmark's
own files by wrapping each layer's public functions for the traced run.

A span is ``[id, parent, name, start, end]``; all spans of one run share the
tracer's ``run_id``.  Spans stay in memory until :meth:`Tracer.dump`.  The
per-layer metrics are totals over spans of one name; a self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

from racd import agp, cli, closed_form, dynamics, models, operators, optimizer

ACTIONS = ("action_two_level", "action_chain", "action_qubo", "action_lhz")

#: unit of every per-layer metric, in the order the traced run reports them
LAYER_UNITS = {
    "models.instance_s": "s",
    "models.ramp_table_calls": "count",
    "models.ramp_table_s": "s",
    "operators.to_dense_calls": "count",
    "operators.to_dense_s": "s",
    "operators.trace_product_calls": "count",
    "operators.trace_product_s": "s",
    "closed_form.action_calls": "count",
    "closed_form.action_s": "s",
    "closed_form.action_us_per_call": "us",
    "optimizer.sequential_s": "s",
    "optimizer.self_s": "s",
    "optimizer.grid_points": "count",
    "optimizer.bfgs_iters": "count",
    "optimizer.evals_per_point": "count",
    "optimizer.nonconverged_frac": "frac",
    "optimizer.tables_s": "s",
    "agp.local_cd_build_s": "s",
    "agp.local_cd_solve_s": "s",
    "dynamics.evolve_s": "s",
    "dynamics.evolve_steps": "count",
    "dynamics.evolve_us_per_step": "us",
    "dynamics.max_norm_drift": "frac",
    "dynamics.ground_calls": "count",
    "dynamics.ground_s": "s",
    "dynamics.ground_ms_per_call": "ms",
    "dynamics.fidelity_s": "s",
    "cli.single_run_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        #: per-span results read from the wrapped call (BFGS exits, evolve steps)
        self.extra: dict = {}
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        spans, stack, extra = self.spans, self._stack, self.extra

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                extra[rec[0]] = after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced entry point; call :meth:`uninstall` to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        for owner in (models, cli):
            w(owner, "random_instance", "models.random_instance")
        w(models.Ramp, "table", "models.ramp_table")
        w(operators.SpinOperator, "to_dense", "operators.to_dense")
        for owner in (agp, closed_form):
            w(owner, "trace_product", "operators.trace_product")
        for fn in ACTIONS:
            w(closed_form, fn, "closed_form.action")
        for owner in (optimizer, cli):
            w(owner, "sequential_optimize", "optimizer.sequential", _model_label)
        w(optimizer, "bfgs_minimize", "optimizer.bfgs", _bfgs_exit)
        for fn in ("field_table", "q_table", "y_table"):
            w(optimizer.Protocol, fn, "optimizer.tables")
        w(agp.LocalCdSolver, "__init__", "agp.local_cd_build")
        w(agp.LocalCdSolver, "solve_batch", "agp.local_cd_solve")
        for owner in (dynamics, cli):
            w(owner, "run_protocol", "dynamics.run_protocol")
        w(dynamics, "evolve", "dynamics.evolve", _evolve_result(dynamics.evolve))
        w(dynamics, "ground_space_op", "dynamics.ground")
        w(cli, "_single_run", "cli.single_run")
        w(cli, "_write_fields_csv", "cli.write")
        w(dynamics.FidelityTrace, "to_csv", "cli.write")
        w(optimizer.ParamTrajectory, "to_csv", "cli.write")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict:
        total, self_time, count = _totals(self.spans)
        bfgs = [self.extra[s[0]] for s in self.spans if s[2] == "optimizer.bfgs"]
        evolves = [self.extra[s[0]] for s in self.spans if s[2] == "dynamics.evolve"]
        points = count["optimizer.bfgs"]
        action_calls = count["closed_form.action"]
        steps = sum(e["steps"] for e in evolves)
        ground_calls = count["dynamics.ground"]
        return {
            "models.instance_s": total["models.random_instance"],
            "models.ramp_table_calls": count["models.ramp_table"],
            "models.ramp_table_s": total["models.ramp_table"],
            "operators.to_dense_calls": count["operators.to_dense"],
            "operators.to_dense_s": total["operators.to_dense"],
            "operators.trace_product_calls": count["operators.trace_product"],
            "operators.trace_product_s": total["operators.trace_product"],
            "closed_form.action_calls": action_calls,
            "closed_form.action_s": total["closed_form.action"],
            "closed_form.action_us_per_call": _ratio(1e6 * total["closed_form.action"], action_calls),
            "optimizer.sequential_s": total["optimizer.sequential"],
            "optimizer.self_s": total["optimizer.sequential"] - total["closed_form.action"],
            "optimizer.grid_points": points,
            "optimizer.bfgs_iters": sum(b["iterations"] for b in bfgs),
            "optimizer.evals_per_point": _ratio(action_calls, points),
            "optimizer.nonconverged_frac": _ratio(sum(not b["converged"] for b in bfgs), points),
            "optimizer.tables_s": total["optimizer.tables"],
            "agp.local_cd_build_s": total["agp.local_cd_build"],
            "agp.local_cd_solve_s": total["agp.local_cd_solve"],
            "dynamics.evolve_s": total["dynamics.evolve"],
            "dynamics.evolve_steps": steps,
            "dynamics.evolve_us_per_step": _ratio(1e6 * total["dynamics.evolve"], steps),
            "dynamics.max_norm_drift": max((e["max_norm_drift"] for e in evolves), default=0.0),
            "dynamics.ground_calls": ground_calls,
            "dynamics.ground_s": total["dynamics.ground"],
            "dynamics.ground_ms_per_call": _ratio(1e3 * total["dynamics.ground"], ground_calls),
            "dynamics.fidelity_s": self_time["dynamics.run_protocol"],
            "cli.single_run_s": total["cli.single_run"],
            "cli.write_s": total["cli.write"],
            "trace.spans": len(self.spans),
        }

    def optimizer_breakdown(self) -> list:
        """Per sequential_optimize call: grid points, action evaluations per
        point, BFGS iterations and the non-converged fraction."""
        parent = {s[0]: s[1] for s in self.spans}
        rows = {}
        for sid, _, name, t0, t1 in self.spans:
            if name == "optimizer.sequential":
                rows[sid] = {"model": self.extra[sid]["model"], "seconds": t1 - t0, "grid_points": 0,
                             "action_calls": 0, "bfgs_iters": 0, "nonconverged": 0}
        for sid, _, name, _, _ in self.spans:
            if name not in ("optimizer.bfgs", "closed_form.action"):
                continue
            up = parent[sid]
            while up is not None and up not in rows:
                up = parent[up]
            if up is None:
                continue
            row = rows[up]
            if name == "closed_form.action":
                row["action_calls"] += 1
            else:
                row["grid_points"] += 1
                row["bfgs_iters"] += self.extra[sid]["iterations"]
                row["nonconverged"] += not self.extra[sid]["converged"]
        for row in rows.values():
            row["evals_per_point"] = _ratio(row["action_calls"], row["grid_points"])
            row["nonconverged_frac"] = _ratio(row.pop("nonconverged"), row["grid_points"])
        return list(rows.values())

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _totals(spans):
    child = defaultdict(float)
    for _, parent, _, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    total, self_time, count = defaultdict(float), defaultdict(float), Counter()
    for sid, _, name, t0, t1 in spans:
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - child[sid]
        count[name] += 1
    return total, self_time, count


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _model_label(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    return {"model": f"{model.kind}-{model.n_qubits}"}


def _bfgs_exit(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _evolve_result(evolve):
    signature = inspect.signature(evolve)

    def after(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        _, states = result
        drift = np.abs(np.linalg.norm(states, axis=1) - 1.0)
        return {"steps": int(bound.arguments["steps"]), "max_norm_drift": float(drift.max())}

    return after
