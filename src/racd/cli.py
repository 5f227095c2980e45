"""Command-line driver: per-model protocol runs, disorder-averaged scaling
studies, and the self-check suites.

Subcommands
-----------
run       synthesize and evolve protocols for one model, writing per-protocol
          field and fidelity CSVs plus run.json metadata
scaling   repeat over random instances and sizes, writing scaling.csv
validate  run the oracle-equivalence and identity suites; nonzero exit on
          any failure

All numeric output uses 12-significant-digit scientific notation with '.'
decimal separator; reruns with identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from .dynamics import EXACT_CD_MAX_QUBITS, NORM_DRIFT_TOL, StepSizeError, run_groups, run_protocol
from .errors import RacdError
from .models import PRNG_NAME, Model, Ramp, TwoSpinModel, random_instance
from .optimizer import BFGS_GTOL, PROTOCOL_KINDS, assemble_protocol, sequential_optimize
from .validation import run_all_suites

DEFAULT_PROTOCOLS = ("ua", "ra")
SCALING_PROTOCOLS = ("ua", "local-cd", "ra")
DEFAULT_SCALING_SIZES = {"qubo": (3, 4, 5, 6, 7, 8), "lhz": (3, 4, 5)}
# --full: the reference long-running study; above 12 qubits the pipeline
# switches to matrix-free propagation and iterative ground-space solves
FULL_SCALING_SIZES = {"qubo": tuple(range(3, 16)), "lhz": (3, 4, 5, 6)}


@dataclass
class RunConfig:
    model: str = "two-spin"
    n: int = 8
    n_logical: int = 4
    tau: float = 1.0
    m_points: int = 100
    steps: int = 2000
    protocols: Sequence[str] = DEFAULT_PROTOCOLS
    seed: int = 1
    instances: int = 1
    out: str = "racd-out"
    backend: str = "closed-form"
    full: bool = False

    def validate(self) -> None:
        if self.model not in ("two-spin", "chain", "qubo", "lhz"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")


def _build_model(config: RunConfig, seed: int) -> Model:
    if config.model == "two-spin":
        return TwoSpinModel()
    if config.model == "chain":
        return random_instance("chain", config.n, seed)
    size = config.n if config.model == "qubo" else config.n_logical
    return random_instance(config.model, size, seed)


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_fields_csv(path: Path, protocol, times: np.ndarray) -> None:
    tables = protocol.field_table(times)
    names = [t.name for t in protocol.model.terms]
    columns = [tables[n] for n in names]
    header = ["t"] + names
    if protocol.kind == "local-cd":
        y = protocol.y_table(times)
        header += [f"y{j + 1}" for j in range(protocol.model.n_qubits)]
        columns += [y[:, j] for j in range(protocol.model.n_qubits)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(times):
            fh.write(",".join([_fmt(t)] + [_fmt(c[i]) for c in columns]) + "\n")


def _single_run(model: Model, config: RunConfig, out_dir: Path | None, n_out: int = 101) -> Dict[str, float]:
    """Optimize, evolve and (optionally) write one model's protocols.

    Returns the final fidelity per protocol.  A :class:`RacdError` keeps its
    type and gets the stage, the model size and the instance seed prefixed
    to its message.
    """
    ramp = Ramp(config.tau)
    trajectory = None
    stage = "ra synthesis"
    try:
        if "ra" in config.protocols:
            trajectory = sequential_optimize(model, ramp, M=config.m_points, backend=config.backend)
        stage = f"{','.join(config.protocols)} evolution"
        protocols = [assemble_protocol(model, trajectory, kind, ramp) for kind in config.protocols]
        traces = run_protocol(protocols, steps=config.steps, n_out=n_out) if protocols else []
    except RacdError as exc:
        _annotate(exc, model, stage)
        raise
    finals = {p.kind: float(t.F[-1]) for p, t in zip(protocols, traces)}
    if out_dir is not None:
        for protocol, trace in zip(protocols, traces):
            trace.to_csv(out_dir / f"fidelity_{protocol.kind}.csv")
            _write_fields_csv(out_dir / f"fields_{protocol.kind}.csv", protocol, trace.times)
        if trajectory is not None:
            trajectory.to_csv(out_dir / "params_ra.csv")
    return finals


def _annotate(exc: RacdError, model: Model, stage: str) -> None:
    """Prefix the stage, the model size and the instance seed to the
    message of ``exc``; a drift names the protocol that drifted."""
    if isinstance(exc, StepSizeError) and exc.kind is not None:
        stage = f"{exc.kind} evolution"
    where = f"the {model.kind} model with {model.n_qubits} qubits"
    if model.seed is not None:
        where += f", instance seed {model.seed}"
    msg = f"{stage} failed for {where}: {exc}"
    if isinstance(exc, StepSizeError) and exc.steps_needed() is not None:
        msg += f"; --steps {exc.steps_needed()} or more should keep it within {exc.tol}"
    exc.args = (msg,)


def cmd_run(config: RunConfig) -> int:
    config.validate()
    # checked here, not in RunConfig.validate: scaling runs its own protocols
    # at its own sizes
    bad = [p for p in config.protocols if p not in PROTOCOL_KINDS]
    if bad:
        raise ValueError(f"unknown protocols: {bad}")
    model = _build_model(config, config.seed)
    if "exact-cd" in config.protocols and model.n_qubits > EXACT_CD_MAX_QUBITS:
        raise ValueError(f"exact-cd is limited to {EXACT_CD_MAX_QUBITS} qubits, got {model.n_qubits}")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    finals = _single_run(model, config, out_dir)
    meta = {
        "config": asdict(config),
        "model": model.to_json(),
        "prng": PRNG_NAME,
        "seeds": {"instance": config.seed},
        "action_backend": config.backend,
        "tolerances": {"bfgs_gtol": BFGS_GTOL, "norm_drift": NORM_DRIFT_TOL},
        "final_fidelity": finals,
    }
    with open(out_dir / "run.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for kind, f in finals.items():
        print(f"{kind}: F(tau) = {f:.6f}")
    return 0


def scaling_study(config: RunConfig, sizes: Sequence[int]) -> List[dict]:
    """Per-size instance sweep over ``SCALING_PROTOCOLS``; returns one
    record per (size, protocol).

    Every (size, instance) is synthesized first, size by size, and then all
    of them evolve in one call (:func:`racd.dynamics.run_groups`).  Errors
    are reported as a run of one instance after another would meet them:
    an instance whose synthesis fails ends the synthesis, and its error is
    raised only if no earlier instance's evolution failed.
    """
    ramp = Ramp(config.tau)
    evolution = f"{','.join(SCALING_PROTOCOLS)} evolution"
    units, failure = [], None
    try:
        for pos, size in enumerate(sizes):
            run_cfg = replace(config, n=size, n_logical=size, protocols=SCALING_PROTOCOLS)
            for idx in range(config.instances):
                model = _build_model(run_cfg, config.seed + idx)
                stage = "ra synthesis"
                try:
                    trajectory = sequential_optimize(model, ramp, M=config.m_points, backend=config.backend)
                    stage = evolution
                    protocols = [assemble_protocol(model, trajectory, kind, ramp) for kind in SCALING_PROTOCOLS]
                except RacdError as exc:
                    _annotate(exc, model, stage)
                    raise
                units.append((pos, model, protocols))
    except Exception as exc:
        failure = exc
    # scaling only consumes final fidelities: a sparse output grid keeps
    # the norm-drift checkpoints without per-point eigensolves
    outcomes = run_groups([protocols for *_, protocols in units], steps=config.steps, n_out=11)
    finals: List[List[Dict[str, float]]] = [[] for _ in sizes]
    for (pos, model, protocols), outcome in zip(units, outcomes):
        if isinstance(outcome, Exception):
            if isinstance(outcome, RacdError):
                _annotate(outcome, model, evolution)
            raise outcome
        finals[pos].append({p.kind: float(t.F[-1]) for p, t in zip(protocols, outcome)})
    if failure is not None:
        raise failure
    rows: List[dict] = []
    for size, size_finals in zip(sizes, finals):
        for kind in SCALING_PROTOCOLS:
            f_vals = np.array([f[kind] for f in size_finals])
            f_ua = np.array([f["ua"] for f in size_finals])
            rel = f_vals / f_ua
            rows.append(
                {
                    "size": size,
                    "protocol": kind,
                    "mean_F": float(f_vals.mean()),
                    "p25_F": float(np.percentile(f_vals, 25)),
                    "p75_F": float(np.percentile(f_vals, 75)),
                    "mean_rel_improvement": float(rel.mean()),
                }
            )
    return rows


def cmd_scaling(config: RunConfig, sizes: Sequence[int] | None = None) -> int:
    config.validate()
    if sizes is None:
        table = FULL_SCALING_SIZES if config.full else DEFAULT_SCALING_SIZES
        if config.model not in table:
            raise ValueError("scaling study expects a random-instance model (qubo or lhz)")
        sizes = table[config.model]
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = scaling_study(config, sizes)
    with open(out_dir / "scaling.csv", "w", newline="") as fh:
        fh.write("size,protocol,mean_F,p25_F,p75_F,mean_rel_improvement\n")
        for r in rows:
            fh.write(
                f"{r['size']},{r['protocol']},{_fmt(r['mean_F'])},{_fmt(r['p25_F'])},"
                f"{_fmt(r['p75_F'])},{_fmt(r['mean_rel_improvement'])}\n"
            )
    meta = {"config": asdict(config), "sizes": list(sizes), "prng": PRNG_NAME}
    meta["config"]["protocols"] = list(SCALING_PROTOCOLS)
    with open(out_dir / "run.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_validate(draws: int = 100) -> int:
    results = run_all_suites(draws=draws)
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.passed
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="racd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "scaling"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file; flags override")
        sp.add_argument("--model", choices=["two-spin", "chain", "qubo", "lhz"])
        sp.add_argument("--n", type=int, help="sites (chain) or qubits (qubo)")
        sp.add_argument("--n-logical", type=int, help="logical spins (lhz)")
        sp.add_argument("--tau", type=float)
        sp.add_argument("--m-points", type=int)
        sp.add_argument("--steps", type=int)
        sp.add_argument("--protocols", type=str, help="comma list of ua,local-cd,ra,exact-cd")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--instances", type=int)
        sp.add_argument("--out", type=str)
        sp.add_argument("--backend", choices=["closed-form", "oracle"])
        sp.add_argument("--full", action="store_true", default=None)
    sub.add_parser("validate").add_argument("--draws", type=int, default=100)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base: Dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    if args.protocols is not None:
        args.protocols = [s.strip() for s in args.protocols.split(",") if s.strip()]
    config = RunConfig(**base)
    for f in fields(RunConfig):
        if getattr(args, f.name) is not None:
            setattr(config, f.name, getattr(args, f.name))
    config.protocols = tuple(config.protocols)
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(draws=args.draws)
        config = _config_from_args(args)
        if args.command == "run":
            return cmd_run(config)
        return cmd_scaling(config)
    except (RacdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
