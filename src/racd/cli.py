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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .dynamics import NORM_DRIFT_TOL, StepSizeError, check_capacity, check_steps, run_groups, run_protocol
from .errors import RacdError
from .models import PRNG_NAME, Model, Ramp, TwoSpinModel, ramp_eval, random_instance
from .optimizer import (BACKENDS, BFGS_GTOL, PROTOCOL_KINDS, ParamTrajectory, Protocol, _evaluator, assemble_protocol,
                        check_backend, check_grid, fmt, sequential_optimize, write_csv)
from .validation import check_draws, run_all_suites

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
        """Refuse a setting before any work, naming its flag; a bound the library has is its own check."""
        if self.model not in ("two-spin", "chain", "qubo", "lhz"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.seed < 0:
            raise ValueError(f"--seed {self.seed}: seed must be >= 0")
        bad = [p for p in self.protocols if p not in PROTOCOL_KINDS]
        if bad:
            raise ValueError(f"unknown protocols: {bad}")
        if not self.protocols or len(set(self.protocols)) < len(self.protocols):
            raise ValueError(f"--protocols '{','.join(self.protocols)}': name one or more protocols, each once")
        for flag, value, check in (("--tau", self.tau, lambda tau: ramp_eval(0.0, tau)),
                                   ("--steps", self.steps, check_steps), ("--m-points", self.m_points, check_grid),
                                   ("--backend", self.backend, check_backend)):
            _check_flag(flag, value, check)


def _check_flag(flag: str, value, check) -> None:
    """``check(value)``, its ValueError naming ``flag`` and the value."""
    try:
        check(value)
    except ValueError as exc:
        raise ValueError(f"{flag} {value}: {exc}") from None


def _build_model(config: RunConfig, seed: int) -> Model:
    if config.model == "two-spin":
        return TwoSpinModel()
    if config.model == "chain":
        return random_instance("chain", config.n, seed)
    size = config.n if config.model == "qubo" else config.n_logical
    return random_instance(config.model, size, seed)


def _write_fields_csv(path: Path, protocol, times: np.ndarray, ramp_table: Tuple[np.ndarray, np.ndarray]) -> None:
    names = [t.name for t in protocol.model.terms]
    table = protocol.tables(times, *ramp_table)
    header = ["t", *names] + [f"y{j + 1}" for j in range(table.shape[1] - len(names))]
    write_csv(path, header, np.column_stack([times, table]))


def _synthesize(model: Model, config: RunConfig) -> Tuple[ParamTrajectory | None, List[Protocol]]:
    """The RA trajectory of ``model`` (None without RA) and the protocols of
    ``config.protocols``; a synthesis :class:`RacdError` is annotated."""
    ramp = Ramp(config.tau)
    trajectory = None
    if "ra" in config.protocols:
        try:
            trajectory = sequential_optimize(model, ramp, M=config.m_points, backend=config.backend)
        except RacdError as exc:
            _annotate(exc, model, "ra synthesis")
            raise
    return trajectory, [assemble_protocol(model, trajectory, kind, ramp) for kind in config.protocols]


def _single_run(model: Model, config: RunConfig, out_dir: Path | None, n_out: int = 101) -> Dict[str, float]:
    """Optimize, evolve and (optionally) write one model's protocols.

    Returns the final fidelity per protocol.  A :class:`RacdError` keeps its
    type and gets the stage, the model size and the instance seed prefixed
    to its message.
    """
    trajectory, protocols = _synthesize(model, config)
    try:
        traces = run_protocol(protocols, steps=config.steps, n_out=n_out)
    except RacdError as exc:
        _annotate(exc, model, f"{','.join(config.protocols)} evolution")
        raise
    finals = {p.kind: float(t.F[-1]) for p, t in zip(protocols, traces)}
    if out_dir is not None:
        # the protocols share one ramp and their traces one output grid
        times = traces[0].times
        ramp_table = protocols[0].ramp.table(times)
        for protocol, trace in zip(protocols, traces):
            trace.to_csv(out_dir / f"fidelity_{protocol.kind}.csv")
            _write_fields_csv(out_dir / f"fields_{protocol.kind}.csv", protocol, times, ramp_table)
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
    model = _build_model(config, config.seed)
    check_capacity(model.n_qubits, config.protocols)
    if "ra" in config.protocols:
        _check_flag("--backend", config.backend, lambda backend: _evaluator(model, backend))
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

    The instances, size by size, stream through one
    :func:`racd.dynamics.run_groups`, which synthesizes each as it reads it.
    The first failure among its outcomes, which is the one a run of one
    instance after another meets first, is raised at once.
    """
    models: List[Model] = []

    def groups():
        for size in sizes:
            run_cfg = replace(config, n=size, n_logical=size, protocols=SCALING_PROTOCOLS)
            for idx in range(config.instances):
                model = _build_model(run_cfg, config.seed + idx)
                protocols = _synthesize(model, run_cfg)[1]
                models.append(model)
                yield protocols

    # final fidelity per (size, protocol, instance)
    finals = np.empty((len(sizes), len(SCALING_PROTOCOLS), config.instances))
    # scaling only consumes final fidelities: a sparse output grid keeps
    # the norm-drift checkpoints without per-point eigensolves
    for g, outcome in enumerate(run_groups(groups(), steps=config.steps, n_out=11)):
        if isinstance(outcome, Exception):
            # past the models handed out: a synthesis error, annotated where it arose
            if isinstance(outcome, RacdError) and g < len(models):
                _annotate(outcome, models[g], f"{','.join(SCALING_PROTOCOLS)} evolution")
            raise outcome
        finals[g // config.instances, :, g % config.instances] = [t.F[-1] for t in outcome]
    ua = SCALING_PROTOCOLS.index("ua")
    return [{"size": size, "protocol": kind, "mean_F": float(f.mean()), "p25_F": float(np.percentile(f, 25)),
             "p75_F": float(np.percentile(f, 75)), "mean_rel_improvement": float((f / size_finals[ua]).mean())}
            for size, size_finals in zip(sizes, finals) for kind, f in zip(SCALING_PROTOCOLS, size_finals)]


def cmd_scaling(config: RunConfig, sizes: Sequence[int] | None = None) -> int:
    config.validate()
    if sizes is None:
        table = FULL_SCALING_SIZES if config.full else DEFAULT_SCALING_SIZES
        if config.model not in table:
            raise ValueError("scaling study expects a random-instance model (qubo or lhz)")
        sizes = table[config.model]
    # a backend that serves the largest size serves them all
    largest = _build_model(replace(config, n=max(sizes), n_logical=max(sizes)), config.seed)
    _check_flag("--backend", config.backend, lambda backend: _evaluator(largest, backend))
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = scaling_study(config, sizes)
    with open(out_dir / "scaling.csv", "w", newline="") as fh:
        fh.write("size,protocol,mean_F,p25_F,p75_F,mean_rel_improvement\n")
        for r in rows:
            fh.write(
                f"{r['size']},{r['protocol']},{fmt(r['mean_F'])},{fmt(r['p25_F'])},"
                f"{fmt(r['p75_F'])},{fmt(r['mean_rel_improvement'])}\n"
            )
    meta = {"config": asdict(config), "sizes": list(sizes), "prng": PRNG_NAME}
    meta["config"]["protocols"] = list(SCALING_PROTOCOLS)
    with open(out_dir / "run.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_validate(draws: int = 100) -> int:
    _check_flag("--draws", draws, check_draws)
    results = run_all_suites(draws=draws)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


#: the RunConfig fields that each command reads: its flags, and the keys its --config file may hold
COMMAND_FIELDS = {"run": ("model", "n", "n_logical", "tau", "m_points", "steps", "protocols", "seed", "out", "backend"),
                  "scaling": ("model", "tau", "m_points", "steps", "seed", "instances", "out", "backend", "full")}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="racd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    # a flag not named here takes its field's type
    flags = {"model": {"choices": ["two-spin", "chain", "qubo", "lhz"]}, "backend": {"choices": BACKENDS},
             "n": {"type": int, "help": "sites (chain) or qubits (qubo)"},
             "n_logical": {"type": int, "help": "logical spins (lhz)"},
             "protocols": {"type": str, "help": "comma list of ua,local-cd,ra,exact-cd"},
             "full": {"action": "store_true", "default": None}}
    for name, keys in COMMAND_FIELDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file; flags override")
        for key in keys:
            sp.add_argument("--" + key.replace("_", "-"), **flags.get(key, {"type": type(getattr(RunConfig, key))}))
    sub.add_parser("validate").add_argument("--draws", type=int, default=100)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    keys = COMMAND_FIELDS[args.command]
    base: Dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        for key, value in base.items():
            if key not in keys:
                raise ValueError(f"config key {key!r} is not an option of racd {args.command}")
            kind = type(getattr(RunConfig, key))
            # a JSON list for the protocols, an int for a float, and no bool for a number
            if type(value) not in {tuple: (list,), float: (int, float)}.get(kind, (kind,)):
                raise ValueError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")
    if getattr(args, "protocols", None) is not None:
        args.protocols = [s.strip() for s in args.protocols.split(",") if s.strip()]
    config = RunConfig(**base)
    for key in keys:
        if getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
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
