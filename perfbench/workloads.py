"""The benchmark's workloads: inputs made from a seed, one timed unit of
work, and the outputs the correctness gate compares with the references.

A unit is a fixed amount of work on fixed inputs, so repeating it inside a
run changes only the number of timing samples, never the inputs.  The
``--seed`` of a run picks one of the ``pool`` instance sets whose outputs were
recorded in ``refs/``; every run can therefore be checked.

Each workload runs at two scales: ``full`` (what the benchmark measures) and
``toy`` (the harness smoke test).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np

from racd import cli, models, optimizer
from racd.models import Ramp

TAU = 1.0


def _trajectory_record(label: str, model, trajectory) -> dict:
    """Knots of an RA trajectory with the minimized scaled action at each
    knot, and the unassisted action (all parameters zero) at the same times,
    both as the optimizer's own objective computes them."""
    ramp = Ramp(TAU)
    action, action_ua = [], []
    for t, x in zip(trajectory.times, trajectory.values):
        objective = optimizer.make_action_objective(model, *ramp(t))
        action.append(float(objective(x)))
        action_ua.append(float(objective(np.zeros_like(x))))
    return {"label": label, "knots": trajectory.values.tolist(), "action": action, "action_ua": action_ua}


class Workload:
    name = ""

    def __init__(self, scale: str):
        if scale not in self.scales:
            raise ValueError(f"unknown scale {scale!r}")
        self.params = self.scales[scale]
        #: number of recorded instance sets; ``--seed`` picks one modulo this
        self.pool = self.params["pool"]

    def key(self, seed: int) -> int:
        return seed % self.pool

    def setup(self, key: int):
        """Build the instances; what a user has before the run starts."""
        raise NotImplementedError

    def run(self, inputs, out_dir: Path):
        """The timed unit: from inputs ready to outputs written."""
        raise NotImplementedError

    def outputs(self, inputs, out_dir: Path, result) -> dict:
        """Checked outputs of one unit (computed outside the timed region)."""
        raise NotImplementedError


class QuboScaling(Workload):
    """`racd scaling --model qubo --tau 1 --steps 4000` over the default
    sizes N=3..8, one instance per size."""

    name = "qubo-scaling"
    scales = {
        "full": {"pool": 10, "steps": 4000, "m_points": 100},
        "toy": {"pool": 2, "steps": 400, "m_points": 10},
    }

    def setup(self, key):
        # the CLI draws the same instances again inside the run; generating
        # them here is the set-up a user pays before the study starts
        sizes = cli.DEFAULT_SCALING_SIZES["qubo"]
        return {"key": key, "models": [models.random_instance("qubo", n, key) for n in sizes]}

    def run(self, inputs, out_dir):
        argv = [
            "scaling", "--model", "qubo", "--tau", str(TAU),
            "--steps", str(self.params["steps"]), "--m-points", str(self.params["m_points"]),
            "--instances", "1", "--seed", str(inputs["key"]), "--out", str(out_dir),
        ]
        # scaling.csv holds no trajectories; keep the ones the CLI makes
        captured = []
        synthesize = cli.sequential_optimize

        def keep(model, ramp, *args, **kwargs):
            traj = synthesize(model, ramp, *args, **kwargs)
            captured.append((model, traj))
            return traj

        cli.sequential_optimize = keep
        try:
            code = cli.main(argv)
        finally:
            cli.sequential_optimize = synthesize
        if code != 0:
            raise RuntimeError(f"racd scaling exited with {code}")
        return captured

    def outputs(self, inputs, out_dir, result):
        fidelity = {}
        with open(out_dir / "scaling.csv") as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                row = dict(zip(header, line.strip().split(",")))
                for col in header[2:]:
                    fidelity[f"{row['size']}/{row['protocol']}/{col}"] = float(row[col])
        return {
            "fidelity": fidelity,
            "trajectories": [_trajectory_record(f"qubo-{m.n_qubits}", m, t) for m, t in result],
        }

    @staticmethod
    def ra_fidelity(outputs) -> float:
        f = outputs["fidelity"]
        return float(np.mean([v for k, v in f.items() if k.endswith("/ra/mean_F")]))


class ChainRun(Workload):
    """`racd run --model chain --n 8 --tau 1 --protocols ua,local-cd,ra`.

    The chain model has no random couplings, so every seed gives the same
    inputs."""

    name = "chain-run"
    scales = {
        "full": {"pool": 1, "n": 8, "steps": 2000, "m_points": 100},
        "toy": {"pool": 1, "n": 4, "steps": 400, "m_points": 10},
    }

    def setup(self, key):
        return {"key": key, "model": models.random_instance("chain", self.params["n"], key)}

    def run(self, inputs, out_dir):
        argv = [
            "run", "--model", "chain", "--n", str(self.params["n"]), "--tau", str(TAU),
            "--protocols", "ua,local-cd,ra", "--steps", str(self.params["steps"]),
            "--m-points", str(self.params["m_points"]), "--seed", str(inputs["key"]),
            "--out", str(out_dir),
        ]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"racd run exited with {code}")

    def outputs(self, inputs, out_dir, result):
        with open(out_dir / "run.json") as fh:
            finals = json.load(fh)["final_fidelity"]
        traj = optimizer.ParamTrajectory.from_csv(out_dir / "params_ra.csv")
        return {
            "fidelity": {k: float(v) for k, v in finals.items()},
            "trajectories": [_trajectory_record(f"chain-{self.params['n']}", inputs["model"], traj)],
        }

    @staticmethod
    def ra_fidelity(outputs) -> float:
        return outputs["fidelity"]["ra"]


class QuboSynth(Workload):
    """Library-only RA synthesis for hardware at N=32: sequential_optimize,
    assemble_protocol("ra") and field_table on a 2001-point grid.  N=32 is
    above the state-vector cap, so nothing evolves."""

    name = "qubo-synth"
    field_points = 2001
    field_stride = 100
    scales = {
        "full": {"pool": 20, "n": 32, "m": 100},
        "toy": {"pool": 4, "n": 8, "m": 10},
    }

    def setup(self, key):
        return {"key": key, "model": models.random_instance("qubo", self.params["n"], key)}

    def run(self, inputs, out_dir):
        ramp = Ramp(TAU)
        traj = optimizer.sequential_optimize(inputs["model"], ramp, M=self.params["m"])
        protocol = optimizer.assemble_protocol(inputs["model"], traj, "ra", ramp)
        return traj, protocol.field_table(np.linspace(0.0, TAU, self.field_points))

    def outputs(self, inputs, out_dir, result):
        model, (traj, fields) = inputs["model"], result
        rec = _trajectory_record(f"qubo-{model.n_qubits}-seed{model.seed}", model, traj)
        rec["fields"] = {k: v[:: self.field_stride].tolist() for k, v in sorted(fields.items())}
        return {"fidelity": {}, "trajectories": [rec]}

    @staticmethod
    def ra_fidelity(outputs):
        return None


WORKLOADS: Dict[str, type] = {w.name: w for w in (QuboScaling, ChainRun, QuboSynth)}


def action_sum(outputs) -> float:
    """Sum over the time grid of the minimized scaled action, over all RA
    trajectories of the unit."""
    return float(sum(sum(t["action"]) for t in outputs["trajectories"]))


def action_ratio(outputs) -> float:
    """:func:`action_sum` over the same sum for the unassisted drive: the
    share of the action the RA optimum leaves.  Unlike the raw sum it does
    not scale with the couplings of each instance."""
    return action_sum(outputs) / float(sum(sum(t["action_ua"]) for t in outputs["trajectories"]))
