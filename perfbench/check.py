"""Correctness gate: compare one unit's outputs with the reference outputs
recorded by ``record_refs.py``.

Tolerances (stated once, here):

* fidelities (final F per protocol, every ``scaling.csv`` value):
  ``|new - ref| <= 1e-6 + 1e-4 |ref|``;
* RA knot values (beta, gamma[, phi] at every grid time):
  ``|new - ref| <= 1e-5 + 1e-4 |ref|``;
* sampled RA control fields (qubo-synth): ``|new - ref| <= 1e-4 + 1e-4 |ref|``;
* minimized action at every knot: one-sided, it may not rise above the
  reference by more than 1e-6 of the trajectory's largest reference action.
  A lower action is a better optimum and passes.

The physics checks inside racd (``FidelityTrace.validate``, the norm-drift
guard of ``evolve``) still run and raise; the harness counts a raise as a
failed unit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import numpy as np

FIDELITY_TOL = (1e-4, 1e-6)  # (rtol, atol)
KNOT_TOL = (1e-4, 1e-5)
FIELD_TOL = (1e-4, 1e-4)
ACTION_RISE = 1e-6


def load_refs(refs_dir: Path, workload: str) -> dict:
    with open(Path(refs_dir) / f"{workload}.json") as fh:
        return json.load(fh)["instances"]


def _close(new, ref, tol, what: str, problems: List[str]) -> None:
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    if new.shape != ref.shape:
        problems.append(f"{what}: shape {new.shape} != reference {ref.shape}")
        return
    rtol, atol = tol
    bad = ~(np.abs(new - ref) <= atol + rtol * np.abs(ref))
    if bad.any():
        worst = float(np.max(np.abs(new - ref)))
        problems.append(f"{what}: {int(bad.sum())} value(s) outside tolerance (max |diff| {worst:.3e})")


def compare(outputs: dict, ref: dict | None) -> List[str]:
    """Mismatches between a unit's outputs and its reference (empty if it
    passes)."""
    if ref is None:
        return ["no reference recorded for this instance set"]
    problems: List[str] = []
    if sorted(outputs["fidelity"]) != sorted(ref["fidelity"]):
        problems.append("fidelity keys differ from the reference")
    else:
        for key, value in ref["fidelity"].items():
            _close(outputs["fidelity"][key], value, FIDELITY_TOL, f"fidelity {key}", problems)
    labels = [t["label"] for t in outputs["trajectories"]]
    if labels != [t["label"] for t in ref["trajectories"]]:
        return problems + [f"trajectories {labels} differ from the reference"]
    for new, old in zip(outputs["trajectories"], ref["trajectories"]):
        label = new["label"]
        _close(new["knots"], old["knots"], KNOT_TOL, f"{label} knots", problems)
        action, ref_action = np.asarray(new["action"]), np.asarray(old["action"])
        if action.shape != ref_action.shape:
            problems.append(f"{label} action: shape {action.shape} != reference {ref_action.shape}")
        else:
            rise = action - ref_action
            limit = ACTION_RISE * float(np.max(np.abs(ref_action)))
            if np.any(rise > limit):
                problems.append(f"{label} action: rises {float(rise.max()):.3e} above the reference")
        for name, values in old.get("fields", {}).items():
            _close(new.get("fields", {}).get(name, []), values, FIELD_TOL, f"{label} field {name}", problems)
    return problems
