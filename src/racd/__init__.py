"""racd: rotated-ansatz approximate counterdiabatic driving for spin systems.

Synthesizes experimentally accessible counterdiabatic protocols by
minimizing the variational action of a frame-rotated gauge-potential ansatz,
and verifies them by exact state-vector evolution against unassisted,
local-CD and exact-CD baselines.
"""

from .agp import action_oracle, exact_agp, g_operator, local_cd_coeffs, ra_agp
from .closed_form import (
    action_cd_two_param,
    action_chain,
    action_lhz,
    action_qubo,
    action_two_level,
    two_level_optimum,
)
from .dynamics import FidelityTrace, evolve, fidelity, ground_space, rotated_fidelity, run_protocol
from .errors import RacdError
from .models import (
    ChainModel,
    LhzCounts,
    LhzModel,
    Model,
    QuboModel,
    Ramp,
    TwoSpinModel,
    build_hamiltonian,
    lhz_default_constraints,
    ramp_eval,
    random_instance,
)
from .operators import SpinOperator, commutator, diag_component, trace_product
from .optimizer import ParamTrajectory, Protocol, assemble_protocol, bfgs_minimize, sequential_optimize

__version__ = "0.1.0"
