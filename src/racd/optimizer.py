"""Quasi-Newton minimization, the sequential warm-started time-grid
optimization of the scaled action, trajectory interpolation, and protocol
assembly.

The sequential algorithm discretizes t_m = (m-1) tau / M for m = 1..M+1,
minimizes the scaled action at t_1 starting from zero parameters, then warm
starts each grid point from its predecessor.  Cubic splines through the
optimized knots provide the differentiable parameter functions whose time
derivatives enter the rotated control fields.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize

from . import closed_form
from .agp import LocalCdSolver, action_oracle, check_oracle_size
from .errors import RacdError
from .models import Model, Ramp

BFGS_GTOL = 1e-10
BFGS_MAX_ITER = 500
FD_STEP = 1e-6
#: action backends: the model's closed form, or the dense trace oracle
BACKENDS = ("closed-form", "oracle")


class SequentialOptimizeError(RacdError, RuntimeError):
    """BFGS aborted at a grid point; carries the failing time index."""


class NonFiniteObjectiveError(RuntimeError):
    pass


@dataclass(frozen=True)
class BfgsResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool
    aborted: bool = False


def _central_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, rel_step: float) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def bfgs_minimize(objective: Callable[[np.ndarray], float], x0: Sequence[float]) -> BfgsResult:
    """BFGS with Wolfe line search and central finite-difference gradients.

    Gradient steps are h_i = ``FD_STEP`` * max(1, |x_i|).  Termination:
    gradient norm below ``BFGS_GTOL``, ``BFGS_MAX_ITER`` iterations, or the
    line search hitting the finite-difference noise floor (treated as
    converged-at-floor).  A non-finite objective value aborts with the best
    iterate seen so far (``x0`` with value inf if it is the first).

    BFGS and its line searches ask again for points they have already
    evaluated, so the objective's values are kept by the exact bytes of
    ``x`` for the call; every visit, repeated or not, still updates the best
    iterate and checks finiteness in the order it happens.
    """
    x0 = np.asarray(x0, dtype=float)
    best: Dict[str, object] = {"x": x0.copy(), "f": np.inf}
    values: Dict[bytes, float] = {}

    def guarded(x: np.ndarray) -> float:
        key = x.tobytes()
        v = values.get(key)
        if v is None:
            v = values[key] = float(objective(x))
        if not np.isfinite(v):
            raise NonFiniteObjectiveError
        if v < best["f"]:
            best["f"] = v
            best["x"] = x.copy()
        return v

    try:
        with warnings.catch_warnings():
            # a failing Wolfe search at the finite-difference noise floor is
            # the expected terminator, not a user-facing problem (scipy's
            # LineSearchWarning is a RuntimeWarning)
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                guarded,
                x0,
                method="BFGS",
                jac=lambda x: _central_gradient(guarded, x, FD_STEP),
                options={"gtol": BFGS_GTOL, "maxiter": BFGS_MAX_ITER},
            )
        x_star = np.asarray(res.x, dtype=float)
        f_star = float(res.fun)
        if f_star > best["f"]:
            x_star, f_star = np.asarray(best["x"]), float(best["f"])
        return BfgsResult(x_star, f_star, int(res.nit), bool(res.success), aborted=False)
    except NonFiniteObjectiveError:
        return BfgsResult(np.asarray(best["x"]), float(best["f"]), 0, False, aborted=True)


def fmt(x: float) -> str:
    """A number as every CSV output writes it: 12-significant-digit scientific notation."""
    return f"{x:.12e}"


def write_csv(path, header: Sequence[str], rows) -> None:
    """A CSV of the column names ``header`` and the numeric ``rows``, written by :func:`fmt`."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt, row)) + "\n")


@dataclass
class ParamTrajectory:
    """Time-gridded variational parameters with spline interpolation.

    ``values`` has one row per grid time, columns ordered as ``param_names``.
    Interpolation is a cubic spline (boundary per ``bc``), whose analytic
    derivative supplies the Q-parameter rates entering the RA fields.
    """

    times: np.ndarray
    values: np.ndarray
    param_names: Tuple[str, ...]
    #: spline boundary handling: "natural" for generic data, "clamped-zero"
    #: when the knots are known to have vanishing end rates (the sequential
    #: optimizer's output, where lambda_dot = lambda_ddot = 0 at t = 0, tau)
    bc: str = "natural"
    _splines: Dict[str, CubicSpline] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 3:
            raise ValueError("need at least M >= 2 intervals (3 grid times)")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.values.shape != (len(self.times), len(self.param_names)):
            raise ValueError("values shape does not match times/param_names")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite parameter values")
        if self.bc not in ("natural", "clamped-zero"):
            raise ValueError(f"bc must be 'natural' or 'clamped-zero', got {self.bc!r}")

    def _spline(self, name: str) -> CubicSpline:
        if name not in self.param_names:
            raise KeyError(f"unknown parameter {name!r}")
        if name not in self._splines:
            col = self.param_names.index(name)
            bc_type = ((1, 0.0), (1, 0.0)) if self.bc == "clamped-zero" else "natural"
            self._splines[name] = CubicSpline(self.times, self.values[:, col], bc_type=bc_type)
        return self._splines[name]

    def value(self, name: str, t):
        return self._spline(name)(t)

    def derivative(self, name: str, t):
        return self._spline(name)(t, 1)

    def to_csv(self, path) -> None:
        write_csv(path, ["t", *self.param_names], np.column_stack([self.times, self.values]))

    @staticmethod
    def from_csv(path) -> "ParamTrajectory":
        """Read ``params_ra.csv``, which holds :func:`sequential_optimize`
        output, so its ``"clamped-zero"`` spline boundary is restored."""
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        return ParamTrajectory(data[:, 0], data[:, 1:], tuple(header[1:]), bc="clamped-zero")


def make_action_objective(
    model: Model, lam: float, lam_dot: float, backend: str = "closed-form"
) -> Callable[[np.ndarray], float]:
    """Scaled-action objective in the stacked parameter vector.

    ``closed-form`` calls the model's polynomial evaluator, chosen once per
    objective (:func:`racd.closed_form.evaluator`); ``oracle`` uses the dense trace
    (capped by the dense-matrix limit).
    Normalizations differ by constant positive factors only, which is
    irrelevant to the minimizer.  For QUBO, the closed-form objective
    builds a :class:`racd.closed_form.QuboKernel` of the couplings (checking
    them) when it is made, and keeps its own cache of beta-independent sums
    (see :func:`racd.closed_form.action_qubo`); both live as long as the
    objective, and neither changes a value.
    """
    return _objective(model, lam, lam_dot, _evaluator(model, backend))


def _evaluator(model: Model, backend: str) -> Callable:
    """The action of ``model`` on ``backend`` as a function of ``(fd, x)``:
    the closed-form evaluator (:func:`racd.closed_form.evaluator`) or the
    dense oracle (:func:`racd.agp.action_oracle`); ``ValueError`` for a
    model that the backend cannot serve."""
    check_backend(backend)
    if backend == "closed-form":
        return closed_form.evaluator(model)
    check_oracle_size(model)
    return lambda fd, x: action_oracle(model, fd, x)


def _objective(model: Model, lam: float, lam_dot: float, evaluate: Callable) -> Callable[[np.ndarray], float]:
    """The objective of :func:`make_action_objective` on an evaluator made
    by :func:`_evaluator`."""
    fd = model.ua_fields(lam, lam_dot)
    return lambda x: evaluate(fd, x)


def check_backend(backend: str) -> None:
    """Raise ValueError unless ``backend`` is one of ``BACKENDS``."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown action backend {backend!r}")


def check_grid(M: int) -> None:
    """Raise ValueError unless ``M`` grid intervals are enough to synthesize."""
    if M < 10:
        raise ValueError("M must be >= 10")


def sequential_optimize(
    model: Model,
    ramp: Ramp,
    M: int = 100,
    backend: str = "closed-form",
) -> ParamTrajectory:
    """Warm-started per-time-point minimization of the scaled action.

    Starts from zero parameters at t = 0 (where lambda_dot = 0 makes the
    trivial ansatz optimal) and uses each optimum as the next initial guess,
    tracking one smooth solution branch.  Deterministic for fixed inputs.
    Every grid point's objective is that of :func:`make_action_objective`;
    one closed-form evaluator (and so one QUBO kernel and gamma cache,
    whose sums depend on neither the fields nor beta) serves them all.
    """
    check_grid(M)
    names = model.param_names
    periods = model.param_periods
    times = np.array([m * ramp.tau / M for m in range(M + 1)])
    values = np.zeros((M + 1, len(names)))
    x = np.zeros(len(names))
    evaluate = _evaluator(model, backend)
    for m, t in enumerate(times):
        lam, lam_dot = ramp(t)
        objective = _objective(model, lam, lam_dot, evaluate)
        res = bfgs_minimize(objective, x)
        if res.aborted:
            raise SequentialOptimizeError(f"BFGS aborted at grid index {m} (t={t:.6g})")
        x = res.x.copy()
        # The trivial ansatz is never worse than UA; where it ties or beats the
        # tracked branch (the lambda_dot = 0 endpoints, where the action goes
        # flat), it is the representative that satisfies the protocol's time
        # boundary conditions.
        if objective(np.zeros(len(names))) <= res.fun:
            x = np.zeros(len(names))
        if m > 0:
            # Fold whole-period quasi-Newton hops back onto the tracked branch.
            # The action is exactly periodic in these parameters, so this picks
            # the physics-identical representative nearest the previous point,
            # keeping the branch unwrapped and the spline rates finite.
            for i, name in enumerate(names):
                period = periods.get(name)
                if period:
                    x[i] -= period * np.round((x[i] - values[m - 1, i]) / period)
        values[m] = x
    return ParamTrajectory(times, values, names, bc="clamped-zero")


PROTOCOL_KINDS = ("ua", "local-cd", "ra", "exact-cd")


@dataclass
class Protocol:
    """Assembled time-dependent driving for one model.

    :meth:`tables` gives the drive at each time as one row of an array whose
    columns are the control field on every model term, in term order, then,
    for local CD, the sigma-y field on every site; for the RA kind the term
    fields are UA fields plus the K-parameter value or Q-parameter spline
    rate.  It is the one table that :func:`racd.dynamics.evolve` and the
    fields CSV read.  ``field_table`` is its term columns by term name and
    ``y_table`` its sigma-y columns (zero unless local CD); ``q_table``
    exposes the rotation-generator coefficients (zero unless RA).
    """

    model: Model
    kind: str
    ramp: Ramp
    trajectory: ParamTrajectory | None = None
    _local_solver: LocalCdSolver | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.kind == "ra":
            if self.trajectory is None:
                raise ValueError("RA protocol needs a trajectory")
            if self.trajectory.param_names != self.model.param_names:
                raise ValueError("trajectory parameters do not match the model")
        if self.kind == "local-cd":
            self._local_solver = LocalCdSolver(self.model)

    def field_table(self, times: np.ndarray) -> Dict[str, np.ndarray]:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        table = self.tables(times, *self.ramp.table(times))
        return {t.name: table[:, c] for c, t in enumerate(self.model.terms)}

    def q_table(self, times: np.ndarray) -> Dict[str, np.ndarray]:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        ra = self.kind == "ra"
        return {t.param: np.asarray(self.trajectory.value(t.param, times)) if ra else np.zeros(len(times))
                for t in self.model.terms if t.param in ("gamma", "phi")}

    def y_table(self, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if self.kind != "local-cd":
            return np.zeros((len(times), self.model.n_qubits))
        return self.tables(times, *self.ramp.table(times))[:, len(self.model.terms) :]

    def tables(self, times: np.ndarray, lams: np.ndarray, lam_dots: np.ndarray) -> np.ndarray:
        """The drive ``(len(times), components)`` at the 1-D array ``times``,
        from the ramp's values there (``lams, lam_dots =
        self.ramp.table(times)``), so that one :meth:`Ramp.table` serves a
        batch of protocols: one column per model term, then, for local CD,
        one per site."""
        terms = self.model.terms
        n_y = self.model.n_qubits if self.kind == "local-cd" else 0
        out = np.empty((len(times), len(terms) + n_y))
        for c, t in enumerate(terms):
            out[:, c] = t.field0 + t.field1 * lams
            if self.kind == "ra" and t.param == "beta":
                out[:, c] += self.trajectory.value("beta", times)
            elif self.kind == "ra" and t.param in ("gamma", "phi"):
                out[:, c] += self.trajectory.derivative(t.param, times)
        if n_y:
            out[:, len(terms) :] = lam_dots[:, None] * self._local_solver.solve_batch(lams)
        return out


def assemble_protocol(model: Model, trajectory: ParamTrajectory | None, kind: str, ramp: Ramp) -> Protocol:
    """Build a Protocol; RA consumes the trajectory, other kinds ignore it."""
    return Protocol(model=model, kind=kind, ramp=ramp, trajectory=trajectory if kind == "ra" else None)
