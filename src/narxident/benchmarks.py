"""Executable reference systems.

Two simulated benchmarks (a Hammerstein heating system and a Bouc-Wen
hysteretic actuator) plus a catalog of published models — identified
NARX models and a literature valve model — stored with full published
precision so pipeline results can be checked against them.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .model import CandidateMeta, NarxModel, Variable, is_real, term
from .regression import SimulationResult, nan_from_unbounded, zero_buffer

Y, U, P1, P2 = Variable.OUTPUT, Variable.INPUT, Variable.PHI1, Variable.PHI2


def _check_finite(params):
    """Raise :class:`ParameterError` unless every field of ``params`` is a finite real."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not (is_real(value) and np.isfinite(value)):
            raise ParameterError(f"{f.name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class HammersteinParams:
    """Static quadratic nonlinearity followed by a second-order linear block."""

    p1: float = 4.639331e-1
    p2: float = 5.435865e-2
    beta1: float = 1.205445
    beta2: float = 8.985133e-2
    beta3: float = -3.0877507e-1
    beta4: float = 9.462358e-3

    def __post_init__(self):
        _check_finite(self)

    def static_gain(self, u):
        """Steady-state output for a constant input."""
        v = self.p1 * u ** 2 + self.p2 * u
        return v * (self.beta2 + self.beta4) / (1.0 - self.beta1 - self.beta3)


def simulate_hammerstein(params: HammersteinParams, u):
    """Exact recursion of the heating benchmark from zero initial conditions.

    Warns (without failing) when the input leaves the validity range
    [0, 1] of the published parameters, and raises ParameterError naming
    the first step whose output is not finite or exceeds 1e9 in
    magnitude.  The recursion carries y(k-1), y(k-2), v(k-1) and v(k-2)
    in local floats and is checked once, after the loop.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0) or np.any(u > 1):
        warnings.warn("input outside the model validity range [0, 1]", stacklevel=2)
    v = array("d", (params.p1 * u ** 2 + params.p2 * u).tobytes())
    b1, b2, b3, b4 = params.beta1, params.beta2, params.beta3, params.beta4
    n = len(u)
    y, y_view = zero_buffer(n)
    y1 = y2 = v2 = 0.0  # y(0) = 0, and the history before it is zero
    for k, v1 in zip(range(1, n), v):
        y0 = b1 * y1 + b2 * v1 + (b3 * y2 + b4 * v2)
        y[k] = y0
        y1, y2, v2 = y0, y1, v1
    bad = nan_from_unbounded(y_view, 1e9)
    if bad is not None:
        raise ParameterError(f"heating simulation diverged at step {bad}")
    return y_view


@dataclass(frozen=True)
class BoucWenParams:
    """First-order hysteresis operator parameters and integration step.

    The internal state obeys
    dh/dt = alpha*du/dt - beta*|du/dt|*h - gamma*(du/dt)*|h|,
    and the position output is y = nu_y*u - h.
    """

    alpha: float = 0.9      # state gain, output units per input unit
    beta: float = 0.008     # 1 / input units
    gamma: float = 0.008    # 1 / input units
    nu_y: float = 1.6       # feedthrough, output units per input unit
    dt: float = 5e-3        # integration step, s

    def __post_init__(self):
        _check_finite(self)
        if not (self.dt > 0):
            raise ParameterError("integration step must be positive")


@dataclass(frozen=True, kw_only=True)
class BoucWenTrajectory(SimulationResult):
    """A simulation result that also holds the hysteresis state ``h``."""

    h: np.ndarray


def simulate_bouc_wen(params: BoucWenParams, u, u_dot=None):
    """Fourth-order Runge-Kutta integration of the hysteresis state.

    ``u`` is sampled at the integration step.  The input rate defaults to
    central finite differences of the samples (forward/backward at the
    endpoints); pass ``u_dot`` explicitly when an analytic rate is
    available.  An array ``u_dot`` is interpolated at the half-step stage
    times; a callable ``u_dot(t)`` is evaluated there exactly, which
    preserves the full fourth-order accuracy in convergence studies.

    The rate's factors alpha*du, beta*|du| and gamma*du are formed as
    vectors, at the grid points and at the half steps, so each stage of
    the loop adds only the state's part on Python floats.  The state has
    diverged at its first sample that is not finite or exceeds 1e12 in
    magnitude; that is found once, after the loop, and returned as
    ``diverged_at``, with the trajectory NaN from there on.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    if n < 2:
        raise ParameterError("need at least 2 input samples")
    du_half = None
    if u_dot is None:
        u_dot = np.gradient(u, params.dt)
    elif callable(u_dot):
        t = np.arange(n) * params.dt
        du_half = np.asarray(u_dot(t[:-1] + 0.5 * params.dt), dtype=float)
        u_dot = np.asarray(u_dot(t), dtype=float)
        if du_half.shape != (n - 1,):
            raise ParameterError("u_dot must match u in length")
    else:
        u_dot = np.asarray(u_dot, dtype=float)
    if u_dot.shape != (n,):
        raise ParameterError("u_dot must match u in length")

    if du_half is None:
        du_half = 0.5 * (u_dot[:-1] + u_dot[1:])

    # dh/dt = alpha*du - beta*|du|*h - gamma*du*|h| is a - b*h - g*|h|
    # with a, b, g the rate's factors: the same operations in the same order
    alpha, beta, gamma, dt = params.alpha, params.beta, params.gamma, params.dt
    grid, mid = ([array("d", f.tobytes()) for f in (alpha * du, beta * np.abs(du), gamma * du)]
                 for du in (u_dot, du_half))
    h, h_view = zero_buffer(n)
    hk = 0.0
    a0, b0, g0 = (f[0] for f in grid)  # k1's factors; k4's become the next k1's
    for k, am, bm, gm, a1, b1, g1 in zip(range(1, n), *mid, *(f[1:] for f in grid)):
        k1 = a0 - b0 * hk - g0 * abs(hk)
        h_stage = hk + 0.5 * dt * k1
        k2 = am - bm * h_stage - gm * abs(h_stage)
        h_stage = hk + 0.5 * dt * k2
        k3 = am - bm * h_stage - gm * abs(h_stage)
        h_stage = hk + dt * k3
        k4 = a1 - b1 * h_stage - g1 * abs(h_stage)
        hk = hk + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        h[k] = hk
        a0, b0, g0 = a1, b1, g1
    bad = nan_from_unbounded(h_view, 1e12)
    return BoucWenTrajectory(params.nu_y * u - h_view, diverged_at=bad, h=h_view)


# Published-model catalog.  Numeric values are the published coefficients
# at full printed precision.  In the published four-term hysteresis model
# the third difference-signal symbol is undefined in its source; it is
# stored here as the input first difference, consistent with the
# candidate pool the model was drawn from.

HEATING_SYSTEM = HammersteinParams()
PZT_BOUC_WEN = BoucWenParams()
VALVE_BOUC_WEN = BoucWenParams(alpha=7.54e-1, beta=4.96, gamma=3.61, nu_y=7.21e-1, dt=1e-2)


@dataclass(frozen=True)
class PresetEntry:
    """One catalog entry: either a NARX model or a simulator definition."""

    name: str
    description: str
    model: NarxModel | None = None
    bouc_wen: BoucWenParams | None = None
    hammerstein: HammersteinParams | None = None


def preset_models():
    """Catalog of the published models, keyed by name."""
    entries = [
        PresetEntry("heating_narx", "three-term NARX model identified for the heating benchmark",
                    model=NarxModel(
                        process_terms=(term((Y, 1, 1)), term((U, 2, 2)), term((Y, 2, 1))),
                        theta=(8.958185e-1, 6.393347e-2, -1.746750e-2),
                        meta=CandidateMeta(degree=3, n_y=3, n_u=3), ts=1.0,
                        label="heating_narx")),
        PresetEntry("pzt_narx", "four-term hysteresis NARX model identified for the "
                    "piezoelectric Bouc-Wen benchmark",
                    model=NarxModel(
                        process_terms=(term((Y, 1, 1)), term((P2, 1, 1), (P1, 1, 1), (U, 1, 1)),
                                       term((P2, 1, 1), (P1, 1, 1), (Y, 1, 1)), term((P2, 1, 1))),
                        theta=(1.000099, 6.630567e-3, -6.247018e-3, 7.892915),
                        meta=CandidateMeta(degree=3, n_y=1, n_u=1), ts=5e-3,
                        label="pzt_narx")),
        PresetEntry("valve_constrained_narx", "five-term valve hysteresis NARX model with "
                    "unit output-parameter sum",
                    model=NarxModel(
                        process_terms=(term((Y, 1, 1)), term((Y, 2, 1)), term((P1, 1, 1)),
                                       term((U, 1, 1), (P1, 1, 1), (P2, 1, 1)),
                                       term((Y, 2, 1), (P1, 1, 1), (P2, 1, 1))),
                        theta=(9.76e-1, 2.40e-2, 1.19e-1, 3.76, -4.73),
                        meta=CandidateMeta(degree=3, n_y=2, n_u=1), ts=1e-2,
                        label="valve_constrained_narx")),
        PresetEntry("valve_bouc_wen", "Bouc-Wen valve model with evolutionary-estimated "
                    "parameters", bouc_wen=VALVE_BOUC_WEN),
        PresetEntry("valve_compensation_narx", "five-term valve model identified with the "
                    "extra constraint needed to isolate the input",
                    model=NarxModel(
                        process_terms=(term((Y, 1, 1)), term((P1, 2, 1)), term((P1, 1, 1)),
                                       term((P2, 2, 1), (P1, 2, 1), (U, 2, 1)),
                                       term((P2, 2, 1), (P1, 2, 1), (Y, 1, 1))),
                        theta=(1.0, -19.76, 19.32, 9.44, -12.61),
                        meta=CandidateMeta(degree=3, n_y=2, n_u=2), ts=1e-2,
                        label="valve_compensation_narx")),
        # inverse direction: the model output is the estimated valve input,
        # the INPUT variable is the measured valve position
        PresetEntry("valve_inverse_narx", "inverse valve model predicting the input from "
                    "the position",
                    model=NarxModel(
                        process_terms=(term((Y, 1, 1)), term((P1, 1, 1)), term((P1, 2, 1)),
                                       term((P1, 1, 1), (U, 2, 1)),
                                       term((P2, 2, 1), (P1, 2, 1), (U, 2, 1)),
                                       term((P2, 2, 1), (P1, 2, 1), (Y, 1, 1))),
                        theta=(1.0, 86.67, -85.02, -0.98, 1.72, -1.13),
                        meta=CandidateMeta(degree=3, n_y=2, n_u=2), ts=1e-2,
                        direction="inverse", label="valve_inverse_narx")),
        PresetEntry("heating_system", "Hammerstein heating benchmark simulator",
                    hammerstein=HEATING_SYSTEM),
        PresetEntry("pzt_bouc_wen", "piezoelectric Bouc-Wen benchmark simulator",
                    bouc_wen=PZT_BOUC_WEN),
    ]
    return {e.name: e for e in entries}
