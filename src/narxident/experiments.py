"""End-to-end identification experiments for the bundled benchmarks.

Each experiment bundles an excitation-signal design, a reference system
to simulate, a candidate-regressor dictionary, and a structure-selection
configuration, so that a single seeded call runs the full pipeline:
design input -> simulate system -> add output noise -> rank terms ->
truncate by information criterion -> estimate parameters -> validate on
an independently designed input.  The functions here take a config and a
seed and nothing else; a variant of a config is made with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .benchmarks import (
    HEATING_SYSTEM,
    PZT_BOUC_WEN,
    simulate_bouc_wen,
    simulate_hammerstein,
)
from .data import TimeSeriesData
from .errors import MissingInputError, ParameterError
from .hysteresis import apply_exclusion_rules
from .input_design import InputDesignSpec, add_output_noise, check_ratio, design_input
from .model import CandidateMeta, CandidateSet, Variable, generate_candidates, is_int
from .selection import SelectionConfig, select_structure

#: seed offset separating validation-input realizations from
#: identification-input realizations of the same design spec
VALIDATION_SEED_OFFSET = 10_000


#: the benchmark systems a config can simulate, with their descriptions
SYSTEMS = {
    "heating": "Hammerstein heating benchmark",
    "bouc_wen": "Bouc-Wen hysteresis benchmark",
}
_VALID_VARIABLES = tuple(v.value for v in Variable)


def check_available(system):
    """Raise :class:`MissingInputError` for the valve benchmark, whose
    experimental data is not distributed."""
    if system == "valve":
        raise MissingInputError(
            "the valve benchmark needs experimental data that is not distributed"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible identification experiment.

    Parameters
    ----------
    system : str
        Benchmark system to simulate, a key of :data:`SYSTEMS`.
    design : InputDesignSpec or None
        Excitation design; commands that generate data need one.
    degree, n_y, n_u, tau_d : int
        Candidate-dictionary bounds: maximum monomial degree and lag
        ranges for output and input factors.
    variables : tuple of str
        Signal kinds admitted as factors, from ``("y", "u", "phi1", "phi2")``.
        With a difference signal (``phi1`` or ``phi2``) among them, the
        dictionary is pruned by the hysteresis exclusion rules.
    selection : SelectionConfig
        Estimator settings of the sweep and the final fit: the number of
        lagged-residual columns (none for least squares) and the
        extended-least-squares convergence settings.
    noise_ratio : float
        Output-noise standard deviation as a fraction of the clean
        output's standard deviation.
    seed : int
        Base seed for data generation (and Monte Carlo sweeps).
    output_dir : str
        Directory where commands write their artifacts.
    """

    system: str
    design: InputDesignSpec | None = None
    degree: int = 3
    n_y: int = 3
    n_u: int = 3
    tau_d: int = 1
    variables: tuple = ("y", "u")
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    noise_ratio: float = 0.05
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self):
        for name in ("system", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ParameterError(f"{name} must be a string, got {getattr(self, name)!r}")
        if isinstance(self.variables, str) or not np.iterable(self.variables):
            raise ParameterError(f"variables must be a sequence of kinds, got {self.variables!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        check_available(self.system)
        if self.system not in SYSTEMS:
            raise ParameterError(
                f"unknown system {self.system!r}; choose from {sorted(SYSTEMS)}"
            )
        for v in self.variables:
            if v not in _VALID_VARIABLES:
                raise ParameterError(f"unknown variable kind {v!r}")
            if self.variables.count(v) > 1:
                raise ParameterError(f"variable kind {v!r} is repeated")
        check_ratio(self.noise_ratio)
        if not is_int(self.seed) or self.seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed!r}")
        CandidateMeta(self.degree, self.n_y, self.n_u, self.tau_d)

    @cached_property
    def candidates(self) -> CandidateSet:
        """The candidate dictionary: every monomial within the degree and
        lag bounds, pruned by the exclusion rules when a difference signal
        is among the variables."""
        variables = tuple(Variable(v) for v in self.variables)
        candidates = generate_candidates(
            self.degree, self.n_y, self.n_u, tau_d=self.tau_d, variables=variables
        )
        if Variable.PHI1 in variables or Variable.PHI2 in variables:
            candidates, _ = apply_exclusion_rules(candidates)
        return candidates

    def simulate(self, u):
        """Noise-free output of the benchmark system under input ``u``."""
        if self.system == "heating":
            with warnings.catch_warnings():
                # designs may leave [0, 1]; any other warning reaches the caller
                warnings.filterwarnings("ignore", "input outside the model validity range",
                                        UserWarning)
                return simulate_hammerstein(HEATING_SYSTEM, u)
        traj = simulate_bouc_wen(PZT_BOUC_WEN, u)
        if traj.diverged:
            raise ParameterError(f"Bouc-Wen simulation diverged at step {traj.diverged_at}")
        return traj.y


#: The built-in experiments.
#:
#: heating: two low-pass bands (0.001 Hz and 0.005 Hz) of 1000 samples
#: each around operating points 0.3/0.5/0.7 with 0.2 V excursions.  The
#: sampling interval is 2 s: short enough that the input decorrelates
#: across the candidate lags, long enough that the candidate dictionary
#: with pure delay 2 captures the dominant input dependence.  The
#: information-criterion sweep re-estimates every truncation with the
#: extended estimator (the :class:`SelectionConfig` default) so
#: colored-noise bias does not masquerade as structural variance.
#:
#: bouc_wen: a long 0.2 Hz band (16000 samples) and a short 5 Hz band
#: (3200 samples) at amplitudes 25 V and 50 V around zero, sampled at the
#: 5 ms integration step of the reference model.  The dictionary is the
#: degree-3 polynomial set over y, u and the input difference pair,
#: pruned by the hysteresis exclusion rules.
PRESETS = {
    "heating": ExperimentConfig(
        system="heating",
        design=InputDesignSpec(
            frequencies=(0.001, 0.005),
            segment_lengths=(1000, 1000),
            operating_points=(0.3, 0.5, 0.7),
            amplitudes=(0.2, 0.2, 0.2),
            sample_rate=0.5,
        ),
        tau_d=2,
    ),
    "bouc_wen": ExperimentConfig(
        system="bouc_wen",
        design=InputDesignSpec(
            frequencies=(0.2, 5.0),
            segment_lengths=(16000, 3200),
            operating_points=(0.0, 0.0),
            amplitudes=(25.0, 50.0),
            sample_rate=200.0,
        ),
        n_y=1,
        n_u=1,
        variables=("y", "u", "phi1", "phi2"),
    ),
}


def default_config(name) -> ExperimentConfig:
    """Config of a built-in experiment (``heating`` or ``bouc_wen``)."""
    check_available(name)
    try:
        preset = PRESETS[name.replace("-", "_")]
    except KeyError:
        raise ParameterError(
            f"unknown experiment {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return replace(preset)  # a copy, with its own candidates cache


def heating_experiment():
    """The heating-system identification experiment (``PRESETS["heating"]``)."""
    return default_config("heating")


def bouc_wen_experiment():
    """The hysteretic-actuator identification experiment (``PRESETS["bouc_wen"]``)."""
    return default_config("bouc_wen")


@dataclass(frozen=True)
class IdentificationResult:
    """Everything produced by one seeded end-to-end identification run."""

    model: object
    ranking: object
    curve: object
    report: object
    data: TimeSeriesData
    clean_output: np.ndarray
    seed: int


def designed_input(config: ExperimentConfig, rng):
    """The config's input design drawn from ``rng``; ParameterError if it has none."""
    if config.design is None:
        raise ParameterError("config has no input-design section")
    return design_input(config.design, rng)


def _designed_run(config: ExperimentConfig, rng):
    """Design an input from ``rng`` and simulate the system under it: both,
    with the design's sampling interval."""
    u = designed_input(config, rng)
    return u, config.simulate(u), 1.0 / config.design.sample_rate


def make_identification_data(config: ExperimentConfig, seed):
    """Design the input, simulate the system, and add output noise."""
    rng = np.random.default_rng(seed)
    u, y_clean, ts = _designed_run(config, rng)
    y = add_output_noise(y_clean, config.noise_ratio, rng)
    return TimeSeriesData(u, y, ts=ts, label=config.system), y_clean


def make_validation_data(config: ExperimentConfig, seed):
    """Noise-free data from an independent realization of the same design."""
    u, y_clean, ts = _designed_run(config, np.random.default_rng(seed + VALIDATION_SEED_OFFSET))
    return TimeSeriesData(u, y_clean, ts=ts, label=f"{config.system}-validation")


def run_identification(config: ExperimentConfig, seed):
    """Run the full pipeline once and return all intermediate products."""
    data, y_clean = make_identification_data(config, seed)
    model, ranking, curve, report = select_structure(config.candidates, data, config.selection)
    return IdentificationResult(
        model=model,
        ranking=ranking,
        curve=curve,
        report=report,
        data=data,
        clean_output=y_clean,
        seed=seed,
    )
