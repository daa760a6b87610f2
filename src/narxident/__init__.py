"""Polynomial NARX system identification.

The pipeline: design a persistently exciting input (:mod:`.input_design`),
simulate or import data (:mod:`.benchmarks`, :mod:`.data`), enumerate a
candidate dictionary (:mod:`.model`, :mod:`.hysteresis`), rank terms by
error reduction ratio and truncate with an information criterion
(:mod:`.selection`), estimate parameters by plain, extended, or
constrained least squares (:mod:`.estimation`), then score free-run
predictions (:mod:`.evaluation`).  :mod:`.experiments` bundles the
benchmark studies end to end and :mod:`.cli` exposes them as commands.
"""

from .benchmarks import (
    HEATING_SYSTEM,
    PZT_BOUC_WEN,
    VALVE_BOUC_WEN,
    BoucWenParams,
    HammersteinParams,
    preset_models,
    simulate_bouc_wen,
    simulate_hammerstein,
)
from .config import load_config, save_config
from .data import TimeSeriesData, load_csv, save_csv
from .errors import (
    ConstraintError,
    DegenerateRangeError,
    InsufficientDataError,
    MissingInputError,
    NarxError,
    ParameterError,
    SingularMatrixError,
)
from .estimation import (
    ElsConfig,
    EstimationReport,
    constrained_ls_estimate,
    ls_estimate,
)
from .evaluation import (
    MonteCarloReport,
    ValidationResult,
    mape,
    monte_carlo_noise_sweep,
    validate,
)
from .experiments import (
    ExperimentConfig,
    IdentificationResult,
    bouc_wen_experiment,
    default_config,
    heating_experiment,
    make_identification_data,
    make_validation_data,
    run_identification,
)
from .hysteresis import (
    apply_exclusion_rules,
    exclusion_report_text,
    hysteresis_signals,
    sigma_y_constraint,
)
from .input_design import (
    InputDesignSpec,
    add_output_noise,
    design_input,
    sine_input,
)
from .model import (
    CandidateMeta,
    CandidateSet,
    NarxModel,
    RegressorTerm,
    Variable,
    generate_candidates,
    parse_term,
    term,
)
from .modelio import load_model, save_model
from .regression import (
    SimulationResult,
    build_regression,
    free_run_simulate,
    one_step_predict,
    run_inverse_model,
)
from .selection import (
    AicCurve,
    ErrRanking,
    SelectionConfig,
    aic_curve,
    frols_rank,
    select_structure,
)

__version__ = "0.1.0"
