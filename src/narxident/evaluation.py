"""Model-quality metrics, validation runs, and the Monte Carlo
noise-robustness sweep."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import TimeSeriesData, write_csv
from .errors import DegenerateRangeError, InsufficientDataError, NarxError, ParameterError
from .experiments import ExperimentConfig, make_validation_data, run_identification
from .model import NarxModel, is_int
from .regression import free_run_simulate, one_step_predict, resolve_bound


def mape(y, y_hat):
    """Mean absolute prediction error normalized by the reference range.

    Returns sum|y - y_hat| / (N * |max(y) - min(y)|) as a percentage.
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ParameterError("reference and prediction lengths differ")
    if not y.size:
        raise InsufficientDataError("no predicted samples to score")
    span = float(np.max(y) - np.min(y))
    if span == 0.0:
        raise DegenerateRangeError("reference signal has zero range")
    return 100.0 * float(np.sum(np.abs(y - y_hat))) / (len(y) * span)


@dataclass(frozen=True)
class ValidationResult:
    """Prediction sequence and its error against measured output."""

    prediction: np.ndarray
    mape: float
    mode: str
    diverged: bool = False


def validate(model: NarxModel, data: TimeSeriesData, mode="free_run",
             bound=None) -> ValidationResult:
    """Run the chosen prediction mode and score it against ``data.y``.

    ``free_run`` feeds model outputs back (initialized from the first
    measured samples); ``one_step`` uses measured outputs for every lag.
    The error is computed over the samples actually predicted.  ``bound``
    is checked by :func:`resolve_bound` in both modes and defaults to
    :func:`divergence_bound` of the measured output.  An inverse-direction
    model swaps the record's roles in both modes: its y drives the model
    and its u is the reference.
    """
    if model.direction == "inverse":
        data = replace(data, u=data.y, y=data.u)
    bound = resolve_bound(bound, data.y)
    if mode == "one_step":
        pred = one_step_predict(model, data)
        p = len(data) - len(pred)
        return ValidationResult(pred, mape(data.y[p:], pred), mode)
    if mode == "free_run":
        p = max(model.max_lag, 1)
        res = free_run_simulate(model, data.u, data.y[:p], bound=bound)
        if res.diverged:
            return ValidationResult(res.y, float("inf"), mode, diverged=True)
        return ValidationResult(res.y, mape(data.y[p:], res.y[p:]), mode)
    raise ParameterError(f"unknown validation mode {mode!r}")


@dataclass(frozen=True)
class MonteCarloReport:
    """Per-noise-ratio error statistics of repeated re-identification.

    ``seeds[i]`` holds the seeds of the trials run at ``ratios[i]`` and
    ``mapes[i]`` the free-run MAPEs of those that succeeded; the others
    are its failures.  A ratio with no successful trial has a NaN mean and
    standard deviation.
    """

    ratios: tuple
    seeds: tuple
    mapes: tuple

    @property
    def mape_mean(self):
        return tuple(float(np.mean(m)) if m else float("nan") for m in self.mapes)

    @property
    def mape_std(self):
        return tuple(float(np.std(m)) if m else float("nan") for m in self.mapes)

    @property
    def failures(self):
        return tuple(len(s) - len(m) for s, m in zip(self.seeds, self.mapes))

    def to_csv(self, path):
        write_csv(path, ["ratio", "mean_mape", "std_mape", "failures"],
                  self.ratios, self.mape_mean, self.mape_std, self.failures)


def monte_carlo_noise_sweep(config: ExperimentConfig, ratios,
                            trials_per_ratio, base_seed=0):
    """Fig-2-style noise-robustness sweep.

    For each noise ratio, the full pipeline (input design, simulation,
    noise injection, structure selection, estimation) runs once per
    trial with an independent seed, and the identified model is scored
    by free-run error on a fixed noise-free validation set generated
    once for the whole sweep.  Diverging or singular trials are counted
    as failures and excluded from the statistics.
    """
    if not is_int(trials_per_ratio) or trials_per_ratio < 1:
        raise ParameterError("trials per ratio must be an integer >= 1")
    ratios = tuple(float(r) for r in ratios)
    if any(b < a for a, b in zip(ratios, ratios[1:])):
        raise ParameterError("noise ratios must be ascending")
    # building each ratio's config rejects a negative ratio before any trial runs
    configs = [replace(config, noise_ratio=ratio) for ratio in ratios]
    val_data = make_validation_data(config, base_seed)
    seed_log, mape_log = [], []
    for i, ratio_config in enumerate(configs):
        seeds = tuple(base_seed + 1 + i * trials_per_ratio + t for t in range(trials_per_ratio))
        scores = []
        for seed in seeds:
            try:
                result = run_identification(ratio_config, seed)
                out = validate(result.model, val_data, mode="free_run")
            except (NarxError, np.linalg.LinAlgError):
                continue
            if not out.diverged:
                scores.append(out.mape)
        seed_log.append(seeds)
        mape_log.append(tuple(scores))
    return MonteCarloReport(ratios=ratios, seeds=tuple(seed_log), mapes=tuple(mape_log))
