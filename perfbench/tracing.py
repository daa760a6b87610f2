"""Traced mode: spans and counts recorded around narxident's public functions.

Each function is wrapped under the module attribute its callers look it up
by (``narxident.selection.els_core`` is the name ``aic_curve`` calls), so
the program itself is unchanged.  A wrapper records a span (name, start,
end, parent id, trial id) and counts taken from arguments and return
values, only while a timed trial is open; calls made by the correctness
checks between trials pass straight through.  Spans stay in memory until
the run ends.
"""

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np


def qr_flops(m, n):
    """Householder QR cost of an m x n matrix: 2mn^2 - 2n^3/3 flops."""
    return 2.0 * m * n * n - 2.0 * n ** 3 / 3.0


def _count_els(counts, args, out):
    counts["estimation.els_core.iterations"] += out.iterations
    counts["estimation.els_core.converged"] += bool(out.converged)
    n_noise = args["n_noise_terms"]
    if n_noise:
        # the base LS solve is counted by the ls_estimate wrapper it goes through
        m, n = np.shape(args["psi"])
        counts["estimation.qr_flops_computed"] += out.iterations * qr_flops(m, n + n_noise)


def _count_ls(counts, args, out):
    m, n = np.shape(args["psi"])
    counts["estimation.qr_flops_computed"] += qr_flops(m, n)


def _count_frols(counts, args, out):
    counts["selection.frols_rank.ranked_terms"] += len(out.ordered_terms)
    counts["selection.frols_rank.skipped_terms"] += len(out.skipped)


def _count_aic(counts, args, out):
    counts["selection.aic_curve.points"] += len(out.j_values)
    counts["selection.aic_curve.nan_points"] += int(np.sum(~np.isfinite(out.j_values)))


def _count_free_run(counts, args, out):
    start = max(len(np.atleast_1d(args["y_init"])), args["model"].max_lag)
    end = out.diverged_at if out.diverged else len(out.y)
    counts["regression.free_run_simulate.steps"] += end - start


def _count_bouc_wen(counts, args, out):
    counts["benchmarks.simulate_bouc_wen.samples"] += len(out.y)


def _count_hammerstein(counts, args, out):
    counts["benchmarks.simulate_hammerstein.samples"] += len(out)


COUNTERS = {
    "estimation.els_core": _count_els,
    "estimation.ls_estimate": _count_ls,
    "selection.frols_rank": _count_frols,
    "selection.aic_curve": _count_aic,
    "regression.free_run_simulate": _count_free_run,
    "benchmarks.simulate_bouc_wen": _count_bouc_wen,
    "benchmarks.simulate_hammerstein": _count_hammerstein,
}

# (module under narxident, attribute, layer): every binding a caller in the
# package or in the benchmark looks the function up by.  The ``model``
# module's public functions (``generate_candidates``) and the hysteresis
# exclusion rules run only while an experiment is built, so their time is
# in ``setup_s`` and no trial span covers them.
TARGETS = (
    ("experiments", "run_identification", "experiments.run_identification"),
    ("evaluation", "run_identification", "experiments.run_identification"),
    ("experiments", "design_input", "input_design.design_input"),
    ("input_design", "design_input", "input_design.design_input"),
    ("experiments", "simulate_hammerstein", "benchmarks.simulate_hammerstein"),
    ("benchmarks", "simulate_hammerstein", "benchmarks.simulate_hammerstein"),
    ("experiments", "simulate_bouc_wen", "benchmarks.simulate_bouc_wen"),
    ("benchmarks", "simulate_bouc_wen", "benchmarks.simulate_bouc_wen"),
    ("selection", "frols_rank", "selection.frols_rank"),
    ("selection", "aic_curve", "selection.aic_curve"),
    ("selection", "els_core", "estimation.els_core"),
    ("estimation", "els_core", "estimation.els_core"),
    ("selection", "ls_estimate", "estimation.ls_estimate"),
    ("estimation", "ls_estimate", "estimation.ls_estimate"),
    ("selection", "build_regression", "regression.build_regression"),
    ("estimation", "build_regression", "regression.build_regression"),
    ("regression", "build_regression", "regression.build_regression"),
    ("regression", "hysteresis_signals", "hysteresis.hysteresis_signals"),
    ("evaluation", "free_run_simulate", "regression.free_run_simulate"),
    ("regression", "free_run_simulate", "regression.free_run_simulate"),
    ("evaluation", "one_step_predict", "regression.one_step_predict"),
    ("regression", "one_step_predict", "regression.one_step_predict"),
    ("regression", "run_inverse_model", "regression.run_inverse_model"),
    ("evaluation", "validate", "evaluation.validate"),
)

LAYERS = sorted({layer for _, _, layer in TARGETS})
TRIAL = "trial"
COUNTS = (
    "estimation.els_core.iterations", "estimation.els_core.converged",
    "estimation.qr_flops_computed", "selection.frols_rank.ranked_terms",
    "selection.frols_rank.skipped_terms", "selection.aic_curve.points",
    "selection.aic_curve.nan_points", "regression.free_run_simulate.steps",
    "benchmarks.simulate_bouc_wen.samples", "benchmarks.simulate_hammerstein.samples",
)


class Tracer:
    """Span recorder installed by wrapping the functions in ``TARGETS``."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, trial id]
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self._stack = []
        self._trial = None
        self._saved = []

    def install(self):
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(f"narxident.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self._trial]
        self.spans.append(span)
        self._stack.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def begin_trial(self, trial_id):
        self._trial = trial_id
        self._open(TRIAL)

    def end_trial(self):
        self._close(self._stack[-1])
        self._trial = None

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._trial is None:
                return fn(*args, **kwargs)
            span = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, out)
            return out

        return traced

    def layer_metrics(self, n_trials):
        """Per-trial calls, inclusive and self seconds of every layer,
        the counts, and the derived ratios, keyed by metric name."""
        duration = {s[0]: s[3] - s[2] for s in self.spans}
        covered = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                covered[s[4]] += duration[s[0]]
        calls, inclusive, self_time = (defaultdict(float) for _ in range(3))
        for s in self.spans:
            calls[s[1]] += 1
            inclusive[s[1]] += duration[s[0]]
            self_time[s[1]] += duration[s[0]] - covered[s[0]]
        per = 1.0 / max(n_trials, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] * per
            out[f"{layer}.s"] = inclusive[layer] * per
            out[f"{layer}.self_s"] = self_time[layer] * per
        for name, value in self.counts.items():
            out[name] = value * per
        identify = inclusive["experiments.run_identification"]
        out["selection.aic_curve.share"] = (
            inclusive["selection.aic_curve"] / identify if identify else 0.0)
        els_calls = calls["estimation.els_core"]
        out["estimation.els_core.converged_frac"] = (
            self.counts["estimation.els_core.converged"] / els_calls if els_calls else 0.0)
        out.pop("estimation.els_core.converged", None)
        return out

    def span_records(self, origin):
        """Spans as dicts with times in seconds since ``origin``."""
        return [
            {"id": s[0], "name": s[1], "start": s[2] - origin, "end": s[3] - origin,
             "parent": s[4], "trial": s[5]}
            for s in self.spans
        ]
