"""Workloads, closed-loop timing and metrics of the narxident benchmark.

One client in one process runs trials back to back: the next trial starts
only after the previous one and its correctness checks have finished.
Every input is generated from the run's ``--seed``; the program only sees
the generated inputs.
"""

import ctypes
import dataclasses
import glob
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np
import scipy

from narxident import benchmarks, evaluation, experiments, input_design, regression
from narxident.data import TimeSeriesData
from narxident.errors import NarxError

import checks
from tracing import Tracer

#: trial errors counted as failed trials; anything else is a bug and aborts
TRIAL_ERRORS = (NarxError, np.linalg.LinAlgError)
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3
#: tail percentiles tried, highest first; one is reported when the run has
#: at least 10 trials beyond it
TAIL_PERCENTILES = (99, 95, 90, 75)
#: the gauge kernel runs before the first trial, after the last, and
#: between trials once this much trial time has passed since it last ran
GAUGE_INTERVAL_S = 1.0

_GAUGE_RNG = np.random.default_rng(20201120)
_GAUGE_SMALL = _GAUGE_RNG.standard_normal((2000, 30))
_GAUGE_TALL = _GAUGE_RNG.standard_normal((19200, 20))
_GAUGE_SIGNAL = _GAUGE_RNG.standard_normal(72_000)


def gauge_seconds():
    """Wall time of a fixed gauge kernel: the machine's momentary speed.

    The kernel does, on inputs that never change, the four kinds of work a
    trial does: an interpreter loop on Python floats, a recursion over
    numpy array elements as in free run and RK4, small least-squares
    solves and a QR factorisation of a tall matrix.  The recursion takes
    half its time, the others a sixth each: of the four, the recursion's
    time follows a trial's most closely when the host slows down.  The
    kernel's time changes only when the machine's speed does, so a trial's
    time divided by it is steady across the speed levels of a shared host.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(250_000):
        acc += i * 0.5
    u, y = _GAUGE_SIGNAL, np.zeros(len(_GAUGE_SIGNAL))
    for k in range(2, len(y)):
        y[k] = 0.5 * y[k - 1] - 0.1 * y[k - 2] + u[k - 1] * u[k - 2]
    for _ in range(16):
        np.linalg.lstsq(_GAUGE_SMALL, _GAUGE_SMALL[:, 0], rcond=None)
    np.linalg.qr(_GAUGE_TALL)
    return time.perf_counter() - t0


@dataclasses.dataclass
class TrialRecord:
    """Timings and outcomes of one trial (correctness checks excluded)."""

    seed: int = 0
    start: float = 0.0  # seconds since the timed loop began
    wall_s: float = 0.0
    identify_s: float | None = None
    validate_s: list = dataclasses.field(default_factory=list)
    mapes: list = dataclasses.field(default_factory=list)
    published: bool | None = None
    failed: str | None = None  # a call raised one of TRIAL_ERRORS
    diverged: bool = False  # a free run left its divergence bound
    freerun_steps: int = 0
    freerun_s: float = 0.0
    refsim_samples: int = 0
    refsim_s: float = 0.0
    gauge_s: float = 0.0  # mean gauge_seconds() measured before and after


def _free_run_steps(model, n):
    return n - max(model.max_lag, 1)


class IdentifyWorkload:
    """``run_identification`` on an experiment, then a free-run
    ``validate`` of the identified model on a validation record built
    during set-up."""

    def __init__(self, factory, published, quality_trials):
        self.factory = factory
        self.published_name = published
        self.quality_trials = quality_trials

    def setup(self, val_seed):
        self.defn = self.factory()
        self.published = frozenset(
            benchmarks.preset_models()[self.published_name].model.process_terms)
        self.val = experiments.make_validation_data(self.defn, val_seed)

    def trial(self, seed):
        rec = TrialRecord()
        t0 = time.perf_counter()
        try:
            res = experiments.run_identification(self.defn, seed)
            t1 = time.perf_counter()
            out = evaluation.validate(res.model, self.val, "free_run")
            t2 = time.perf_counter()
        except TRIAL_ERRORS as exc:
            rec.wall_s = time.perf_counter() - t0
            rec.failed = f"{type(exc).__name__}: {exc}"
            return rec, None
        rec.wall_s, rec.identify_s = t2 - t0, t1 - t0
        rec.validate_s.append(t2 - t1)
        rec.published = frozenset(res.model.process_terms) == self.published
        rec.diverged = out.diverged
        rec.mapes.append(out.mape)  # inf when the free run diverged
        if not out.diverged:
            rec.freerun_steps = _free_run_steps(res.model, len(self.val))
            rec.freerun_s = t2 - t1
        return rec, (res, out)

    def check(self, outputs):
        res, out = outputs
        checks.selected_prefix(res)
        checks.final_estimate(res, self.defn.selection)
        if self.defn.system == "heating":
            checks.hammerstein(benchmarks.HEATING_SYSTEM, res.data.u, res.clean_output)
        if not out.diverged:
            checks.free_run_feedback(res.model, self.val.u, out.prediction)


class SimulateValidateWorkload:
    """Input design, the reference simulators and free-run validation of
    the published catalog models, with no identification.

    The valve Bouc-Wen simulator is driven by the heating-designed input,
    which stays inside the valve's 0-1 operating band.
    """

    quality_trials = 20
    DIRECT = ("heating_narx", "pzt_narx", "valve_constrained_narx")
    INVERSE = "valve_inverse_narx"

    def setup(self, val_seed):
        self.heating = experiments.heating_experiment()
        self.bouc_wen = experiments.bouc_wen_experiment()
        presets = benchmarks.preset_models()
        self.models = {name: presets[name].model for name in self.DIRECT + (self.INVERSE,)}

    def trial(self, seed):
        rec = TrialRecord()
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        try:
            u_h = input_design.design_input(self.heating.design, rng)
            u_b = input_design.design_input(self.bouc_wen.design, rng)
            t1 = time.perf_counter()
            with warnings.catch_warnings():
                # the heating design may graze the [0, 1] validity range
                warnings.simplefilter("ignore")
                y_h = benchmarks.simulate_hammerstein(benchmarks.HEATING_SYSTEM, u_h)
            pzt = benchmarks.simulate_bouc_wen(benchmarks.PZT_BOUC_WEN, u_b)
            valve = benchmarks.simulate_bouc_wen(benchmarks.VALVE_BOUC_WEN, u_h)
            t2 = time.perf_counter()
            rec.refsim_samples = 2 * len(u_h) + len(u_b)
            rec.refsim_s = t2 - t1
            if pzt.diverged or valve.diverged:
                raise NarxError("reference Bouc-Wen simulation diverged")
            runs = []
            for name, u, y in (("heating_narx", u_h, y_h), ("pzt_narx", u_b, pzt.y),
                               ("valve_constrained_narx", u_h, valve.y)):
                model = self.models[name]
                data = TimeSeriesData(u, y, ts=model.ts)
                ta = time.perf_counter()
                out = evaluation.validate(model, data, "free_run")
                tb = time.perf_counter()
                regression.one_step_predict(model, data)
                rec.validate_s.append(tb - ta)
                rec.freerun_s += tb - ta
                rec.freerun_steps += _free_run_steps(model, len(u))
                runs.append((model, u, out))
            inverse = self.models[self.INVERSE]
            ta = time.perf_counter()
            inv = regression.run_inverse_model(inverse, valve.y, u_init=u_h[:2])
            tb = time.perf_counter()
            rec.freerun_s += tb - ta
            rec.freerun_steps += _free_run_steps(inverse, len(u_h))
        except TRIAL_ERRORS as exc:
            rec.wall_s = time.perf_counter() - t0
            rec.failed = f"{type(exc).__name__}: {exc}"
            return rec, None
        rec.wall_s = time.perf_counter() - t0
        rec.diverged = inv.diverged or any(out.diverged for _, _, out in runs)
        rec.mapes = [out.mape for _, _, out in runs]
        return rec, (u_h, y_h, runs, valve.y, inv)

    def check(self, outputs):
        u_h, y_h, runs, y_valve, inv = outputs
        checks.hammerstein(benchmarks.HEATING_SYSTEM, u_h, y_h)
        for model, u, out in runs:
            if not out.diverged:
                checks.free_run_feedback(model, u, out.prediction)
        if not inv.diverged:
            checks.free_run_feedback(self.models[self.INVERSE], y_valve, inv.y)


WORKLOADS = {
    "heating-identify": lambda: IdentifyWorkload(
        experiments.heating_experiment, "heating_narx", quality_trials=16),
    "boucwen-identify": lambda: IdentifyWorkload(
        experiments.bouc_wen_experiment, "pzt_narx", quality_trials=4),
    "simulate-validate": SimulateValidateWorkload,
}


def import_seconds(src):
    """Time to import narxident in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import narxident; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def _git_sha(root):
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def _blas_threads():
    """Thread count reported by numpy's OpenBLAS, or the configured one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _tail(times):
    """(percentile, value) of the highest percentile with >= 10 trials beyond it."""
    for p in TAIL_PERCENTILES:
        if len(times) * (1 - p / 100) >= 10:
            return p, float(np.percentile(times, p, method="higher"))
    return None


@dataclasses.dataclass
class RunResult:
    metrics: dict  # name -> (value, unit, better)
    attempted: int
    failed: int
    failures: list
    trials: list  # TrialRecord fields of every timed trial
    spans: list


def run(name, seed, seconds, trace, src, setup_repeats=SETUP_REPEATS, min_trials=None):
    """Set up ``setup_repeats`` times, then run trials for ``seconds``.

    The first ``quality_trials`` trials always run, so the quality metrics
    (MAPE, published-structure, failed and diverged shares) cover the same
    inputs for a given seed whatever the speed.  Raises
    :class:`checks.CheckFailed` on the first failed correctness check.
    """
    workload = WORKLOADS[name]()
    quality_n = workload.quality_trials if min_trials is None else min_trials
    rng = np.random.default_rng(seed)
    val_seed, warm_seed = (int(s) for s in rng.integers(0, 2 ** 31, size=2))
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        setups = []
        for _ in range(setup_repeats):
            imported = import_seconds(src)
            t0 = time.perf_counter()
            workload.setup(val_seed)
            _, outputs = workload.trial(warm_seed)
            setups.append(imported + time.perf_counter() - t0)
            if outputs is not None:
                workload.check(outputs)

        gauge_seconds()  # warm-up
        gauges, blocks = [gauge_seconds()], [[]]
        trials = []
        origin = time.perf_counter()
        while len(trials) < quality_n or time.perf_counter() - origin < seconds:
            if blocks[-1] and sum(rec.wall_s for rec in blocks[-1]) >= GAUGE_INTERVAL_S:
                gauges.append(gauge_seconds())
                blocks.append([])
            trial_seed = int(rng.integers(0, 2 ** 31))
            start = time.perf_counter() - origin
            if tracer:
                tracer.begin_trial(len(trials))
            try:
                rec, outputs = workload.trial(trial_seed)
            finally:
                if tracer:
                    tracer.end_trial()
            rec.seed, rec.start = trial_seed, start
            trials.append(rec)
            blocks[-1].append(rec)
            if outputs is not None:
                workload.check(outputs)
        gauges.append(gauge_seconds())
    finally:
        if tracer:
            tracer.uninstall()

    for block, before, after in zip(blocks, gauges, gauges[1:]):
        for rec in block:
            rec.gauge_s = (before + after) / 2
    failures = [rec.failed for rec in trials if rec.failed]
    completed = len(trials) - len(failures)
    walls = [float("inf") if rec.failed else rec.wall_s for rec in trials]
    quality = trials[:quality_n]
    diverged = sum(rec.diverged for rec in quality)
    m = {
        "setup_s": (_median(setups), "s", "lower"),
        "trial_p50_s": (_median(walls), "s", "lower"),
        "trials_per_s": (completed / sum(rec.wall_s for rec in trials), "1/s", "higher"),
        "trial_time_gauges": (sum(rec.wall_s / rec.gauge_s for rec in trials) / completed
                              if completed else float("inf"), "gauge", "lower"),
        "gauge_p50_s": (_median(gauges), "s", "lower"),
        "trial_count": (len(trials), "count", "higher"),
        "validate_p50_s": (_median([v for rec in trials for v in rec.validate_s]), "s", "lower"),
        "val_mape_pct": (_median([x for rec in quality for x in rec.mapes]), "%", "lower"),
        "failed_frac": ((sum(bool(rec.failed) for rec in quality) + diverged) / quality_n,
                        "frac", "lower"),
        "diverged_frac": (diverged / quality_n, "frac", "lower"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "lower"),
    }
    tail = _tail(walls)
    if tail:
        m[f"trial_p{tail[0]}_s"] = (tail[1], "s", "lower")
    identify = [rec.identify_s for rec in trials if rec.identify_s is not None]
    if identify:
        m["identify_p50_s"] = (_median(identify), "s", "lower")
        flags = [rec.published for rec in quality if rec.published is not None]
        m["published_structure_frac"] = (sum(flags) / max(len(flags), 1), "frac", "higher")
    freerun_s = sum(rec.freerun_s for rec in trials)
    if freerun_s:
        m["freerun_samples_per_s"] = (
            sum(rec.freerun_steps for rec in trials) / freerun_s, "1/s", "higher")
    refsim_s = sum(rec.refsim_s for rec in trials)
    if refsim_s:
        m["refsim_samples_per_s"] = (
            sum(rec.refsim_samples for rec in trials) / refsim_s, "1/s", "higher")
    spans = []
    if tracer:
        for key, value in tracer.layer_metrics(len(trials)).items():
            m[key] = (value, _layer_unit(key), _layer_better(key))
        m["trace.trial_p50_s"] = (m["trial_p50_s"][0], "s", "lower")
        m["selection.published_structure_frac"] = (
            m.get("published_structure_frac", (0.0,))[0], "frac", "higher")
        m["evaluation.val_mape_pct"] = (m["val_mape_pct"][0], "%", "lower")
        m["evaluation.diverged_frac"] = (m["diverged_frac"][0], "frac", "lower")
        spans = tracer.span_records(origin)
    return RunResult(m, len(trials), len(failures), failures,
                     [dataclasses.asdict(rec) for rec in trials], spans)


_HIGHER = (".converged_frac", ".ranked_terms", ".points", ".steps", ".samples")


def _layer_unit(name):
    if name.endswith("_frac") or name.endswith(".share"):
        return "frac"
    if name.endswith("_s") or name.endswith(".s"):
        return "s/trial"
    if name.endswith("qr_flops_computed"):
        return "flop/trial"
    return "count/trial"


def _layer_better(name):
    return "higher" if name.endswith(_HIGHER) else "lower"
