"""Command-line front end.

Subcommands: ``design-input``, ``simulate``, ``identify``, ``validate``,
``monte-carlo``, and ``presets list/show``.  A JSON experiment config
(``--config``) or a built-in experiment name (``--experiment``) drives
each run; individual flags override config fields.  The default output
directory comes from ``--output-dir``, then the config, then the
``NARXIDENT_OUTPUT_DIR`` environment variable, then the current
directory.  Every command is deterministic given config and seed, and
``design-input`` and ``identify`` save the resolved config as a ``.log``
that ``--config`` reads back.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import preset_models
from .config import load_config, save_config
from .data import TimeSeriesData, load_csv, save_csv, write_csv
from .errors import NarxError, ParameterError
from .evaluation import monte_carlo_noise_sweep, validate
from .experiments import (
    PRESETS,
    ExperimentConfig,
    default_config,
    designed_input,
    make_identification_data,
    make_validation_data,
    run_identification,
)
from .input_design import sine_input
from .modelio import (
    aic_to_csv,
    load_model,
    ranking_to_csv,
    report_to_text,
    residuals_to_csv,
    save_model,
)


def _resolve_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    elif getattr(args, "experiment", None):
        cfg = default_config(args.experiment)
    else:
        raise ParameterError("give either --config FILE or --experiment NAME")
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "noise_ratio", None) is not None:
        overrides["noise_ratio"] = args.noise_ratio
    if getattr(args, "output_dir", None) is not None:
        overrides["output_dir"] = args.output_dir
    elif cfg.output_dir == "." and os.environ.get("NARXIDENT_OUTPUT_DIR"):
        overrides["output_dir"] = os.environ["NARXIDENT_OUTPUT_DIR"]
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_design_input(args):
    cfg = _resolve_config(args)
    u = designed_input(cfg, np.random.default_rng(cfg.seed))
    out = _outdir(cfg)
    path = out / "input.csv"
    write_csv(path, ["k", "u"], range(len(u)), u)
    save_config(cfg, out / "design_input.log")
    print(f"wrote {len(u)}-row input to {path}")
    return 0


def cmd_simulate(args):
    cfg = _resolve_config(args)
    data, y_clean = make_identification_data(cfg, cfg.seed)
    out = _outdir(cfg)
    path = out / "data.csv"
    save_csv(path, data, y_clean=y_clean)
    print(f"wrote {len(data)}-row record to {path} (noise ratio {cfg.noise_ratio})")
    return 0


def cmd_identify(args):
    cfg = _resolve_config(args)
    result = run_identification(cfg, cfg.seed)
    out = _outdir(cfg)
    save_model(result.model, out / "model.txt")
    ranking_to_csv(result.ranking, out / "err_ranking.csv")
    aic_to_csv(result.curve, out / "aic_curve.csv")
    residuals_to_csv(result.report.residuals, out / "residuals.csv")
    (out / "report.txt").write_text(report_to_text(result.report))
    save_config(cfg, out / "identify.log")
    print(f"selected {len(result.model.process_terms)} terms:")
    for t, th in zip(result.model.process_terms, result.model.theta):
        print(f"  {t}\t{th!r}")
    print(f"artifacts in {out}")
    return 0


def _validation_record(args, cfg, model):
    if args.data:
        return load_csv(args.data, ts=model.ts)
    if args.sine_frequency is not None:
        u = sine_input(args.sine_amplitude, args.sine_frequency, 0.0,
                       args.sine_offset, args.sine_samples, model.ts)
        return TimeSeriesData(u, cfg.simulate(u), ts=model.ts, label="sine validation")
    return make_validation_data(cfg, cfg.seed)


def cmd_validate(args):
    cfg = _resolve_config(args)
    model = load_model(args.model)
    data = _validation_record(args, cfg, model)
    result = validate(model, data, mode=args.mode, bound=args.bound)
    out = _outdir(cfg)
    path = out / "prediction.csv"
    offset = len(data) - len(result.prediction)
    # the reference the MAPE scores against: an inverse model predicts the input
    name, reference = ("u", data.u) if model.direction == "inverse" else ("y", data.y)
    write_csv(path, ["k", name, name + "_hat"], range(offset, len(data)), reference[offset:],
              result.prediction)
    status = " (diverged)" if result.diverged else ""
    print(f"{args.mode} MAPE = {result.mape!r} %{status}")
    print(f"wrote prediction to {path}")
    return 0


def cmd_monte_carlo(args):
    cfg = _resolve_config(args)
    try:
        ratios = [float(r) for r in args.ratios.split(",")]
    except ValueError as exc:
        raise ParameterError(f"--ratios: {exc}") from None
    report = monte_carlo_noise_sweep(cfg, ratios, args.trials, base_seed=cfg.seed)
    out = _outdir(cfg)
    path = out / "monte_carlo.csv"
    report.to_csv(path)
    for r, m, s, f in zip(report.ratios, report.mape_mean, report.mape_std, report.failures):
        print(f"ratio {r:g}: mean MAPE {m!r} %, std {s!r}, failures {f}")
    print(f"wrote sweep to {path}")
    return 0


def cmd_presets(args):
    presets = preset_models()
    if args.action == "list":
        for name in sorted(presets):
            print(f"{name}\t{presets[name].description}")
        return 0
    if args.name is None:
        raise ParameterError("'presets show' needs a preset name; see 'narxident presets list'")
    if args.name not in presets:
        raise ParameterError(
            f"unknown preset {args.name!r}; see 'narxident presets list'"
        )
    preset = presets[args.name]
    print(f"{preset.name}: {preset.description}")
    if preset.model is not None:
        print(f"  sampling interval: {preset.model.ts!r} s")
        for t, th in zip(preset.model.process_terms, preset.model.theta):
            print(f"  {t}\t{th!r}")
    for params in [p for p in (preset.bouc_wen, preset.hammerstein) if p is not None]:
        for f in dataclasses.fields(params):
            print(f"  {f.name} = {getattr(params, f.name)!r}")
    return 0


def cmd_init_config(args):
    cfg = default_config(args.experiment)
    save_config(cfg, args.output)
    print(f"wrote {args.experiment} config to {args.output}")
    return 0


def _add_common(parser, noise=True):
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--experiment", choices=sorted(PRESETS) + ["valve"],
                        help="built-in experiment name")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--output-dir", default=None, help="artifact directory")
    if noise:
        parser.add_argument("--noise-ratio", type=float, default=None,
                            help="output noise standard-deviation ratio")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="narxident",
        description="Polynomial NARX identification: excitation design, "
                    "structure selection, estimation, and validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design-input", help="write a designed excitation as k,u CSV")
    _add_common(p, noise=False)
    p.set_defaults(func=cmd_design_input)

    p = sub.add_parser("simulate", help="simulate a benchmark under the designed input")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="run the full identification pipeline")
    _add_common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("validate", help="score a model file against validation data")
    _add_common(p, noise=False)
    p.add_argument("--model", required=True, help="model file written by 'identify' (model.txt)")
    p.add_argument("--data", help="k,u,y CSV to validate against (default: generated)")
    p.add_argument("--mode", choices=["free_run", "one_step"], default="free_run")
    p.add_argument("--bound", type=float, default=None,
                   help="free-run divergence bound (default: 1e6 * max(1, max|y|))")
    p.add_argument("--sine-frequency", type=float, default=None,
                   help="generate a sinusoidal validation input at this frequency (Hz)")
    p.add_argument("--sine-amplitude", type=float, default=1.0)
    p.add_argument("--sine-offset", type=float, default=0.0)
    p.add_argument("--sine-samples", type=int, default=2000)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("monte-carlo", help="noise-ratio Monte Carlo sweep")
    _add_common(p, noise=False)
    p.add_argument("--ratios", default="0,0.1,0.2,0.3",
                   help="comma-separated noise ratios, ascending")
    p.add_argument("--trials", type=int, default=10, help="trials per ratio")
    p.set_defaults(func=cmd_monte_carlo)

    p = sub.add_parser("presets", help="list or show published models and systems")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="preset name (for 'show')")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("init-config", help="write a default config for an experiment")
    p.add_argument("--experiment", required=True, choices=sorted(PRESETS))
    p.add_argument("--output", required=True, help="config file to write")
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NarxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
