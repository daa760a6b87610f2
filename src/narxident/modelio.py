"""Structured-text serialization for models and the column layouts of the
pipeline's CSV artifacts (term rankings, information-criterion curves,
residuals), which :func:`narxident.data.write_csv` writes.

Floating-point values are written with ``repr``, which preserves the
shortest exact round-trip representation (at least 15 significant
digits), so files regenerate byte-identically from equal inputs.
"""

from __future__ import annotations

import math

from .data import write_csv
from .errors import ParameterError
from .model import CandidateMeta, NarxModel, parse_term

_FORMAT_HEADER = "# narxident model v1"


def model_to_text(model: NarxModel) -> str:
    lines = [
        _FORMAT_HEADER,
        f"label = {model.label or ''}",
        f"direction = {model.direction}",
        f"ts = {model.ts!r}",
        f"degree = {model.meta.degree}",
        f"n_y = {model.meta.n_y}",
        f"n_u = {model.meta.n_u}",
        f"tau_d = {model.meta.tau_d}",
        "[process]",
    ]
    for t, th in zip(model.process_terms, model.theta):
        lines.append(f"{t}\t{float(th)!r}")
    return "\n".join(lines) + "\n"


def save_model(model: NarxModel, path):
    with open(path, "w") as fh:
        fh.write(model_to_text(model))


def model_from_text(text: str) -> NarxModel:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ParameterError("not a narxident model file")
    fields = {}
    process = None  # the term list, once the [process] line is read
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        if ln == "[process]":
            if process is not None:
                raise ParameterError("model file has a second [process] line")
            process = []
            continue
        if process is None:
            if "=" not in ln:
                raise ParameterError(f"malformed header line {ln!r}")
            key, _, value = map(str.strip, ln.partition("="))
            if key in fields:
                raise ParameterError(f"model file repeats header key {key!r}")
            fields[key] = value
        else:
            try:
                term_str, theta_str = ln.split("\t")
                theta = float(theta_str)
            except ValueError as exc:
                raise ParameterError(f"malformed term line {ln!r}") from exc
            if not math.isfinite(theta):
                raise ParameterError(f"model file has a non-finite theta for {term_str}: {theta!r}")
            process.append((parse_term(term_str), theta))
    if not process:
        raise ParameterError("model file has no process terms")
    try:
        meta = CandidateMeta(
            degree=int(fields["degree"]),
            n_y=int(fields["n_y"]),
            n_u=int(fields["n_u"]),
            tau_d=int(fields["tau_d"]),
        )
        ts = float(fields["ts"])
        direction = fields.get("direction", "direct")
        label = fields.get("label", "")
    except KeyError as exc:
        raise ParameterError(f"model file missing field {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"model file has a non-numeric field: {exc}") from exc
    return NarxModel(
        process_terms=tuple(t for t, _ in process),
        theta=tuple(th for _, th in process),
        meta=meta,
        ts=ts,
        direction=direction,
        label=label,
    )


def load_model(path) -> NarxModel:
    with open(path) as fh:
        return model_from_text(fh.read())


def ranking_to_csv(ranking, path):
    """ERR ranking as ``term,err,cumulative_err`` rows."""
    write_csv(path, ["term", "err", "cumulative_err"], map(str, ranking.ordered_terms),
              ranking.err_values, ranking.cumulative_err)


def aic_to_csv(curve, path):
    """Information-criterion curve as ``n_theta,j_aic,converged,iterations``
    rows: the cost of each size and how its estimation ended."""
    write_csv(path, ["n_theta", "j_aic", "converged", "iterations"], curve.n_theta_values,
              curve.j_values, curve.converged, curve.iterations)


def residuals_to_csv(residuals, path):
    write_csv(path, ["k", "residual"], range(len(residuals)), residuals)


def report_to_text(report) -> str:
    """Estimation report as structured text."""
    lines = [
        "# narxident estimation report",
        f"iterations = {report.iterations}",
        f"converged = {report.converged}",
        f"residual_variance = {float(report.residual_variance)!r}",
        "theta = " + ", ".join(repr(float(t)) for t in report.theta),
    ]
    if len(report.noise_theta):
        lines.append("noise_theta = " + ", ".join(repr(float(t)) for t in report.noise_theta))
    if len(report.change_norms):
        lines.append("change_norms = " + ", ".join(repr(float(c)) for c in report.change_norms))
    return "\n".join(lines) + "\n"
