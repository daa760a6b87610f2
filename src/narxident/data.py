"""Sampled input/output records and CSV import/export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import check_interval


@dataclass(frozen=True)
class TimeSeriesData:
    """A single-input single-output record sampled at a fixed interval.

    Parameters
    ----------
    u, y : array_like
        Input and output samples, equal length.
    ts : float
        Sampling interval in seconds.
    label : str
        Free-text description.
    """

    u: np.ndarray
    y: np.ndarray
    ts: float
    label: str = ""

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        if u.ndim != 1 or y.ndim != 1 or len(u) != len(y) or len(u) < 1:
            raise ParameterError("u and y must be 1-D arrays of equal nonzero length")
        check_interval(self.ts)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ParameterError("samples must be finite")

    def __len__(self):
        return len(self.u)


def write_csv(path, header, *columns):
    """Write equal-length ``columns`` as CSV rows under ``header``.

    Strings and integers are written as they are; every other cell is
    written as ``repr(float(x))``, the shortest text that reads back as
    the same float, so equal inputs give byte-identical files.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns, strict=True):
            writer.writerow([x if isinstance(x, (str, int, np.integer)) else repr(float(x))
                             for x in row])


def save_csv(path, data: TimeSeriesData, y_clean=None):
    """Write a record as ``k,u,y`` CSV (optional ``y_clean`` column)."""
    header, columns = ["k", "u", "y"], [range(len(data)), data.u, data.y]
    if y_clean is not None:
        header.append("y_clean")
        columns.append(y_clean)
    write_csv(path, header, *columns)


def load_csv(path, ts=1.0, label=""):
    """Read a ``k,u,y`` CSV written by :func:`save_csv` (extra columns ignored).

    A missing or non-numeric ``u`` or ``y`` cell raises
    :class:`ParameterError` naming the file and the line.
    """
    u, y = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"u", "y"} <= set(reader.fieldnames):
            raise ParameterError(f"{path}: expected a CSV with 'u' and 'y' columns")
        for row in reader:
            try:
                u.append(float(row["u"]))
                y.append(float(row["y"]))
            except (TypeError, ValueError):  # None for a cell past a short row's end
                raise ParameterError(f"{path}, line {reader.line_num}: u and y must be numbers"
                                     f" (got u={row['u']!r}, y={row['y']!r})") from None
    return TimeSeriesData(np.array(u), np.array(y), ts=ts, label=label or str(path))
