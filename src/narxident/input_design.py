"""Excitation-signal generation.

An identification input is assembled from band-limited random segments:
unit-range normalized Gaussian noise, low-pass filtered at each design
frequency, scaled block-wise around a set of operating points, then
concatenated and smoothed with the highest-frequency filter to remove
concatenation seams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.signal

from .errors import DegenerateRangeError, ParameterError


@dataclass(frozen=True)
class FilterSpec:
    """A discrete low-pass filter in second-order-sections form.

    Each row of ``sos`` is one section ``[b0, b1, b2, 1, a1, a2]``.
    """

    order: int
    cutoff: float
    sample_rate: float
    sos: np.ndarray

    def dc_gain(self):
        """Product of the sections' gains at z = 1."""
        return float(np.prod(self.sos[:, :3].sum(axis=1) / self.sos[:, 3:].sum(axis=1)))

    def is_stable(self):
        """Every section's poles lie inside the unit circle."""
        return all(bool(np.all(np.abs(np.roots(section[3:])) < 1.0)) for section in self.sos)

    def magnitude(self, freqs):
        """|H| evaluated at the given frequencies in Hz."""
        _, h = scipy.signal.sosfreqz(self.sos, worN=np.atleast_1d(freqs), fs=self.sample_rate)
        return np.abs(h)

    def apply(self, x):
        """Causal filtering (startup transient retained)."""
        return scipy.signal.sosfilt(self.sos, np.asarray(x, dtype=float))


def design_butterworth(order, cutoff, sample_rate):
    """Discrete Butterworth low-pass via the bilinear transform with
    frequency prewarping (unit DC gain, -3 dB at the cutoff)."""
    if not (0 < cutoff < sample_rate / 2):
        raise ParameterError(f"cutoff {cutoff} Hz outside (0, {sample_rate / 2}) Hz")
    if order < 1:
        raise ParameterError("filter order must be >= 1")
    sos = scipy.signal.butter(order, cutoff, fs=sample_rate, output="sos")
    return FilterSpec(order=order, cutoff=cutoff, sample_rate=sample_rate, sos=sos)


@dataclass(frozen=True)
class InputDesignSpec:
    """Parameters of a multi-frequency, multi-operating-point excitation.

    ``frequencies[i]`` and ``segment_lengths[i]`` define segment i;
    ``operating_points[j]`` and ``amplitudes[j]`` define the level and
    excursion of block j inside every segment.  Each segment length must
    divide evenly over the operating points.
    """

    frequencies: tuple
    segment_lengths: tuple
    operating_points: tuple
    amplitudes: tuple
    sample_rate: float
    filter_order: int = 5

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        object.__setattr__(self, "segment_lengths", tuple(int(n) for n in self.segment_lengths))
        object.__setattr__(self, "operating_points", tuple(float(o) for o in self.operating_points))
        object.__setattr__(self, "amplitudes", tuple(float(g) for g in self.amplitudes))
        if len(self.frequencies) != len(self.segment_lengths) or not self.frequencies:
            raise ParameterError("need matching, nonempty frequency and segment-length lists")
        if len(self.operating_points) != len(self.amplitudes) or not self.operating_points:
            raise ParameterError("need matching, nonempty operating-point and amplitude lists")
        v = len(self.operating_points)
        for n_i in self.segment_lengths:
            # segment lengths should be multiples of the operating-point
            # count; near-equal blocks are accepted (the reference designs
            # themselves use 1000 samples over 3 points)
            if n_i < v:
                raise ParameterError(
                    f"segment length {n_i} shorter than the {v} operating points"
                )
        for f in self.frequencies:
            if not (0 < f < 0.5 * self.sample_rate):
                raise ParameterError(f"frequency {f} Hz not below the Nyquist rate")

    @property
    def total_samples(self):
        return sum(self.segment_lengths)

    @property
    def n_operating_points(self):
        return len(self.operating_points)

    @cached_property
    def _filters(self):
        # designed on first use and kept with the spec: every design_input
        # on it filters with the same sections
        return tuple(design_butterworth(self.filter_order, f, self.sample_rate)
                     for f in self.frequencies)

    def segment_filter(self, i):
        """The Butterworth low-pass at design frequency i."""
        return self._filters[i]


def normalize_unit_range(e):
    """Affine map of a sequence onto [-1, 1], touching both endpoints."""
    e = np.asarray(e, dtype=float)
    lo, hi = float(np.min(e)), float(np.max(e))
    if hi <= lo:
        raise DegenerateRangeError("cannot normalize a constant sequence")
    return 2.0 * (e - lo) / (hi - lo) - 1.0


def design_segment(i, spec: InputDesignSpec, rng):
    """One band-limited segment of the excitation.

    Standard-normal noise is range-normalized, low-pass filtered at
    frequency i, then split into one block per operating point; block j
    is scaled so its maximum excursion equals amplitude j and offset to
    operating point j.
    """
    n_i = spec.segment_lengths[i]
    v = spec.n_operating_points
    e = rng.standard_normal(n_i)
    e = normalize_unit_range(e)
    filtered = spec.segment_filter(i).apply(e)
    # near-equal blocks; the last absorbs any division remainder
    bounds = np.linspace(0, n_i, v + 1).round().astype(int)
    out = np.empty(n_i)
    for j in range(v):
        seg = filtered[bounds[j]:bounds[j + 1]]
        # peak magnitude, not signed maximum: a block whose slow component
        # stays negative would otherwise blow the scale factor up
        peak = float(np.max(np.abs(seg)))
        if peak == 0.0:
            raise DegenerateRangeError(f"filtered block {j} of segment {i} has zero maximum")
        alpha = spec.amplitudes[j] / peak
        out[bounds[j]:bounds[j + 1]] = alpha * seg + spec.operating_points[j]
    return out


def design_input(spec: InputDesignSpec, rng):
    """Full excitation drawn from ``rng``: concatenated segments smoothed
    by the filter of the highest design frequency."""
    segments = [design_segment(i, spec, rng) for i in range(len(spec.frequencies))]
    u = np.concatenate(segments)
    i_max = int(np.argmax(spec.frequencies))
    return spec.segment_filter(i_max).apply(u)


def add_output_noise(y, ratio, rng):
    """Additive white Gaussian noise scaled to a target noise-to-signal
    standard-deviation ratio."""
    if ratio < 0:
        raise ParameterError("noise ratio must be nonnegative")
    y = np.asarray(y, dtype=float)
    if ratio == 0:
        return y.copy()
    return y + rng.normal(0.0, ratio * float(np.std(y)), size=len(y))


def sine_input(amplitude, frequency, phase, offset, n, ts):
    """Sampled sinusoid a*sin(2*pi*f*k*ts + phase) + offset."""
    k = np.arange(n)
    return amplitude * np.sin(2.0 * np.pi * frequency * k * ts + phase) + offset
