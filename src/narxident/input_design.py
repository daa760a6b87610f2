"""Excitation-signal generation.

An identification input is assembled from band-limited random segments:
unit-range normalized Gaussian noise, low-pass filtered at each design
frequency, scaled block-wise around a set of operating points, then
concatenated and smoothed with the highest-frequency filter to remove
concatenation seams.

``scipy.signal`` takes most of a second to import, so the code that
designs the filters (``InputDesignSpec.sections``) or applies them
imports it, not the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateRangeError, ParameterError
from .model import is_int, is_real


def _check_filter(order, cutoff, sample_rate):
    if not is_int(order) or order < 1:
        raise ParameterError(f"filter order must be an integer >= 1, got {order!r}")
    if not is_real(sample_rate) or not 0 < sample_rate < np.inf:
        raise ParameterError(f"sample rate must be finite and positive, got {sample_rate!r}")
    if not is_real(cutoff) or not 0 < cutoff < sample_rate / 2:
        raise ParameterError(f"cutoff {cutoff} Hz outside (0, {sample_rate / 2}) Hz")


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
        for name, integer in (("frequencies", False), ("segment_lengths", True),
                              ("operating_points", False), ("amplitudes", False)):
            values = getattr(self, name)
            if not np.iterable(values) or not all(map(is_int if integer else is_real, values)):
                raise ParameterError(f"{name} must be a sequence of "
                                     f"{'integers' if integer else 'numbers'}, got {values!r}")
            object.__setattr__(self, name, tuple(map(int if integer else float, values)))
        if len(self.frequencies) != len(self.segment_lengths) or not self.frequencies:
            raise ParameterError("need matching, nonempty frequency and segment-length lists")
        if len(self.operating_points) != len(self.amplitudes) or not self.operating_points:
            raise ParameterError("need matching, nonempty operating-point and amplitude lists")
        if not np.isfinite(self.operating_points + self.amplitudes).all():
            raise ParameterError("operating points and amplitudes must be finite")
        # the sections are designed lazily, so a bad order, rate or frequency
        # must fail here rather than at the first design_input
        for f in self.frequencies:
            _check_filter(self.filter_order, f, self.sample_rate)
        v = len(self.operating_points)
        for n_i in self.segment_lengths:
            # segment lengths should be multiples of the operating-point
            # count; near-equal blocks are accepted (the reference designs
            # themselves use 1000 samples over 3 points)
            if n_i < v:
                raise ParameterError(
                    f"segment length {n_i} shorter than the {v} operating points"
                )

    @property
    def total_samples(self):
        return sum(self.segment_lengths)

    @cached_property
    def sections(self):
        """The Butterworth low-pass of each design frequency, in
        second-order sections (rows ``[b0, b1, b2, 1, a1, a2]``): unit DC
        gain, -3 dB at the frequency.  Designed on first use and kept with
        the spec, so every design on it filters with the same arrays."""
        import scipy.signal
        return tuple(scipy.signal.butter(self.filter_order, f, fs=self.sample_rate, output="sos")
                     for f in self.frequencies)


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
    import scipy.signal
    n_i = spec.segment_lengths[i]
    v = len(spec.operating_points)
    e = rng.standard_normal(n_i)
    e = normalize_unit_range(e)
    filtered = scipy.signal.sosfilt(spec.sections[i], e)
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
    import scipy.signal
    segments = [design_segment(i, spec, rng) for i in range(len(spec.frequencies))]
    u = np.concatenate(segments)
    i_max = int(np.argmax(spec.frequencies))
    return scipy.signal.sosfilt(spec.sections[i_max], u)


def check_ratio(ratio):
    """Raise :class:`ParameterError` unless the noise ratio is a finite real >= 0."""
    if not is_real(ratio) or not 0 <= ratio < np.inf:
        raise ParameterError("noise ratio must be finite and nonnegative")


def add_output_noise(y, ratio, rng):
    """Additive white Gaussian noise scaled to a target noise-to-signal
    standard-deviation ratio."""
    check_ratio(ratio)
    y = np.asarray(y, dtype=float)
    if ratio == 0:
        return y.copy()
    return y + rng.normal(0.0, ratio * float(np.std(y)), size=len(y))


def sine_input(amplitude, frequency, phase, offset, n, ts):
    """Sampled sinusoid a*sin(2*pi*f*k*ts + phase) + offset."""
    k = np.arange(n)
    return amplitude * np.sin(2.0 * np.pi * frequency * k * ts + phase) + offset
