"""Excitation design, filtering, and noise injection."""

import dataclasses

import numpy as np
import pytest
import scipy.signal

from narxident import (
    DegenerateRangeError,
    InputDesignSpec,
    ParameterError,
    add_output_noise,
    design_input,
    sine_input,
)
from narxident.input_design import FilterSpec, design_butterworth, normalize_unit_range


def test_butterworth_dc_gain_unity():
    f = design_butterworth(5, 0.005, 1.0)
    assert abs(f.dc_gain() - 1.0) < 1e-6


def test_butterworth_cutoff_is_half_power():
    for cutoff, fs in ((0.005, 1.0), (0.1, 100.0), (5.0, 200.0)):
        f = design_butterworth(5, cutoff, fs)
        assert abs(f.magnitude(cutoff)[0] - 1 / np.sqrt(2)) < 1e-3


def test_butterworth_stable_and_monotone_rolloff():
    f = design_butterworth(5, 0.01, 1.0)
    assert f.is_stable()
    freqs = np.linspace(0.001, 0.45, 50)
    mags = f.magnitude(freqs)
    assert np.all(np.diff(mags) < 1e-12)


def test_butterworth_rejects_bad_cutoff():
    with pytest.raises(ParameterError):
        design_butterworth(5, 0.6, 1.0)  # above Nyquist
    with pytest.raises(ParameterError):
        design_butterworth(0, 0.1, 1.0)


def test_normalize_unit_range_touches_endpoints():
    x = normalize_unit_range([3.0, 5.0, 4.0])
    assert x.min() == -1.0 and x.max() == 1.0
    with pytest.raises(DegenerateRangeError):
        normalize_unit_range([2.0, 2.0])


HEATING_SPEC = InputDesignSpec(
    frequencies=(0.001, 0.005),
    segment_lengths=(1000, 1000),
    operating_points=(0.3, 0.5, 0.7),
    amplitudes=(0.2, 0.2, 0.2),
    sample_rate=0.5,
)


def test_design_input_length_and_determinism():
    u1 = design_input(HEATING_SPEC, rng=np.random.default_rng(5))
    u2 = design_input(HEATING_SPEC, rng=np.random.default_rng(5))
    u3 = design_input(HEATING_SPEC, rng=np.random.default_rng(6))
    assert len(u1) == 2000
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)


def test_design_input_visits_operating_points():
    u = design_input(HEATING_SPEC, rng=np.random.default_rng(0))
    # block means should straddle the three operating levels in order
    for seg in (u[:1000], u[1000:2000]):
        blocks = [seg[i * 333:(i + 1) * 333] for i in range(3)]
        means = [b.mean() for b in blocks]
        assert means == sorted(means)
        assert means[0] < 0.5 < means[2]


def test_design_input_bounded_by_amplitudes():
    u = design_input(HEATING_SPEC, rng=np.random.default_rng(1))
    # skip the causal-filter startup transient; the smoothing can also
    # overshoot slightly at block seams, so allow a small margin
    settled = u[200:]
    assert np.all(settled > 0.3 - 0.25) and np.all(settled < 0.7 + 0.25)


def test_segment_filters_are_built_once_per_spec():
    spec = dataclasses.replace(HEATING_SPEC)
    for i in range(len(spec.frequencies)):
        assert spec.segment_filter(i) is spec.segment_filter(i)
        assert spec.segment_filter(i).cutoff == spec.frequencies[i]
    other = dataclasses.replace(spec, frequencies=(0.002, 0.01))
    assert other.segment_filter(0) is not spec.segment_filter(0)
    assert [other.segment_filter(i).cutoff for i in range(2)] == [0.002, 0.01]


def rebuilt_design_input(spec, rng):
    """``design_input`` written out with a direct ``butter`` + ``sosfilt``
    per filtering, as an oracle for the cached filters."""
    def lowpass(f, x):
        sos = scipy.signal.butter(spec.filter_order, f, fs=spec.sample_rate, output="sos")
        return scipy.signal.sosfilt(sos, x)

    v = spec.n_operating_points
    segments = []
    for f, n_i in zip(spec.frequencies, spec.segment_lengths):
        filtered = lowpass(f, normalize_unit_range(rng.standard_normal(n_i)))
        bounds = np.linspace(0, n_i, v + 1).round().astype(int)
        out = np.empty(n_i)
        for j in range(v):
            seg = filtered[bounds[j]:bounds[j + 1]]
            out[bounds[j]:bounds[j + 1]] = (spec.amplitudes[j] / float(np.max(np.abs(seg))) * seg
                                            + spec.operating_points[j])
        segments.append(out)
    return lowpass(max(spec.frequencies), np.concatenate(segments))


def test_design_input_equals_a_direct_filter_rebuild():
    spec = dataclasses.replace(HEATING_SPEC)
    for seed in (5, 6):  # the second design runs on the cached filters
        u = design_input(spec, rng=np.random.default_rng(seed))
        assert np.array_equal(u, rebuilt_design_input(spec, np.random.default_rng(seed)))


def test_design_input_leaves_the_cached_sections_unchanged():
    # sosfilt rejects a read-only sos, so the sections stay writable; the
    # design must not write to them
    spec = dataclasses.replace(HEATING_SPEC)
    before = [spec.segment_filter(i).sos.copy() for i in range(2)]
    design_input(spec, rng=np.random.default_rng(0))
    for i in range(2):
        assert np.array_equal(spec.segment_filter(i).sos, before[i])


def test_spec_validation():
    with pytest.raises(ParameterError):
        InputDesignSpec((0.3,), (100,), (0.5,), (0.1,), sample_rate=0.5)  # above Nyquist
    with pytest.raises(ParameterError):
        InputDesignSpec((0.01,), (2,), (0.1, 0.2, 0.3), (0.1, 0.1, 0.1), sample_rate=1.0)
    with pytest.raises(ParameterError):
        InputDesignSpec((0.01,), (100, 100), (0.5,), (0.1,), sample_rate=1.0)


def test_add_output_noise_ratio():
    rng = np.random.default_rng(0)
    y = np.sin(np.linspace(0, 20, 50_000))
    noisy = add_output_noise(y, 0.05, rng)
    measured = np.std(noisy - y) / np.std(y)
    assert abs(measured - 0.05) < 0.002


def test_add_output_noise_zero_ratio_copies():
    rng = np.random.default_rng(0)
    y = np.arange(5.0)
    out = add_output_noise(y, 0.0, rng)
    assert np.array_equal(out, y) and out is not y
    with pytest.raises(ParameterError):
        add_output_noise(y, -0.1, rng)


def test_sine_input_samples():
    u = sine_input(2.0, 0.25, 0.0, 1.0, 5, 1.0)
    assert np.allclose(u, [1.0, 3.0, 1.0, -1.0, 1.0], atol=1e-12)


def test_filter_gain_and_stability_come_from_the_sections():
    # two sections with gains 2 and 2/3 at z = 1 and poles 0 and 0.25; moving
    # the second pole to 1.25 makes the filter unstable
    sos = np.array([[1.0, 1.0, 0.0, 1.0, 0.0, 0.0],
                    [0.25, 0.25, 0.0, 1.0, -0.25, 0.0]])
    spec = FilterSpec(order=2, cutoff=0.1, sample_rate=1.0, sos=sos)
    assert spec.dc_gain() == 2.0 * (0.5 / 0.75)
    assert spec.is_stable()
    unstable = FilterSpec(order=2, cutoff=0.1, sample_rate=1.0,
                          sos=np.vstack([sos[0], [0.25, 0.25, 0.0, 1.0, -1.25, 0.0]]))
    assert not unstable.is_stable()
