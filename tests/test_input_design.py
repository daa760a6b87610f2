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
from narxident.input_design import normalize_unit_range


def butterworth(order, cutoff, sample_rate):
    """The sections a one-frequency spec filters with."""
    return InputDesignSpec((cutoff,), (100,), (0.5,), (0.1,), sample_rate=sample_rate,
                           filter_order=order).sections[0]


def magnitude(sos, freqs, sample_rate):
    _, h = scipy.signal.sosfreqz(sos, worN=np.atleast_1d(freqs), fs=sample_rate)
    return np.abs(h)


def test_butterworth_dc_gain_unity():
    sos = butterworth(5, 0.005, 1.0)
    assert abs(np.prod(sos[:, :3].sum(axis=1) / sos[:, 3:].sum(axis=1)) - 1.0) < 1e-6


def test_butterworth_cutoff_is_half_power():
    for cutoff, fs in ((0.005, 1.0), (0.1, 100.0), (5.0, 200.0)):
        sos = butterworth(5, cutoff, fs)
        assert abs(magnitude(sos, cutoff, fs)[0] - 1 / np.sqrt(2)) < 1e-3


def test_butterworth_stable_and_monotone_rolloff():
    sos = butterworth(5, 0.01, 1.0)
    assert all(np.all(np.abs(np.roots(section[3:])) < 1.0) for section in sos)
    freqs = np.linspace(0.001, 0.45, 50)
    mags = magnitude(sos, freqs, 1.0)
    assert np.all(np.diff(mags) < 1e-12)


def test_butterworth_rejects_bad_cutoff():
    with pytest.raises(ParameterError):
        butterworth(5, 0.6, 1.0)  # above Nyquist
    for order, sample_rate in [(0, 1.0), (2.5, 1.0), (True, 1.0), (5, float("inf"))]:
        with pytest.raises(ParameterError):
            butterworth(order, 0.1, sample_rate)


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
    assert spec.sections is spec.sections
    other = dataclasses.replace(spec, frequencies=(0.002, 0.01))
    assert other.sections is not spec.sections
    for s in (spec, other):
        assert len(s.sections) == 2
        for f, sos in zip(s.frequencies, s.sections):
            assert np.array_equal(sos, scipy.signal.butter(s.filter_order, f, fs=s.sample_rate,
                                                           output="sos"))


def rebuilt_design_input(spec, rng):
    """``design_input`` written out with a direct ``butter`` + ``sosfilt``
    per filtering, as an oracle for the cached filters."""
    def lowpass(f, x):
        sos = scipy.signal.butter(spec.filter_order, f, fs=spec.sample_rate, output="sos")
        return scipy.signal.sosfilt(sos, x)

    v = len(spec.operating_points)
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
    before = [sos.copy() for sos in spec.sections]
    design_input(spec, rng=np.random.default_rng(0))
    for i in range(2):
        assert np.array_equal(spec.sections[i], before[i])


def test_spec_validation():
    with pytest.raises(ParameterError):
        InputDesignSpec((0.3,), (100,), (0.5,), (0.1,), sample_rate=0.5)  # above Nyquist
    with pytest.raises(ParameterError):
        InputDesignSpec((0.01,), (2,), (0.1, 0.2, 0.3), (0.1, 0.1, 0.1), sample_rate=1.0)
    with pytest.raises(ParameterError):
        InputDesignSpec((0.01,), (100, 100), (0.5,), (0.1,), sample_rate=1.0)


@pytest.mark.parametrize("field, value", [
    ("filter_order", 2.5), ("filter_order", True), ("filter_order", 0), ("filter_order", -1),
    ("sample_rate", float("inf")), ("sample_rate", float("nan")), ("sample_rate", 0.0),
    ("sample_rate", -0.5), ("sample_rate", True),
])
def test_spec_rejects_bad_filter_settings_at_construction(field, value):
    # the filters are designed lazily, so the spec itself must refuse these
    with pytest.raises(ParameterError, match=field.replace("_", " ")):
        dataclasses.replace(HEATING_SPEC, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("frequencies", ("0.001", 0.005)), ("frequencies", 0.001), ("segment_lengths", (1000.7, 1000)),
    ("segment_lengths", ("abc", 1000)), ("segment_lengths", (1000, True)),
    ("operating_points", (True, 0.5, 0.7)), ("amplitudes", (0.2, None, 0.2)),
])
def test_spec_rejects_sequences_of_the_wrong_type(field, value):
    # these used to be cast: '0.001' to 0.001, 1000.7 to 1000 and True to 1.0
    with pytest.raises(ParameterError, match=f"{field} must be a sequence of"):
        dataclasses.replace(HEATING_SPEC, **{field: value})


def test_spec_stores_numpy_and_integer_items_as_python_numbers():
    spec = dataclasses.replace(HEATING_SPEC, frequencies=[np.float32(0.001), 0.005],
                               segment_lengths=[np.int64(1000), 1000], amplitudes=[1, 1, 1])
    assert [type(f) for f in spec.frequencies] == [float, float]
    assert [type(n) for n in spec.segment_lengths] == [int, int]
    assert spec.amplitudes == (1.0, 1.0, 1.0) and type(spec.amplitudes[0]) is float


def test_add_output_noise_ratio():
    rng = np.random.default_rng(0)
    y = np.sin(np.linspace(0, 20, 50_000))
    noisy = add_output_noise(y, 0.05, rng)
    measured = np.std(noisy - y) / np.std(y)
    assert abs(measured - 0.05) < 0.002
    # a ratio of NaN or inf used to return an all-NaN or all-inf record, and
    # True added 100 % noise; a string or None raised TypeError
    for ratio in (np.nan, np.inf, -np.inf, -0.1, True, "0.1", None):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            add_output_noise(y, ratio, rng)


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

