"""Benchmark simulators: Hammerstein heating system and Bouc-Wen hysteresis."""

import numpy as np
import pytest

from narxident import (
    HEATING_SYSTEM,
    PZT_BOUC_WEN,
    VALVE_BOUC_WEN,
    BoucWenParams,
    HammersteinParams,
    ParameterError,
    preset_models,
    simulate_bouc_wen,
    simulate_hammerstein,
)


def hammerstein_steady_state(params, u):
    """Closed-form fixed point: y = v*(b2+b4)/(1-b1-b3), v = p1*u^2+p2*u."""
    v = params.p1 * u * u + params.p2 * u
    return v * (params.beta2 + params.beta4) / (1.0 - params.beta1 - params.beta3)


def test_hammerstein_steady_state_unit_input():
    y = simulate_hammerstein(HEATING_SYSTEM, np.ones(4000))
    expected = hammerstein_steady_state(HEATING_SYSTEM, 1.0)
    assert abs(y[-1] - expected) < 1e-6
    assert abs(expected - 0.498) < 5e-4  # published rounding of the fixed point


def test_hammerstein_steady_states_at_operating_points():
    for u0 in (0.3, 0.5, 0.7):
        y = simulate_hammerstein(HEATING_SYSTEM, np.full(4000, u0))
        assert abs(y[-1] - hammerstein_steady_state(HEATING_SYSTEM, u0)) < 1e-9


def test_hammerstein_static_gain_matches_fixed_point():
    assert abs(HEATING_SYSTEM.static_gain(0.7) - hammerstein_steady_state(HEATING_SYSTEM, 0.7)) < 1e-12


def test_hammerstein_warns_outside_identification_range():
    with pytest.warns(UserWarning):
        simulate_hammerstein(HEATING_SYSTEM, np.full(10, 1.5))


def test_bouc_wen_zero_input_stays_zero():
    traj = simulate_bouc_wen(PZT_BOUC_WEN, np.zeros(100))
    assert np.allclose(traj.y, 0.0) and np.allclose(traj.h, 0.0)
    assert not traj.diverged


def test_bouc_wen_hysteresis_loop_area_positive():
    # one settled period of a slow sinusoid traces a loop of positive
    # (counterclockwise, energy-dissipating) shoelace area
    dt = PZT_BOUC_WEN.dt
    n = int(3 / 0.2 / dt)
    t = np.arange(n) * dt
    u = 40.0 * np.sin(2 * np.pi * 0.2 * t)
    traj = simulate_bouc_wen(PZT_BOUC_WEN, u)
    per = int(1 / 0.2 / dt)
    uu, yy = u[-per:], traj.y[-per:]
    area = 0.5 * float(np.sum(uu * np.roll(yy, -1) - np.roll(uu, -1) * yy))
    assert area > 0


def test_bouc_wen_rate_independence_of_loop_shape():
    # quasi-static loops at two slow frequencies nearly coincide in u-y
    dt = 5e-3
    outputs = []
    for freq in (0.05, 0.1):
        n = int(2 / freq / dt)
        t = np.arange(n) * dt
        u = 30.0 * np.sin(2 * np.pi * freq * t)
        traj = simulate_bouc_wen(PZT_BOUC_WEN, u)
        per = int(1 / freq / dt)
        # sample the loop at matching input phases over the last period
        outputs.append(traj.y[-per::per // 50][:50])
    assert np.max(np.abs(outputs[0] - outputs[1])) < 0.5


def test_bouc_wen_rk4_convergence_order():
    # step-halving study against a fine-step reference; analytic input
    # derivative removes the differentiation error from the measurement
    # the window [0, 0.4] s keeps u_dot and h strictly positive, so the
    # absolute values in the state equation stay smooth over the study
    def run(dt):
        params = BoucWenParams(
            alpha=VALVE_BOUC_WEN.alpha, beta=VALVE_BOUC_WEN.beta,
            gamma=VALVE_BOUC_WEN.gamma, nu_y=VALVE_BOUC_WEN.nu_y, dt=dt,
        )
        n = int(round(0.4 / dt)) + 1
        t = np.arange(n) * dt
        u = np.sin(2 * np.pi * 0.5 * t)
        u_dot = lambda tt: 2 * np.pi * 0.5 * np.cos(2 * np.pi * 0.5 * tt)
        return simulate_bouc_wen(params, u, u_dot=u_dot).h[-1]

    reference = run(1e-4)
    errors = [abs(run(dt) - reference) for dt in (4e-2, 2e-2, 1e-2)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.min(orders) >= 3.8


def test_preset_catalog_contents():
    presets = preset_models()
    with_model = {k for k, v in presets.items() if v.model is not None}
    assert with_model == {
        "heating_narx", "pzt_narx", "valve_constrained_narx",
        "valve_compensation_narx", "valve_inverse_narx",
    }
    assert presets["valve_bouc_wen"].bouc_wen is not None
    assert presets["heating_system"].hammerstein is not None
    assert presets["pzt_bouc_wen"].bouc_wen is not None


def test_preset_heating_model_parameters():
    m = preset_models()["heating_narx"].model
    assert [str(t) for t in m.process_terms] == ["y(k-1)", "u(k-2)^2", "y(k-2)"]
    assert np.allclose(m.theta, (0.8958185, 0.06393347, -0.0174675))


def reference_hammerstein(params, u):
    """Per-step Hammerstein recursion on numpy elements, kept as an oracle."""
    u = np.asarray(u, dtype=float)
    v = params.p1 * u ** 2 + params.p2 * u
    y = np.zeros(len(u))
    for k in range(1, len(u)):
        y[k] = params.beta1 * y[k - 1] + params.beta2 * v[k - 1]
        if k >= 2:
            y[k] += params.beta3 * y[k - 2] + params.beta4 * v[k - 2]
        if not np.isfinite(y[k]) or abs(y[k]) > 1e9:
            raise ParameterError(f"heating simulation diverged at step {k}")
    return y


def reference_bouc_wen(params, u, u_dot=None):
    """RK4 integration with a separate rate function on numpy elements,
    kept as an oracle; returns (y, h, diverged)."""
    u = np.asarray(u, dtype=float)
    du_half = None
    if u_dot is None:
        u_dot = np.gradient(u, params.dt)
    elif callable(u_dot):
        t = np.arange(len(u)) * params.dt
        du_half = np.asarray(u_dot(t[:-1] + 0.5 * params.dt), dtype=float)
        u_dot = np.asarray(u_dot(t), dtype=float)
    else:
        u_dot = np.asarray(u_dot, dtype=float)

    def rate(du, h):
        return params.alpha * du - params.beta * abs(du) * h - params.gamma * du * abs(h)

    n = len(u)
    h = np.zeros(n)
    dt = params.dt
    for k in range(n - 1):
        du0 = u_dot[k]
        du1 = u_dot[k + 1]
        du_mid = du_half[k] if du_half is not None else 0.5 * (du0 + du1)
        hk = h[k]
        k1 = rate(du0, hk)
        k2 = rate(du_mid, hk + 0.5 * dt * k1)
        k3 = rate(du_mid, hk + 0.5 * dt * k2)
        k4 = rate(du1, hk + dt * k3)
        h_next = hk + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        if not np.isfinite(h_next) or abs(h_next) > 1e12:
            h[k + 1:] = np.nan
            return params.nu_y * u - h, h, True
        h[k + 1] = h_next
    return params.nu_y * u - h, h, False


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def hysteresis_drive(n, dt, scale=1.0):
    """Two-tone input of amplitude 40 * ``scale`` and its analytic rate."""
    t = np.arange(n) * dt
    a, b = 30.0 * scale, 10.0 * scale
    u = a * np.sin(2 * np.pi * 0.4 * t) + b * np.sin(2 * np.pi * 3.1 * t)
    u_dot = lambda tt: (a * 2 * np.pi * 0.4 * np.cos(2 * np.pi * 0.4 * tt)
                        + b * 2 * np.pi * 3.1 * np.cos(2 * np.pi * 3.1 * tt))
    return u, u_dot


def rate_argument(rate, u_dot, n, dt):
    """The ``u_dot`` argument of one rate mode: none, the analytic rate
    sampled on the grid, or the analytic rate itself."""
    if rate == "default":
        return None
    if rate == "array":
        return u_dot(np.arange(n) * dt)
    return u_dot


RATES = ["default", "array", "callable"]


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("params, scale", [(PZT_BOUC_WEN, 1.0), (VALVE_BOUC_WEN, 0.01)],
                         ids=["pzt", "valve"])
def test_bouc_wen_bit_identical_to_per_step_reference(params, scale, rate):
    u, u_dot = hysteresis_drive(3000, params.dt, scale)
    u_dot = rate_argument(rate, u_dot, len(u), params.dt)
    traj = simulate_bouc_wen(params, u, u_dot=u_dot)
    y, h, diverged = reference_bouc_wen(params, u, u_dot=u_dot)
    assert not diverged and not traj.diverged
    assert same_bits(traj.h, h) and same_bits(traj.y, y)


@pytest.mark.parametrize("rate", RATES)
def test_bouc_wen_divergence_bit_identical_to_per_step_reference(rate):
    # negative beta and gamma make the state grow without bound on loading
    params = BoucWenParams(alpha=1.0, beta=-0.5, gamma=-0.5)
    u, u_dot = hysteresis_drive(3000, params.dt)
    u_dot = rate_argument(rate, u_dot, len(u), params.dt)
    traj = simulate_bouc_wen(params, u, u_dot=u_dot)
    y, h, diverged = reference_bouc_wen(params, u, u_dot=u_dot)
    assert diverged and traj.diverged
    assert np.isnan(traj.h[-1]) and not np.isnan(traj.h[1])
    assert same_bits(traj.h, h) and same_bits(traj.y, y)


def test_hammerstein_bit_identical_to_per_step_reference():
    u = np.random.default_rng(4).uniform(0.0, 1.0, 4000)
    assert same_bits(simulate_hammerstein(HEATING_SYSTEM, u),
                     reference_hammerstein(HEATING_SYSTEM, u))


def test_hammerstein_raises_at_the_reference_divergence_step():
    unstable = HammersteinParams(beta1=1.9, beta3=0.1)
    u = np.full(200, 0.5)
    with pytest.raises(ParameterError) as want:
        reference_hammerstein(unstable, u)
    with pytest.raises(ParameterError) as got:
        simulate_hammerstein(unstable, u)
    assert str(got.value) == str(want.value)
    assert "step" in str(got.value)


# The simulators check divergence once, after the loop.  These pin that
# check against the oracles, which test every step, where one sample of
# the input is NaN or overflows the recursion to inf: at the first sample,
# inside the record and at the last sample, which only the last Bouc-Wen
# step reads and no Hammerstein step does.


def spiked_drive(rate, params, j, value):
    """The two-tone drive with input sample j set to ``value``; a given
    rate is set to ``value`` at t_j and at the half steps beside it."""
    u, u_dot = hysteresis_drive(3000, params.dt)
    u[j] = value
    t_j = j * params.dt
    spiked = lambda tt: np.where(np.abs(tt - t_j) < 0.75 * params.dt, value, u_dot(tt))
    return u, rate_argument(rate, spiked, len(u), params.dt)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("j", [0, 700, 2999], ids=["first", "inside", "last"])
@pytest.mark.parametrize("value", [np.nan, 1e300], ids=["nan", "huge"])
@pytest.mark.parametrize("rate", RATES)
def test_bouc_wen_bad_input_sample_matches_per_step_reference(rate, value, j):
    u, u_dot = spiked_drive(rate, PZT_BOUC_WEN, j, value)
    traj = simulate_bouc_wen(PZT_BOUC_WEN, u, u_dot=u_dot)
    y, h, diverged = reference_bouc_wen(PZT_BOUC_WEN, u, u_dot=u_dot)
    assert traj.diverged and diverged
    assert same_bits(traj.h, h) and same_bits(traj.y, y)
    first = int(np.flatnonzero(np.isnan(h))[0])
    assert first <= j + 1 and np.all(np.isnan(h[first:]))
    assert np.all(np.isfinite(h[:first]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore:input outside")
@pytest.mark.parametrize("j", [0, 1, 700, 3999], ids=["first", "second", "inside", "last"])
@pytest.mark.parametrize("value", [np.nan, 1e200], ids=["nan", "overflow"])
def test_hammerstein_bad_input_sample_matches_per_step_reference(value, j):
    u = np.random.default_rng(4).uniform(0.0, 1.0, 4000)
    u[j] = value  # 1e200 ** 2 overflows v(j) to inf
    if j == len(u) - 1:  # no step reads the last sample
        assert same_bits(simulate_hammerstein(HEATING_SYSTEM, u),
                         reference_hammerstein(HEATING_SYSTEM, u))
        return
    with pytest.raises(ParameterError) as want:
        reference_hammerstein(HEATING_SYSTEM, u)
    with pytest.raises(ParameterError) as got:
        simulate_hammerstein(HEATING_SYSTEM, u)
    assert str(got.value) == str(want.value) == f"heating simulation diverged at step {j + 1}"


def test_hammerstein_first_step_keeps_the_sign_of_zero():
    # y(1) = b1*y(0) + b2*v(0) with y(0) = 0; b2 < 0 and v(0) = 0 make
    # b2*v(0) = -0.0, and only the b1*y(0) term turns the sum into +0.0
    params = HammersteinParams(beta2=-0.1)
    u = np.zeros(5)
    assert same_bits(simulate_hammerstein(params, u), reference_hammerstein(params, u))
