"""The eight acceptance criteria, one test each.

Every test prints a single ``ACCEPTANCE n [PASS/FAIL]`` line (visible
with ``pytest -s`` and in the captured output of failures) and then
asserts, so a red test is an honest red: thresholds are stated here at
full strength and are never loosened to fit the implementation.
"""

import dataclasses

import numpy as np
import pytest
import scipy.signal

from narxident import (
    HEATING_SYSTEM,
    VALVE_BOUC_WEN,
    InputDesignSpec,
    TimeSeriesData,
    bouc_wen_experiment,
    build_regression,
    free_run_simulate,
    frols_rank,
    generate_candidates,
    heating_experiment,
    ls_estimate,
    make_validation_data,
    mape,
    monte_carlo_noise_sweep,
    parse_term,
    preset_models,
    run_identification,
    run_inverse_model,
    simulate_bouc_wen,
    simulate_hammerstein,
    sine_input,
    term,
    validate,
    Variable,
)
from narxident.estimation import els_core

Y, U = Variable.OUTPUT, Variable.INPUT

HEATING_TARGET = frozenset(
    parse_term(s) for s in ("y(k-1)", "u(k-2)^2", "y(k-2)")
)
HEATING_THETA = {"y(k-1)": 0.8958185, "u(k-2)^2": 0.06393347, "y(k-2)": -0.0174675}


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


@pytest.fixture(scope="module")
def heating_runs():
    """Twenty seeded end-to-end runs of the heating pipeline."""
    defn = heating_experiment()
    return [run_identification(defn, seed=seed) for seed in range(20)]


def test_criterion_1_heating_structure_recovery(heating_runs):
    hits = sum(
        1
        for res in heating_runs
        if set(res.model.process_terms) == HEATING_TARGET and res.curve.argmin == 3
    )
    detail = (f"heating structure recovery: {hits}/20 runs selected the "
              f"published 3-term structure with information-criterion "
              f"minimum at 3 (need >= 16/20)")
    assert report(1, hits >= 16, detail), detail


def test_criterion_2_heating_parameter_accuracy(heating_runs):
    defn = heating_experiment()
    matched = [r for r in heating_runs if set(r.model.process_terms) == HEATING_TARGET]
    params_ok = bool(matched)
    for res in matched:
        for t, th in zip(res.model.process_terms, res.model.theta):
            ref = HEATING_THETA[str(t)]
            if abs(th - ref) > 0.10 * abs(ref):
                params_ok = False
    clean = run_identification(dataclasses.replace(defn, noise_ratio=0.0), seed=0)
    clean_ok = set(clean.model.process_terms) == HEATING_TARGET
    mapes = [
        validate(res.model, make_validation_data(defn, res.seed), mode="free_run").mape
        for res in matched
    ]
    mape_ok = bool(mapes) and max(mapes) < 2.0
    ok = params_ok and clean_ok and mape_ok
    detail = (f"heating parameters: {len(matched)} structure-matched runs, "
              f"all within 10% of published values: {params_ok}; noise-free "
              f"structure recovery: {clean_ok}; free-run MAPE < 2%: {mape_ok} "
              f"(worst {max(mapes):.3f}% over {len(mapes)} runs)" if mapes else
              "heating parameters: no structure-matched runs to score")
    assert report(2, ok, detail), detail


def test_criterion_3_bouc_wen_identification():
    defn = bouc_wen_experiment()
    res = run_identification(defn, seed=0)
    published = preset_models()["pzt_narx"].model.process_terms
    selected = set(res.model.process_terms)
    four_terms = len(res.model.process_terms) == 4
    contains = set(published) <= selected

    model = res.model
    n = int(round(3 / 0.2 / model.ts))
    u = sine_input(40.0, 0.2, 0.0, 0.0, n, model.ts)
    sim = free_run_simulate(model, u, y_init=np.zeros(model.max_output_lag), bound=1e9)
    per = int(round(1 / 0.2 / model.ts))
    uu, yy = u[-per:], sim.y[-per:]
    area = 0.5 * float(np.sum(uu * np.roll(yy, -1) - np.roll(uu, -1) * yy))
    loop_ok = (not sim.diverged) and area > 0

    ok = four_terms and contains and loop_ok
    detail = (f"hysteresis identification: {len(res.model.process_terms)}-term model "
              f"{sorted(str(t) for t in selected)}; contains published 4-term set: "
              f"{contains}; closed loop with positive area ({area:+.1f}): {loop_ok}")
    assert report(3, ok, detail), detail


def test_criterion_4_monte_carlo_trend():
    rep = monte_carlo_noise_sweep(
        heating_experiment(), ratios=(0.0, 0.1, 0.2, 0.3), trials_per_ratio=10,
        base_seed=0,
    )
    means = np.array(rep.mape_mean)
    stds = np.array(rep.mape_std)
    increasing = bool(np.all(np.diff(means) > 0))
    wider = 2 * stds[-1] > 2 * stds[0]
    ok = increasing and wider
    detail = (f"Monte Carlo trend: mean MAPE {np.array2string(means, precision=3)} "
              f"strictly increasing: {increasing}; 2-sigma band wider at 30% than "
              f"at 0% ({2 * stds[-1]:.3f} vs {2 * stds[0]:.3f}): {wider}")
    assert report(4, ok, detail), detail


def test_criterion_5_estimator_properties():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((400, 5))
    y = psi @ rng.standard_normal(5) + 0.2 * rng.standard_normal(400)
    res = ls_estimate(psi, y).residuals
    ortho = float(np.max(np.abs(psi.T @ res) /
                         (np.linalg.norm(psi, axis=0) * np.linalg.norm(res))))
    ortho_ok = ortho < 1e-8

    true = np.array([0.7, 1.5])
    cs = generate_candidates(1, 1, 1)
    ls_err = els_err = 0.0
    for seed in range(100):
        t_rng = np.random.default_rng(seed)
        u = t_rng.standard_normal(1500)
        e = 0.3 * t_rng.standard_normal(1500)
        yv = np.zeros(1500)
        for k in range(1, 1500):
            yv[k] = true[0] * yv[k - 1] + true[1] * u[k - 1] + e[k] + 0.8 * e[k - 1]
        psi_t, y_t = build_regression(cs, TimeSeriesData(u, yv, ts=1.0))
        ls_err += np.mean(np.abs(ls_estimate(psi_t, y_t).theta - true))
        els_err += np.mean(np.abs(els_core(psi_t, y_t, 1).theta - true))
    els_ok = els_err < ls_err

    from narxident import constrained_ls_estimate, sigma_y_constraint
    valve = preset_models()["valve_constrained_narx"].model
    c, b = sigma_y_constraint(valve.process_terms)
    preset_sum = float(np.asarray(c) @ np.asarray(valve.theta))
    rng2 = np.random.default_rng(1)
    psi2 = rng2.standard_normal((300, len(valve.theta)))
    y2 = psi2 @ np.asarray(valve.theta) + 0.1 * rng2.standard_normal(300)
    fit = constrained_ls_estimate(psi2, y2, [(c, b)])
    constraint_err = abs(float(np.asarray(c) @ fit.theta) - 1.0)
    cons_ok = constraint_err < 1e-10 and abs(preset_sum - 1.0) < 1e-12

    ok = ortho_ok and els_ok and cons_ok
    detail = (f"estimators: LS orthogonality {ortho:.2e} < 1e-8: {ortho_ok}; "
              f"ELS beats LS over 100 ARMAX trials ({els_err / 100:.4f} vs "
              f"{ls_err / 100:.4f}): {els_ok}; unit-sum constraint error "
              f"{constraint_err:.2e} and published sum {preset_sum}: {cons_ok}")
    assert report(5, ok, detail), detail


def test_criterion_6_frols_oracle_equivalence():
    systems = [
        ((term((U, 1, 1)),), (2.0,)),
        ((term((Y, 1, 1)), term((U, 1, 1))), (0.5, 1.0)),
        ((term((Y, 1, 1)), term((U, 2, 1)), term((Y, 2, 1))), (0.4, 0.8, -0.2)),
        ((term((Y, 1, 1)), term((U, 1, 1)), term((U, 1, 1), (U, 2, 1)),
          term((Y, 2, 2))), (0.3, 1.2, 0.5, -0.1)),
    ]
    cs = generate_candidates(2, 2, 2)
    assert len(cs.terms) <= 20
    all_ok = True
    details = []
    for true_terms, theta in systems:
        rng = np.random.default_rng(13)
        u = rng.uniform(-1, 1, 800)
        yv = np.zeros(800)
        p = max(t.max_lag for t in true_terms)
        for k in range(p, 800):
            acc = 0.0
            for th, t in zip(theta, true_terms):
                val = th
                for var, lag, exp in t.factors:
                    sig = yv if var is Y else u
                    val *= sig[k - lag] ** exp
                acc += val
            yv[k] = acc
        data = TimeSeriesData(u, yv, ts=1.0)
        psi, y_s = build_regression(cs, data)
        ranking = frols_rank(cs, psi, y_s)
        k_true = len(true_terms)
        first_ok = set(ranking.ordered_terms[:k_true]) == set(true_terms)
        cum_ok = ranking.cumulative_err[k_true - 1] > 1.0 - 1e-8
        # brute-force single-term ERR maximization for the first pick
        errs = [(float(psi[:, j] @ y_s) ** 2) / (float(psi[:, j] @ psi[:, j]) * float(y_s @ y_s))
                for j in range(psi.shape[1])]
        brute_ok = ranking.ordered_terms[0] == cs.terms[int(np.argmax(errs))]
        all_ok = all_ok and first_ok and cum_ok and brute_ok
        details.append(f"{k_true}-term: rank {first_ok}, cumulative {cum_ok}, "
                       f"greedy-first {brute_ok}")
    detail = "FROLS oracle equivalence on 4 synthetic systems: " + "; ".join(details)
    assert report(6, all_ok, detail), detail


def test_criterion_7_numerics():
    sos = InputDesignSpec((0.005,), (1000,), (0.5,), (0.1,), sample_rate=1.0).sections[0]
    _, h = scipy.signal.sosfreqz(sos, worN=np.atleast_1d(0.005), fs=1.0)
    cut_err = abs(np.abs(h)[0] - 1 / np.sqrt(2))
    dc_err = abs(float(np.prod(sos[:, :3].sum(axis=1) / sos[:, 3:].sum(axis=1))) - 1.0)
    filter_ok = cut_err < 1e-3 and dc_err < 1e-6

    import dataclasses as dc

    def run(dt):
        params = dc.replace(VALVE_BOUC_WEN, dt=dt)
        n = int(round(0.4 / dt)) + 1
        t = np.arange(n) * dt
        u = np.sin(np.pi * t)
        return simulate_bouc_wen(params, u, u_dot=lambda x: np.pi * np.cos(np.pi * x)).h[-1]

    ref = run(1e-4)
    errors = [abs(run(dt) - ref) for dt in (4e-2, 2e-2, 1e-2)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    rk4_ok = float(np.min(orders)) >= 3.8

    y = simulate_hammerstein(HEATING_SYSTEM, np.ones(5000))
    closed_form = HEATING_SYSTEM.static_gain(1.0)
    ss_err = abs(y[-1] - closed_form)
    ss_ok = ss_err < 1e-6 and abs(closed_form - 0.498) < 5e-4

    ok = filter_ok and rk4_ok and ss_ok
    detail = (f"numerics: Butterworth cutoff error {cut_err:.1e}, DC error "
              f"{dc_err:.1e}: {filter_ok}; RK4 measured order "
              f"{float(np.min(orders)):.2f} >= 3.8: {rk4_ok}; Hammerstein steady "
              f"state error {ss_err:.1e} vs closed form 0.498: {ss_ok}")
    assert report(7, ok, detail), detail


def test_criterion_8_presets_hold_and_composition():
    presets = preset_models()
    narx_names = ["heating_narx", "pzt_narx", "valve_constrained_narx",
                  "valve_compensation_narx", "valve_inverse_narx"]
    sim_ok = True
    freq = 0.1
    for name in narx_names:
        m = presets[name].model
        n = int(round(3 / freq / m.ts))
        amp, off = (0.2, 0.5) if name == "heating_narx" else (0.25, 3.0)
        drive = sine_input(amp, freq, 0.0, off, n, m.ts)
        sim = free_run_simulate(m, drive, np.full(m.max_output_lag, drive[0] if
                                                  m.direction == "inverse" else 0.0),
                                bound=1e9)
        sim_ok = sim_ok and not sim.diverged
    bw_n = int(round(3 / freq / VALVE_BOUC_WEN.dt))
    bw_u = sine_input(0.45, freq, np.pi / 4, 3.0, bw_n, VALVE_BOUC_WEN.dt)
    bw = simulate_bouc_wen(VALVE_BOUC_WEN, bw_u)
    sim_ok = sim_ok and not bw.diverged

    # hold property of the unit-sum valve model: input ramps then stops
    valve = presets["valve_constrained_narx"].model
    u_hold = np.r_[np.linspace(0.2, 0.5, 100), np.full(300, 0.5)]
    hold = free_run_simulate(valve, u_hold, y_init=[0.2, 0.2], bound=1e9)
    drift = float(np.max(np.abs(np.diff(hold.y[120:]))))
    hold_ok = drift < 1e-6

    # forward-inverse composition: valve Bouc-Wen output through the
    # inverse model recovers an input inside the excitation band
    inverse = presets["valve_inverse_narx"].model
    rec = run_inverse_model(inverse, bw.y, u_init=bw_u[:2])
    width = bw_u.max() - bw_u.min()
    tail = rec.y[len(rec.y) // 3:]
    band_ok = (not rec.diverged) and bool(
        np.all(tail > bw_u.min() - 0.25 * width) and
        np.all(tail < bw_u.max() + 0.25 * width)
    )

    ok = sim_ok and hold_ok and band_ok
    detail = (f"presets: all six published models simulate 3 periods without "
              f"divergence: {sim_ok}; unit-sum hold drift {drift:.1e} < 1e-6: "
              f"{hold_ok}; forward-inverse composition stays in the excitation "
              f"band (+/-25% margin): {band_ok}")
    assert report(8, ok, detail), detail
