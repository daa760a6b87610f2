"""The published pneumatic-valve models: hold property, constraint,
and forward-inverse composition.

The raw valve data are experimental and not distributed, so this demo
works with the published models themselves plus the Bouc-Wen valve
simulator fitted to that rig.  Three checks:

1. unit output-parameter sum — the constrained model's linear output
   parameters sum to one, which makes a constant input hold the output
   (no drift when the valve stops moving);
2. the hold property verified by simulation;
3. composing the direct model with the inverse model approximately
   recovers the excitation over the operating band.
"""

import numpy as np

from narxident import (
    free_run_simulate,
    mape,
    preset_models,
    run_inverse_model,
    sigma_y_constraint,
    sine_input,
)


def main():
    presets = preset_models()
    forward = presets["valve_constrained_narx"].model
    inverse = presets["valve_inverse_narx"].model
    ts = forward.ts

    # 1. unit sum over parameters of the plain y(k-tau) regressors, the
    # constraint the constrained estimator is given
    c, b = sigma_y_constraint(forward.process_terms)
    print(f"sum of linear output parameters: {c @ forward.theta:.6f} (constraint: {b:g})")

    # 2. hold property: constant input => phi1 = phi2 = 0 from the second
    # sample on, so the recursion reduces to the unit-sum output average
    u_hold = np.full(400, 0.5)
    sim = free_run_simulate(forward, u_hold, y_init=[0.3, 0.3])
    drift = float(np.max(np.abs(np.diff(sim.y[5:]))))
    print(f"hold drift under constant input: {drift:.2e} (expect < 1e-6)")

    # 3. forward-inverse composition on a slow sinusoid in the valve band
    n = int(round(3 / 0.1 / ts))  # three periods at 0.1 Hz
    u = sine_input(0.25, 0.1, 0.0, 0.5, n, ts)
    y = free_run_simulate(forward, u, y_init=[0.5, 0.5]).y
    u_rec = run_inverse_model(inverse, y, u_init=u[:2]).y
    per = int(round(1 / 0.1 / ts))
    err = mape(u[-per:], u_rec[-per:])
    print(f"input recovered by the inverse model: MAPE {err:.2f}% over the final period")

    print("\nall published models, simulated for three slow periods:")
    for name, entry in sorted(presets.items()):
        if entry.model is None:
            continue
        m = entry.model
        drive = y if m.direction == "inverse" else u
        init = np.full(m.max_output_lag, drive[0] if m.direction == "inverse" else 0.0)
        tail = free_run_simulate(m, drive[:3 * per], init)
        status = "diverged" if tail.diverged else f"final y = {tail.y[-1]:+.4f}"
        print(f"  {name:24s} {status}")


if __name__ == "__main__":
    main()
