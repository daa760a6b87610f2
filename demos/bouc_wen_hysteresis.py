"""Hysteresis identification on the piezoelectric Bouc-Wen benchmark.

Builds the hysteresis candidate dictionary over y, u, the input
difference phi1 = u(k) - u(k-1), and its sign phi2, applies the three
exclusion rules that remove regressors incapable of sustaining a
hysteresis loop, identifies a compact model, and checks that the model
traces a loop of positive area under a slow sinusoid (the shoelace
formula over the closed u-y curve).
"""

import numpy as np

from narxident import (
    bouc_wen_experiment,
    free_run_simulate,
    run_identification,
    sine_input,
)
from narxident.experiments import SYSTEMS


def loop_area(u, y):
    """Signed shoelace area of the closed curve (u(k), y(k))."""
    return 0.5 * float(np.sum(u * np.roll(y, -1) - np.roll(u, -1) * y))


def main(seed=0):
    config = bouc_wen_experiment()
    print(f"experiment: {config.system} — {SYSTEMS[config.system]}")
    print(f"pruned candidate dictionary: {len(config.candidates.terms)} terms")

    result = run_identification(config, seed=seed)
    print("\nselected model:")
    for t, th in zip(result.model.process_terms, result.model.theta):
        print(f"  {str(t):22s} theta = {th:+.7g}")

    # several periods of a slow sinusoid, long enough to settle onto the loop
    model = result.model
    ts = model.ts
    freq, amp, periods = 0.2, 40.0, 3
    n = int(round(periods / freq / ts))
    u = sine_input(amp, freq, 0.0, 0.0, n, ts)
    sim = free_run_simulate(model, u, y_init=np.zeros(model.max_output_lag))
    if sim.diverged:
        print("\nfree run diverged — no loop to report")
        return result

    # keep only the last period so the transient does not bias the area
    per = int(round(1.0 / freq / ts))
    area = loop_area(u[-per:], sim.y[-per:])
    print(f"\nloop area over the final period at {freq} Hz: {area:+.3f}")
    print("positive area = counterclockwise loop = energy-dissipating hysteresis")
    return result


if __name__ == "__main__":
    main()
