"""End-to-end identification of the Hammerstein heating benchmark.

Designs a two-segment low-frequency excitation over three operating
points, simulates the heating system, adds 5% output noise, ranks the
candidate dictionary by error reduction ratio, truncates with the Akaike
information criterion, re-estimates by extended least squares, and scores
a free-run prediction on fresh noise-free data.
"""

import numpy as np

from narxident import (
    heating_experiment,
    make_validation_data,
    run_identification,
    validate,
)
from narxident.experiments import SYSTEMS


def main(seed=1):
    config = heating_experiment()
    print(f"experiment: {config.system} — {SYSTEMS[config.system]}")
    print(f"candidate dictionary: {len(config.candidates.terms)} terms, "
          f"degree {config.degree}, lags y:1..{config.n_y} u:{config.tau_d}..{config.n_u}")

    result = run_identification(config, seed=seed)

    print("\ntop of the error-reduction-ratio ranking:")
    for t, e in zip(result.ranking.ordered_terms[:6], result.ranking.err_values[:6]):
        print(f"  {str(t):16s} ERR = {e:.6f}")
    cum = result.ranking.cumulative_err
    print(f"  cumulative ERR over first 3 terms: {cum[2]:.6f}")

    print(f"\ninformation-criterion minimum at {result.curve.argmin} terms")
    print("selected model:")
    for t, th in zip(result.model.process_terms, result.model.theta):
        print(f"  {str(t):16s} theta = {th:+.7f}")

    validation = make_validation_data(config, seed=seed)
    scored = validate(result.model, validation, mode="free_run")
    print(f"\nfree-run MAPE on fresh noise-free data: {scored.mape:.3f}%")

    one_step = validate(result.model, validation, mode="one_step")
    print(f"one-step MAPE on the same record:       {one_step.mape:.3f}%")
    return result


if __name__ == "__main__":
    main()
