"""Monte Carlo study of noise robustness on the heating benchmark.

Repeats the whole pipeline — input design, simulation, noise injection,
structure selection, estimation — at several output-noise ratios with
independent seeds, then scores every identified model by free-run MAPE
on one fixed noise-free validation record.  Mean and spread per ratio
show how predictive capacity degrades as the data get noisier.
"""

from narxident import heating_experiment, monte_carlo_noise_sweep


def main(ratios=(0.05, 0.1, 0.2, 0.3), trials=5, base_seed=0):
    config = heating_experiment()
    print(f"sweeping noise ratios {ratios} with {trials} trials each")

    report = monte_carlo_noise_sweep(config, ratios, trials, base_seed=base_seed)

    print(f"\n{'ratio':>6} {'mean MAPE %':>12} {'std':>10} {'failures':>9}")
    for r, m, s, f in zip(report.ratios, report.mape_mean,
                          report.mape_std, report.failures):
        print(f"{r:6.2f} {m:12.4f} {s:10.4f} {f:9d}")

    print("\nper-trial seeds are recorded in the report for exact replay:")
    for r, seeds in zip(report.ratios, report.seeds):
        print(f"  ratio {r:g}: seeds {list(seeds)}")
    return report


if __name__ == "__main__":
    main()
