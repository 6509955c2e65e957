#!/usr/bin/env python3
"""Reduction case study on the two bundled asset distributions.

For each market the script prints the benchmark error, the all-disabled
constant baseline, every singleton model, and the greedily reduced set,
then the exhaustive-subset oracle's table, which cross-checks the greedy
pick against the best subset of its size.

By default the generator's own parameters score the subsets (fast).
Pass --train to fit parameters by simulated annealing first.

Usage: python scripts/run_reduction_study.py [--train] [--days 390] [--replications 10]
"""

from __future__ import annotations

import argparse

from amr.learner import AnnealingSchedule, ParameterVector, anneal
from amr.presets import balanced_config, bank_dominated_config, synthetic_target
from amr.reducer import exhaustive_reduce, greedy_reduce
from amr.rng import substream


def study(name, config, seed, days, replications, train_evals):
    print(f"== {name} ==")
    target = synthetic_target(config, seed=substream(seed, 0), n_days=days)
    if train_evals:
        schedule = AnnealingSchedule(total_evaluations=train_evals)
        fit = anneal(target, config, schedule, seed=seed)
        params = fit.best_params
        print(f"trained {train_evals} evaluations, train MAPE {100 * fit.best_energy:.2f}%")
    else:
        params = ParameterVector.from_config(config)

    # The oracle scores every subset in one batch; greedy reads them from the memo.
    oracle = exhaustive_reduce(config, params, target, replications=replications)
    report = greedy_reduce(config, params, target, replications=replications)
    print(report.format_table())
    print(f"singleton ranking: {' > '.join(report.ranking)}")
    print(oracle.format_table(report) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train", action="store_true", help="fit parameters before reducing")
    parser.add_argument("--train-evaluations", type=int, default=1500)
    parser.add_argument("--days", type=int, default=390)
    parser.add_argument("--replications", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    evals = args.train_evaluations if args.train else 0
    study("bank-dominated assets", bank_dominated_config(args.seed), args.seed,
          args.days, args.replications, evals)
    study("balanced heavyweights", balanced_config(args.seed), args.seed,
          args.days, args.replications, evals)


if __name__ == "__main__":
    main()
