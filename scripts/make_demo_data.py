#!/usr/bin/env python3
"""Generate a self-contained demo workspace: configs, target CSV, experiment spec.

Usage: python scripts/make_demo_data.py [--out demo] [--days 390] [--seed 7]

The target series is produced by the bundled bank-dominated market, so
the full pipeline (train, reduce, plotdata) has a known ground truth.
Swap in a real index CSV (date,close) to run against market data.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from amr.market import save_config
from amr.presets import balanced_config, bank_dominated_config, synthetic_target
from amr.rng import substream
from amr.timeseries import save_csv, write_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="output directory")
    parser.add_argument("--days", type=int, default=390)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg_a = bank_dominated_config(master_seed=args.seed)
    cfg_b = balanced_config(master_seed=args.seed)
    save_config(cfg_a, out / "config_bank_dominated.json")
    save_config(cfg_b, out / "config_balanced.json")

    # Generator seed is a substream so a fresh fit can match it closely.
    target = synthetic_target(cfg_a, seed=substream(args.seed, 0), n_days=args.days)
    save_csv(target, out / "target.csv")

    boundary = target.dates[len(target) // 2]
    spec = {
        "data": "target.csv",
        "split": boundary.isoformat(),
        "market_config": "config_bank_dominated.json",
        "schedule": {"total_evaluations": 1500},
        "tolerance": 0.005,
        "replications": 10,
        "seed": args.seed,
        "out_dir": "results",
    }
    write_json(out / "experiment.json", spec)

    print(f"wrote {out}/config_bank_dominated.json, config_balanced.json, target.csv, experiment.json")
    print(f"next: amr experiment --spec {out}/experiment.json")


if __name__ == "__main__":
    main()
