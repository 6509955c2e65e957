"""Command-line pipeline: train, simulate, reduce, plotdata, experiment.

Exit codes are a stable scripting contract: 0 on success, 2 on input or
validation errors, 1 on internal errors.  Every command is idempotent:
identical inputs and seed produce byte-identical output files: demand
is summed in fixed 4096-agent chunks (market.CHUNK_SIZE) in one thread, so
``--workers`` / ``AMR_WORKERS`` is validated but changes no output.
Every output file is written whole or not at all (write_atomically).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import learner, market, reducer
from .learner import AnnealingSchedule, ParameterVector
from .presets import weekdays
from .timeseries import (TimeSeries, check_aligned, json_boolean, json_integer, json_number, known_keys,
                         load_csv, mape, parse_date, parsed_fields, read_json, save_csv, split, write_atomically,
                         write_dated_csv, write_json)

# simulate's first date when --horizon is given without --start-date.
DEFAULT_START_DATE = "2000-01-03"


def _check_workers(args: argparse.Namespace) -> None:
    if args.workers is not None:
        n = args.workers
    else:
        raw = os.environ.get("AMR_WORKERS", "1")
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"AMR_WORKERS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")


def _schedule_from_args(args: argparse.Namespace) -> AnnealingSchedule:
    flags = {"initial_temperature": args.initial_temp, "cooling_factor": args.cooling,
             "proposals_per_epoch": args.per_epoch, "total_evaluations": args.evaluations,
             "proposal_sigma": args.sigma, "replications": args.train_replications}
    return AnnealingSchedule(**{name: v for name, v in flags.items() if v is not None})


def _load_params(path: str | Path, config: market.MarketConfig) -> ParameterVector:
    """The fit file's parameter vector for `config`; every error names `path`, as read_json's do."""
    data = read_json(path, "parameter file")
    try:
        return learner.params_from_fit_dict(data, config.type_names)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _run_inputs(data: str | Path, boundary: str, config_path: str | Path,
                seed: int | None) -> tuple[TimeSeries, TimeSeries, market.MarketConfig]:
    """(train, test, config): the series split after `boundary`, the config under `seed` (None keeps its own)."""
    train, test = split(load_csv(data), parse_date(boundary))
    config = market.load_config(config_path)
    if seed is not None:
        config = replace(config, master_seed=seed)
    return train, test, config


def _writable_dir(path: Path, name: str) -> Path:
    """Create directory `path` if need be, before any long run; raise naming it `name` unless it is writable."""
    path.mkdir(parents=True, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise PermissionError(f"{name} is not writable: {path}")
    return path


# -- subcommands ----------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if not out.parent.is_dir():  # before the anneal, which can take a minute
        raise FileNotFoundError(f"--out directory not found: {out.parent}")
    if out.is_dir():
        raise IsADirectoryError(f"--out is a directory, not a file: {out}")
    if not os.access(out.parent, os.W_OK):
        raise PermissionError(f"--out directory is not writable: {out.parent}")
    train, _test, config = _run_inputs(args.data, args.split, args.config, args.seed)
    schedule = _schedule_from_args(args)

    fit = learner.anneal(train, config, schedule, seed=config.master_seed)
    write_json(out, learner.fit_to_dict(fit))
    print(f"train MAPE: {100 * fit.best_energy:.2f}% ({fit.evaluations} evaluations) -> {args.out}")
    return 0


def _window_flags(args: argparse.Namespace) -> None:
    """Raise, naming the flags, unless simulate's window is --dates-from alone or --horizon N >= 1."""
    if args.dates_from:
        for flag, value in (("--horizon", args.horizon), ("--start-date", args.start_date)):
            if value is not None:
                raise ValueError(f"{flag} {value} conflicts with --dates-from: the CSV's dates set the window")
    elif args.horizon is None:
        raise ValueError("need --horizon N (with optional --start-date) or --dates-from CSV")
    elif args.horizon < 1:
        raise ValueError(f"--horizon must be >= 1, got {args.horizon}")


def cmd_simulate(args: argparse.Namespace) -> int:
    _window_flags(args)
    config = market.load_config(args.config)
    if args.params:
        config = _load_params(args.params, config).apply(config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)

    if args.dates_from:
        dates = load_csv(args.dates_from).dates
    else:
        start = DEFAULT_START_DATE if args.start_date is None else args.start_date
        dates = weekdays(parse_date(start), args.horizon)

    run = market.simulate_pk(config, args.p0, len(dates), dates)
    save_csv(run.predicted, args.out)
    print(
        f"simulated {len(dates)} days from {run.predicted.values[0]} "
        f"to {run.predicted.values[-1]:.4f} (seed {config.master_seed}) -> {args.out}"
    )
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    reducer.check_settings(args.tolerance, args.replications, "--")
    train, test, config = _run_inputs(args.data, args.split, args.config, args.seed)
    params = _load_params(args.params, config)

    target = test
    if args.p0_from_train:
        # Re-anchor the test window to continue from the last training price.
        target = TimeSeries((train.dates[-1],) + test.dates, (train.values[-1],) + test.values)

    out_dir = _writable_dir(Path(args.out), "--out directory")
    _reduce_and_write(config, params, target, args.tolerance, args.replications, args.exhaustive, out_dir)
    print(f"-> {out_dir / 'reduction.json'}, {out_dir / 'reduction.txt'}")
    return 0


def _reduce_and_write(config: market.MarketConfig, params: ParameterVector, target: TimeSeries,
                      tolerance: float, replications: int, exhaustive: bool, out_dir: Path) -> None:
    """Greedy reduction, plus the oracle if asked, to reduction.json and reduction.txt."""
    # The oracle scores every subset in one batch; greedy then reads its scores from the memo.
    oracle = reducer.exhaustive_reduce(config, params, target, replications=replications) if exhaustive else None
    report = reducer.greedy_reduce(config, params, target, tolerance=tolerance, replications=replications)
    payload = report.to_dict()
    table = report.format_table()
    if oracle is not None:
        payload["exhaustive"] = oracle.to_dict()
        table += "\n\n" + oracle.format_table(report)
    write_json(out_dir / "reduction.json", payload)
    write_atomically(out_dir / "reduction.txt", table + "\n")
    print(table)


def cmd_plotdata(args: argparse.Namespace) -> int:
    actual = load_csv(args.actual)
    predicted = load_csv(args.predicted)
    check_aligned(actual, predicted)
    write_dated_csv(args.out, "date,actual,predicted", actual.dates, actual.values, predicted.values)
    print(f"wrote {len(actual)} rows -> {args.out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    spec = read_json(spec_path, "experiment spec")
    if not isinstance(spec, dict) or not isinstance(spec.get("schedule", {}), dict):
        raise ValueError("experiment spec and its schedule must be JSON objects")
    known_keys(spec, ("data", "split", "market_config", "schedule", "tolerance", "replications",
                      "seed", "exhaustive", "out_dir"), "experiment spec")
    for key in ("data", "split", "market_config"):
        if key not in spec:
            raise ValueError(f"experiment spec missing {key!r}")

    base = spec_path.parent

    def _resolve(key: str, default: str | None = None) -> Path:
        p = spec.get(key, default)
        if not isinstance(p, str):
            raise ValueError(f"experiment spec {key} must be a path string, got {p!r}")
        path = Path(p)
        return path if path.is_absolute() else base / path

    data_path, config_path = _resolve("data"), _resolve("market_config")
    out_dir = _resolve("out_dir", "experiment-out")  # checked even when --out overrides it
    if args.out:
        out_dir = Path(args.out)

    # Every field is checked before out_dir is created or the anneal starts.
    def _field(key: str, parse, default):
        return parse(spec.get(key, default), f"experiment spec {key}")

    boundary = spec["split"]
    if not isinstance(boundary, str):
        raise ValueError(f"experiment spec split must be an ISO date string, got {boundary!r}")
    seed = json_integer(spec["seed"], "experiment spec seed") if "seed" in spec else None
    train, test, config = _run_inputs(data_path, boundary, config_path, seed)

    overrides = spec.get("schedule", {})
    known_keys(overrides, (f.name for f in fields(AnnealingSchedule)), "experiment spec schedule")
    schedule = AnnealingSchedule(**parsed_fields(AnnealingSchedule, overrides, "experiment spec schedule."))

    tolerance = _field("tolerance", json_number, reducer.DEFAULT_TOLERANCE)
    replications = _field("replications", json_integer, reducer.DEFAULT_REPLICATIONS)
    reducer.check_settings(tolerance, replications, "experiment spec ")
    exhaustive = _field("exhaustive", json_boolean, False)
    _writable_dir(out_dir, "out_dir")

    # train
    fit = learner.anneal(train, config, schedule, seed=config.master_seed)
    write_json(out_dir / "fit.json", learner.fit_to_dict(fit))
    print(f"train MAPE: {100 * fit.best_energy:.2f}%")

    # simulate the full model over the test window
    fitted = fit.best_params.apply(config)
    run = market.simulate_pk(fitted, p0=test.values[0], horizon=len(test), dates=test.dates)
    save_csv(run.predicted, out_dir / "prediction.csv")
    test_full = mape(test, run.predicted)
    print(f"test MAPE (full set, seed {config.master_seed}): {100 * test_full:.2f}%")

    _reduce_and_write(
        config, fit.best_params, test, tolerance, replications, exhaustive or args.exhaustive, out_dir
    )
    write_dated_csv(out_dir / "plotdata.csv", "date,actual,predicted",
                    test.dates, test.values, run.predicted.values)
    print(f"artifacts in {out_dir}")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amr",
        description="Agent-based market simulation, annealing calibration, and model reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=int, default=None,
                         help="worker count, validated but changes no output: simulation runs in "
                              "one thread (default: AMR_WORKERS env var or 1)")
    run_inputs = argparse.ArgumentParser(add_help=False)
    run_inputs.add_argument("--data", required=True, help="target CSV (date,value)")
    run_inputs.add_argument("--split", required=True, help="last training date (ISO)")
    run_inputs.add_argument("--config", required=True, help="market config JSON")
    run_inputs.add_argument("--seed", type=int, default=None, help="seed (default: config master_seed)")

    p = sub.add_parser("train", help="fit market parameters to the training window", parents=[run_inputs, workers])
    p.add_argument("--out", required=True, help="output fit JSON")
    p.add_argument("--evaluations", type=int, default=None, help="total energy evaluations")
    p.add_argument("--initial-temp", type=float, default=None)
    p.add_argument("--cooling", type=float, default=None)
    p.add_argument("--per-epoch", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--train-replications", type=int, default=None,
                   help="simulations averaged per energy")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run a partial-knowledge simulation", parents=[workers])
    p.add_argument("--config", required=True)
    p.add_argument("--params", default=None, help="fit JSON to apply (optional)")
    p.add_argument("--p0", type=float, required=True, help="starting price")
    p.add_argument("--horizon", type=int, default=None, help="number of days to simulate")
    p.add_argument("--start-date", default=None,
                   help=f"first date when using --horizon (default: {DEFAULT_START_DATE})")
    p.add_argument("--dates-from", default=None, help="CSV whose dates define the window")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output prediction CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce", help="rank models and greedily reduce on the test window",
                       parents=[run_inputs, workers])
    p.add_argument("--params", required=True, help="fit JSON from `amr train`")
    p.add_argument("--tolerance", type=float, default=reducer.DEFAULT_TOLERANCE,
                   help="stop when within this MAPE fraction of the benchmark")
    p.add_argument("--replications", type=int, default=reducer.DEFAULT_REPLICATIONS)
    p.add_argument("--p0-from-train", action="store_true",
                   help="seed the test simulation from the last training value")
    p.add_argument("--exhaustive", action="store_true", help="also run the brute-force oracle")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("plotdata", help="merge actual and predicted series for plotting", parents=[workers])
    p.add_argument("--actual", required=True)
    p.add_argument("--predicted", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("experiment", help="train, simulate, reduce, plotdata from one spec file",
                       parents=[workers])
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--out", default=None, help="output directory (overrides spec out_dir)")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_workers(args)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - exit-code contract
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
