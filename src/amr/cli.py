"""Command-line pipeline: train, simulate, reduce, plotdata, experiment.

Exit codes are a stable scripting contract: 0 on success, 2 on input or
validation errors, 1 on internal errors.  Every command is idempotent:
identical inputs and seed produce byte-identical output files, for any
worker count (``--workers`` / the ``AMR_WORKERS`` environment variable,
validated but unused: the simulation is single-threaded and batched).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

from . import learner, market, reducer
from .learner import AnnealingSchedule, ParameterVector
from .presets import weekdays
from .timeseries import SplitSpec, TimeSeries, load_csv, mape, save_csv, split


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


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"bad date {text!r} (want ISO-8601, e.g. 2008-12-31)") from None


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _schedule_from_args(args: argparse.Namespace) -> AnnealingSchedule:
    flags = {"initial_temperature": args.initial_temp, "cooling_factor": args.cooling,
             "proposals_per_epoch": args.per_epoch, "total_evaluations": args.evaluations,
             "proposal_sigma": args.sigma, "replications": args.train_replications}
    return AnnealingSchedule(**{name: v for name, v in flags.items() if v is not None})


def _load_params(path: str | Path, config: market.MarketConfig) -> ParameterVector:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"parameter file not found: {path}")
    data = json.loads(path.read_text())
    return learner.params_from_fit_dict(data, config.type_names)


# -- subcommands ----------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    series = load_csv(args.data)
    train, _test = split(series, SplitSpec(_parse_date(args.split)))
    config = market.load_config(args.config)
    seed = args.seed if args.seed is not None else config.master_seed
    config = replace(config, master_seed=seed)
    schedule = _schedule_from_args(args)

    fit = learner.anneal(train, config, schedule, seed=seed)
    _write_json(learner.fit_to_dict(fit), Path(args.out))
    print(f"train MAPE: {100 * fit.best_energy:.2f}% ({fit.evaluations} evaluations) -> {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = market.load_config(args.config)
    if args.params:
        config = _load_params(args.params, config).apply(config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)

    if args.dates_from:
        dates = load_csv(args.dates_from).dates
    else:
        if args.horizon is None:
            raise ValueError("need --horizon N (with optional --start-date) or --dates-from CSV")
        dates = weekdays(_parse_date(args.start_date), args.horizon)

    run = market.simulate_pk(config, args.p0, len(dates), dates)
    save_csv(run.predicted, args.out)
    print(
        f"simulated {len(dates)} days from {run.predicted.values[0]} "
        f"to {run.predicted.values[-1]:.4f} (seed {run.seed_used}) -> {args.out}"
    )
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:
        raise ValueError(f"--tolerance must be >= 0, got {args.tolerance}")
    if args.replications < 1:
        raise ValueError(f"--replications must be >= 1, got {args.replications}")
    series = load_csv(args.data)
    train, test = split(series, SplitSpec(_parse_date(args.split)))
    config = market.load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    params = _load_params(args.params, config)

    target = test
    if args.p0_from_train:
        # Re-anchor the test window to continue from the last training price.
        target = TimeSeries((train.dates[-1],) + test.dates, (train.values[-1],) + test.values)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _reduce_and_write(config, params, target, args.tolerance, args.replications, args.exhaustive, out_dir)
    print(f"-> {out_dir / 'reduction.json'}, {out_dir / 'reduction.txt'}")
    return 0


def _reduce_and_write(config: market.MarketConfig, params: ParameterVector, target: TimeSeries,
                      tolerance: float, replications: int, exhaustive: bool, out_dir: Path) -> None:
    """Greedy reduction, plus the oracle if asked, to reduction.json and reduction.txt."""
    report = reducer.greedy_reduce(config, params, target, tolerance=tolerance, replications=replications)
    payload = report.to_dict()
    table = report.format_table()
    if exhaustive:
        oracle = reducer.exhaustive_reduce(config, params, target, replications=replications)
        payload["exhaustive"] = oracle.to_dict()
        table += "\n\n" + _format_exhaustive(oracle, report)
    _write_json(payload, out_dir / "reduction.json")
    (out_dir / "reduction.txt").write_text(table + "\n")
    print(table)


def _format_exhaustive(oracle: reducer.ExhaustiveReport, report: reducer.ReductionReport) -> str:
    lines = ["exhaustive subsets (oracle)"]
    width = max(len("{" + ", ".join(ms.member_names) + "}") for ms, _ in oracle.table)
    for ms, score in oracle.table:
        label = "{" + ", ".join(ms.member_names) + "}"
        lines.append(f"{label.ljust(width)}  {score.as_percent()}")
    size = len(report.reduced_set)
    best_set, best_score = oracle.best_by_size[size]
    greedy_score = report.selection_trace[-1][1]
    lines.append(
        f"best size-{size} subset: {{{', '.join(best_set.member_names)}}} at {best_score.as_percent()}"
        f"; greedy chose {{{', '.join(report.reduced_set.member_names)}}} at {greedy_score.as_percent()}"
    )
    return "\n".join(lines)


def cmd_plotdata(args: argparse.Namespace) -> int:
    actual = load_csv(args.actual)
    predicted = load_csv(args.predicted)
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: actual {len(actual)} vs predicted {len(predicted)} rows")
    for i, (a, p) in enumerate(zip(actual.dates, predicted.dates)):
        if a != p:
            raise ValueError(f"date mismatch at row {i}: actual {a} vs predicted {p}")
    _write_plotdata(actual, predicted, Path(args.out))
    print(f"wrote {len(actual)} rows -> {args.out}")
    return 0


def _write_plotdata(actual: TimeSeries, predicted: TimeSeries, path: Path) -> None:
    """`date,actual,predicted` rows; the two series share their dates."""
    with path.open("w", newline="") as fh:
        fh.write("date,actual,predicted\n")
        for d, a, p in zip(actual.dates, actual.values, predicted.values):
            fh.write(f"{d.isoformat()},{a!r},{p!r}\n")


def cmd_experiment(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise FileNotFoundError(f"experiment spec not found: {spec_path}")
    spec = json.loads(spec_path.read_text())
    if not isinstance(spec, dict) or not isinstance(spec.get("schedule", {}), dict):
        raise ValueError("experiment spec and its schedule must be JSON objects")
    for key in ("data", "split", "market_config"):
        if key not in spec:
            raise ValueError(f"experiment spec missing {key!r}")

    base = spec_path.parent

    def _resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    out_dir = Path(args.out) if args.out else _resolve(spec.get("out_dir", "experiment-out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    series = load_csv(_resolve(spec["data"]))
    boundary = _parse_date(str(spec["split"]))
    train, test = split(series, SplitSpec(boundary))
    def _field(key: str, parse, default):
        return parse(spec.get(key, default), f"experiment spec {key}")

    config = market.load_config(_resolve(spec["market_config"]))
    seed = _field("seed", market._integer, config.master_seed)
    config = replace(config, master_seed=seed)

    overrides = spec.get("schedule", {})
    parsers = {f.name: market._integer if isinstance(f.default, int) else market._number
               for f in fields(AnnealingSchedule)}
    unknown = set(overrides) - set(parsers)
    if unknown:
        raise ValueError(f"unknown schedule override(s): {sorted(unknown)}")
    schedule = AnnealingSchedule(
        **{k: parsers[k](v, f"experiment spec schedule.{k}") for k, v in overrides.items()}
    )

    tolerance = _field("tolerance", market._number, reducer.DEFAULT_TOLERANCE)
    replications = _field("replications", market._integer, reducer.DEFAULT_REPLICATIONS)
    exhaustive = spec.get("exhaustive", False)
    if not isinstance(exhaustive, bool):
        raise ValueError(f"experiment spec exhaustive must be true or false, got {exhaustive!r}")

    # train
    fit = learner.anneal(train, config, schedule, seed=seed)
    _write_json(learner.fit_to_dict(fit), out_dir / "fit.json")
    print(f"train MAPE: {100 * fit.best_energy:.2f}%")

    # simulate the full model over the test window
    fitted = fit.best_params.apply(config)
    run = market.simulate_pk(fitted, p0=test.values[0], horizon=len(test), dates=test.dates)
    save_csv(run.predicted, out_dir / "prediction.csv")
    test_full = mape(test, run.predicted)
    print(f"test MAPE (full set, seed {seed}): {100 * test_full:.2f}%")

    _reduce_and_write(
        config, fit.best_params, test, tolerance, replications, exhaustive or args.exhaustive, out_dir
    )
    _write_plotdata(test, run.predicted, out_dir / "plotdata.csv")
    print(f"artifacts in {out_dir}")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amr",
        description="Agent-based market simulation, annealing calibration, and model reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workers(p):
        p.add_argument("--workers", type=int, default=None,
                       help="worker count, validated but unused: simulation is single-threaded "
                            "and batched (default: AMR_WORKERS env var or 1)")

    p = sub.add_parser("train", help="fit market parameters to the training window")
    p.add_argument("--data", required=True, help="target CSV (date,value)")
    p.add_argument("--split", required=True, help="last training date (ISO)")
    p.add_argument("--config", required=True, help="market config JSON")
    p.add_argument("--seed", type=int, default=None, help="seed (default: config master_seed)")
    p.add_argument("--out", required=True, help="output fit JSON")
    p.add_argument("--evaluations", type=int, default=None, help="total energy evaluations")
    p.add_argument("--initial-temp", type=float, default=None)
    p.add_argument("--cooling", type=float, default=None)
    p.add_argument("--per-epoch", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--train-replications", type=int, default=None,
                   help="simulations averaged per energy")
    add_workers(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run a partial-knowledge simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--params", default=None, help="fit JSON to apply (optional)")
    p.add_argument("--p0", type=float, required=True, help="starting price")
    p.add_argument("--horizon", type=int, default=None, help="number of days to simulate")
    p.add_argument("--start-date", default="2000-01-03", help="first date when using --horizon")
    p.add_argument("--dates-from", default=None, help="CSV whose dates define the window")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output prediction CSV")
    add_workers(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce", help="rank models and greedily reduce on the test window")
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--params", required=True, help="fit JSON from `amr train`")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=reducer.DEFAULT_TOLERANCE,
                   help="stop when within this MAPE fraction of the benchmark")
    p.add_argument("--replications", type=int, default=reducer.DEFAULT_REPLICATIONS)
    p.add_argument("--p0-from-train", action="store_true",
                   help="seed the test simulation from the last training value")
    p.add_argument("--exhaustive", action="store_true", help="also run the brute-force oracle")
    p.add_argument("--out", required=True, help="output directory")
    add_workers(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("plotdata", help="merge actual and predicted series for plotting")
    p.add_argument("--actual", required=True)
    p.add_argument("--predicted", required=True)
    p.add_argument("--out", required=True)
    add_workers(p)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("experiment", help="train, simulate, reduce, plotdata from one spec file")
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--out", default=None, help="output directory (overrides spec out_dir)")
    p.add_argument("--exhaustive", action="store_true")
    add_workers(p)
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
