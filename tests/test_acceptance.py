"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 2 checks
real index data when AMR_SP500_CSV points at a close-price CSV covering
2008-01-03 .. 2010-08-20; otherwise it runs the synthetic fallback.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from datetime import date

import numpy as np

from amr import market, reducer
from amr.cli import main
from amr.learner import AnnealingSchedule, anneal
from amr.market import InvestorType, MarketConfig, save_config, simulate_pk
from amr.presets import bank_dominated_config, synthetic_target, weekdays
from amr.reducer import evaluate_subset, exhaustive_reduce, greedy_reduce, rank_models
from amr.rng import substream
from amr.timeseries import TimeSeries, load_csv, mape, save_csv, split

TOLERANCE = 0.005  # reduction stopping tolerance, MAPE fraction
REPLICATIONS = 10


@contextmanager
def criterion(number: int, name: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL ({time.time() - started:.1f}s)")
        raise
    print(f"\n[criterion {number}] {name}: PASS ({time.time() - started:.1f}s)")


def random_series(rng: np.random.Generator, n: int) -> TimeSeries:
    values = rng.uniform(50.0, 200.0, size=n)
    return TimeSeries(weekdays(date(2009, 1, 2), n), tuple(float(v) for v in values))


def test_criterion_1_mape_exactness():
    with criterion(1, "MAPE exactness and scale invariance"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            x = random_series(rng, int(rng.integers(1, 40)))
            assert mape(x, x) == 0.0

        actual = TimeSeries(weekdays(date(2009, 1, 2), 2), (100.0, 200.0))
        predicted = TimeSeries(weekdays(date(2009, 1, 2), 2), (110.0, 180.0))
        assert abs(mape(actual, predicted) - 0.10) <= 1e-12

        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = random_series(rng, n)
            y = random_series(rng, n)
            c = float(rng.uniform(1e-3, 1e3))
            cx = TimeSeries(x.dates, tuple(c * v for v in x.values))
            cy = TimeSeries(y.dates, tuple(c * v for v in y.values))
            assert abs(mape(cx, cy) - mape(x, y)) <= 1e-12


def test_criterion_2_constant_baseline(cfg_a, params_a, target_a):
    real_csv = os.environ.get("AMR_SP500_CSV")
    label = "constant baseline vs reference (real data)" if real_csv else \
        "constant baseline (synthetic fallback)"
    with criterion(2, label):
        if real_csv:
            series = load_csv(real_csv)
            _train, test = split(series, date(2008, 12, 31))
            assert test.start >= date(2009, 1, 1)
            score = evaluate_subset((), params_a, cfg_a, test, replications=REPLICATIONS)
            # 13.14% reported for this window; +/- 1.5pp covers vendor
            # and starting-point conventions.
            assert abs(score.mean - 0.1314) <= 0.015, f"got {100 * score.mean:.2f}%"
            assert score.std == 0.0
        else:
            score = evaluate_subset((), params_a, cfg_a, target_a, replications=REPLICATIONS)
            assert score.std == 0.0
            assert score.mean > 0.0


def test_criterion_3_annealing_recoverability():
    with criterion(3, "annealing recoverability at default schedule"):
        config = bank_dominated_config(master_seed=4242)
        target = synthetic_target(config, seed=substream(4242, 0), n_days=250)
        fit = anneal(target, config, AnnealingSchedule(), seed=7)
        assert fit.evaluations == 5000
        assert all(a >= b for a, b in zip(fit.energy_trace, fit.energy_trace[1:]))
        assert fit.best_energy <= 0.02, f"train MAPE {100 * fit.best_energy:.2f}% > 2%"


def test_criterion_4_greedy_vs_exhaustive(cfg_a, params_a, target_a, cfg_b, params_b, target_b):
    with criterion(4, "greedy matches the exhaustive oracle"):
        for cfg, params, target in ((cfg_a, params_a, target_a), (cfg_b, params_b, target_b)):
            report = greedy_reduce(cfg, params, target, tolerance=TOLERANCE,
                                   replications=REPLICATIONS)
            oracle = exhaustive_reduce(cfg, params, target, replications=REPLICATIONS)
            assert len(oracle.table) == 15

            size = len(report.reduced_set)
            greedy_mean = report.selection_trace[-1][1].mean
            best_mean = oracle.best_by_size[size][1].mean
            assert greedy_mean <= best_mean + TOLERANCE, (
                f"greedy {greedy_mean:.4f} vs oracle {best_mean:.4f} at size {size}"
            )

            ranking = rank_models(cfg, params, target, replications=REPLICATIONS)
            assert oracle.best_by_size[1][0].member_names == (ranking[0][0],)


def test_criterion_5_qualitative_reduction(cfg_a, params_a, target_a, cfg_b, params_b, target_b):
    with criterion(5, "dominated market needs one model, balanced needs two"):
        report_a = greedy_reduce(cfg_a, params_a, target_a, tolerance=TOLERANCE,
                                 replications=REPLICATIONS)
        banks = report_a.singletons["Banks"].mean
        others = [s.mean for n, s in report_a.singletons.items() if n != "Banks"]
        assert banks < min(others)
        assert report_a.reduced_set.member_names == ("Banks",)

        report_b = greedy_reduce(cfg_b, params_b, target_b, tolerance=TOLERANCE,
                                 replications=REPLICATIONS)
        cutoff = report_b.benchmark.mean + TOLERANCE
        assert all(s.mean > cutoff for s in report_b.singletons.values()), \
            "a singleton unexpectedly reaches the benchmark"
        two_largest = sorted(cfg_b.types, key=lambda t: t.total_assets, reverse=True)[:2]
        assert set(report_b.reduced_set.member_names) == {t.name for t in two_largest}
        assert len(report_b.reduced_set) == 2


def test_criterion_6_determinism_under_parallelism(tmp_path, monkeypatch):
    with criterion(6, "bit-identical outputs for 1, 2, and 8 workers"):
        config = bank_dominated_config(master_seed=321)
        dates = weekdays(date(2009, 1, 2), 100)
        with monkeypatch.context() as m:
            m.setattr(market, "CHUNK_SIZE", 64)  # several chunks on 500 agents
            runs = [simulate_pk(config, 100.0, 100, dates, workers=w) for w in (1, 2, 8)]
        for other in runs[1:]:
            assert other.predicted.values == runs[0].predicted.values
            assert other.demands == runs[0].demands

        target = synthetic_target(config, seed=substream(321, 0), n_days=160)
        save_csv(target, tmp_path / "target.csv")
        save_config(config, tmp_path / "config.json")
        spec = {
            "data": "target.csv",
            "split": target.dates[79].isoformat(),
            "market_config": "config.json",
            "schedule": {"total_evaluations": 40, "replications": 2},
            "tolerance": TOLERANCE,
            "replications": 5,
            "seed": 13,
        }
        (tmp_path / "experiment.json").write_text(json.dumps(spec))
        outputs = {}
        for w in (1, 2, 8):
            reducer._known_scores.cache_clear()  # simulate again, not from the memo
            out = tmp_path / f"out{w}"
            code = main(["experiment", "--spec", str(tmp_path / "experiment.json"),
                         "--out", str(out), "--workers", str(w)])
            assert code == 0
            outputs[w] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs[1] == outputs[2] == outputs[8]


def test_criterion_7_structural_invariants(cfg_a, cfg_b):
    with criterion(7, "asset totals, price positivity, demand bound"):
        expected_a = {"Individual": 15.0, "Funds": 10000.0, "Banks": 245000.0, "Govt": 50000.0}
        for t in cfg_a.types:
            assert t.total_assets == expected_a[t.name] == t.assets_per_investor * t.count
        expected_b = {**expected_a, "Govt": 500000.0}
        for t in cfg_b.types:
            assert t.total_assets == expected_b[t.name]

        rng = np.random.default_rng(2026)
        dates = weekdays(date(2010, 1, 4), 20)
        for i in range(10_000):
            n_types = int(rng.integers(1, 5))
            types = tuple(
                InvestorType(
                    name=f"T{k}",
                    assets_per_investor=float(10 ** rng.uniform(-1, 5)),
                    count=int(rng.integers(1, 20)),
                    optimism=float(rng.uniform(0, 1)),
                    reactivity=float(rng.uniform(-1, 1)),
                    trade_fraction=float(rng.uniform(0.01, 1.0)),
                    enabled=bool(rng.random() < 0.7),
                )
                for k in range(n_types)
            )
            config = MarketConfig(
                types=types,
                price_impact=float(rng.uniform(1e-4, 0.1)),
                jitter=float(rng.uniform(0.0, 0.2)),
                master_seed=int(rng.integers(0, 2**63)),
            )
            run = simulate_pk(config, 100.0, 20, dates)
            values = np.asarray(run.predicted.values)
            assert np.all(values > 0.0), f"non-positive price in config {i}"
            share = config.enabled_asset_share
            assert all(abs(d) <= share + 1e-12 for d in run.demands), f"demand bound in config {i}"
