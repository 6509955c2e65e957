"""The batched kernel agrees with one-run-at-a-time simulation, bit for bit."""

from dataclasses import replace
from datetime import date

import numpy as np
import pytest

import amr.market as market_module
import amr.reducer as reducer_module
from amr.learner import AnnealingSchedule, ParameterVector, anneal, replication_mapes
from amr.market import only_enabled, simulate_batch, simulate_pk
from amr.presets import balanced_config, bank_dominated_config, synthetic_target, weekdays
from amr.reducer import evaluate_subset, exhaustive_reduce
from amr.rng import substream
from amr.timeseries import mape

HORIZON = 90
DATES = weekdays(date(2009, 1, 2), HORIZON)
BASE = bank_dominated_config(master_seed=11)
SEEDS = [11, 12, 13]
SUBSETS = [BASE.type_names, ("Banks",), ("Funds", "Govt"), (), ("Individual",)]
MASKS = [[n in subset for n in BASE.type_names] for subset in SUBSETS]


def _single_run(subset, seed, **kwargs):
    config = only_enabled(replace(BASE, master_seed=seed), subset)
    return simulate_pk(config, 100.0, HORIZON, DATES, **kwargs)


@pytest.mark.parametrize("chunk_size", [market_module.DEFAULT_CHUNK_SIZE, 64])
def test_rows_equal_single_runs(chunk_size):
    prices, demands = simulate_batch(BASE, SEEDS, MASKS, 100.0, HORIZON, DATES, chunk_size=chunk_size)
    assert prices.shape == (len(MASKS), len(SEEDS), HORIZON)
    assert demands.shape == (len(MASKS), len(SEEDS), HORIZON - 1)
    for m, subset in enumerate(SUBSETS):
        for s, seed in enumerate(SEEDS):
            run = _single_run(subset, seed, chunk_size=chunk_size)
            assert prices[m, s].tobytes() == np.array(run.predicted.values).tobytes()
            assert demands[m, s].tobytes() == np.array(run.demands).tobytes()


def test_uniform_blocks_span_several_steps_and_seeds(monkeypatch):
    # Tiny blocks force a refill on every step, each shared by all masks.
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", 3 * 500)
    prices, _ = simulate_batch(BASE, SEEDS, MASKS, 100.0, HORIZON, DATES)
    monkeypatch.undo()
    for m, subset in enumerate(SUBSETS):
        for s, seed in enumerate(SEEDS):
            assert tuple(prices[m, s].tolist()) == _single_run(subset, seed).predicted.values


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="at least one seed"):
        simulate_batch(BASE, [], MASKS, 100.0, HORIZON, DATES)
    with pytest.raises(ValueError, match="at least one enabled mask"):
        simulate_batch(BASE, SEEDS, [], 100.0, HORIZON, DATES)


def test_mask_of_wrong_length_rejected():
    with pytest.raises(ValueError, match="enabled mask of 4 flags"):
        simulate_batch(BASE, SEEDS, [[True, False]], 100.0, HORIZON, DATES)


def test_exhaustive_over_several_kernel_calls_equals_single_subsets(monkeypatch):
    config = bank_dominated_config()
    params = ParameterVector.from_config(config)
    target = synthetic_target(config, seed=41, n_days=60)
    calls = []
    original = market_module.simulate_batch

    def counting(config, seeds, enabled, *args, **kwargs):
        calls.append(len(enabled) * len(seeds))
        return original(config, seeds, enabled, *args, **kwargs)

    monkeypatch.setattr(market_module, "simulate_batch", counting)
    monkeypatch.setattr(reducer_module, "MAX_BATCH_ELEMENTS", 7 * 500)
    oracle = exhaustive_reduce(config, params, target, replications=3)
    assert len(calls) >= 2 and max(calls) == 6 and sum(calls) == 15 * 3

    monkeypatch.undo()
    for model_set, score in oracle.table:
        assert score == evaluate_subset(model_set, params, config, target, replications=3)


def test_uniform_table_matches_fresh_generation(monkeypatch):
    monkeypatch.setattr(market_module, "_uniform_slot", (None, None))
    other_dates = weekdays(date(2009, 1, 2), 60)
    calls = [  # A, A, A, B (same seeds, other horizon), C (other seeds), A
        (SEEDS, HORIZON, DATES), (SEEDS, HORIZON, DATES), (SEEDS, HORIZON, DATES),
        (SEEDS, 60, other_dates), ([21, 22], HORIZON, DATES), (SEEDS, HORIZON, DATES),
    ]
    cached, tables = [], []
    for seeds, horizon, dates in calls:
        cached.append(simulate_batch(BASE, seeds, MASKS, 100.0, horizon, dates))
        key, table = market_module._uniform_slot
        assert key == (tuple(seeds), 500, horizon - 1)
        tables.append(table)
    # The second A builds the table, the third reads it; B, C and the last A are first sightings.
    assert [t is not None for t in tables] == [False, True, True, False, False, False]
    assert tables[2] is tables[1] and tables[1].shape == (HORIZON - 1, len(SEEDS), 500)
    with pytest.raises(ValueError, match="read-only"):
        tables[1][0, 0, 0] = 0.5

    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    for (seeds, horizon, dates), (prices, demands) in zip(calls, cached):
        fresh_prices, fresh_demands = simulate_batch(BASE, seeds, MASKS, 100.0, horizon, dates)
        assert prices.tobytes() == fresh_prices.tobytes()
        assert demands.tobytes() == fresh_demands.tobytes()
        assert market_module._uniform_slot[1] is None  # over the cap: nothing is stored


def test_anneal_repeats_in_one_process(monkeypatch):
    monkeypatch.setattr(market_module, "_uniform_slot", (None, None))
    config = bank_dominated_config()
    target = synthetic_target(config, seed=5, n_days=60)
    schedule = AnnealingSchedule(total_evaluations=12, proposals_per_epoch=4)
    first = anneal(target, config, schedule, seed=3)
    assert market_module._uniform_slot[1] is not None
    second = anneal(target, config, schedule, seed=3)
    assert first.energy_trace == second.energy_trace
    assert first.best_params.values.tobytes() == second.best_params.values.tobytes()


@pytest.mark.parametrize("n_days", [2, 60, 390])
def test_replication_mapes_equal_per_run_mape(n_days):
    # The target comes from another preset, so no run reproduces it.
    target = synthetic_target(balanced_config(3), seed=19, n_days=n_days)
    mapes = replication_mapes(BASE, MASKS, target, len(SEEDS))
    assert mapes.shape == (len(MASKS), len(SEEDS))
    for m, subset in enumerate(SUBSETS):  # SUBSETS includes the all-disabled mask
        for r in range(len(SEEDS)):
            config = only_enabled(replace(BASE, master_seed=substream(BASE.master_seed, r)), subset)
            run = simulate_pk(config, target.values[0], len(target), target.dates)
            assert float(mapes[m, r]).hex() == mape(target, run.predicted).hex()
