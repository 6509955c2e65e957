"""The batched kernel agrees with one-run-at-a-time simulation, bit for bit."""

from dataclasses import replace
from datetime import date

import numpy as np
import pytest

import amr.market as market_module
import amr.reducer as reducer_module
from amr.learner import ParameterVector
from amr.market import only_enabled, simulate_batch, simulate_pk
from amr.presets import bank_dominated_config, synthetic_target, weekdays
from amr.reducer import evaluate_subset, exhaustive_reduce

HORIZON = 90
DATES = weekdays(date(2009, 1, 2), HORIZON)


def _mixed_rows():
    base = bank_dominated_config(master_seed=11)
    return [
        base,
        replace(base, master_seed=12),
        only_enabled(base, ["Banks"]),
        only_enabled(replace(base, master_seed=12), ["Funds", "Govt"]),
        only_enabled(base, ()),
        replace(base, master_seed=13, price_impact=0.05, jitter=0.2),
        only_enabled(replace(base, master_seed=11), ["Individual"]),
    ]


@pytest.mark.parametrize("chunk_size", [market_module.DEFAULT_CHUNK_SIZE, 64])
def test_rows_equal_single_runs(chunk_size):
    configs = _mixed_rows()
    prices, demands = simulate_batch(configs, 100.0, HORIZON, DATES, chunk_size=chunk_size)
    assert prices.shape == (len(configs), HORIZON)
    assert demands.shape == (len(configs), HORIZON - 1)
    for row, config in enumerate(configs):
        run = simulate_pk(config, 100.0, HORIZON, DATES, chunk_size=chunk_size)
        assert prices[row].tobytes() == np.array(run.predicted.values).tobytes()
        assert demands[row].tobytes() == np.array(run.demands).tobytes()


def test_uniform_blocks_span_several_steps_and_seeds(monkeypatch):
    # Tiny blocks force many block refills with several seeds sharing each.
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", 3 * 500)
    configs = _mixed_rows()
    prices, _ = simulate_batch(configs, 100.0, HORIZON, DATES)
    for row, config in enumerate(configs):
        assert tuple(prices[row].tolist()) == simulate_pk(config, 100.0, HORIZON, DATES).predicted.values


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="at least one"):
        simulate_batch([], 100.0, HORIZON, DATES)


def test_different_agent_counts_rejected():
    base = bank_dominated_config()
    bigger = replace(base, types=(replace(base.types[0], count=151),) + base.types[1:])
    with pytest.raises(ValueError, match="same number of agents"):
        simulate_batch([base, bigger], 100.0, HORIZON, DATES)


def test_exhaustive_over_several_kernel_calls_equals_single_subsets(monkeypatch):
    config = bank_dominated_config()
    params = ParameterVector.from_config(config)
    target = synthetic_target(config, seed=41, n_days=60)
    calls = []
    original = market_module.simulate_batch

    def counting(configs, *args, **kwargs):
        calls.append(len(configs))
        return original(configs, *args, **kwargs)

    monkeypatch.setattr(market_module, "simulate_batch", counting)
    monkeypatch.setattr(reducer_module, "MAX_BATCH_ELEMENTS", 7 * 500)
    oracle = exhaustive_reduce(config, params, target, replications=3)
    assert len(calls) >= 2 and max(calls) == 7 and sum(calls) == 15 * 3

    monkeypatch.undo()
    for model_set, score in oracle.table:
        assert score == evaluate_subset(model_set, params, config, target, replications=3)
