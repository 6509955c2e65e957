"""Pinned digests of simulation and reduction outputs.

Each digest is the sha256 of an output's exact bytes, so any change to
the order of floating-point operations in the simulation kernel shows up
here.  The simulation pins cover both bundled presets, an all-disabled
market (including one whose demands are -0.0), several summation chunks and one
population larger than the default chunk.
"""

import hashlib
import json
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from amr.learner import ParameterVector
from amr.market import only_enabled, simulate_pk
from amr.presets import balanced_config, bank_dominated_config, synthetic_target, weekdays
from amr.reducer import exhaustive_reduce, greedy_reduce


def _scaled(config, factor):
    return replace(config, types=tuple(replace(t, count=t.count * factor) for t in config.types))


def _silent_sellers():
    """All types disabled, every agent sells: each step sums only -0.0 terms."""
    config = bank_dominated_config()
    types = tuple(replace(t, optimism=0.0, reactivity=0.0, enabled=False) for t in config.types)
    return replace(config, types=types, jitter=0.0)


SIMULATIONS = {
    "bank_dominated": (lambda: bank_dominated_config(), 250, {}),
    "balanced": (lambda: balanced_config(), 250, {}),
    "all_disabled": (lambda: only_enabled(bank_dominated_config(), ()), 250, {}),
    "all_disabled_sellers": (_silent_sellers, 250, {}),
    "chunk_64": (lambda: bank_dominated_config(master_seed=77), 250, {"chunk_size": 64}),
    "over_4096_agents": (lambda: _scaled(bank_dominated_config(master_seed=5), 10), 60, {}),
}

SIMULATION_DIGESTS = {
    "bank_dominated": "afda76538c71c0fb994db923fd22be9a250e9ceb0d9fc4f44479151de8314133",
    "balanced": "f29497225a4ef483db941fe9c2e9ef204c6ca383ce3f5b18500a2e376ec78565",
    "all_disabled": "e74cfc636e2c75357947dbdda2ad98e800b4b55cba9c7377e8b2c10bed6c3b7c",
    "all_disabled_sellers": "ab64631da2a845cd960d72e68a863c3aa290ce7cdafecdd57ba0ebb062d29075",
    "chunk_64": "8a88209f13ea90d7791ad75f4703cf0056f89cc20d1416b237c2ae761c76b6e4",
    "over_4096_agents": "8018e1e85814b66ce913dd16d44014877ead66530699796673d43cda61b36c1d",
}

REDUCTION_DIGESTS = {
    "greedy": "75f4b417e2547866e56fceccfa27b9a0d34b884bb9b4d723afc65b019d4639db",
    "exhaustive": "0c5becf6503e0ca9af148c553b7631eb083af9a035b01b851082a6341497d3b1",
}


def _run_digest(run) -> str:
    prices = np.asarray(run.predicted.values, dtype=np.float64)
    demands = np.asarray(run.demands, dtype=np.float64)
    return hashlib.sha256(prices.tobytes() + demands.tobytes()).hexdigest()


def _json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_simulation_digest(name):
    make_config, horizon, kwargs = SIMULATIONS[name]
    run = simulate_pk(make_config(), 100.0, horizon, weekdays(date(2009, 1, 2), horizon), **kwargs)
    assert _run_digest(run) == SIMULATION_DIGESTS[name]


def test_all_disabled_sellers_demand_is_negative_zero():
    run = simulate_pk(_silent_sellers(), 100.0, 5, weekdays(date(2009, 1, 2), 5))
    assert all(np.signbit(d) and d == 0.0 for d in run.demands)


@pytest.fixture(scope="module")
def reduction_inputs():
    config = bank_dominated_config()
    target = synthetic_target(config, seed=31, n_days=120)
    return config, ParameterVector.from_config(config), target


def test_greedy_reduce_digest(reduction_inputs):
    config, params, target = reduction_inputs
    report = greedy_reduce(config, params, target, replications=2)
    assert _json_digest(report.to_dict()) == REDUCTION_DIGESTS["greedy"]


def test_exhaustive_reduce_digest(reduction_inputs):
    config, params, target = reduction_inputs
    report = exhaustive_reduce(config, params, target, replications=2)
    assert _json_digest(report.to_dict()) == REDUCTION_DIGESTS["exhaustive"]
