"""simulate_batch and step() follow the market's documented rules, bit for bit.

The rules are written out per agent in market_reference.  Hypothesis
draws small markets, masks, seeds and horizons, and patches the chunk
width and the block and table caps small, so the tabled, streamed and
row-block paths of the kernel all run.  Each test runs again on the
NumPy walk, with the compiled one unloaded.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amr.market as market_module
import market_reference
from amr.market import InvestorType, MarketConfig, simulate_batch, step

BEHAVIOR = {field: st.one_of(st.sampled_from(bounds), st.floats(*bounds))
            for field, bounds in zip(market_reference.FIELDS, market_reference.BOUNDS)}


@st.composite
def markets(draw):
    n_types = draw(st.integers(1, 4))
    types = tuple(
        InvestorType(f"T{i}", draw(st.sampled_from([0.1, 1.0, 250.0, 1e4])), draw(st.integers(1, 40)),
                     **{field: draw(values) for field, values in BEHAVIOR.items()})
        for i in range(n_types))
    return MarketConfig(types, price_impact=draw(st.sampled_from([1e-6, 0.01, 0.1])),
                        jitter=draw(st.one_of(st.sampled_from([0.0, 0.2]), st.floats(0.0, 0.2))),
                        master_seed=draw(st.integers(-2**63, 2**64 - 1)))


# The chunk width and the block and table caps, each drawn from the kernel's
# default and small values.
KNOBS = {"CHUNK_SIZE": [market_module.CHUNK_SIZE, 1, 3, 16],
         "_UNIFORM_BLOCK_ELEMENTS": [market_module._UNIFORM_BLOCK_ELEMENTS, 1, 5, 64],
         "_UNIFORM_TABLE_ELEMENTS": [market_module._UNIFORM_TABLE_ELEMENTS, 0]}
knobs = st.fixed_dictionaries({name: st.sampled_from(values) for name, values in KNOBS.items()})
powers_of_two = st.integers(-20, 20).map(lambda k: 2.0**k)


def _hex(values):
    return [float(v).hex() for v in values]


# The function-scoped monkeypatch fixture fails hypothesis's health check
# under @given, so each example patches in its own context.  Masks are drawn
# as bit sets; the explicit example is an all-off mask over three chunks,
# whose demand is +0.0 only because the chunk totals start from 0.0.
@given(config=markets(), patch=knobs, horizon=st.integers(1, 40), p0=powers_of_two,
       seeds=st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=2),
       masks=st.lists(st.integers(0, 15), min_size=1, max_size=3))
@example(config=MarketConfig((InvestorType("T0", 1.0, 7, 0.0, 0.0, 0.5),), price_impact=0.01, jitter=0.0),
         patch={name: values[0] for name, values in KNOBS.items()} | {"CHUNK_SIZE": 3},
         horizon=3, p0=1.0, seeds=[-1], masks=[0, 1])
@settings(max_examples=80, deadline=None)
def test_every_batch_cell_follows_the_reference(config, patch, horizon, p0, seeds, masks):
    masks = [[bool(bits >> i & 1) for i in range(len(config.types))] for bits in masks]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(market_module, name, value)
        prices, demands = simulate_batch(config, seeds, masks, p0, horizon)
    for m, mask in enumerate(masks):
        for s, seed in enumerate(seeds):
            ref_prices, ref_demands = market_reference.run(config, seed, mask, p0, horizon, patch["CHUNK_SIZE"])
            assert _hex(prices[m, s]) == _hex(ref_prices)
            assert _hex(demands[m, s]) == _hex(ref_demands)


@given(config=markets(), patch=knobs, step_index=st.integers(0, 2**40), price=powers_of_two,
       last_return=st.floats(-0.5, 0.5))
@settings(max_examples=40, deadline=None)
def test_step_follows_the_reference(config, patch, step_index, price, last_return):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(market_module, name, value)
        got = step(config, price, last_return, step_index)
    people = market_reference.agents(config, config.master_seed, [t.enabled for t in config.types])
    net = market_reference.demand(people, config.master_seed, step_index, last_return, patch["CHUNK_SIZE"])
    assert _hex(got) == _hex([(net * config.price_impact + 1.0) * price, net])


@pytest.mark.parametrize("walk", ["numpy"], indirect=True)
def test_every_batch_cell_follows_the_reference_on_numpy_walk(walk):
    test_every_batch_cell_follows_the_reference()


@pytest.mark.parametrize("walk", ["numpy"], indirect=True)
def test_step_follows_the_reference_on_numpy_walk(walk):
    test_step_follows_the_reference()


def test_an_overflowing_run_follows_the_reference(walk):
    # Every agent always buys, so each price grows 10% a day from 1e305
    # until it overflows.  From then on each return is inf or NaN, every
    # x is NaN (reactivity 0 times inf), and the votes take its sign bit.
    config = MarketConfig((InvestorType("Buyers", 1.0, 50, 1.0, 0.0, 1.0),), price_impact=0.1, jitter=0.0)
    seeds, horizon = [1, 2], 120
    prices, demands = simulate_batch(config, seeds, [[True]], 1e305, horizon)
    assert math.isinf(prices[0, 0, -1]) and math.isfinite(prices[0, 0, horizon // 2])
    for s, seed in enumerate(seeds):
        ref_prices, ref_demands = market_reference.run(config, seed, [True], 1e305, horizon, market_module.CHUNK_SIZE)
        assert _hex(prices[0, s]) == _hex(ref_prices)
        assert _hex(demands[0, s]) == _hex(ref_demands)
