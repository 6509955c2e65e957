"""The batched kernel agrees with one-run-at-a-time simulation, bit for bit."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

import amr.learner as learner_module
import amr.market as market_module
import amr.reducer as reducer_module
from amr import native
from amr.learner import AnnealingSchedule, ParameterVector, anneal, energy, replication_mapes
from amr.market import (
    BEHAVIOR_BOUNDS,
    BEHAVIOR_FIELDS,
    InvestorType,
    MarketConfig,
    init_population,
    only_enabled,
    set_enabled,
    simulate_batch,
    simulate_pk,
    step,
)
from amr.presets import balanced_config, bank_dominated_config, synthetic_target, weekdays
from amr.reducer import evaluate_subset, exhaustive_reduce, greedy_reduce
from amr.rng import TAG_DECISION, TAG_JITTER, fold, grid_keys, substream, u01
from amr.timeseries import TimeSeries, mape
from walks import on_each_walk

HORIZON = 90
DATES = weekdays(date(2009, 1, 2), HORIZON)
BASE = bank_dominated_config(master_seed=11)
SEEDS = [11, 12, 13]
SUBSETS = [BASE.type_names, ("Banks",), ("Funds", "Govt"), (), ("Individual",)]
MASKS = [[n in subset for n in BASE.type_names] for subset in SUBSETS]


def _single_run(subset, seed):
    config = only_enabled(replace(BASE, master_seed=seed), subset)
    return simulate_pk(config, 100.0, HORIZON, DATES)


@pytest.mark.parametrize("subsets, seeds, chunk_width, walk", on_each_walk([
    pytest.param(SUBSETS, SEEDS, market_module.CHUNK_SIZE, id="4096"),
    pytest.param(SUBSETS, SEEDS, 64, id="64"),
    # Narrow batches: fewer than _REDUCE_WIDTH lanes, in one chunk and in four.
    pytest.param(SUBSETS[:1], SEEDS, market_module.CHUNK_SIZE, id="1x3"),
    pytest.param(SUBSETS[2:3], SEEDS[:1], 128, id="1x1-128"),
]), indirect=["walk"])
def test_rows_equal_single_runs(monkeypatch, subsets, seeds, chunk_width, walk):
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    masks = [[n in subset for n in BASE.type_names] for subset in subsets]
    prices, demands = simulate_batch(BASE, seeds, masks, 100.0, HORIZON)
    assert prices.shape == (len(masks), len(seeds), HORIZON)
    assert demands.shape == (len(masks), len(seeds), HORIZON - 1)
    for m, subset in enumerate(subsets):
        for s, seed in enumerate(seeds):
            run = _single_run(subset, seed)
            assert prices[m, s].tobytes() == np.array(run.predicted.values).tobytes()
            assert demands[m, s].tobytes() == np.array(run.demands).tobytes()


def test_uniform_blocks_span_several_steps_and_seeds(monkeypatch):
    # Tiny blocks force a refill on every step, each shared by all masks;
    # a cap of 0 streams the uniforms instead of tabling them.
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", 3 * 500)
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    prices, _ = simulate_batch(BASE, SEEDS, MASKS, 100.0, HORIZON)
    monkeypatch.undo()
    for m, subset in enumerate(SUBSETS):
        for s, seed in enumerate(SEEDS):
            assert tuple(prices[m, s].tolist()) == _single_run(subset, seed).predicted.values


def _expected_above(seed, step_index, agent):
    return math.nextafter(u01(fold(seed, TAG_DECISION, step_index, agent)), math.inf)


@pytest.mark.parametrize("block_elements", [128, market_module._UNIFORM_BLOCK_ELEMENTS])
@pytest.mark.parametrize("seeds, n_agents, chunk_width, steps, blocks", [
    ([5], 1000, market_module.CHUNK_SIZE, 4, 8),
    ([-3, 7, 2**40], 500, market_module.CHUNK_SIZE, 5, 12),
    ([9, -1], 500, 64, 3, 8),  # 8 chunks of 64, the last padded
], ids=["S1", "S3", "K8-S2"])
def test_slab_ends_match_scalar_fold(monkeypatch, block_elements, seeds, n_agents, chunk_width, steps, blocks):
    # 128 splits every step into 8 row blocks of 125 (S = 1), 12 of 42 and 41 rows
    # (S = 3) or 8 of 8 rows (K = 8, S = 2); the default hashes every step in one
    # block.  Each step is hashed on its own, then every step in one call.
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", block_elements)
    size, chunks = market_module._chunking(n_agents)
    assert chunks == (8 if chunk_width == 64 else 1)
    step_keys = np.array([[fold(seed, TAG_DECISION, t) for seed in seeds] for t in range(steps)],
                         dtype=np.uint64)
    keys = grid_keys(step_keys)
    bounds = market_module._row_blocks(size, chunks * len(seeds))
    assert len(bounds) == (1 if block_elements > 1500 else blocks)
    assert [c0 for c0, _ in bounds[1:]] == [c1 for _, c1 in bounds[:-1]] and bounds[-1][1] == size
    lengths = [c1 - c0 for c0, c1 in bounds]
    assert max(lengths) <= max(1, block_elements // (chunks * len(seeds))) and max(lengths) - min(lengths) <= 1
    scratch = np.empty(steps * size * chunks * len(seeds), dtype=np.uint64)
    for t0, t1 in [(t, t + 1) for t in range(steps)] + [(0, steps)]:
        for c0, c1 in bounds:
            out = np.empty((t1 - t0, c1 - c0, chunks, 1, len(seeds)))
            block = market_module._hashed_rows(keys[t0:t1], size, chunks, c0, c1, out, scratch)
            assert block is out
            for t in range(t0, t1):
                for p, value in ((c0 * chunks, block[t - t0, 0, 0, 0]), (c1 * chunks - 1, block[t - t0, -1, -1, 0])):
                    for s, seed in enumerate(seeds):
                        assert value[s] == _expected_above(seed, t, p % chunks * size + p // chunks)
            if t1 - t0 > 1:  # every step in one call: the bits of one call a step
                for t in range(t0, t1):
                    alone = np.empty((1, *out.shape[1:]))
                    market_module._hashed_rows(keys[t : t + 1], size, chunks, c0, c1, alone, scratch)
                    assert alone.tobytes() == block[t - t0].tobytes()


@pytest.mark.parametrize("block_elements", [128, 1000])
def test_slabbed_steps_equal_unpatched_runs(monkeypatch, block_elements):
    # With 3 seeds and 5 masks a budget of 128 or 1000 values splits every
    # 500-agent step into row blocks of 8 or 63 rows (7 or 62 in the last).
    # The batches run in one 500-agent chunk, the single run and the chained
    # steps in chunks of 64.  Every run streams its uniforms (cap 0), so the
    # patched batch reads no table.
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    config = bank_dominated_config(master_seed=5)
    batch = simulate_batch(BASE, SEEDS, MASKS, 100.0, HORIZON)
    with monkeypatch.context() as m:
        m.setattr(market_module, "CHUNK_SIZE", 64)
        run = simulate_pk(config, 100.0, HORIZON, DATES)
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(native, "walk", lambda: None)  # the NumPy body walks the row blocks
    patched = simulate_batch(BASE, SEEDS, MASKS, 100.0, HORIZON)
    assert patched[0].tobytes() == batch[0].tobytes()
    assert patched[1].tobytes() == batch[1].tobytes()
    monkeypatch.setattr(market_module, "CHUNK_SIZE", 64)
    prices = [100.0]
    for t in range(HORIZON - 1):
        last_return = (prices[t] - prices[t - 1]) / prices[t - 1] if t else 0.0
        prices.append(step(config, prices[t], last_return, t)[0])
    assert np.array(prices).tobytes() == np.array(run.predicted.values).tobytes()


@pytest.mark.parametrize("table_cap", [market_module._UNIFORM_TABLE_ELEMENTS, 0], ids=["table", "stream"])
@pytest.mark.parametrize("chunk_width, seeds, masks", [
    pytest.param(64, SEEDS, MASKS, id="K8-3x5"),
    pytest.param(64, SEEDS[:1], MASKS[:1], id="K8-1x1"),  # 8 lanes: reduced
    pytest.param(128, SEEDS[:1], MASKS[:1], id="K4-1x1"),  # 4 lanes: accumulated
    pytest.param(128, SEEDS[1:], MASKS[1:3], id="K4-2x2"),
])
def test_walked_blocks_equal_one_block_steps(monkeypatch, table_cap, chunk_width, seeds, masks):
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", table_cap)
    prices, demands = simulate_batch(BASE, seeds, masks, 100.0, HORIZON)
    size, chunks = market_module._chunking(500)
    lanes = chunks * len(masks) * len(seeds)
    walked = {}
    row_blocks = market_module._row_blocks
    monkeypatch.setattr(market_module, "_row_blocks",
                        lambda *args: walked.setdefault(args, row_blocks(*args)))
    # Blocks of at most 5 rows, the shorter last: 13 a step of 64 rows (the
    # last of 4), 26 of 128 (the last two of 4).  Row blocks are the NumPy
    # body's, so the walked run is NumPy's.
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", 5 * lanes)
    monkeypatch.setattr(native, "walk", lambda: None)
    walked_prices, walked_demands = simulate_batch(BASE, seeds, masks, 100.0, HORIZON)
    # The walk's call, by its arguments: the set-up slabs make their own.
    lengths = [c1 - c0 for c0, c1 in walked[size, lanes]]
    assert len(lengths) == -(-size // 5) and lengths == sorted(lengths, reverse=True)
    assert lengths[0] == 5 and lengths[-1] == 4
    assert walked_prices.tobytes() == prices.tobytes()
    assert walked_demands.tobytes() == demands.tobytes()


STEP_CALLS = [(100.0, 0.0, 0), (101.5, 0.015, 7), (99.0, -0.03, 88)]  # (price, last return, step index)
# (next price, demand) of each of STEP_CALLS under each preset's own seed,
# recorded from step(init_population(config), ..., config.master_seed), the
# form step() took before it took the config itself.
PINNED_STEPS = {
    (4096, "bank_dominated"): [("0x1.9068fa9222b3fp+6", "0x1.a3ea488acfd3fp-4"),
                               ("0x1.96332a02d63a8p+6", "0x1.93438e298608cp-5"),
                               ("0x1.8c701abad7e47p+6", "0x1.c4f276cd24083p-4")],
    (4096, "balanced"): [("0x1.904b53b556dfep+6", "0x1.2d4ed55b7fb7ep-4"),
                         ("0x1.965682e8e6057p+6", "0x1.54ee764cb1c08p-4"),
                         ("0x1.8c2a4fd2182e6p+6", "0x1.55e9dd352ea71p-5")],
    (64, "bank_dominated"): [("0x1.9068fa9222b3fp+6", "0x1.a3ea488acfd40p-4"),
                             ("0x1.96332a02d63a8p+6", "0x1.93438e2986087p-5"),
                             ("0x1.8c701abad7e47p+6", "0x1.c4f276cd2407fp-4")],
    (64, "balanced"): [("0x1.904b53b556dfep+6", "0x1.2d4ed55b7fb7dp-4"),
                       ("0x1.965682e8e6057p+6", "0x1.54ee764cb1c05p-4"),
                       ("0x1.8c2a4fd2182e6p+6", "0x1.55e9dd352ea71p-5")],
}


@pytest.mark.parametrize("chunk_width", [market_module.CHUNK_SIZE, 64])
@pytest.mark.parametrize("name, preset", [("bank_dominated", bank_dominated_config),
                                          ("balanced", balanced_config)])
def test_step_keeps_its_pinned_values(monkeypatch, chunk_width, name, preset):
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    config = preset()
    stepped = [step(config, price, last_return, t) for price, last_return, t in STEP_CALLS]
    assert [(p.hex(), d.hex()) for p, d in stepped] == PINNED_STEPS[chunk_width, name]


@pytest.mark.parametrize("chunk_width", [64, 4096])
def test_step_walks_blocks_like_one_block(monkeypatch, chunk_width):
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    size, chunks = market_module._chunking(500)
    one_block = [step(BASE, price, last_return, t) for price, last_return, t in STEP_CALLS]
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", 7 * chunks)  # blocks of 7 rows
    monkeypatch.setattr(native, "walk", lambda: None)  # that the NumPy body walks
    assert len(market_module._row_blocks(size, chunks)) == -(-size // 7) > 1
    walked = [step(BASE, price, last_return, t) for price, last_return, t in STEP_CALLS]
    assert [(p.hex(), d.hex()) for p, d in walked] == [(p.hex(), d.hex()) for p, d in one_block]


def test_uniform_table_build_holds_one_table():
    # 3 seeds x 500 agents x 389 steps: a 4.7 MB table.  The build of key B
    # drops A's table first, so B's build adds only its hashing buffers.
    tracemalloc.start()
    try:
        table_bytes = market_module._uniform_table(tuple(SEEDS), 500, 1, 389).nbytes
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        market_module._uniform_table((21, 22, 23), 500, 1, 389)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(after - before) < 0.05 * table_bytes  # A's table freed, B's held
    assert peak - before < 0.3 * table_bytes  # never A's table and B's at once


def test_table_build_in_step_groups_equals_the_default_build(monkeypatch):
    # One seed over 2 chunks of 4096 and 40 steps: a 2.6 MB table of steps of
    # 8192 uniforms.  The default build hashes 8 whole steps at a time; at a
    # block of 2**14 uniforms it hashes 20 groups of 2 steps, straight into
    # the table.
    key = ((3,), 4096, 2, 40)
    default = market_module._uniform_table(*key).tobytes()
    market_module._uniform_table.cache_clear()
    block = 1 << 14
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", block)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = market_module._uniform_table(*key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.tobytes() == default
    # Above the table, one group's hashing scratch and ids, and NumPy's
    # iterator buffers for the ids' broadcast add.
    assert peak - before - table.nbytes < 4 * 8 * block


def test_step_over_one_block_is_streamed(walk, monkeypatch):
    # 30,000 agents (8 chunks of 4096) under 3 seeds: a step's 98,304
    # uniforms exceed one block while 10 steps' would fit the table, so the
    # uniforms are streamed, with the bits of a call at table cap 0.
    config = replace(BASE, types=tuple(replace(t, count=t.count * 60) for t in BASE.types))
    size, chunks = market_module._chunking(config.n_agents)
    step_uniforms = size * chunks * len(SEEDS)
    assert market_module._UNIFORM_BLOCK_ELEMENTS < step_uniforms
    assert 10 * step_uniforms <= market_module._UNIFORM_TABLE_ELEMENTS
    prices, demands = simulate_batch(config, SEEDS, MASKS[:2], 100.0, 11)
    assert market_module._uniform_table.cache_info().currsize == 0
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    capped_prices, capped_demands = simulate_batch(config, SEEDS, MASKS[:2], 100.0, 11)
    assert prices.tobytes() == capped_prices.tobytes()
    assert demands.tobytes() == capped_demands.tobytes()


def test_walk_allocates_no_step_sized_block(monkeypatch):
    # 30,000 agents (8 chunks of 4096) under 3 seeds and 2 masks: a step's
    # 98,304 uniforms exceed one block, so the step is walked in row blocks,
    # and 11 steps exceed the table, so every block is hashed as it is walked.
    config = replace(BASE, types=tuple(replace(t, count=t.count * 60) for t in BASE.types))
    state_bytes = 8 * 4096 * 8 * len(SEEDS) * 2  # one float64 per position and run
    # The traced window opens when the walk is called and closes when it returns.
    walk = market_module._walk
    walk_peaks = []

    def traced_walk(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        walk(*args)
        walk_peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(market_module, "_walk", traced_walk)
    tracemalloc.start()
    try:
        simulate_batch(config, SEEDS, MASKS[:2], 100.0, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The NumPy walk's buffers (one block's votes, uniforms and hash scratch,
    # and the position ids) come to 3/4 of a state array, the compiled walk's
    # (a row's lane sums and returns, and one hash batch) to far less; a
    # full-size vote scratch would add one more, and a step-sized uniform
    # block half of one.
    assert len(walk_peaks) == 1 and walk_peaks[0] < state_bytes
    # The whole call, jitter and placement included, stays under 8 state arrays.
    assert peak < 8 * state_bytes


@pytest.mark.parametrize("walk", ["numpy"], indirect=True)
def test_walk_allocates_no_step_sized_block_on_numpy_walk(monkeypatch, walk):
    test_walk_allocates_no_step_sized_block(monkeypatch)


# Four types whose values and jitter push every field past both of its bounds.
CLIPPED = MarketConfig(
    types=(
        InvestorType("Low", 1.0, 30, optimism=0.05, reactivity=-0.9, trade_fraction=0.1),
        InvestorType("High", 20.0, 20, optimism=0.95, reactivity=0.9, trade_fraction=0.95),
        InvestorType("Mid", 300.0, 45, optimism=0.5, reactivity=0.0, trade_fraction=0.5),
        InvestorType("Edge", 4000.0, 5, optimism=1.0, reactivity=-1.0, trade_fraction=1e-6),
    ),
    price_impact=0.01,
    jitter=0.2,
)


def _type_of(config, agent):
    return config.types[int(np.searchsorted(np.cumsum([t.count for t in config.types]), agent, "right"))]


def _reference_field(config, seed, field, agent):
    """One agent's jittered field by scalar arithmetic: u, then (2u - 1) * jitter + base, then clip."""
    u = u01(fold(fold(seed, TAG_JITTER, field), agent))
    value = (2.0 * u - 1.0) * config.jitter + getattr(_type_of(config, agent), BEHAVIOR_FIELDS[field])
    lo, hi = BEHAVIOR_BOUNDS[field]
    return min(max(value, lo), hi)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("jitter", [0.2, 0.0])
def test_placed_jitter_equals_scalar_reference(monkeypatch, jitter):
    # 100 agents in 2 chunks of 64 (28 padding positions), jitter slabs of
    # at most 3 rows (2 positions of 3 fields x 2 seeds each), so every
    # field spans 22 slabs.
    monkeypatch.setattr(market_module, "CHUNK_SIZE", 64)
    monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", 7 * 3 * 2)
    config = replace(CLIPPED, jitter=jitter)
    seeds, masks = [4, -9], np.array([[True, True, True, True], [False, True, False, True]])
    size, chunks = market_module._chunking(100)
    assert len(market_module._row_blocks(size, chunks * 3 * len(seeds))) == 22
    optimism, reactivity, weight_bits = market_module._placed_state(config, seeds, masks, size, chunks)
    weight = weight_bits.view(np.float64)
    assert optimism.shape == reactivity.shape == weight.shape == (size, chunks, 2, 2)
    seen = set()
    for c in range(size):
        for k in range(chunks):
            agent = k * size + c
            for s, seed in enumerate(seeds):
                placed = (optimism[c, k, :, s], reactivity[c, k, :, s], weight[c, k, :, s])
                if agent >= 100:  # padding reads +0.0 in every field and mask
                    assert all(a.tobytes() == bytes(16) for a in placed)
                    continue
                expected = [_reference_field(config, seed, d, agent) for d in range(3)]
                t = _type_of(config, agent)
                if not jitter:  # the noise is +0.0 or -0.0, so every value is the type's own
                    assert _bits(expected) == _bits([getattr(t, f) for f in BEHAVIOR_FIELDS])
                seen.update((d, v) for d, v in enumerate(expected))
                for m, mask in enumerate(masks):
                    on = mask[config.type_names.index(t.name)]
                    vote = expected[2] * t.assets_per_investor / config.total_assets if on else 0.0
                    assert _bits([a[m] for a in placed]) == _bits([*expected[:2], vote])
    if jitter:  # every field was clipped at both of its bounds
        assert all((d, bound) in seen for d, bounds in enumerate(BEHAVIOR_BOUNDS) for bound in bounds)
    population = init_population(replace(config, master_seed=seeds[1]))
    for d, field in enumerate(BEHAVIOR_FIELDS):
        expected = [_reference_field(config, seeds[1], d, a) for a in range(100)]
        assert _bits(getattr(population, field)) == _bits(expected)


def _large_batch_peak() -> float:
    """The traced peak of a 200k-agent simulate_batch (1 seed, 1 mask, 12 days), in state arrays."""
    config = replace(BASE, types=tuple(replace(t, count=t.count * 400) for t in BASE.types))
    mask = [t.enabled for t in config.types]
    size, chunks = market_module._chunking(200_000)
    assert 11 * size * chunks > market_module._UNIFORM_TABLE_ELEMENTS  # the uniforms are streamed
    tracemalloc.start()
    try:
        simulate_batch(config, [1], [mask], 100.0, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * size * chunks)


def test_large_batch_peaks_under_seven_state_arrays():
    # The call holds three placed arrays and one slab's or block's buffers at a time.
    assert _large_batch_peak() < 7


def test_large_set_up_holds_no_id_of_every_position():
    # Each set-up slab makes the ids of its own positions: 4.1 state arrays
    # traced, against 5.0 when the set-up held a (C * K,) id array throughout.
    assert _large_batch_peak() < 4.5


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="at least one seed"):
        simulate_batch(BASE, [], MASKS, 100.0, HORIZON)
    with pytest.raises(ValueError, match="at least one enabled mask"):
        simulate_batch(BASE, SEEDS, [], 100.0, HORIZON)


def test_mask_of_wrong_length_rejected():
    with pytest.raises(ValueError, match="enabled mask of 4 flags"):
        simulate_batch(BASE, SEEDS, [[True, False]], 100.0, HORIZON)


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
    # 7 x 500 elements hold 2 masks of 3 seeds x 500 agents a call.
    monkeypatch.setattr(learner_module, "MAX_BATCH_ELEMENTS", 7 * 500)
    oracle = exhaustive_reduce(config, params, target, replications=3)
    assert len(calls) >= 2 and max(calls) == 6 and sum(calls) == 15 * 3

    # Greedy's first batch on a fresh memo (full set, baseline, 4 singletons):
    # the 5 live masks arrive in calls of at most 2, and the baseline never
    # reaches the kernel.
    reducer_module._known_scores.cache_clear()
    calls.clear()
    greedy = greedy_reduce(config, params, target, replications=3)
    assert calls[:3] == [6, 6, 3]

    monkeypatch.undo()
    for model_set, score in oracle.table:
        assert score == evaluate_subset(model_set, params, config, target, replications=3)
    assert greedy.baseline == evaluate_subset((), params, config, target, replications=3)
    assert greedy.singletons == {n: evaluate_subset((n,), params, config, target, replications=3)
                                 for n in config.type_names}


def test_energy_is_the_mean_of_the_subset_score():
    # Three equal all-off runs: the energy is their common value, as the
    # reducer's baseline is, not a sum divided by 3 one ulp away.
    target = synthetic_target(bank_dominated_config(), seed=20, n_days=120)
    config = only_enabled(bank_dominated_config(), ())
    params = ParameterVector.from_config(config)
    value = energy(params, target, config, replications=3)
    assert value.hex() == evaluate_subset((), params, config, target, replications=3).mean.hex()
    assert value.hex() == replication_mapes(config, [[False] * 4], target, 3)[0, 0].hex()


def test_uniform_table_matches_fresh_generation(monkeypatch):
    memo = market_module._uniform_table
    calls = [  # A, A, A, B (same seeds, other horizon), C (other seeds), A
        (SEEDS, HORIZON), (SEEDS, HORIZON), (SEEDS, HORIZON),
        (SEEDS, 60), ([21, 22], HORIZON), (SEEDS, HORIZON),
    ]
    # A build clears the memo's counters, so builds are counted by the step
    # keys each one derives; every call here is tabled, so nothing else does.
    step_keys = market_module._step_keys
    key_sets = []
    monkeypatch.setattr(market_module, "_step_keys",
                        lambda *args: key_sets.append(args) or step_keys(*args))
    cached, builds, tables = [], [], []
    for seeds, horizon in calls:
        cached.append(simulate_batch(BASE, seeds, MASKS, 100.0, horizon))
        builds.append(len(key_sets))
        assert memo.cache_info().currsize == 1
        tables.append(memo(tuple(seeds), 500, 1, horizon - 1))  # the table that call read
    # Every key is tabled on first sight: the first A builds the table and the
    # next two read it; B and C replace it, so the last A builds it again.
    assert builds == [1, 1, 1, 2, 3, 4]
    assert tables[0] is tables[1] is tables[2] and tables[5] is not tables[0]
    assert tables[0].shape == (HORIZON - 1, 500, len(SEEDS))
    assert tables[5].tobytes() == tables[0].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        tables[0][0, 0, 0] = 0.5

    monkeypatch.undo()
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", 0)
    for (seeds, horizon), (prices, demands) in zip(calls, cached):
        fresh_prices, fresh_demands = simulate_batch(BASE, seeds, MASKS, 100.0, horizon)
        assert prices.tobytes() == fresh_prices.tobytes()
        assert demands.tobytes() == fresh_demands.tobytes()
        assert memo.cache_info().currsize == 0  # over the cap: the memo is emptied, nothing stored


def test_horizon_one_leaves_the_uniform_table(monkeypatch):
    # 250-, 250-, 1- and 250-day calls on the same seeds: the 1-day call takes
    # no step, so it reads no uniform and the last call reads the first table.
    step_keys = market_module._step_keys
    built = []
    monkeypatch.setattr(market_module, "_step_keys",
                        lambda seeds, steps: built.append(steps) or step_keys(seeds, steps))
    for horizon in (250, 250, 1, 250):
        prices, demands = simulate_batch(BASE, [1, 2, 3], MASKS[:1], 100.0, horizon)
    assert built == [249]
    assert prices.shape == (1, 3, 250) and demands.shape == (1, 3, 249)
    assert simulate_batch(BASE, [1, 2, 3], MASKS[:1], 100.0, 1)[0].tolist() == [[[100.0]] * 3]


def test_horizon_one_builds_no_agent(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-day call built its agents")

    monkeypatch.setattr(market_module, "_placed_state", refuse)
    prices, demands = simulate_batch(BASE, SEEDS, MASKS, 100.0, 1)
    assert prices.tobytes() == np.full((len(MASKS), len(SEEDS), 1), 100.0).tobytes()
    assert demands.shape == (len(MASKS), len(SEEDS), 0)


def test_table_cap_holds_a_390_day_energy():
    # 3 seeds x 500 agents x 389 steps = 583,500 uniforms fit the table; 10 seeds do not.
    simulate_batch(BASE, SEEDS, MASKS[:1], 100.0, 390)
    assert market_module._uniform_table.cache_info().currsize == 1
    simulate_batch(BASE, list(range(10)), MASKS[:1], 100.0, 390)
    assert market_module._uniform_table.cache_info().currsize == 0


def test_anneal_repeats_in_one_process():
    config = bank_dominated_config()
    target = synthetic_target(config, seed=5, n_days=60)
    schedule = AnnealingSchedule(total_evaluations=12, proposals_per_epoch=4)
    first = anneal(target, config, schedule, seed=3)
    assert market_module._uniform_table.cache_info().currsize == 1
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


@pytest.mark.parametrize("chunk_width, walk", on_each_walk([
    pytest.param(width, id=str(width)) for width in (market_module.CHUNK_SIZE, 64)]), indirect=["walk"])
@pytest.mark.parametrize("config", [
    bank_dominated_config(master_seed=5), balanced_config(master_seed=6),
    set_enabled(bank_dominated_config(master_seed=7), ["Banks"], False),
], ids=["bank_dominated", "balanced", "banks_disabled"])
def test_chained_steps_equal_simulate_pk(monkeypatch, config, chunk_width, walk):
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    run = simulate_pk(config, 100.0, HORIZON, DATES)
    prices, demands = [100.0], []
    for t in range(HORIZON - 1):
        last_return = (prices[t] - prices[t - 1]) / prices[t - 1] if t else 0.0
        price, demand = step(config, prices[t], last_return, t)
        prices.append(price)
        demands.append(demand)
    assert np.array(prices).tobytes() == np.array(run.predicted.values).tobytes()
    assert np.array(demands).tobytes() == np.array(run.demands).tobytes()


def _loop_row_sum(values, chunk_width):
    """Net demand of one row by plain float additions, left to right in agent order."""
    totals = []
    for lo in range(0, len(values), chunk_width):
        total = values[lo]
        for v in values[lo + 1 : lo + chunk_width]:
            total += v
        totals.append(total)
    if len(totals) == 1:
        return totals[0]
    demand = 0.0
    for total in totals:
        demand += total
    return demand


def _walked_row_sums(values):
    """Net demand of every row of `values` (R, n_agents), by one step of the walk.

    Optimism -2 where a value's sign bit is set and +2 elsewhere, with
    reactivity 0, make each vote copysign(|v|, x - above) = v itself,
    whatever the uniform; padding votes are -0.0, as in every batch.
    """
    rows, n_agents = values.shape
    size, chunks = market_module._chunking(n_agents)

    def placed(a):  # agent k * C + c of row r at position (c, k, 0, r); padding holds 0
        padded = np.zeros((rows, chunks * size))
        padded[:, :n_agents] = a
        return np.ascontiguousarray(padded.reshape(rows, chunks, size).transpose(2, 1, 0)[:, :, None])

    optimism, reactivity, weight = (placed(a) for a in (
        np.where(np.signbit(values), -2.0, 2.0), np.zeros_like(values), np.abs(values)))
    step_keys = np.arange(rows, dtype=np.uint64)[None]
    demands = np.empty((1, rows))
    market_module._walk(np.ones((2, rows)), demands, np.zeros(rows), optimism, reactivity,
                        weight.view(np.uint64), 0.01, None, step_keys)
    return demands[0]


@pytest.mark.parametrize("n_agents, chunk_width, rows, walk", on_each_walk([
    pytest.param(*case, id="-".join(map(str, case))) for case in [
        (500, 4096, 1), (500, 4096, 3), (500, 128, 1), (37, 8, 1),  # fewer than _REDUCE_WIDTH lanes
        (500, 4096, 8), (500, 64, 15), (300, 100, 3), (1, 4096, 9),  # reduced lanes
    ]]), indirect=["walk"])
def test_row_sums_equal_left_to_right_loop(monkeypatch, n_agents, chunk_width, rows, walk):
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    rng = np.random.default_rng(n_agents * 31 + chunk_width + rows)
    values = rng.standard_normal((rows, n_agents)) * 10.0 ** rng.integers(-12, 12, (rows, n_agents))
    values[0] = -0.0  # a row of -0.0 votes: all agents disabled and selling
    if rows > 1:
        values[1, -min(n_agents, chunk_width):] = -0.0  # a last chunk of -0.0 votes, then padding
    expected = [_loop_row_sum(row.tolist(), chunk_width) for row in values]
    size, chunks = market_module._chunking(n_agents)
    # One block a step, then row blocks of 3 and of about half the rows, each
    # block's chunk sums carried into the next: the -0.0 rows cross boundaries.
    for block_rows in (size, 3, size // 2 + 1):
        monkeypatch.setattr(market_module, "_UNIFORM_BLOCK_ELEMENTS", block_rows * chunks * rows)
        demand = _walked_row_sums(values)
        assert [float(d).hex() for d in demand] == [e.hex() for e in expected]


def test_copysign_vote_equals_less_vote():
    tiny = np.nextafter(0.0, 1.0)
    u = np.array([0.0, tiny, 0.25, 0.5, 0.5, 1.0 - 2.0**-53, 0.3, 0.7])
    above = market_module._next_up(u.copy())
    assert above.tobytes() == np.nextafter(u, np.inf).tobytes()
    probes = [-np.inf, -1.0, -tiny, -0.0, 0.0, tiny, 0.25, 0.5, 1.0, 2.0, np.inf]
    ordered = probes + list(u) + list(above) + list(np.nextafter(u, -np.inf))
    x = np.array(ordered + [np.nan, -np.nan])  # NaN differences, either sign bit
    weight = np.array([0.0, 1e-300, 0.125, 3.0])
    odd_weight = [-0.0, -0.125, -3.0, np.nan, -np.nan]  # no config's agents have these
    xs, us, ws = np.meshgrid(x, u, np.concatenate([weight, odd_weight]), indexing="ij")
    _, aboves, _ = np.meshgrid(x, above, ws[0, 0], indexing="ij")
    copysign = np.copysign(ws, xs - aboves)

    # The kernel's votes, one run per grid point: reactivity 0 and optimism x
    # give x - above.  With one agent a run's demand is its vote added to the
    # sum's initial -0.0, which changes no bit (NaN's sign included).
    lanes = (1, 1, 1, xs.size)
    demands = np.empty((1, xs.size))
    market_module._walk(np.ones((2, xs.size)), demands, np.zeros(xs.size), xs.reshape(lanes), np.zeros(lanes),
                        np.abs(ws).reshape(lanes).view(np.uint64), 0.01, aboves.reshape(1, *lanes), None)
    votes = demands.reshape(xs.shape)
    assert votes.tobytes() == copysign.tobytes()

    less_grid = np.s_[: len(ordered), :, : len(weight)]  # no NaN difference, no sign on a weight
    old = (2.0 * np.less(us[less_grid], xs[less_grid]) - 1.0) * ws[less_grid]
    assert copysign[less_grid].tobytes() == old.tobytes()
    assert votes[less_grid].tobytes() == old.tobytes()


def test_optimism_is_added_before_the_uniform_is_taken(walk):
    # x = reactivity * r, then x += optimism, then x -= nextafter(u, +inf).
    # One agent of reactivity 1 and jitter 0 sees r one float below
    # U = nextafter(u, +inf), and optimism 3/4 of the float spacing d below U:
    # r + optimism is U - d/4, which rounds to U, so x - U is +0.0 and the
    # agent buys.  Taken as (r - U) + optimism, x is -d/4 and it sells.
    seed, step_index = 5, 3
    above = math.nextafter(u01(fold(seed, TAG_DECISION, step_index, 0)), math.inf)
    last_return = math.nextafter(above, 0.0)
    spacing = above - last_return
    optimism = 0.75 * spacing
    assert last_return + optimism == above and (last_return - above) + optimism < 0.0
    config = MarketConfig(types=(InvestorType("One", 1.0, 1, optimism=optimism, reactivity=1.0, trade_fraction=1.0),),
                          price_impact=0.01, jitter=0.0, master_seed=seed)
    # The hashed uniform (step streams it) and the same value read from a table.
    assert step(config, 100.0, last_return, step_index) == (101.0, 1.0)
    state = [np.full((1, 1, 1, 1), value) for value in (optimism, 1.0, 1.0)]
    demands = np.empty((1, 1))
    market_module._walk(np.full((2, 1), 100.0), demands, np.array([last_return]), state[0], state[1],
                        state[2].view(np.uint64), 0.01, np.full((1, 1, 1, 1, 1), above), None)
    assert demands[0, 0] == 1.0


def test_greedy_fills_the_baseline_instead_of_simulating_it(monkeypatch, cfg_a, params_a, target_a):
    sent = []
    original = market_module.simulate_batch

    def counting(config, seeds, enabled, *args):
        sent.append(len(enabled))
        return original(config, seeds, enabled, *args)

    monkeypatch.setattr(market_module, "simulate_batch", counting)
    greedy_reduce(cfg_a, params_a, target_a, replications=3)
    # The first call scores the full set, the baseline and the 4 singletons;
    # the baseline, which enables no type, never reaches the kernel.
    assert sent[0] == 5


def test_all_off_mask_makes_no_kernel_call(monkeypatch):
    target = synthetic_target(balanced_config(3), seed=19, n_days=60)

    def refuse(*args):
        raise AssertionError("an all-off mask reached simulate_batch")

    monkeypatch.setattr(market_module, "simulate_batch", refuse)
    mapes = replication_mapes(BASE, [[False] * len(BASE.types)], target, len(SEEDS))
    constant = TimeSeries(target.dates, (target.values[0],) * len(target))
    assert [float(m).hex() for m in mapes[0]] == [mape(target, constant).hex()] * len(SEEDS)


# An anneal in which no type is enabled, pinned while every energy still ran the kernel.
ALL_OFF_ANNEAL_ENERGY = "0x1.399282671dc89p-6"
ALL_OFF_ANNEAL_BEST = "6d8e3d577a33a427d81b662ad219c32d00176458ca8cee8e89c64534b7442bf6"


def test_anneal_with_every_type_disabled_keeps_its_pinned_trace():
    config = only_enabled(bank_dominated_config(), ())
    target = synthetic_target(bank_dominated_config(), seed=5, n_days=60)
    fit = anneal(target, config, AnnealingSchedule(total_evaluations=12, proposals_per_epoch=4), seed=3)
    assert [e.hex() for e in fit.energy_trace] == [ALL_OFF_ANNEAL_ENERGY] * 12
    assert hashlib.sha256(fit.best_params.values.tobytes()).hexdigest() == ALL_OFF_ANNEAL_BEST
