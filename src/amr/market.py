"""Investor types, agent populations, and the partial-knowledge market simulation.

A market is a small set of named investor types; each type stamps out
`count` agents whose behavioral parameters are the type's values plus a
uniform jitter, so agents are similar but not identical.  Simulation is
seeded with the target's value at t=0 only and never reads the target
again: each step every enabled agent votes buy (+1) or sell (-1), votes
are weighted by the assets the agent puts in play, and the aggregate net
demand moves the price multiplicatively.

Determinism contract: every random draw is a pure function of
(master_seed, purpose, step, agent) via counter-based streams, and net
demand is summed in fixed chunks of CHUNK_SIZE = 4096 agents, each in
agent order, with the chunk totals added in chunk order.  That order is
part of every output: the pinned digests fix it, so the chunk width is a
constant, not a setting.

One kernel, simulate_batch, runs one config under S seeds and M enabled
masks as one agent-major state of shape (C, K, M, S): the agents fill K
chunks of C positions (C = CHUNK_SIZE when there is more than one chunk,
else C = n_agents), position (c, k) holds agent k * C + c, and padding
agents at the end of the last chunk have weight 0.  Each of the
K * M * S chunk sums then runs down the leading axis with its lane
contiguous, so NumPy adds every lane in strict agent order at once.
Jitter, drawn once per call, depends only on (seed, agent) and the
decision uniforms only on (seed, step, agent), so every mask shares them.
step() is the one-day case: one seed (the config's own) and one mask
(its enabled flags), set up and walked the same way.

One set-up, _placed_state, serves every call.  It writes the three
placed arrays (optimism, reactivity, and the bits of |vote weight| that
the walk reads) once each, in place: the jitter uniforms are hashed slab
by slab with each slab's agent ids as parts, so they land in the placed
layout.  A call holds those three arrays and, at any one time, either
one set-up slab's ids and buffers or the walk's buffers (plus the
uniform table when tabled): about 4.1 state arrays of 8 * C * K * M * S
bytes at 200k agents, one seed and one mask.

The decision uniforms are a pure function of (seed, step, agent), so
calls with the same seeds, agent count and horizon read the same values
(common random numbers: every annealing energy replays the same
replication seeds).  A one-slot memo, _uniform_table (an lru_cache of
size 1), keeps them across calls, in the (steps, C * K, S) layout.  A key
(seeds, C, K, horizon - 1) whose table holds at most 2**20 float64 values
(8 MB) is tabled on first sight: the table is filled block by block,
marked read-only, and read by later calls with that key.  Any other key
empties the memo, and a larger one is streamed; a call that takes no
step (horizon 1) returns after validation: it builds no agent, reads no
uniform and leaves the memo alone.  A build drops the old table before
it allocates the new one, so two are never held.  The table holds the
very values the blocks would produce, so results are bit-identical with
or without it.

Every simulation, step() included, runs through one time loop, _walk,
which is compiled where a C compiler is found: _walk.c, built on first
use and loaded with ctypes by amr.native, walks all of a call's steps in
one C call.  It reads a tabled call's uniforms from the table, and
hashes a streamed call's itself from the step keys and the position ids,
_HASH_BATCH_ELEMENTS at a time in whole rows of the state, just before
those rows vote, so a batch is still in cache when it is read.  It does
the NumPy body's arithmetic in NumPy's order: x = reactivity * last
return, then x += optimism, then x -= nextafter(u, +inf); the vote is the
sign bit of x or-ed with the bits of |weight|; each lane is summed from
-0.0 in agent order, the chunk totals as (t0 + 0.0) + t1 + ... (a lone
chunk's total as is), and the price is (demand * price_impact + 1) *
price.  It is built with -ffp-contract=off, so no multiply and add are
fused into one rounding, and every price and demand keeps NumPy's bits.
Without a compiler, or when the build or its cache directory fails,
_walk runs its NumPy body, silently and with the same bits.

In the NumPy body, a step whose S * C * K uniforms fit
_UNIFORM_BLOCK_ELEMENTS is one block: its uniforms are hashed with those
of the next steps that fit, and it votes and sums over the whole (C, K,
M, S) state.  A larger step (200k agents) is walked in row blocks
[c0, c1) of the leading position axis, each of at most
_UNIFORM_BLOCK_ELEMENTS votes and balanced so the last is no sliver.
Rows c0..c1 are contiguous both in the state and in the uniform layout
(positions c * K + k), so a block's uniforms are hashed in place
(rng.u01_grid) into a small buffer just before it votes, and its vote
passes and its sum run while it is still in the L2 cache rather than
streaming every pass over the full state through memory.  The block's
chunk sums continue the previous block's: the running totals are written
into the buffer row just before the block's rows and the sum starts from
that row, so every lane is still added in strict agent order.  Every
uniform is a pure function of its key, so neither the block size nor the
block order changes a bit.

Jitter and decision uniforms alike are hashed by rng.u01_grid, or the
compiled walk's decision uniforms by its C twin, which take their keys
and parts with splitmix64's first xorshift already applied (see
amr.rng): each call folds its small (steps, S) or (fields, S) key array
once, with rng.grid_keys, and uses the position ids as parts.  A market
holds at most MAX_AGENTS = 2**30 agents, a multiple of CHUNK_SIZE, so
every position id is below 2**30 and is its own grid part.  Hashing a
value thus takes two passes fewer than fold does, and every uniform
keeps its bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import date
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import native
from .rng import SHIFT_FREE_PARTS, TAG_DECISION, TAG_JITTER, fold, fold_array, grid_keys, u01_grid
from .rng import fold_matrix, u01_array  # noqa: F401  (perfbench/layers.py wraps both here)
from .timeseries import TimeSeries, known_keys, parsed_fields, read_json, value_fault, write_json

# trade_fraction and price_impact have tiny floors, not 0: configs below
# them are rejected, and jitter and proposals clamp to them.
TRADE_FRACTION_BOUNDS = (1e-6, 1.0)
PRICE_IMPACT_BOUNDS = (1e-6, 0.1)
# Every investor type's learnable fields and their bounds, in the one order
# shared by the jitter streams and the parameter vector (amr.learner).
BEHAVIOR_FIELDS = ("optimism", "reactivity", "trade_fraction")
BEHAVIOR_BOUNDS = ((0.0, 1.0), (-1.0, 1.0), TRADE_FRACTION_BOUNDS)
JITTER_MAX = 0.2
MAX_TYPES = 16
# Most agents in a market: every position id is then below 2**30, its own rng.u01_grid part.
MAX_AGENTS = SHIFT_FREE_PARTS

# Agents per demand-summation chunk.  It fixes the order of every demand
# sum, so changing it changes outputs; _chunking reads it at call time.
CHUNK_SIZE = 4096

# The sign bit of a float64, as the uint64 mask that _walk keeps of each difference.
_SIGN_BIT = np.uint64(1 << 63)

# Lanes (chunks x rows) from which a demand sum reduces the agent axis in
# one call; narrower sums accumulate (see _walk).
_REDUCE_WIDTH = 8

# Upper bound on the decision uniforms NumPy hashes at once, on the jitter
# uniforms or vote weights of one set-up slab and, when a step's uniforms
# exceed it, on the votes of one row block of the NumPy walk (elements;
# 512 KB, so a block and its scratch stay in L2).
_UNIFORM_BLOCK_ELEMENTS = 1 << 16
# Decision uniforms the compiled walk hashes at once, in whole rows of the
# state (elements; 32 KB, so a batch is still in L1 when its rows vote).
_HASH_BATCH_ELEMENTS = 1 << 12
# Largest decision-uniform table kept across calls (elements; 8 MB).
_UNIFORM_TABLE_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class InvestorType:
    """Behavioral template from which a population of agents is built; BEHAVIOR_FIELDS lie in BEHAVIOR_BOUNDS."""

    name: str
    assets_per_investor: float  # millions
    count: int
    optimism: float  # baseline buy probability
    reactivity: float  # sensitivity of buy probability to the last return
    trade_fraction: float  # share of assets placed per decision
    enabled: bool = True

    def __post_init__(self):
        if not self.name:
            raise ValueError("investor type needs a name")
        if not 0 < self.assets_per_investor < math.inf:
            raise ValueError(f"{self.name}: assets_per_investor must be > 0 and finite")
        if not (isinstance(self.count, int) and self.count >= 1):
            raise ValueError(f"{self.name}: count must be an integer >= 1")
        for field, (lo, hi) in zip(BEHAVIOR_FIELDS, BEHAVIOR_BOUNDS):
            value = getattr(self, field)
            if not lo <= value <= hi:
                raise ValueError(f"{self.name}: {field} {value} outside [{lo}, {hi}]")

    @property
    def total_assets(self) -> float:
        return self.assets_per_investor * self.count


@dataclass(frozen=True)
class MarketConfig:
    """A full market: up to MAX_TYPES investor types and MAX_AGENTS agents with finite total assets, plus knobs."""

    types: tuple[InvestorType, ...]
    price_impact: float  # in PRICE_IMPACT_BOUNDS; with |demand| <= 1 this keeps prices positive
    jitter: float = 0.05  # amplitude of per-agent parameter noise, in [0, 0.2]
    master_seed: int = 0

    def __post_init__(self):
        if not 1 <= len(self.types) <= MAX_TYPES:
            raise ValueError(f"need 1..{MAX_TYPES} investor types, got {len(self.types)}")
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate type names in {names}")
        lo, hi = PRICE_IMPACT_BOUNDS
        if not lo <= self.price_impact <= hi:
            raise ValueError(f"price_impact {self.price_impact} outside [{lo}, {hi}]")
        if not 0.0 <= self.jitter <= JITTER_MAX:
            raise ValueError(f"jitter {self.jitter} outside [0, {JITTER_MAX}]")
        if not isinstance(self.master_seed, int):
            raise ValueError("master_seed must be an integer")
        if self.n_agents > MAX_AGENTS:
            counts = ", ".join(f"{t.name} {t.count}" for t in self.types)
            raise ValueError(f"a market holds at most {MAX_AGENTS} (2**30) agents, got {self.n_agents} "
                             f"from the type counts ({counts})")
        if not self.total_assets < math.inf:
            products = ", ".join(f"{t.name} {t.assets_per_investor!r} * {t.count}" for t in self.types)
            raise ValueError(f"total assets overflow: assets_per_investor * count summed over the types "
                             f"({products}) is not finite")

    @property
    def type_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.types)

    @property
    def n_agents(self) -> int:
        """Agents of the full configuration, disabled types included."""
        return sum(t.count for t in self.types)

    @property
    def total_assets(self) -> float:
        """Total assets of the full configuration, disabled types included."""
        return sum(t.total_assets for t in self.types)

    @property
    def enabled_asset_share(self) -> float:
        return sum(t.total_assets for t in self.types if t.enabled) / self.total_assets


def known_type_names(config: MarketConfig, names: Iterable[str]) -> set[str]:
    """The set of `names`; raise naming every one that is not an investor type of `config`."""
    wanted = set(names)
    unknown = wanted - set(config.type_names)
    if unknown:
        raise ValueError(f"unknown investor type(s) {sorted(unknown)}; have {list(config.type_names)}")
    return wanted


def set_enabled(config: MarketConfig, type_names: Iterable[str], enabled: bool) -> MarketConfig:
    """Copy of `config` with the named types' enabled flag set.

    Demand normalization is by the full configuration's assets, so
    disabling a type attenuates demand by that type's asset share
    rather than re-weighting the survivors.
    """
    wanted = known_type_names(config, type_names)
    new_types = tuple(
        replace(t, enabled=enabled) if t.name in wanted else t for t in config.types
    )
    return replace(config, types=new_types)


def only_enabled(config: MarketConfig, type_names: Iterable[str]) -> MarketConfig:
    """Copy of `config` with exactly `type_names` enabled, all others off."""
    return set_enabled(set_enabled(config, config.type_names, False), type_names, True)


# -- JSON wire format ---------------------------------------------------


def _type_from_dict(t: dict, position: int) -> InvestorType:
    if not isinstance(t, dict):
        raise ValueError(f"market config types[{position}] must be a JSON object, got {t!r}")
    name = t["name"]
    if not isinstance(name, str) or not name:
        raise ValueError(f"market config types[{position}].name must be a non-empty string, got {name!r}")
    known_keys(t, (f.name for f in fields(InvestorType)), f"investor type {name!r}")
    return InvestorType(name=name, **parsed_fields(InvestorType, t, f"investor type {name!r}: "))


def config_from_dict(data: dict) -> MarketConfig:
    if not isinstance(data, dict):
        raise ValueError(f"market config must be a JSON object, got {type(data).__name__}")
    known_keys(data, (f.name for f in fields(MarketConfig)), "market config")
    if not isinstance(data.get("types", []), (list, tuple)):
        raise ValueError(f"market config types must be a JSON list, got {data['types']!r}")
    try:
        return MarketConfig(
            types=tuple(_type_from_dict(t, i) for i, t in enumerate(data["types"])),
            **parsed_fields(MarketConfig, data, "market config "),
        )
    except KeyError as missing:
        raise ValueError(f"market config missing field {missing}") from None


def load_config(path: str | Path) -> MarketConfig:
    return config_from_dict(read_json(path, "market config"))


def save_config(config: MarketConfig, path: str | Path) -> None:
    write_json(path, asdict(config))


# -- population ---------------------------------------------------------


@dataclass
class AgentPopulation:
    """Jittered agents realized from a config; a pure function of it.

    normalization_assets is the FULL configuration's asset total,
    including disabled types, and never changes when types are toggled.
    """

    type_index: np.ndarray  # int64, agent -> type position
    optimism: np.ndarray
    reactivity: np.ndarray
    trade_fraction: np.ndarray
    assets: np.ndarray  # per agent, millions
    enabled: np.ndarray  # bool mask
    normalization_assets: float
    price_impact: float

    def __len__(self) -> int:
        return len(self.type_index)


def _agent_types(config: MarketConfig, ids: np.ndarray) -> np.ndarray:
    """Type index of each agent id in `ids`; padding ids (>= n_agents) get len(config.types)."""
    ends = np.cumsum([t.count for t in config.types], dtype=np.uint64)
    return np.searchsorted(ends, ids, side="right")


def _jittered(config: MarketConfig, seeds: Sequence[int], size: int, chunks: int,
              out: Sequence[np.ndarray]) -> None:
    """Write field d of BEHAVIOR_FIELDS of the agents placed in K chunks of C into out[d], each (C * K, M, S).

    Agent a's field d under seed s is its type's value plus noise
    uniform in +/- config.jitter, keyed by (s, jitter tag, d, a), clamped
    to the field's bounds; every mask gets the same value, and padding
    ids (>= n_agents) get 0.  The uniforms are hashed in place
    (rng.u01_grid) one slab of _row_blocks positions at a time into one
    buffer, each with the ids of its own positions (_agent_ids); each is
    a pure function of its key, so the slab size changes no bit.  Every
    id is below MAX_AGENTS, so it is its own grid part.
    """
    n_types, n_seeds = len(config.types), len(seeds)
    keys = grid_keys(np.array([[fold(seed, TAG_JITTER, d) for seed in seeds]
                               for d in range(len(BEHAVIOR_FIELDS))], dtype=np.uint64))
    base = np.array([[getattr(t, f) for t in config.types] + [0.0] for f in BEHAVIOR_FIELDS])
    lo, hi = np.array(BEHAVIOR_BOUNDS).T[:, :, None, None]  # (3, 1, 1) each
    bounds = _row_blocks(size * chunks, keys.size)
    buffer = np.empty(keys.size * bounds[0][1])  # the first slab is the longest
    scratch = np.empty(buffer.size, dtype=np.uint64)
    for p0, p1 in bounds:
        ids = _agent_ids(size, chunks, p0, p1)
        types = _agent_types(config, ids)
        slab = buffer[: keys.size * (p1 - p0)].reshape(len(keys), p1 - p0, n_seeds)
        u01_grid(keys, ids, slab, scratch[: slab.size])
        slab *= 2.0
        slab -= 1.0
        slab *= config.jitter
        slab += base[:, types, None]
        np.clip(slab, lo, hi, out=slab)
        slab[:, types == n_types] = 0.0
        for field, values in zip(out, slab):
            field[p0:p1] = values[:, None]


def init_population(config: MarketConfig) -> AgentPopulation:
    """One agent per individual investor, parameters jittered within bounds (see _jittered).

    Disabled types' agents are created too; they simply emit no demand.
    """
    counts = np.array([t.count for t in config.types], dtype=np.int64)
    fields = np.empty((len(BEHAVIOR_FIELDS), config.n_agents, 1, 1))
    _jittered(config, [config.master_seed], config.n_agents, 1, fields)  # one chunk: position i holds agent i
    optimism, reactivity, trade_fraction = fields.reshape(len(BEHAVIOR_FIELDS), config.n_agents)
    return AgentPopulation(
        type_index=np.repeat(np.arange(len(config.types), dtype=np.int64), counts),
        optimism=optimism,
        reactivity=reactivity,
        trade_fraction=trade_fraction,
        assets=np.repeat(np.array([t.assets_per_investor for t in config.types]), counts),
        enabled=np.repeat(np.array([t.enabled for t in config.types], dtype=bool), counts),
        normalization_assets=config.total_assets,
        price_impact=config.price_impact,
    )


def _chunking(n_agents: int) -> tuple[int, int]:
    """(C, K): the agents fill K chunks of C positions; C = n_agents when one chunk holds them all."""
    size = CHUNK_SIZE if n_agents > CHUNK_SIZE else n_agents
    return size, -(-n_agents // size)


def _agent_ids(size: int, chunks: int, p0: int, p1: int) -> np.ndarray:
    """Agent id at every position p0..p1 - 1: position c * K + k holds agent k * C + c (ids >= n_agents are padding).

    The ids of the rows the slab touches are made, then cut to the slab,
    so no array of every position's id is ever held.
    """
    c0 = p0 // chunks
    offsets = np.arange(chunks, dtype=np.uint64) * np.uint64(size)  # agent k * C of each chunk's first position
    rows = np.arange(c0, -(-p1 // chunks), dtype=np.uint64)[:, None] + offsets
    return rows.ravel()[p0 - c0 * chunks : p1 - c0 * chunks]


def _next_up(uniforms: np.ndarray) -> np.ndarray:
    """nextafter(u, +inf) of every uniform, in place: each u is finite and >= 0, so its bits + 1."""
    uniforms.view(np.int64)[...] += 1
    return uniforms


def _check_normal(price: float, name: str) -> None:
    """Raise unless `price` is normal: a subnormal one keeps too few mantissa bits for a run to scale with it."""
    if value_fault(price):
        raise ValueError(f"{name} must be positive, finite and normal (>= {sys.float_info.min!r}), "
                         f"got {price!r}")


def _row_blocks(size: int, per_row: int) -> list[tuple[int, int]]:
    """Bounds [c0, c1) of the fewest blocks of the `size` rows that hold at most
    _UNIFORM_BLOCK_ELEMENTS values each, at `per_row` values a row (one row at least).

    The blocks are as even as whole rows allow, the longer ones first, so
    the last is never a sliver: 4096 rows of 49 values make 4 blocks of 1024.
    """
    n = -(-size // max(1, _UNIFORM_BLOCK_ELEMENTS // per_row))
    rows, longer = divmod(size, n)
    edges = [b * rows + min(b, longer) for b in range(n + 1)]
    return list(zip(edges, edges[1:]))


def _streamed_uniforms(step_keys: np.ndarray, size: int, chunks: int):
    """above(t, c0, c1): nextafter(u, +inf) of the decision uniforms of rows [c0, c1) of step t.

    [c, k, 0, s] of the (c1 - c0, K, 1, S) result is position
    (c0 + c) * K + k of seed s: the uniform of agent k * C + c0 + c under
    the step key step_keys[t, s] = fold(seed, decision tag, step).  The
    keys are folded for rng.u01_grid once; the ids of the block's
    positions are its parts as they are, made for the first block
    (_agent_ids) and moved by the row offset for each later one.  Blocks
    are hashed into one buffer, reused for the whole walk, and moved up
    one float while they are still in cache.  The
    buffer is made at the first ask, as long as that block: _uniform_table
    and _walk each ask for their longest block first.  When a whole step
    fits _UNIFORM_BLOCK_ELEMENTS, steps are asked for whole and in order,
    and as many as fit are hashed at once; a larger step is hashed one row
    block at a time, as it is asked for.  Every block is a read-only view
    into the buffer, valid only until the next block is asked for.
    """
    steps, seeds = step_keys.shape
    keys = grid_keys(step_keys)
    group = max(1, _UNIFORM_BLOCK_ELEMENTS // (size * chunks * seeds))
    block = scratch = read_only = ids = None
    ids_row = 0  # ids[r * K + k] is the id of position (ids_row + r, k)

    def above(t: int, c0: int, c1: int) -> np.ndarray:
        nonlocal block, scratch, read_only, ids, ids_row
        if block is None:
            block = np.empty((min(group, steps), c1 - c0, chunks, 1, seeds))
            scratch = np.empty(block.size, dtype=np.uint64)
            read_only = block.view()
            read_only.setflags(write=False)
            ids, ids_row = _agent_ids(size, chunks, c0 * chunks, c1 * chunks), c0
        g = t % group
        if not g:
            if c0 != ids_row:  # row c0 + r's ids are row ids_row + r's plus c0 - ids_row, mod 2**64
                ids += np.uint64((c0 - ids_row) % (1 << 64))
                ids_row = c0
            n = min(group, steps - t)
            out = block[:n, : c1 - c0].reshape(n, (c1 - c0) * chunks, seeds)
            _next_up(u01_grid(keys[t : t + n], ids[: (c1 - c0) * chunks], out, scratch[: out.size]))
        return read_only[g, : c1 - c0]

    return above


def _address(a: np.ndarray, dtype, shape: tuple[int, ...]) -> int:
    """The address of `a` for the compiled walk, once its dtype, shape and C-contiguity are checked."""
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"the compiled walk needs a C-contiguous {np.dtype(dtype)} array of shape {shape}, "
                         f"got {a.dtype} {a.shape} (C-contiguous: {a.flags.c_contiguous})")
    return a.ctypes.data


def _walk(
    prices: np.ndarray,
    demands: np.ndarray,
    returns: np.ndarray,
    optimism: np.ndarray,
    reactivity: np.ndarray,
    abs_weight_bits: np.ndarray,
    price_impact: float,
    table: np.ndarray | None,
    step_keys: np.ndarray | None,
) -> None:
    """Every day of R = M * S runs: fills demands (T, R) and prices[1:] from prices[0] (T + 1, R).

    optimism and reactivity are (C, K, M, S) and abs_weight_bits the
    uint64 bits of |weight| in that layout; returns (R,) holds the first
    day's last return and then each day's.  The decision uniforms, moved
    up one float, are read from `table`, (T, C, K, 1, S), or when it is
    None hashed from `step_keys`, the (T, S) keys fold(seed, decision tag,
    step) (see _streamed_uniforms).

    Every step goes to the compiled walk (native.walk) when it loads, in
    one C call: it reads the table, or hashes the uniforms itself from
    the step keys folded by rng.grid_keys and the position ids, in batches
    of whole rows of at most _HASH_BATCH_ELEMENTS uniforms (one row at
    least).  C reads every array through its address, so each must be
    C-contiguous (_address checks it).

    Otherwise the NumPy body below walks them, with the same bits.  A
    step whose S * C * K uniforms fit _UNIFORM_BLOCK_ELEMENTS is one
    block; a larger step is a walk over row blocks [c0, c1) of at most
    _UNIFORM_BLOCK_ELEMENTS votes (see _row_blocks): each block's
    uniforms are hashed, its votes cast and its chunk sums continued while
    the block is still in cache.  Rows c0..c1 are contiguous both in the
    state and in the uniform layout.  The votes go to rows 1.. of one
    buffer; a block after the first reads its chunks' running totals from
    row 0, just before its own rows, so every lane is still added in
    strict agent order and the bits do not depend on the blocks.
    """
    size, chunks, n_masks, n_seeds = optimism.shape
    lanes = n_masks * n_seeds
    compiled = native.walk()
    if compiled is not None:
        # C reads and writes these arrays through their addresses, so each
        # stays bound to a name here until the walk returns.
        if table is None:  # C hashes the uniforms, batch_rows rows of the state at a time
            keys = grid_keys(step_keys)
            batch_rows = min(size, max(1, _HASH_BATCH_ELEMENTS // (chunks * n_seeds)))
            uniforms = (None, _address(keys, np.uint64, (len(demands), n_seeds)), batch_rows)
            scratch = np.empty(2 * chunks * lanes + batch_rows * chunks * n_seeds)
        else:
            uniforms = (_address(table, np.float64, (len(demands), size, chunks, 1, n_seeds)), None, size)
            scratch = np.empty(2 * chunks * lanes)
        state = [_address(a, dtype, optimism.shape)
                 for a, dtype in ((optimism, np.float64), (reactivity, np.float64), (abs_weight_bits, np.uint64))]
        out = [_address(a, np.float64, shape) for a, shape in (
            (prices, (len(demands) + 1, lanes)), (demands, (len(demands), lanes)), (returns, (lanes,)),
            (scratch, scratch.shape))]
        compiled(len(demands), size, chunks, n_masks, n_seeds, *state, *uniforms, price_impact, *out)
        return
    if table is None:
        above = _streamed_uniforms(step_keys, size, chunks)
    else:
        above = lambda t, c0, c1: table[t, c0:c1]
    if size * chunks * n_seeds <= _UNIFORM_BLOCK_ELEMENTS:
        bounds = [(0, size)]
    else:
        bounds = _row_blocks(size, chunks * lanes)
    rows = bounds[0][1]  # the first block is the longest
    votes = np.empty((rows + 1, chunks, n_masks, n_seeds))
    vote_bits = votes.view(np.uint64)
    sums = votes.reshape(rows + 1, chunks, lanes)
    # NumPy reduces a leading axis one lane-row at a time, so each lane is
    # summed in strict row order; the initial -0.0 keeps a sum of -0.0
    # terms negative and leaves a carried total as it is.  Below
    # _REDUCE_WIDTH lanes accumulate is faster (and a single lane would be
    # summed pairwise).
    reduce = chunks * lanes >= _REDUCE_WIDTH
    totals = np.empty((chunks, lanes))
    blocks = []
    for c0, c1 in bounds:
        summed = sums[int(c0 == 0) : c1 - c0 + 1]  # the block's rows, after the carry row unless first
        blocks.append((c0, c1, reactivity[c0:c1], optimism[c0:c1], abs_weight_bits[c0:c1],
                       votes[1 : c1 - c0 + 1], vote_bits[1 : c1 - c0 + 1], summed,
                       totals if reduce else summed[-1]))
    last_return = returns.reshape(n_masks, n_seeds)
    # An overflowed price makes later returns inf or NaN; such a run stays
    # at inf and the caller judges it, so the arithmetic raises no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(demands)):
            if t > 0:
                np.subtract(prices[t], prices[t - 1], out=returns)
                returns /= prices[t - 1]
            for (c0, c1, block_reactivity, block_optimism, block_weight_bits, block, bits, summed,
                 block_totals) in blocks:
                if c0:
                    sums[0] = chunk_totals  # the previous block's running totals
                np.multiply(block_reactivity, last_return, out=block)
                block += block_optimism
                # The agent buys when u < x.  No clamp of x to [0, 1]: every
                # uniform lies in [0, 1 - 2**-53].  x - nextafter(u, +inf) >= 0
                # exactly when u < x, and is never -0.0, so |weight| with its
                # sign bit gives +weight or -weight bit for bit as
                # (2 * [u < x] - 1) * weight did, for every x but NaN.  x is NaN
                # only after the run's price overflowed to inf, and from then on
                # the price stays inf whatever the votes.  The two integer
                # passes are copysign(weight, x - nextafter(u, +inf)), which
                # IEEE 754 defines as exactly that, for every input; NumPy runs
                # them with SIMD and its copysign without.
                block -= above(t, c0, c1)
                bits &= _SIGN_BIT
                bits |= block_weight_bits
                if reduce:
                    np.add.reduce(summed, axis=0, initial=-0.0, out=totals)
                else:
                    np.add.accumulate(summed, axis=0, out=summed)
                chunk_totals = block_totals
            # Chunk totals are added to 0.0 in chunk order; a lone chunk's
            # total is taken as is, so a run of -0.0 terms keeps its sign.
            if chunks == 1:
                demands[t] = chunk_totals[0]
            else:
                chunk_totals[0] += 0.0
                demands[t] = np.add.accumulate(chunk_totals, axis=0, out=chunk_totals)[-1]
            np.multiply(demands[t], price_impact, out=prices[t + 1])
            prices[t + 1] += 1.0
            prices[t + 1] *= prices[t]


def _step_keys(seeds: Sequence[int], steps: int) -> np.ndarray:
    """(steps, S) keys fold(seed, decision tag, step), one fold_array per seed."""
    step_ids = np.arange(steps, dtype=np.uint64)
    return np.stack([fold_array(fold(seed, TAG_DECISION), step_ids) for seed in seeds], axis=1)


@lru_cache(maxsize=1)
def _uniform_table(seeds: tuple[int, ...], size: int, chunks: int, steps: int) -> np.ndarray:
    """The read-only (steps, C * K, S) decision uniforms of the last key that fit.

    C and K are in the key, so a call under another CHUNK_SIZE never
    reads a table laid out for the old width.  The body runs only on a
    miss, and first drops the last key's table, so two tables are never
    held at once.
    """
    _uniform_table.cache_clear()
    above = _streamed_uniforms(_step_keys(seeds, steps), size, chunks)
    bounds = _row_blocks(size, chunks * len(seeds))  # the reader's blocks
    table = np.empty((steps, size, chunks, 1, len(seeds)))
    for t in range(steps):
        for c0, c1 in bounds:
            table[t, c0:c1] = above(t, c0, c1)
    table.setflags(write=False)
    return table.reshape(steps, size * chunks, len(seeds))


def _placed_state(config: MarketConfig, seeds: Sequence[int], masks: np.ndarray, size: int,
                  chunks: int) -> list[np.ndarray]:
    """Optimism, reactivity and |vote weight| as uint64 bits, each (C, K, M, S) and written once, in place.

    The jitter is hashed with the agent ids as parts (see _jittered).
    Then, slab by slab of _row_blocks, each agent's vote weight under
    mask m, trade_fraction * assets / config.total_assets (0 where m
    disables its type), overwrites its trade fraction and is made
    |weight|, whose bits are the walk's abs_weight_bits; padding holds
    0.  Optimism and reactivity are copied for every mask: broadcasting
    them over masks would cut every step's elementwise loops to S lanes.
    Each slab makes its own ids (_agent_ids), and its buffers are freed
    on return, before the walk.
    """
    shape = (size * chunks, len(masks), len(seeds))
    state = [np.empty(shape) for _ in BEHAVIOR_FIELDS]
    _jittered(config, seeds, size, chunks, state)
    optimism, reactivity, weight = state  # BEHAVIOR_FIELDS order
    # (type, mask, 1): each type's assets under each mask, 0 where it is off, and 0 for padding.
    assets = np.vstack([np.where(masks, [t.assets_per_investor for t in config.types], 0.0).T,
                        np.zeros(len(masks))])[:, :, None]
    for p0, p1 in _row_blocks(shape[0], shape[1] * shape[2]):
        slab = weight[p0:p1]
        slab *= assets[_agent_types(config, _agent_ids(size, chunks, p0, p1))]
        slab /= config.total_assets
        np.abs(slab, out=slab)
    return [a.reshape(size, chunks, *shape[1:]) for a in (optimism, reactivity, weight.view(np.uint64))]


def simulate_batch(
    config: MarketConfig,
    seeds: Sequence[int],
    enabled: Sequence[Sequence[bool]],
    p0: float,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate `config` under every seed and every enabled mask together.

    `enabled` holds M masks of one flag per type.  Returns (prices,
    demands) of shapes (M, S, horizon) and (M, S, horizon - 1); cell
    [m, s] is bit for bit what simulate_pk produces for `config` with
    master seed seeds[s] and exactly the types flagged in enabled[m].
    A run whose price overflows to inf stays at inf.  p0 must be a
    normal float: positive, finite and at least sys.float_info.min.  A
    one-day call takes no step: it builds no agent and keeps the memo.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _check_normal(p0, "p0")
    if not len(seeds):
        raise ValueError("simulate_batch needs at least one seed")
    masks = np.array(enabled, dtype=bool)
    if not len(enabled) or masks.shape != (len(enabled), len(config.types)):
        raise ValueError(f"simulate_batch needs at least one enabled mask of {len(config.types)} flags")

    n_masks, n_seeds, steps = len(masks), len(seeds), horizon - 1
    if not steps:
        return np.full((n_masks, n_seeds, 1), p0, dtype=np.float64), np.empty((n_masks, n_seeds, 0))
    size, chunks = _chunking(config.n_agents)
    state = _placed_state(config, seeds, masks, size, chunks)
    table = step_keys = None
    if steps * n_seeds * size * chunks <= _UNIFORM_TABLE_ELEMENTS:
        table = _uniform_table(tuple(seeds), size, chunks, steps).reshape(steps, size, chunks, 1, n_seeds)
    else:
        _uniform_table.cache_clear()  # any other key empties the memo
        step_keys = _step_keys(seeds, steps)
    prices = np.empty((horizon, n_masks * n_seeds))
    prices[0] = p0
    demands = np.empty((steps, n_masks * n_seeds))
    _walk(prices, demands, np.zeros(n_masks * n_seeds), *state, config.price_impact, table, step_keys)
    # Contiguous copies: a strided view would make mape_rows' mean over
    # days sum in another order than NumPy's pairwise sum of a
    # contiguous axis.
    return (np.ascontiguousarray(prices.T).reshape(n_masks, n_seeds, horizon),
            np.ascontiguousarray(demands.T).reshape(n_masks, n_seeds, horizon - 1))


def step(config: MarketConfig, price: float, last_return: float, step_index: int) -> tuple[float, float]:
    """Advance `config`'s market one trading day from `price`: (next price, net demand).

    The agents are the config's own, under config.master_seed, with its
    types' enabled flags: day t of simulate_pk is step(config, its price,
    its last return, t).  Enabled agent i buys with probability
    clamp(optimism_i + reactivity_i * last_return, 0, 1) against a
    counter-based uniform keyed by (master_seed, decision tag,
    step_index, i); its vote is weighted by trade_fraction_i * assets_i /
    config.total_assets.  The draw exists for every agent, enabled or
    not, so toggling types never shifts anyone else's stream.
    """
    _check_normal(price, "price")
    size, chunks = _chunking(config.n_agents)
    own_mask = np.array([[t.enabled for t in config.types]])
    step_keys = np.array([[fold(config.master_seed, TAG_DECISION, step_index)]], dtype=np.uint64)
    prices, demands = np.array([[price], [0.0]]), np.empty((1, 1))
    _walk(prices, demands, np.array([last_return], dtype=np.float64),
          *_placed_state(config, [config.master_seed], own_mask, size, chunks), config.price_impact,
          None, step_keys)
    return float(prices[1, 0]), float(demands[0, 0])


@dataclass(frozen=True)
class SimulationRun:
    """Output of one partial-knowledge simulation."""

    predicted: TimeSeries
    demands: tuple[float, ...]  # one per step taken (horizon - 1)


def simulate_pk(
    config: MarketConfig,
    p0: float,
    horizon: int,
    dates: Sequence[date],
    workers: int = 1,
) -> SimulationRun:
    """Simulate `horizon` days seeded only by the starting price p0.

    predicted[0] = p0; day t moves it as step(config, predicted[t],
    last return, t) does, fed with the return of the simulation's own
    previous move (0 for the first step, which has no history).  The run
    is a pure function of (config, p0, horizon); `workers` is accepted
    for compatibility and changes nothing.  A price that is not a normal
    float (inf, or below sys.float_info.min) raises ValueError naming p0,
    it and, last, its date.
    """
    if len(dates) != horizon:
        raise ValueError(f"got {len(dates)} dates for horizon {horizon}")
    mask = [t.enabled for t in config.types]
    prices, demands = simulate_batch(config, [config.master_seed], [mask], p0, horizon)
    predicted = prices[0, 0]
    abnormal = np.flatnonzero(~((predicted >= sys.float_info.min) & (predicted < math.inf)))
    if abnormal.size:
        first = float(predicted[abnormal[0]])
        raise ValueError(f"p0 {p0!r} is too {'large' if first == math.inf else 'small'}: the simulated "
                         f"price reaches {first!r}, not a normal float, on {dates[abnormal[0]]}")
    return SimulationRun(
        predicted=TimeSeries(tuple(dates), tuple(predicted.tolist())),
        demands=tuple(demands[0, 0].tolist()),
    )
