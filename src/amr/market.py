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
demand is summed in fixed chunks combined in chunk order.  Worker counts
therefore never change the output, bit for bit.

One single-threaded kernel, simulate_batch, runs one config under S
seeds and M enabled masks as the rows of an (M * S, n_agents) state; each
step's (S, n_agents) decision uniforms serve every mask by broadcasting.
`workers` arguments are still accepted but start no threads: the thread
pools were removed after 2 workers measured slower than 1.

The decision uniforms are a pure function of (seed, step, agent), so
calls with the same seeds, agent count and horizon read the same values
(common random numbers: every annealing energy replays the same
replication seeds).  A one-slot table keeps them across calls.  A key
(seeds, n_agents, horizon - 1) is admitted on its second consecutive
call, and only if its table holds at most 2**19 float64 values (4 MB);
the table is then filled block by block and marked read-only, and later
calls with that key read it.  Any other key empties the slot.  The table
holds the very values the blocks would produce, so results are
bit-identical with or without it.  Jitter noise is regenerated on every
call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .rng import TAG_DECISION, TAG_JITTER, fold, fold_array, fold_matrix, u01_array
from .timeseries import TimeSeries

OPTIMISM_BOUNDS = (0.0, 1.0)
REACTIVITY_BOUNDS = (-1.0, 1.0)
# Lower bounds of trade_fraction and price_impact are open (> 0); the
# tiny floors below are what jitter and proposals clamp to.
TRADE_FRACTION_BOUNDS = (1e-6, 1.0)
PRICE_IMPACT_BOUNDS = (1e-6, 0.1)
JITTER_MAX = 0.2
MAX_TYPES = 16

# Fixed unit of demand aggregation; recorded on every run.
DEFAULT_CHUNK_SIZE = 4096

# Upper bound on precomputed decision uniforms held at once (elements).
_UNIFORM_BLOCK_ELEMENTS = 1 << 16
# Largest decision-uniform table kept across calls (elements; 4 MB).
_UNIFORM_TABLE_ELEMENTS = 1 << 19

# The key of the last simulate_batch call and, once that key has repeated,
# its read-only uniform table.  One tuple, so a reader never pairs a key
# with another key's table.
_uniform_slot: tuple[tuple | None, np.ndarray | None] = (None, None)


@dataclass(frozen=True)
class InvestorType:
    """Behavioral template from which a population of agents is built."""

    name: str
    assets_per_investor: float  # millions
    count: int
    optimism: float  # baseline buy probability, in [0, 1]
    reactivity: float  # sensitivity of buy probability to the last return, in [-1, 1]
    trade_fraction: float  # share of assets placed per decision, in (0, 1]
    enabled: bool = True

    def __post_init__(self):
        if not self.name:
            raise ValueError("investor type needs a name")
        if not 0 < self.assets_per_investor < math.inf:
            raise ValueError(f"{self.name}: assets_per_investor must be > 0 and finite")
        if not (isinstance(self.count, int) and self.count >= 1):
            raise ValueError(f"{self.name}: count must be an integer >= 1")
        if not 0.0 <= self.optimism <= 1.0:
            raise ValueError(f"{self.name}: optimism {self.optimism} outside [0, 1]")
        if not -1.0 <= self.reactivity <= 1.0:
            raise ValueError(f"{self.name}: reactivity {self.reactivity} outside [-1, 1]")
        if not 0.0 < self.trade_fraction <= 1.0:
            raise ValueError(f"{self.name}: trade_fraction {self.trade_fraction} outside (0, 1]")

    @property
    def total_assets(self) -> float:
        return self.assets_per_investor * self.count


@dataclass(frozen=True)
class MarketConfig:
    """A full market: investor types plus global simulation knobs."""

    types: tuple[InvestorType, ...]
    price_impact: float  # in (0, 0.1]; with |demand| <= 1 this keeps prices positive
    jitter: float = 0.05  # amplitude of per-agent parameter noise, in [0, 0.2]
    master_seed: int = 0

    def __post_init__(self):
        if not 1 <= len(self.types) <= MAX_TYPES:
            raise ValueError(f"need 1..{MAX_TYPES} investor types, got {len(self.types)}")
        names = [t.name for t in self.types]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate type names in {names}")
        if not 0.0 < self.price_impact <= PRICE_IMPACT_BOUNDS[1]:
            raise ValueError(f"price_impact {self.price_impact} outside (0, {PRICE_IMPACT_BOUNDS[1]}]")
        if not 0.0 <= self.jitter <= JITTER_MAX:
            raise ValueError(f"jitter {self.jitter} outside [0, {JITTER_MAX}]")
        if not isinstance(self.master_seed, int):
            raise ValueError("master_seed must be an integer")

    @property
    def type_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.types)

    @property
    def total_assets(self) -> float:
        """Total assets of the full configuration, disabled types included."""
        return sum(t.total_assets for t in self.types)

    @property
    def enabled_asset_share(self) -> float:
        return sum(t.total_assets for t in self.types if t.enabled) / self.total_assets

    def type_named(self, name: str) -> InvestorType:
        for t in self.types:
            if t.name == name:
                return t
        raise ValueError(f"unknown investor type {name!r}; have {list(self.type_names)}")


def set_enabled(config: MarketConfig, type_names: Iterable[str], enabled: bool) -> MarketConfig:
    """Copy of `config` with the named types' enabled flag set.

    Demand normalization is by the full configuration's assets, so
    disabling a type attenuates demand by that type's asset share
    rather than re-weighting the survivors.
    """
    wanted = set(type_names)
    known = set(config.type_names)
    unknown = wanted - known
    if unknown:
        raise ValueError(f"unknown investor type(s) {sorted(unknown)}; have {sorted(known)}")
    new_types = tuple(
        replace(t, enabled=enabled) if t.name in wanted else t for t in config.types
    )
    return replace(config, types=new_types)


def only_enabled(config: MarketConfig, type_names: Iterable[str]) -> MarketConfig:
    """Copy of `config` with exactly `type_names` enabled, all others off."""
    return set_enabled(set_enabled(config, config.type_names, False), type_names, True)


# -- JSON wire format ---------------------------------------------------


def config_to_dict(config: MarketConfig) -> dict:
    return {
        "types": [
            {
                "name": t.name,
                "assets_per_investor": t.assets_per_investor,
                "count": t.count,
                "optimism": t.optimism,
                "reactivity": t.reactivity,
                "trade_fraction": t.trade_fraction,
                "enabled": t.enabled,
            }
            for t in config.types
        ],
        "price_impact": config.price_impact,
        "jitter": config.jitter,
        "master_seed": config.master_seed,
    }


def _number(value, field: str) -> float:
    """A JSON number as a float; null, bools, strings and the rest raise naming `field`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    """A JSON integer; null, bools, floats, strings and the rest raise naming `field`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _type_from_dict(t: dict, position: int) -> InvestorType:
    if not isinstance(t, dict):
        raise ValueError(f"market config types[{position}] must be a JSON object, got {t!r}")
    name = t["name"]
    enabled = t.get("enabled", True)
    if not isinstance(enabled, bool):
        raise ValueError(f"investor type {name!r}: enabled must be true or false, got {enabled!r}")
    fields = ("assets_per_investor", "optimism", "reactivity", "trade_fraction")
    return InvestorType(
        name=name,
        count=_integer(t["count"], f"investor type {name!r}: count"),
        enabled=enabled,
        **{f: _number(t[f], f"investor type {name!r}: {f}") for f in fields},
    )


def config_from_dict(data: dict) -> MarketConfig:
    if not isinstance(data, dict):
        raise ValueError(f"market config must be a JSON object, got {type(data).__name__}")
    if not isinstance(data.get("types", []), list):
        raise ValueError(f"market config types must be a JSON list, got {data['types']!r}")
    try:
        return MarketConfig(
            types=tuple(_type_from_dict(t, i) for i, t in enumerate(data["types"])),
            price_impact=_number(data["price_impact"], "market config price_impact"),
            jitter=_number(data.get("jitter", 0.05), "market config jitter"),
            master_seed=_integer(data.get("master_seed", 0), "market config master_seed"),
        )
    except KeyError as missing:
        raise ValueError(f"market config missing field {missing}") from None


def load_config(path: str | Path) -> MarketConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"market config not found: {path}")
    return config_from_dict(json.loads(path.read_text()))


def save_config(config: MarketConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


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
    chunk_size: int

    def __post_init__(self):
        # Cache the per-agent demand weight.
        self._weight = np.where(
            self.enabled, self.trade_fraction * self.assets / self.normalization_assets, 0.0
        )

    def __len__(self) -> int:
        return len(self.type_index)

    @property
    def enabled_asset_share(self) -> float:
        return float(np.sum(self.assets[self.enabled])) / self.normalization_assets


def init_population(config: MarketConfig, chunk_size: int = DEFAULT_CHUNK_SIZE) -> AgentPopulation:
    """One agent per individual investor, parameters jittered within bounds.

    Noise for agent a's parameter d is uniform in +/- config.jitter,
    drawn from the counter stream keyed by (master_seed, jitter tag, d, a)
    and clamped to the parameter's bounds.  Disabled types' agents are
    created too; they simply emit no demand.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    counts = np.array([t.count for t in config.types], dtype=np.int64)
    type_index = np.repeat(np.arange(len(config.types), dtype=np.int64), counts)
    n = int(counts.sum())
    agent_ids = np.arange(n, dtype=np.uint64)

    base = np.repeat(np.array([[t.optimism, t.reactivity, t.trade_fraction] for t in config.types]),
                     counts, axis=0)
    lo = np.array([OPTIMISM_BOUNDS[0], REACTIVITY_BOUNDS[0], TRADE_FRACTION_BOUNDS[0]])
    hi = np.array([OPTIMISM_BOUNDS[1], REACTIVITY_BOUNDS[1], TRADE_FRACTION_BOUNDS[1]])

    jitter_key = fold(config.master_seed, TAG_JITTER)
    jittered = np.empty((n, 3))
    for d in range(3):
        bits = fold_array(fold(jitter_key, d), agent_ids)
        noise = (2.0 * u01_array(bits) - 1.0) * config.jitter
        jittered[:, d] = np.clip(base[:, d] + noise, lo[d], hi[d])

    return AgentPopulation(
        type_index=type_index,
        optimism=jittered[:, 0],
        reactivity=jittered[:, 1],
        trade_fraction=jittered[:, 2],
        assets=np.repeat(np.array([t.assets_per_investor for t in config.types]), counts),
        enabled=np.repeat(np.array([t.enabled for t in config.types], dtype=bool), counts),
        normalization_assets=config.total_assets,
        price_impact=config.price_impact,
        chunk_size=chunk_size,
    )


def _row_sums(contrib: np.ndarray, chunk_size: int) -> np.ndarray:
    """Net demand of every row, accumulated in place in `contrib`.

    Chunks are summed in strict ascending agent order and their totals
    added to 0.0 in chunk order; a lone chunk's total is returned as is,
    so a row of -0.0 terms keeps its sign.
    """
    n = contrib.shape[1]
    if n <= chunk_size:
        np.add.accumulate(contrib, axis=1, out=contrib)
        return contrib[:, -1]
    demand = np.zeros(len(contrib))
    for lo in range(0, n, chunk_size):
        chunk = contrib[:, lo : lo + chunk_size]
        np.add.accumulate(chunk, axis=1, out=chunk)
        demand += chunk[:, -1]
    return demand


def _advance(
    price: np.ndarray,
    last_return: np.ndarray,
    optimism: np.ndarray,
    reactivity: np.ndarray,
    weight: np.ndarray,
    price_impact: float,
    uniforms: np.ndarray,
    chunk_size: int,
    scratch: np.ndarray,
    cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One trading day for each row of the (R, n) agent arrays; returns (prices, demands)."""
    np.multiply(reactivity, last_return[:, None], out=scratch)
    scratch += optimism
    np.clip(scratch, 0.0, 1.0, out=scratch)
    np.less(uniforms, cells, out=cells)  # cells: scratch as (R / S, S, n); 1.0 where the agent buys
    # 2 * buy - 1 is exactly +1 or -1, so this is +weight or -weight bit for bit.
    scratch *= 2.0
    scratch -= 1.0
    scratch *= weight
    demand = _row_sums(scratch, chunk_size)
    return price * (1.0 + price_impact * demand), demand


def step(
    price: float,
    last_return: float,
    population: AgentPopulation,
    step_index: int,
    master_seed: int,
) -> tuple[float, float]:
    """Advance the price one trading day.

    Enabled agent i buys with probability clamp(optimism_i +
    reactivity_i * last_return, 0, 1) against a counter-based uniform
    keyed by (master_seed, decision tag, step_index, i); its vote is
    weighted by trade_fraction_i * assets_i / normalization_assets.
    The draw exists for every agent, enabled or not, so toggling types
    never shifts anyone else's stream.
    """
    if not 0 < price < math.inf:
        raise ValueError(f"price must be positive and finite, got {price}")
    step_key = fold(master_seed, TAG_DECISION, step_index)
    uniforms = u01_array(fold_array(step_key, np.arange(len(population), dtype=np.uint64)))
    scratch = np.empty((1, len(population)))
    next_price, demand = _advance(
        np.array([price]), np.array([last_return]),
        population.optimism[None], population.reactivity[None], population._weight[None],
        population.price_impact, uniforms[None], population.chunk_size, scratch, scratch[None],
    )
    return float(next_price[0]), float(demand[0])


def _uniform_block(seed_keys: list[int], agent_ids: np.ndarray, steps: range) -> np.ndarray:
    """Decision uniforms of `steps` for every seed and agent, shaped (steps, S, n)."""
    bits = fold_matrix([fold(key, t) for t in steps for key in seed_keys], agent_ids)
    return u01_array(bits).reshape(len(steps), len(seed_keys), len(agent_ids))


def _decision_uniforms(seeds: Sequence[int], n_agents: int, steps: int) -> Iterable[np.ndarray]:
    """Each step's (S, n_agents) decision uniforms, in step order.

    Uniforms are price-independent, so they are produced in blocks of at
    most _UNIFORM_BLOCK_ELEMENTS ahead of the sequential price loop.  A
    key (seeds, n_agents, steps) that repeats on consecutive calls and
    fits _UNIFORM_TABLE_ELEMENTS is instead filled, block by block, into
    the read-only table of _uniform_slot, which later calls with that key
    read.  The values are the same on either path.
    """
    global _uniform_slot
    seed_keys = [fold(seed, TAG_DECISION) for seed in seeds]
    agent_ids = np.arange(n_agents, dtype=np.uint64)
    block = max(1, _UNIFORM_BLOCK_ELEMENTS // (len(seeds) * n_agents))
    spans = [range(lo, min(lo + block, steps)) for lo in range(0, steps, block)]
    key = (tuple(seeds), n_agents, steps)
    last_key, table = _uniform_slot
    if key != last_key or steps * len(seeds) * n_agents > _UNIFORM_TABLE_ELEMENTS:
        # First sighting or too large: no table, so a one-off call costs no memory.
        _uniform_slot = (key, None)
        return (u for span in spans for u in _uniform_block(seed_keys, agent_ids, span))
    if table is None:
        # Block by block, so building holds one block's temporaries at a time.
        table = np.empty((steps, len(seeds), n_agents))
        for span in spans:
            table[span.start : span.stop] = _uniform_block(seed_keys, agent_ids, span)
        table.setflags(write=False)
        _uniform_slot = (key, table)
    return table


def simulate_batch(
    config: MarketConfig,
    seeds: Sequence[int],
    enabled: Sequence[Sequence[bool]],
    p0: float,
    horizon: int,
    dates: Sequence[date],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate `config` under every seed and every enabled mask together.

    `enabled` holds M masks of one flag per type.  Returns (prices,
    demands) of shapes (M, S, horizon) and (M, S, horizon - 1); cell
    [m, s] is bit for bit what simulate_pk produces for `config` with
    master seed seeds[s] and exactly the types flagged in enabled[m].
    Rows of the (M * S, n_agents) state run mask-major, seed-minor.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(dates) != horizon:
        raise ValueError(f"got {len(dates)} dates for horizon {horizon}")
    if not 0 < p0 < math.inf:
        raise ValueError(f"p0 must be positive and finite, got {p0}")
    if not len(seeds):
        raise ValueError("simulate_batch needs at least one seed")
    masks = np.array(enabled, dtype=bool)
    if not len(enabled) or masks.shape != (len(enabled), len(config.types)):
        raise ValueError(f"simulate_batch needs at least one enabled mask of {len(config.types)} flags")

    # Jitter depends on the seed only, so each seed's population serves every mask.
    everyone = set_enabled(config, config.type_names, True)
    populations = [init_population(replace(everyone, master_seed=s), chunk_size) for s in seeds]
    n_masks, n_seeds, n_agents = len(masks), len(seeds), len(populations[0])
    optimism = np.tile([p.optimism for p in populations], (n_masks, 1))
    reactivity = np.tile([p.reactivity for p in populations], (n_masks, 1))
    agent_masks = np.repeat(masks, [t.count for t in config.types], axis=1)[:, None]
    weight = np.where(agent_masks, [p._weight for p in populations], 0.0).reshape(-1, n_agents)

    rows = n_masks * n_seeds
    prices = np.full((rows, horizon), p0, dtype=np.float64)
    demands = np.empty((rows, horizon - 1))
    last_return = np.zeros(rows)
    scratch = np.empty((rows, n_agents))
    cells = scratch.reshape(n_masks, n_seeds, n_agents)
    for s, uniforms in enumerate(_decision_uniforms(seeds, n_agents, horizon - 1)):
        if s > 0:
            np.subtract(prices[:, s], prices[:, s - 1], out=last_return)
            last_return /= prices[:, s - 1]
        prices[:, s + 1], demands[:, s] = _advance(
            prices[:, s], last_return, optimism, reactivity, weight, config.price_impact,
            uniforms, chunk_size, scratch, cells,
        )
    return (prices.reshape(n_masks, n_seeds, horizon),
            demands.reshape(n_masks, n_seeds, horizon - 1))


@dataclass(frozen=True)
class SimulationRun:
    """Output of one partial-knowledge simulation."""

    predicted: TimeSeries
    demands: tuple[float, ...]  # one per step taken (horizon - 1)
    seed_used: int
    chunk_size: int


def simulate_pk(
    config: MarketConfig,
    p0: float,
    horizon: int,
    dates: Sequence[date],
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SimulationRun:
    """Simulate `horizon` days seeded only by the starting price p0.

    predicted[0] = p0; each later value comes from step()'s update fed
    with the return of the simulation's own previous move (0 for the
    first step, which has no history).  The run is a pure function of
    (config, p0, horizon): worker count never changes the result.
    """
    mask = [t.enabled for t in config.types]
    prices, demands = simulate_batch(config, [config.master_seed], [mask], p0, horizon, dates, chunk_size)
    return SimulationRun(
        predicted=TimeSeries(tuple(dates), tuple(prices[0, 0].tolist())),
        demands=tuple(demands[0, 0].tolist()),
        seed_used=config.master_seed,
        chunk_size=chunk_size,
    )
