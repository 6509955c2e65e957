"""Simulated-annealing calibration of the market's free parameters.

The learnable degrees of freedom are the market.BEHAVIOR_FIELDS of every
investor type plus the global price impact: 3 * n_types + 1
box-bounded coordinates.  The objective ("energy") is
the replication-averaged MAPE of a partial-knowledge simulation against
the training series under fixed sub-seeds, so the energy of a given
vector is deterministic and the whole chain is reproducible.  Energies
and amr.reducer's subset scores reach the kernel only through
replication_mapes, and replication_mean averages each row of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, inf, ulp
from typing import Sequence

import numpy as np

from . import market
from .market import MarketConfig
from .rng import Stream, fold, substream
from .timeseries import TimeSeries, json_number, known_keys, mape_rows
from .timeseries import mape  # noqa: F401  (perfbench/layers.py wraps learner.mape)

_ANNEAL_TAG = 0x414E


def _bounds(n_types: int) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds for the flat layout: each type's BEHAVIOR_FIELDS in turn, then the impact."""
    lo, hi = np.array([*market.BEHAVIOR_BOUNDS * n_types, market.PRICE_IMPACT_BOUNDS]).T
    return lo, hi


def _coordinate_names(type_names: Sequence[str]) -> list[str]:
    """Names of the flat layout's coordinates, `<type>.<field>` then `price_impact`."""
    return [f"{t}.{f}" for t in type_names for f in market.BEHAVIOR_FIELDS] + ["price_impact"]


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Flat, box-bounded view of a config's behavioral parameters."""

    type_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        lo, hi = self.bounds()
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != lo.shape:
            raise ValueError(f"expected {lo.shape[0]} coordinates, got {v.shape}")
        inside = (v >= lo) & (v <= hi)  # False for NaN
        if not inside.all():
            bad = int(np.argmin(inside))
            raise ValueError(f"coordinate {self.coordinate_names()[bad]} = {v[bad]} out of bounds")
        object.__setattr__(self, "values", v)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return _bounds(len(self.type_names))

    def coordinate_names(self) -> list[str]:
        return _coordinate_names(self.type_names)

    @property
    def price_impact(self) -> float:
        return float(self.values[-1])

    @classmethod
    def from_config(cls, config: MarketConfig) -> "ParameterVector":
        vals = [getattr(t, f) for t in config.types for f in market.BEHAVIOR_FIELDS]
        return cls(config.type_names, np.array(vals + [config.price_impact]))

    @classmethod
    def random(cls, config: MarketConfig, stream: Stream) -> "ParameterVector":
        lo, hi = _bounds(len(config.types))
        vals = np.array([stream.uniform(a, b) for a, b in zip(lo, hi)])
        return cls(config.type_names, vals)

    def apply(self, config: MarketConfig) -> MarketConfig:
        """Config with this vector's behavior and impact substituted in."""
        if config.type_names != self.type_names:
            raise ValueError(
                f"parameter vector is for types {self.type_names}, config has {config.type_names}"
            )
        rows = self.values[:-1].reshape(len(self.type_names), len(market.BEHAVIOR_FIELDS))
        new_types = tuple(
            replace(t, **dict(zip(market.BEHAVIOR_FIELDS, row))) for t, row in zip(config.types, rows.tolist())
        )
        return replace(config, types=new_types, price_impact=self.price_impact)

    def to_dict(self) -> dict[str, float]:
        return dict(zip(self.coordinate_names(), self.values.tolist()))

    @classmethod
    def from_dict(cls, data: dict[str, float], type_names: tuple[str, ...]) -> "ParameterVector":
        if not isinstance(data, dict):
            raise ValueError(f"parameter file params must be a JSON object, got {type(data).__name__}")
        names = _coordinate_names(type_names)
        vals = []
        for key in names:
            if key not in data:
                raise ValueError(f"parameter file missing {key!r}")
            vals.append(json_number(data[key], f"parameter file {key!r}"))
        known_keys(data, names, "parameter file params")
        return cls(type_names, np.array(vals))


@dataclass(frozen=True)
class AnnealingSchedule:
    initial_temperature: float = 0.05  # energies are MAPE fractions, typically 0.03-0.15
    cooling_factor: float = 0.95
    proposals_per_epoch: int = 50
    total_evaluations: int = 5000
    proposal_sigma: float = 0.05  # fraction of each coordinate's range
    replications: int = 3  # simulations averaged per energy

    def __post_init__(self):
        if not 0 < self.initial_temperature < inf:
            raise ValueError(f"initial_temperature must be > 0 and finite, got {self.initial_temperature}")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError("cooling_factor must be in (0, 1)")
        if self.proposals_per_epoch < 1 or self.total_evaluations < 1 or self.replications < 1:
            raise ValueError("proposals_per_epoch, total_evaluations, replications must be >= 1")
        if not 0 <= self.proposal_sigma < inf:
            raise ValueError(f"proposal_sigma must be >= 0 and finite, got {self.proposal_sigma}")


@dataclass(frozen=True)
class FitResult:
    best_params: ParameterVector
    best_energy: float
    energy_trace: tuple[float, ...]  # best-so-far after each evaluation
    seed_used: int
    evaluations: int


# Masks x seeds x agents per simulate_batch call; amr.market's docstring
# says what a call holds (three placed float64 arrays of this many values).
MAX_BATCH_ELEMENTS = 1 << 17


def replication_mapes(config: MarketConfig, masks: Sequence[Sequence[bool]], target: TimeSeries,
                      replications: int) -> np.ndarray:
    """MAPE against `target` of every (mask, replication) run, shaped (M, R).

    Run [m, r] simulates `config` with the types of masks[m] and master seed
    substream(config.master_seed, r) from the target's first value over its
    length.  Masks that enable a type run in order, in simulate_batch calls
    of at most MAX_BATCH_ELEMENTS masks x seeds x agents (one mask at least).
    A mask that enables none is not simulated: its agents all weigh 0, so
    each step's price is (+-0 * impact + 1) * price = price, and its runs
    score the constant series at the target's first value.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    seeds = [substream(config.master_seed, r) for r in range(replications)]
    p0, horizon = target.values[0], len(target)
    mapes = np.full((len(masks), replications), mape_rows(target, np.full(horizon, p0)))
    live = [m for m, mask in enumerate(masks) if any(mask)]
    per_call = max(1, MAX_BATCH_ELEMENTS // (replications * sum(t.count for t in config.types)))
    for lo in range(0, len(live), per_call):
        batch = live[lo : lo + per_call]
        prices, _ = market.simulate_batch(config, seeds, [masks[m] for m in batch], p0, horizon)
        mapes[batch] = mape_rows(target, prices)
    return mapes


def replication_mean(row: Sequence[float]) -> float:
    """Mean of one row of replication MAPEs: the common value when all are
    equal, else their sum, left to right, divided by their count."""
    if all(x == row[0] for x in row):
        return row[0]
    total = 0.0
    for x in row:
        total += x
    return total / len(row)


def energy(params: ParameterVector, train: TimeSeries, config: MarketConfig, replications: int = 3) -> float:
    """Replication-averaged training MAPE of `params`: the replication_mean of
    the replication_mapes row of the config's own enabled types."""
    cfg = params.apply(config)
    mask = [t.enabled for t in cfg.types]
    return replication_mean(replication_mapes(cfg, [mask], train, replications)[0].tolist())


def propose(params: ParameterVector, sigma: float, stream: Stream) -> ParameterVector:
    """Perturb one uniformly chosen coordinate by clamped Gaussian noise.

    The noise standard deviation is sigma times the coordinate's range.
    """
    lo, hi = params.bounds()
    i = stream.integer(len(params.values))
    noise = stream.gauss(0.0, sigma * (hi[i] - lo[i]))
    new_values = params.values.copy()
    new_values[i] = min(max(new_values[i] + noise, lo[i]), hi[i])
    return ParameterVector(params.type_names, new_values)


def accept(delta_energy: float, temperature: float, stream: Stream) -> bool:
    """Metropolis criterion: downhill always, uphill with exp(-delta/T)."""
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    if delta_energy <= 0:
        return True
    return stream.u01() < exp(-delta_energy / temperature)


def anneal(
    train: TimeSeries,
    config: MarketConfig,
    schedule: AnnealingSchedule = AnnealingSchedule(),
    seed: int = 0,
    workers: int = 1,
) -> FitResult:
    """Metropolis search with geometric cooling over the parameter box.

    Starts from a uniformly random in-bounds vector, takes exactly
    schedule.total_evaluations energies (the start included), and cools
    T <- cooling_factor * T every proposals_per_epoch proposals, but never
    below ulp(0.0), where every uphill move is rejected (the T -> 0 limit).
    A proposal that moves no live coordinate (an enabled type's
    BEHAVIOR_FIELDS, or the price impact; a disabled type's agents weigh
    0) reuses the current energy.  Fully deterministic given (train,
    config, schedule, seed); `workers` is accepted and changes nothing.
    """
    if len(train) < 2:
        raise ValueError("training series needs at least 2 observations")
    stream = Stream(fold(seed, _ANNEAL_TAG))
    live = np.array([t.enabled for t in config.types for _ in market.BEHAVIOR_FIELDS] + [True])

    current = ParameterVector.random(config, stream)
    current_energy = energy(current, train, config, schedule.replications)
    best, best_energy = current, current_energy
    trace = [best_energy]

    temperature = schedule.initial_temperature
    proposals = 0
    while len(trace) < schedule.total_evaluations:
        candidate = propose(current, schedule.proposal_sigma, stream)
        if candidate.values[live].tobytes() == current.values[live].tobytes():
            # The energy is a pure function of the live coordinates, compared bit for bit.
            candidate_energy = current_energy
        else:
            candidate_energy = energy(candidate, train, config, schedule.replications)
        if candidate_energy < best_energy:
            best, best_energy = candidate, candidate_energy
        if accept(candidate_energy - current_energy, temperature, stream):
            current, current_energy = candidate, candidate_energy
        trace.append(best_energy)
        proposals += 1
        if proposals % schedule.proposals_per_epoch == 0:
            temperature = max(temperature * schedule.cooling_factor, ulp(0.0))

    return FitResult(
        best_params=best,
        best_energy=best_energy,
        energy_trace=tuple(trace),
        seed_used=seed,
        evaluations=len(trace),
    )


def fit_to_dict(fit: FitResult) -> dict:
    return {
        "params": fit.best_params.to_dict(),
        "best_mape": fit.best_energy,
        "seed": fit.seed_used,
        "evaluations": fit.evaluations,
        "best_mape_trace": list(fit.energy_trace),
    }


def params_from_fit_dict(data: dict, type_names: tuple[str, ...]) -> ParameterVector:
    if not isinstance(data, dict):
        raise ValueError(f"fit file must be a JSON object, got {type(data).__name__}")
    if "params" not in data:
        raise ValueError("fit file missing 'params'")
    return ParameterVector.from_dict(data["params"], type_names)
