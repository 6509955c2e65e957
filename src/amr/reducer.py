"""Greedy selection of a minimal investor-model subset, plus a brute-force oracle.

Given a trained parameter vector, the full set of investor types defines
the benchmark approximation error against a target series.  Each type is
then scored alone (its explanatory power is the inverse of its MAPE) and
the best-ranked unused type is added to a growing subset until the
subset's error comes within a tolerance of the benchmark.  Being a hill
climb, this can get stuck; exhaustive_reduce evaluates every non-empty
subset and serves as the validation oracle.

Subsets are evaluated by toggling enabled flags only: parameters stay as
trained on the full set, and learner.replication_mapes runs every subset
under the same sub-seeds, so their scores differ only by which types act.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt
from typing import Iterable, Sequence

from .learner import AnnealingSchedule, ParameterVector, anneal, replication_mapes
from .market import MarketConfig, only_enabled
from .market import simulate_pk  # noqa: F401  (perfbench/layers.py wraps reducer.simulate_pk)
from .timeseries import TimeSeries
from .timeseries import mape  # noqa: F401  (perfbench/layers.py wraps reducer.mape)

MAX_EXHAUSTIVE_TYPES = 16
DEFAULT_TOLERANCE = 0.005  # MAPE fraction, i.e. half a percentage point
DEFAULT_REPLICATIONS = 10
# Masks x seeds x agents per simulate_batch call: bounds the memory of a 16-type oracle.
MAX_BATCH_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class ModelSet:
    """Subset of a configuration's type labels, in declaration order."""

    member_names: tuple[str, ...]

    @classmethod
    def of(cls, config: MarketConfig, names: Iterable[str]) -> "ModelSet":
        wanted = set(names)
        unknown = wanted - set(config.type_names)
        if unknown:
            raise ValueError(f"unknown investor type(s) {sorted(unknown)}; have {list(config.type_names)}")
        return cls(tuple(n for n in config.type_names if n in wanted))

    def __len__(self) -> int:
        return len(self.member_names)

    def __contains__(self, name: str) -> bool:
        return name in self.member_names


@dataclass(frozen=True)
class Score:
    """Replication mean and sample standard deviation of a subset's MAPE."""

    mean: float
    std: float

    def as_percent(self) -> str:
        return f"{100 * self.mean:.2f} ± {100 * self.std:.2f}%"


@dataclass(frozen=True)
class ReductionReport:
    benchmark: Score  # full set
    baseline: Score  # all types disabled (constant output)
    singletons: dict[str, Score]
    ranking: tuple[str, ...]  # ascending singleton MAPE
    selection_trace: tuple[tuple[str, Score], ...]  # (added label, cumulative score)
    reduced_set: ModelSet
    tolerance_used: float
    eval_replications: int

    def to_dict(self) -> dict:
        return {
            "benchmark": {"mean": self.benchmark.mean, "std": self.benchmark.std},
            "baseline": {"mean": self.baseline.mean, "std": self.baseline.std},
            "singletons": {
                name: {"mean": s.mean, "std": s.std} for name, s in self.singletons.items()
            },
            "ranking": list(self.ranking),
            "selection_trace": [
                {"added": name, "mean": s.mean, "std": s.std} for name, s in self.selection_trace
            ],
            "reduced_set": list(self.reduced_set.member_names),
            "tolerance": self.tolerance_used,
            "replications": self.eval_replications,
        }

    def format_table(self) -> str:
        """Aligned text table: full set, baseline, singletons, reduced set."""
        rows = [("full set", self.benchmark), ("all disabled (constant)", self.baseline)]
        rows += [(f"only {name}", score) for name, score in self.singletons.items()]
        reduced_label = "reduced {" + ", ".join(self.reduced_set.member_names) + "}"
        rows.append((reduced_label, self.selection_trace[-1][1]))
        width = max(len(label) for label, _ in rows)
        lines = [f"{'case'.ljust(width)}  MAPE"]
        lines += [f"{label.ljust(width)}  {score.as_percent()}" for label, score in rows]
        return "\n".join(lines)


def _score(samples: Sequence[float]) -> Score:
    n = len(samples)
    if all(x == samples[0] for x in samples):
        # Identical replications (e.g. the constant baseline) score an
        # exact mean and an exact zero spread, no summation residue.
        return Score(samples[0], 0.0)
    mean = 0.0
    for x in samples:  # fixed order, deterministic float result
        mean += x
    mean /= n
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return Score(mean, sqrt(var))


def _subset_scores(
    subsets: Iterable[tuple[str, ...]],
    params: ParameterVector,
    config: MarketConfig,
    target: TimeSeries,
    replications: int,
) -> list[Score]:
    """Score of each subset, in order, from its replication_mapes row.

    The subsets are scored in as few calls as MAX_BATCH_ELEMENTS allows.
    """
    cfg = params.apply(config)
    member_sets = [ModelSet.of(cfg, members) for members in subsets]
    masks = [[n in members for n in cfg.type_names] for members in member_sets]
    # At least one mask per call; replication_mapes rejects replications < 1.
    per_call = max(1, MAX_BATCH_ELEMENTS // (max(replications, 1) * sum(t.count for t in cfg.types)))
    scores = []
    for lo in range(0, len(masks), per_call):
        mapes = replication_mapes(cfg, masks[lo : lo + per_call], target, replications)
        scores += [_score(row) for row in mapes.tolist()]
    return scores


def evaluate_subset(
    subset: ModelSet | Iterable[str],
    params: ParameterVector,
    config: MarketConfig,
    target: TimeSeries,
    replications: int = DEFAULT_REPLICATIONS,
) -> Score:
    """MAPE of the market restricted to `subset`, over the target window.

    Enables exactly the subset's types (the empty subset is the constant
    baseline) and scores its replication_mapes runs.  Every subset uses
    the same sub-seeds, making subset scores directly comparable.
    """
    members = subset.member_names if isinstance(subset, ModelSet) else tuple(subset)
    return _subset_scores([members], params, config, target, replications)[0]


def rank_models(
    config: MarketConfig,
    params: ParameterVector,
    target: TimeSeries,
    replications: int = DEFAULT_REPLICATIONS,
) -> list[tuple[str, float]]:
    """Types by ascending singleton MAPE (most explanatory first).

    Ties keep configuration declaration order (stable sort).
    """
    names = config.type_names
    scores = _subset_scores([(n,) for n in names], params, config, target, replications)
    return sorted(((n, s.mean) for n, s in zip(names, scores)), key=lambda item: item[1])


def greedy_reduce(
    config: MarketConfig,
    params: ParameterVector,
    target: TimeSeries,
    tolerance: float = DEFAULT_TOLERANCE,
    replications: int = DEFAULT_REPLICATIONS,
    workers: int = 1,
    retrain_schedule: AnnealingSchedule | None = None,
    retrain_train: TimeSeries | None = None,
    retrain_seed: int = 0,
) -> ReductionReport:
    """Grow a subset by singleton rank until it matches the benchmark.

    The singleton ranking is computed once up front; each addition
    re-evaluates the cumulative subset.  Selection stops as soon as the
    subset's mean MAPE is within `tolerance` of the full set's, and at
    the latest when the subset equals the full set (whose evaluation
    reproduces the benchmark exactly).

    With `retrain_schedule` and `retrain_train` given, every evaluated
    cumulative subset is re-annealed on the training series before
    scoring, instead of reusing the full-set parameters.
    """
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if (retrain_schedule is None) != (retrain_train is None):
        raise ValueError("retraining needs both retrain_schedule and retrain_train")

    def cumulative_score(members: tuple[str, ...]) -> Score:
        p = params
        if retrain_schedule is not None:
            subset_cfg = only_enabled(config, members)
            p = anneal(retrain_train, subset_cfg, retrain_schedule, retrain_seed).best_params
        return evaluate_subset(members, p, config, target, replications)

    # Full set, baseline and singletons run as one batch; retraining rescores the full set.
    names = config.type_names
    subsets = [names, (), *((n,) for n in names)]
    full, baseline, *singles = _subset_scores(subsets, params, config, target, replications)
    benchmark = full if retrain_schedule is None else cumulative_score(names)
    singletons = dict(zip(names, singles))
    ranking = tuple(n for n, _ in sorted(singletons.items(), key=lambda item: item[1].mean))

    chosen: list[str] = []
    trace: list[tuple[str, Score]] = []
    for name in ranking:
        chosen.append(name)
        if len(chosen) == 1 and retrain_schedule is None:
            score = singletons[name]
        else:
            score = cumulative_score(tuple(chosen))
        trace.append((name, score))
        if score.mean <= benchmark.mean + tolerance:
            break

    return ReductionReport(
        benchmark=benchmark,
        baseline=baseline,
        singletons=singletons,
        ranking=ranking,
        selection_trace=tuple(trace),
        reduced_set=ModelSet.of(config, chosen),
        tolerance_used=tolerance,
        eval_replications=replications,
    )


@dataclass(frozen=True)
class ExhaustiveReport:
    """Every non-empty subset scored, plus the best subset per size."""

    table: tuple[tuple[ModelSet, Score], ...]  # enumeration order: by size, then declaration order
    best_by_size: dict[int, tuple[ModelSet, Score]]

    def to_dict(self) -> dict:
        return {
            "table": [
                {"subset": list(ms.member_names), "mean": s.mean, "std": s.std}
                for ms, s in self.table
            ],
            "best_by_size": {
                str(k): {"subset": list(ms.member_names), "mean": s.mean, "std": s.std}
                for k, (ms, s) in self.best_by_size.items()
            },
        }


def exhaustive_reduce(
    config: MarketConfig,
    params: ParameterVector,
    target: TimeSeries,
    replications: int = DEFAULT_REPLICATIONS,
    workers: int = 1,
) -> ExhaustiveReport:
    """Score all 2^n - 1 non-empty subsets (n <= 16 guard)."""
    names = config.type_names
    if len(names) > MAX_EXHAUSTIVE_TYPES:
        raise ValueError(
            f"exhaustive search over {len(names)} types would evaluate "
            f"2^{len(names)} - 1 subsets; limit is {MAX_EXHAUSTIVE_TYPES}"
        )
    subsets = [combo for size in range(1, len(names) + 1) for combo in combinations(names, size)]
    scores = _subset_scores(subsets, params, config, target, replications)

    table = tuple((ModelSet.of(config, combo), score) for combo, score in zip(subsets, scores))
    best_by_size: dict[int, tuple[ModelSet, Score]] = {}
    for model_set, score in table:
        size = len(model_set)
        if size not in best_by_size or score.mean < best_by_size[size][1].mean:
            best_by_size[size] = (model_set, score)
    return ExhaustiveReport(table=table, best_by_size=best_by_size)
