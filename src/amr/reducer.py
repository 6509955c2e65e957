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
A score's mean is learner.replication_mean of its row, as an energy's
is.  The empty subset, greedy's constant baseline, is not simulated:
replication_mapes scores it as the target's first value held, the
prices the kernel would return, so its score is the same bit for bit.

Each subset is simulated once per (config, parameters, target,
replications), across greedy_reduce and the oracle: a one-slot memo,
_known_scores (an lru_cache of size 1), keeps every subset score under
the last such key, and a call with any other key empties it.  A kernel
row equals its solo run bit for bit and each row is scored on its own,
so a remembered score equals a fresh one whatever masks shared its
kernel call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations
from math import sqrt
from typing import Iterable, Sequence

from .learner import ParameterVector, replication_mapes, replication_mean
from .market import MarketConfig, known_type_names
from .market import simulate_pk  # noqa: F401  (perfbench/layers.py wraps reducer.simulate_pk)
from .timeseries import TimeSeries
from .timeseries import mape  # noqa: F401  (perfbench/layers.py wraps reducer.mape)

DEFAULT_TOLERANCE = 0.005  # MAPE fraction, i.e. half a percentage point
DEFAULT_REPLICATIONS = 10


@dataclass(frozen=True)
class ModelSet:
    """Subset of a configuration's type labels, in declaration order."""

    member_names: tuple[str, ...]

    @classmethod
    def of(cls, config: MarketConfig, names: Iterable[str]) -> "ModelSet":
        wanted = known_type_names(config, names)
        return cls(tuple(n for n in config.type_names if n in wanted))

    def __len__(self) -> int:
        return len(self.member_names)

    def __str__(self) -> str:
        return "{" + ", ".join(self.member_names) + "}"


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
            "benchmark": asdict(self.benchmark),
            "baseline": asdict(self.baseline),
            "singletons": {name: asdict(s) for name, s in self.singletons.items()},
            "ranking": list(self.ranking),
            "selection_trace": [{"added": name, **asdict(s)} for name, s in self.selection_trace],
            "reduced_set": list(self.reduced_set.member_names),
            "tolerance": self.tolerance_used,
            "replications": self.eval_replications,
        }

    def format_table(self) -> str:
        """Aligned text table: full set, baseline, singletons, reduced set."""
        rows = [("full set", self.benchmark), ("all disabled (constant)", self.baseline)]
        rows += [(f"only {name}", score) for name, score in self.singletons.items()]
        rows.append((f"reduced {self.reduced_set}", self.selection_trace[-1][1]))
        width = max(len(label) for label, _ in rows)
        lines = [f"{'case'.ljust(width)}  MAPE"]
        lines += [f"{label.ljust(width)}  {score.as_percent()}" for label, score in rows]
        return "\n".join(lines)


def _score(samples: Sequence[float]) -> Score:
    mean = replication_mean(samples)
    if all(x == mean for x in samples):
        # Identical replications (e.g. the constant baseline, or just one)
        # have an exact zero spread.
        return Score(mean, 0.0)
    var = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    return Score(mean, sqrt(var))


@lru_cache(maxsize=1)
def _known_scores(cfg: MarketConfig, target: TimeSeries, replications: int) -> dict[tuple[bool, ...], Score]:
    """Every subset score taken under this key, by enabled mask; a new key starts an empty dict.

    cfg is the config with the parameters applied.  The dict holds at most
    2^n scores, like the ExhaustiveReport that an oracle call returns.
    """
    return {}


def _subset_scores(
    subsets: Iterable[tuple[str, ...]],
    params: ParameterVector,
    config: MarketConfig,
    target: TimeSeries,
    replications: int,
) -> list[Score]:
    """Score of each subset, in order, from its replication_mapes row.

    The distinct subsets that _known_scores does not hold under this key
    go to one replication_mapes call, which splits them into kernel calls.
    """
    cfg = params.apply(config)
    wanted = [known_type_names(cfg, members) for members in subsets]
    masks = [tuple(n in names for n in cfg.type_names) for names in wanted]
    known = _known_scores(cfg, target, replications)
    todo = [mask for mask in dict.fromkeys(masks) if mask not in known]
    known.update(zip(todo, map(_score, replication_mapes(cfg, todo, target, replications).tolist())))
    return [known[mask] for mask in masks]


def evaluate_subset(
    subset: ModelSet | Iterable[str],
    params: ParameterVector,
    config: MarketConfig,
    target: TimeSeries,
    replications: int = DEFAULT_REPLICATIONS,
) -> Score:
    """MAPE of the market restricted to `subset`, over the target window.

    Enables exactly the subset's types and scores its replication_mapes
    runs; the empty subset is the constant baseline, whose runs are scored
    as the target's first value held, rather than simulated.  Every subset
    uses the same sub-seeds, making subset scores directly comparable.
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


def check_settings(tolerance: float, replications: int, prefix: str) -> None:
    """Raise unless tolerance >= 0 and replications >= 1, naming each as `prefix` + its name."""
    if not tolerance >= 0:
        raise ValueError(f"{prefix}tolerance must be >= 0, got {tolerance}")
    if replications < 1:
        raise ValueError(f"{prefix}replications must be >= 1, got {replications}")


def greedy_reduce(
    config: MarketConfig,
    params: ParameterVector,
    target: TimeSeries,
    tolerance: float = DEFAULT_TOLERANCE,
    replications: int = DEFAULT_REPLICATIONS,
    workers: int = 1,
) -> ReductionReport:
    """Grow a subset by singleton rank until it matches the benchmark.

    The singleton ranking is computed once up front; each addition
    re-evaluates the cumulative subset.  Every subset is scored at the
    full-set parameters.  Selection stops as soon as the subset's mean
    MAPE is within `tolerance` of the full set's, and at the latest when
    the subset equals the full set (whose evaluation reproduces the
    benchmark exactly).
    """
    check_settings(tolerance, replications, "")
    # Full set, baseline and singletons run as one batch; the ranking, and
    # a prefix that is one type or the full set, read them from the memo.
    names = config.type_names
    subsets = [names, (), *((n,) for n in names)]
    benchmark, baseline, *singles = _subset_scores(subsets, params, config, target, replications)
    singletons = dict(zip(names, singles))
    ranking = tuple(n for n, _ in rank_models(config, params, target, replications))

    chosen: list[str] = []
    trace: list[tuple[str, Score]] = []
    for name in ranking:
        chosen.append(name)
        score = evaluate_subset(chosen, params, config, target, replications)
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
            "table": [{"subset": list(ms.member_names), **asdict(s)} for ms, s in self.table],
            "best_by_size": {
                str(k): {"subset": list(ms.member_names), **asdict(s)} for k, (ms, s) in self.best_by_size.items()
            },
        }

    def format_table(self, report: ReductionReport) -> str:
        """Aligned text table of every subset, then the best subset of greedy's size against greedy's pick."""
        width = max(len(str(ms)) for ms, _ in self.table)
        lines = ["exhaustive subsets (oracle)"]
        lines += [f"{str(ms).ljust(width)}  {score.as_percent()}" for ms, score in self.table]
        size = len(report.reduced_set)
        best_set, best_score = self.best_by_size[size]
        lines.append(f"best size-{size} subset: {best_set} at {best_score.as_percent()}"
                     f"; greedy chose {report.reduced_set} at {report.selection_trace[-1][1].as_percent()}")
        return "\n".join(lines)


def exhaustive_reduce(
    config: MarketConfig,
    params: ParameterVector,
    target: TimeSeries,
    replications: int = DEFAULT_REPLICATIONS,
    workers: int = 1,
) -> ExhaustiveReport:
    """Score all 2^n - 1 non-empty subsets; n <= market.MAX_TYPES (16), which MarketConfig enforces."""
    names = config.type_names
    subsets = [combo for size in range(1, len(names) + 1) for combo in combinations(names, size)]
    scores = _subset_scores(subsets, params, config, target, replications)

    table = tuple((ModelSet.of(config, combo), score) for combo, score in zip(subsets, scores))
    best_by_size: dict[int, tuple[ModelSet, Score]] = {}
    for model_set, score in table:
        size = len(model_set)
        if size not in best_by_size or score.mean < best_by_size[size][1].mean:
            best_by_size[size] = (model_set, score)
    return ExhaustiveReport(table=table, best_by_size=best_by_size)
