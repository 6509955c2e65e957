"""Agent-based market simulation, annealing calibration, and model reduction."""

from .learner import AnnealingSchedule, FitResult, ParameterVector, accept, anneal, energy, propose
from .market import (
    AgentPopulation,
    InvestorType,
    MarketConfig,
    SimulationRun,
    init_population,
    load_config,
    save_config,
    set_enabled,
    simulate_pk,
    step,
)
from .reducer import (
    ExhaustiveReport,
    ModelSet,
    ReductionReport,
    Score,
    evaluate_subset,
    exhaustive_reduce,
    greedy_reduce,
    rank_models,
)
from .timeseries import TimeSeries, load_csv, mape, save_csv, split

__version__ = "0.1.0"

__all__ = [
    "AgentPopulation",
    "AnnealingSchedule",
    "ExhaustiveReport",
    "FitResult",
    "InvestorType",
    "MarketConfig",
    "ModelSet",
    "ParameterVector",
    "ReductionReport",
    "Score",
    "SimulationRun",
    "TimeSeries",
    "accept",
    "anneal",
    "energy",
    "evaluate_subset",
    "exhaustive_reduce",
    "greedy_reduce",
    "init_population",
    "load_config",
    "load_csv",
    "mape",
    "propose",
    "rank_models",
    "save_config",
    "save_csv",
    "set_enabled",
    "simulate_pk",
    "split",
    "step",
]
