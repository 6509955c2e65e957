"""One benchmark workload, run in its own process by perfbench/run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports amr, builds the inputs of its first iteration and
prints READY; the parent times that as set-up.  With --setup-only it
stops there.  Otherwise it repeats the workload body on fresh inputs
until S seconds are spent, checks every output, and prints one JSON
line.  Iteration i draws its inputs from seed * 10000 + i, so no work
repeats across iterations unless the workload itself repeats it.

Untraced, every iteration is timed at workers = 1: on a host that gives
the process a few shared cores, a second thread mostly measures the
scheduler (on a 2-vCPU host reduce at workers = 2 varied by 2x over a
few minutes, at workers = 1 by 1.3x).  Traced, the budget is split in
three phases: the body with amr's public functions wrapped in spans
(inputs 0, 1, ...), the same body untraced (inputs 1000, ...) for the
tracing overhead, and the body at workers = nproc (inputs 2000, ...) for
the thread pools' CPU utilisation and speed-up.

The untraced run also times the host-speed probe (perfbench/probe.py)
before every iteration and after the last, and scales its times by the
probe's nominal time over the median of those samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np

import amr
import layers
import probe
from amr import learner, market, presets, reducer
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 1
GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
NPROC = len(os.sched_getaffinity(0))
TRACED_SHARE, UNTRACED_SHARE = 0.4, 0.3  # the rest goes to workers = nproc
WORKERS = 1
MAX_ITERATIONS = 1000


def input_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Calibrate:
    """Annealing calibration at 500 agents, as in criterion 3 and `amr train`."""

    name = "calibrate"
    evaluations = 100
    horizon = 250
    anneal_seed = 7
    why = (
        "criterion 3 and `amr train`, the largest cost in the system. At 500 agents "
        "per-step Python overhead dominates. Every evaluation reuses the same 3 replication "
        "seeds, so decision uniforms repeat; parameters change on every evaluation, so a "
        "population cannot be reused."
    )
    predictions = {
        "moves": [
            "rng.self_s, rng.unique_key_ratio (caching uniforms) -> wall_s",
            "market.step.calls per market.agent_steps (batching) -> agent_steps_per_s",
            "learner.energy.self_s, learner.energy.p50_ms -> wall_s",
        ],
        "should_not_move": [
            "timeseries.mape.*",
            "learner.accept_ratio and every count except those a change names",
            "reducer.* (not called)",
            "proc.threaded_speedup (threads never engage at 500 agents)",
        ],
    }

    def __init__(self):
        self.config = presets.bank_dominated_config(4242)
        self.schedule = learner.AnnealingSchedule(total_evaluations=self.evaluations)
        self.agents = sum(t.count for t in self.config.types)

    def inputs(self, seed: int):
        return presets.synthetic_target(self.config, seed=seed, n_days=self.horizon)

    def run(self, target, workers: int):
        return learner.anneal(target, self.config, self.schedule, seed=self.anneal_seed,
                              workers=workers)

    def check(self, target, fit) -> list[str]:
        trace = fit.energy_trace
        problems = []
        if fit.evaluations != self.evaluations or len(trace) != self.evaluations:
            problems.append(f"trace has {len(trace)} entries, expected {self.evaluations}")
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append("energy trace increases")
        if not (np.isfinite(fit.best_energy) and fit.best_energy == trace[-1]):
            problems.append(f"best energy {fit.best_energy} is not the trace's last value")
        return problems

    def digest(self, fit) -> str:
        return sha256_json({"best": fit.best_params.values.tolist(), "trace": list(fit.energy_trace)})

    def agent_steps(self, target, fit) -> int:
        return fit.evaluations * self.schedule.replications * self.agents * (len(target) - 1)


class Reduce:
    """Greedy reduction and the exhaustive oracle on both bundled presets."""

    name = "reduce"
    horizon = 390
    replications = 10
    tolerance = 0.005
    why = (
        "runs the kernel with parameters fixed, only enabled masks change; all subsets share "
        "the 10 seeds and one jittered population; greedy and the oracle re-score the same "
        "subsets (16 distinct of 21 calls, 16 of 22); the traced run's workers = nproc phase "
        "exercises the reducer thread pools."
    )
    predictions = {
        "moves": [
            "rng.self_s, rng.unique_key_ratio (caching uniforms) -> wall_s",
            "market.step.calls per market.agent_steps (batching) -> agent_steps_per_s",
            "reducer.evaluate_subset.*, reducer.*_reduce.s -> wall_s",
        ],
        "should_not_move": [
            "timeseries.mape.*",
            "reducer.evaluate_subset.unique_ratio and every count except those a change names",
            "learner.* (not called)",
        ],
    }

    def __init__(self):
        self.configs = (presets.bank_dominated_config(), presets.balanced_config())
        self.params = tuple(learner.ParameterVector.from_config(c) for c in self.configs)
        self.agents = sum(t.count for t in self.configs[0].types)

    def inputs(self, seed: int):
        return tuple(presets.synthetic_target(c, seed=seed, n_days=self.horizon)
                     for c in self.configs)

    def run(self, targets, workers: int):
        out = []
        for config, params, target in zip(self.configs, self.params, targets):
            greedy = reducer.greedy_reduce(config, params, target, tolerance=self.tolerance,
                                           replications=self.replications, workers=workers)
            oracle = reducer.exhaustive_reduce(config, params, target,
                                               replications=self.replications, workers=workers)
            out.append((greedy, oracle))
        return out

    def check(self, targets, out) -> list[str]:
        problems = []
        for config, (greedy, oracle) in zip(self.configs, out):
            n = len(config.types)
            if len(oracle.table) != 2**n - 1:
                problems.append(f"oracle has {len(oracle.table)} rows, expected {2**n - 1}")
                continue
            size = len(greedy.reduced_set)
            greedy_mean = greedy.selection_trace[-1][1].mean
            best_mean = oracle.best_by_size[size][1].mean
            if not greedy_mean <= best_mean + self.tolerance:
                problems.append(f"greedy {greedy_mean:.6f} vs oracle {best_mean:.6f} at size {size}")
        return problems

    def digest(self, out) -> str:
        return sha256_json([[greedy.to_dict(), oracle.to_dict()] for greedy, oracle in out])

    def agent_steps(self, targets, out) -> int:
        total = 0
        for config, target, (greedy, oracle) in zip(self.configs, targets, out):
            # benchmark, baseline, singletons, cumulative subsets past the first, oracle
            evaluations = 2 + len(config.types) + len(greedy.selection_trace) - 1 + len(oracle.table)
            total += evaluations * self.replications * self.agents * (len(target) - 1)
        return total


class LargePopulation:
    """One simulation of 200k agents: bank_dominated_config with every count x400."""

    name = "large_population"
    scale = 400
    horizon = 250
    p0 = 100.0
    why = (
        "per-step array work dominates: rng.mix64_array and the chunked demand sum (49 chunks "
        "of 4096); the traced run's workers = nproc phase times the market thread pool. No "
        "work repeats, so a caching or batching change should show no gain here and no growth "
        "in memory."
    )
    predictions = {
        "moves": [
            "rng.ns_per_value (kernel speed) -> wall_s",
            "market.step.self_s, market.step.p50_us -> wall_s",
            "proc.cpu_util, proc.threaded_speedup (the thread pool, at workers = nproc)",
        ],
        "should_not_move": [
            "wall_s and peak_rss_mb under a caching or batching change",
            "rng.unique_key_ratio (1: every key is new)",
            "learner.*, reducer.* (not called)",
        ],
    }

    def __init__(self):
        self.base = presets.bank_dominated_config()
        self.dates = presets.weekdays(date(2009, 1, 2), self.horizon)
        self.agents = sum(t.count for t in self.base.types) * self.scale

    def inputs(self, seed: int):
        types = tuple(replace(t, count=t.count * self.scale) for t in self.base.types)
        return replace(self.base, types=types, master_seed=seed)

    def run(self, config, workers: int):
        return market.simulate_pk(config, self.p0, self.horizon, self.dates, workers=workers)

    def check(self, config, run) -> list[str]:
        prices = np.asarray(run.predicted.values)
        demands = np.asarray(run.demands)
        problems = []
        if len(prices) != self.horizon or len(demands) != self.horizon - 1:
            problems.append(f"{len(prices)} prices and {len(demands)} demands")
        if not (np.all(np.isfinite(prices)) and np.all(prices > 0)):
            problems.append("a price is not positive")
        if np.any(np.abs(demands) > config.enabled_asset_share + 1e-12):
            problems.append("|demand| exceeds the enabled asset share")
        return problems

    def digest(self, run) -> str:
        prices = np.asarray(run.predicted.values, dtype=np.float64)
        demands = np.asarray(run.demands, dtype=np.float64)
        return hashlib.sha256(prices.tobytes() + demands.tobytes()).hexdigest()

    def agent_steps(self, config, run) -> int:
        return self.agents * (len(run.predicted) - 1)


WORKLOADS = {"calibrate": Calibrate, "reduce": Reduce, "large_population": LargePopulation}


class Phase:
    """Timings of the iterations run back to back with one setting."""

    def __init__(self):
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.probes: list[float] = []

    def median_wall(self) -> float:
        return statistics.median(self.walls)

    def host_speed(self, agents: int) -> float:
        """Probe's nominal time / its median sample in this phase (1 at the nominal speed)."""
        return probe.NOMINAL_S[agents] / statistics.median(self.probes)


def run_phase(work, seed, first_index, budget, workers, first_inputs=None, tracer=None,
              probed=False) -> Phase:
    """Run iterations until the next one would likely overrun `budget` (at least one).

    With `probed`, time the host-speed probe before every iteration and after the last.
    """
    phase = Phase()
    if probed:
        probe.probe(work.agents)  # warm-up
    started = time.perf_counter()
    for index in range(first_index, first_index + MAX_ITERATIONS):
        inputs = first_inputs if index == first_index and first_inputs is not None \
            else work.inputs(input_seed(seed, index))
        if probed:
            phase.probes.append(probe.sample(work.agents))
        if tracer is not None:
            tracer.begin_iteration()
            layers.instrument(tracer)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = work.run(inputs, workers)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        phase.cpu += time.process_time() - c0
        if tracer is not None:
            tracer.restore()
        phase.attempted += 1
        problems = [error] if error else work.check(inputs, out)
        if not problems and index == 0:
            phase.digest = work.digest(out)
            golden = GOLDEN[work.name]
            if seed == golden["seed"] and phase.digest != golden["digest"]:
                problems.append(f"digest {phase.digest} differs from the pinned {golden['digest']}")
        if problems:
            phase.failed += 1
            phase.problems += [f"input {index}: {p}" for p in problems]
        else:
            phase.walls.append(wall)
            phase.rates.append(work.agent_steps(inputs, out) / wall)
        spent = time.perf_counter() - started
        if spent + spent / (index - first_index + 1) > budget:
            break
    if probed:
        phase.probes.append(probe.sample(work.agents))
    return phase


def machine_context() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            llc[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return {
        "nproc": NPROC,
        "cpu_model": cpu_model,
        "llc_size": llc[max(llc)] if llc else "unknown",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    if not Path(amr.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"amr imported from {amr.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]()
    first_inputs = work.inputs(input_seed(args.seed, 0))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "agents": work.agents,
        "horizon": work.horizon,
        "workers": WORKERS,
        "threaded_workers": NPROC,
        "why": work.why,
        "predictions": work.predictions,
        "machine": machine_context(),
    }
    if args.workload == "large_population":
        result["cache_note"] = (
            f"each per-agent float64 array is {work.agents * 8 / 1e6:.1f} MB; the LLC is "
            f"{result['machine']['llc_size']}, so the per-step arrays stay in cache and "
            "large_population measures compute, not memory bandwidth"
        )
    if not args.trace:
        phase = run_phase(work, args.seed, 0, args.seconds, WORKERS, first_inputs, probed=True)
        phases = [phase]
        speed = phase.host_speed(work.agents)
        result["metrics"] = {
            "wall_s": phase.median_wall() * speed if phase.walls else 0.0,
            "agent_steps_per_s": statistics.median(phase.rates) / speed if phase.rates else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["host_speed"] = speed
        result["probes_s"] = phase.probes
        result["walls_s"] = phase.walls
        result["digest"] = phase.digest
    else:
        tracer = Tracer()
        traced = run_phase(work, args.seed, 0, TRACED_SHARE * args.seconds, WORKERS,
                           first_inputs, tracer)
        untraced = run_phase(work, args.seed, 1000, UNTRACED_SHARE * args.seconds, WORKERS)
        threaded = run_phase(work, args.seed, 2000,
                             (1 - TRACED_SHARE - UNTRACED_SHARE) * args.seconds, NPROC)
        phases = [traced, untraced, threaded]
        metrics, samples = layers.layer_metrics(tracer) if traced.walls else ({}, {})
        if traced.walls and untraced.walls and threaded.walls:
            metrics["trace.overhead_s"] = traced.median_wall() - untraced.median_wall()
            metrics["proc.cpu_util"] = threaded.cpu / sum(threaded.walls)
            metrics["proc.threaded_speedup"] = untraced.median_wall() / threaded.median_wall()
        result["metrics"] = metrics
        result["percentile_samples"] = samples
        result["definitions"] = layers.DEFINITIONS
        result["walls_s"] = {"traced": traced.walls, "untraced": untraced.walls,
                             "workers_nproc": threaded.walls}
        result["digest"] = traced.digest
        spans_path = ROOT / ".bench_out" / f"{args.workload}.spans.npz"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.save(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))

    result["attempted"] = sum(ph.attempted for ph in phases)
    result["failed"] = sum(ph.failed for ph in phases)
    result["problems"] = [p for ph in phases for p in ph.problems]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
