"""Which amr functions the traced run wraps, and the per-layer metrics.

Spans are named after the module that defines the function.  Two names
are bound twice: `simulate_pk` (in amr.market and amr.reducer) and
`mape` (in amr.learner and amr.reducer); both bindings are wrapped under
one span name.  Count metrics come from the first traced iteration, whose
inputs depend on the seed only, so two traced runs give identical counts.
Time metrics are medians over the traced iterations; latency percentiles
pool every span of that name.
"""

from __future__ import annotations

import numpy as np

from amr import learner, market, reducer

# How each count is derived, recorded with every traced result.
DEFINITIONS = {
    "rng": "calls into fold, fold_array, fold_matrix and u01_array as bound in amr.market",
    "rng.values": "64-bit hash words returned by fold_array and fold_matrix",
    "rng.bytes_computed": "computed from array sizes: input plus output bytes of every "
    "fold_array, fold_matrix and u01_array call",
    "rng.unique_key_ratio": "distinct row keys / uniform rows generated (one row per "
    "fold_array call, one per key of a fold_matrix call)",
    "market.agent_steps": "sum over simulate_pk calls of all agents (disabled too) x (horizon - 1)",
    "learner.energy.unique_ratio": "distinct (parameter vector, target, config) / energy calls",
    "learner.accept_ratio": "accepted / propose calls",
    "reducer.evaluate_subset.unique_ratio": "distinct (subset, parameters, target, config) / "
    "evaluate_subset calls",
    "p50/p99": "percentiles of span durations (self time included) over all traced iterations",
    "proc.cpu_util": "CPU s / wall s of the untraced phase at workers = nproc",
    "proc.threaded_speedup": "median wall at workers = 1 / median wall at workers = nproc",
    "trace.overhead_s": "median traced wall - median untraced wall, both at workers = 1",
}


def _on_fold_array(counts, keys, result, key, parts):
    counts["rng.values"] += result.size
    counts["rng.bytes"] += parts.nbytes + result.nbytes
    counts["rng.rows"] += 1
    keys["rng"].add(int(key))


def _on_fold_matrix(counts, keys, result, row_keys, parts):
    counts["rng.values"] += result.size
    counts["rng.bytes"] += parts.nbytes + result.nbytes
    counts["rng.rows"] += len(row_keys)
    keys["rng"].update(int(k) for k in row_keys)


def _on_u01_array(counts, keys, result, bits):
    counts["rng.bytes"] += bits.nbytes + result.nbytes


def _on_simulate(counts, keys, run, config, *args, **kwargs):
    agents = sum(t.count for t in config.types)
    counts["market.agent_steps"] += agents * (len(run.predicted) - 1)


def _on_energy(counts, keys, value, params, train, config, *args, **kwargs):
    keys["energy"].add((params.values.tobytes(), train.values, config))


def _on_accept(counts, keys, accepted, *args, **kwargs):
    counts["learner.accepted"] += bool(accepted)


def _on_subset(counts, keys, score, subset, params, config, target, *args, **kwargs):
    members = subset.member_names if isinstance(subset, reducer.ModelSet) else tuple(subset)
    keys["subset"].add((frozenset(members), params.values.tobytes(), target.values, config))


def instrument(tracer) -> None:
    """Rebind amr's public functions to tracer wrappers; tracer.restore() undoes it."""
    tracer.patch(market, "fold", "rng.fold")
    tracer.patch(market, "fold_array", "rng.fold_array", _on_fold_array)
    tracer.patch(market, "fold_matrix", "rng.fold_matrix", _on_fold_matrix)
    tracer.patch(market, "u01_array", "rng.u01_array", _on_u01_array)
    tracer.patch(market, "init_population", "market.init_population")
    tracer.patch(market, "step", "market.step")
    tracer.patch(market, "simulate_pk", "market.simulate_pk", _on_simulate)
    tracer.patch(reducer, "simulate_pk", "market.simulate_pk", _on_simulate)
    tracer.patch(learner, "mape", "timeseries.mape")
    tracer.patch(reducer, "mape", "timeseries.mape")
    tracer.patch(learner, "anneal", "learner.anneal")
    tracer.patch(learner, "energy", "learner.energy", _on_energy)
    tracer.patch(learner, "propose", "learner.propose")
    tracer.patch(learner, "accept", "learner.accept", _on_accept)
    tracer.patch(reducer, "evaluate_subset", "reducer.evaluate_subset", _on_subset)
    tracer.patch(reducer, "greedy_reduce", "reducer.greedy_reduce")
    tracer.patch(reducer, "exhaustive_reduce", "reducer.exhaustive_reduce")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics and, for each latency percentile, its sample count."""
    cols = tracer.columns()
    self_s = tracer.self_times()
    duration = cols["end"] - cols["start"]
    slices = tracer.iteration_slices()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(prefix: str) -> np.ndarray:
        wanted = [i for name, i in ids.items() if name == prefix or name.startswith(prefix + ".")]
        return np.isin(cols["name"], wanted)

    def calls(prefix: str) -> int:
        return int(np.count_nonzero(mask(prefix)[slices[0]]))

    def median_sum(prefix: str, values: np.ndarray) -> float:
        m = mask(prefix)
        return float(np.median([values[s][m[s]].sum() for s in slices]))

    samples: dict[str, int] = {}

    def percentile(prefix: str, q: float, scale: float) -> float:
        d = duration[mask(prefix)]
        samples[prefix] = len(d)
        return float(np.percentile(d, q)) * scale if len(d) else 0.0

    _, counts, keys = tracer.iterations[0]
    out = {
        "rng.calls": calls("rng"),
        "rng.self_s": median_sum("rng", self_s),
        "rng.values": counts["rng.values"],
        "rng.bytes_computed": counts["rng.bytes"],
        "rng.unique_key_ratio": _ratio(len(keys["rng"]), counts["rng.rows"]),
    }
    out["rng.ns_per_value"] = _ratio(out["rng.self_s"] * 1e9, out["rng.values"])
    for name in ("market.init_population", "market.step", "market.simulate_pk",
                 "timeseries.mape", "learner.energy", "reducer.evaluate_subset"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = median_sum(name, self_s)
    out["market.step.p50_us"] = percentile("market.step", 50, 1e6)
    out["market.step.p99_us"] = percentile("market.step", 99, 1e6)
    for name in ("market.simulate_pk", "learner.energy", "reducer.evaluate_subset"):
        out[f"{name}.p50_ms"] = percentile(name, 50, 1e3)
        out[f"{name}.p99_ms"] = percentile(name, 99, 1e3)
    out["market.agent_steps"] = counts["market.agent_steps"]
    out["learner.energy.unique_ratio"] = _ratio(len(keys["energy"]), out["learner.energy.calls"])
    out["learner.propose.self_s"] = median_sum("learner.propose", self_s)
    out["learner.accept_ratio"] = _ratio(counts["learner.accepted"], calls("learner.propose"))
    out["reducer.evaluate_subset.unique_ratio"] = _ratio(
        len(keys["subset"]), out["reducer.evaluate_subset.calls"]
    )
    out["reducer.greedy_reduce.s"] = median_sum("reducer.greedy_reduce", duration)
    out["reducer.exhaustive_reduce.s"] = median_sum("reducer.exhaustive_reduce", duration)
    return out, samples
