"""Benchmark of the amr package: one workload, one result line.

    python3 perfbench/run.py --workload calibrate|reduce|large_population \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; amr is imported from ./src.
Each workload runs in a fresh process (perfbench/workload.py).  Set-up,
the time from starting that process until it has imported amr and built
its first inputs, is measured SETUPS times and reported as the median.
Reported times are scaled to the nominal host speed of perfbench/probe.py,
which is timed before each set-up and between the workload's iterations.

With --trace 0 the last line of output holds the end-to-end metrics
declared in BENCHMARK.json; with --trace 1 the per-layer metrics from a
run in which amr's public functions are wrapped in spans.  Before that
line the run prints every metric with its unit, the error rate and the
recorded context, and it writes the full record to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = Path(__file__).with_name("workload.py")
SETUPS = 9
SETUP_PROBE_AGENTS = 500  # set-up is interpreted Python, like the 500-agent kernel
SETUP_TIMEOUT_S = 20.0
DEADLINE_S = 170.0


def run_child(args: argparse.Namespace, timeout: float, *extra: str) -> tuple[float, str, int]:
    """Start workload.py; return its set-up time, its output and its exit code.

    A watchdog kills the process after `timeout` seconds, so a hung
    workload ends the run instead of blocking it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(WORKLOAD), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
    if ready.strip() != "READY":
        raise RuntimeError(f"workload process did not start (exit code {proc.returncode})")
    return setup_s, out, proc.returncode


def measure(args: argparse.Namespace) -> dict:
    started = time.perf_counter()
    setups, probes = [], []
    probe.probe(SETUP_PROBE_AGENTS)  # warm-up
    for _ in range(SETUPS - 1):
        probes.append(probe.sample(SETUP_PROBE_AGENTS))
        setups.append(run_child(args, SETUP_TIMEOUT_S, "--setup-only")[0])
    probes.append(probe.sample(SETUP_PROBE_AGENTS))
    setup_s, out, code = run_child(args, DEADLINE_S - (time.perf_counter() - started))
    setups.append(setup_s)
    if code != 0 or not out.strip():
        raise RuntimeError(f"workload process exited with code {code}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_samples_s"] = setups
    record["setup_probes_s"] = probes
    if not args.trace:
        speed = probe.NOMINAL_S[SETUP_PROBE_AGENTS] / statistics.median(probes)
        record["metrics"]["setup_s"] = statistics.median(setups) * speed
    return record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "amr" / "__init__.py").is_file():
        print(f"no amr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        record = measure(args)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        print(f"workload did not report {missing}", file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for key in ("workload", "seed", "agents", "horizon", "workers", "threaded_workers", "digest"):
        print(f"# {key}: {record[key]}")
    print(f"# iteration wall times (s): {json.dumps(record['walls_s'])}")
    if "host_speed" in record:
        print(f"# host speed (probe nominal / median): {record['host_speed']:.4f}")
    for key, value in record["machine"].items():
        print(f"# {key}: {value}")
    print(f"# why: {record['why']}")
    for kind, pairs in record["predictions"].items():
        print(f"# {kind}: {'; '.join(pairs)}")
    if "cache_note" in record:
        print(f"# {record['cache_note']}")
    for problem in record["problems"]:
        print(f"! {problem}")
    print(f"error_rate {failed / attempted:.6g} (failed {failed} of {attempted} operations)")
    metrics = {}
    for m in declared:
        value = record["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
