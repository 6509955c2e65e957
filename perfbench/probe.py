"""Host-speed probe: a fixed kernel shaped like one amr market simulation.

The benchmark's host is a share of a machine whose speed moves with its
neighbours' load.  On a 2-vCPU KVM guest (Intel Xeon, Sapphire Rapids)
the same single-threaded calibrate iteration took 3.2 s for minutes on
end and then 2.4 s for minutes on end, so runs made at different times
disagreed by more than the benchmark's bounds.  The probe times a kernel
with the instruction mix of `market.simulate_pk` (Python-int key
folding, splitmix64 hashing of blocks of decision uniforms, the step's
ufuncs, a chunked sum and a Python loop over steps) between the
workload's iterations.  Its arrays are allocated once: a kernel that
allocates megabytes per call runs 1.5x faster or slower depending on
whether malloc reuses freed heap or maps fresh pages, which says nothing
about the host.  The benchmark reports times scaled by NOMINAL_S /
(median sample of the run): seconds at the speed the host had when
NOMINAL_S was measured.  The first probe of a process runs cold and is
discarded.  The kernel is frozen here, so a change to amr moves the
workload's times and never the probe's.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_NP_MIX1, _NP_MIX2 = np.uint64(_MIX1), np.uint64(_MIX2)
CHUNK = 4096
# amr's blocks hold 2**21 uniforms; the probe's fewer, so that its buffers
# add little to the workload process's peak memory
BLOCK_ELEMENTS = 1 << 17

# agents -> (simulations, steps) per probe; about 45 ms each on the host below
SIZES = {500: (6, 250), 200_000: (1, 7)}
# median probe seconds on a 2-vCPU KVM guest of an Intel Xeon (Sapphire
# Rapids) host at 2.0 GHz, in its usual (slower) state
NOMINAL_S = {500: 0.047, 200_000: 0.048}
# a single 45 ms probe often lands in a short burst of extra speed that
# a workload iteration of seconds averages out; a sample point averages
# a few probes, and a run takes the median over its points, as it does
# over its iterations
REPEATS = 3


def _fold(key: int, *parts: int) -> int:
    h = key
    for part in parts:
        x = ((h + _GAMMA) & MASK64) ^ part
        x = ((x ^ (x >> 30)) * _MIX1) & MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & MASK64
        h = x ^ (x >> 31)
    return h


@functools.cache
def _buffers(agents: int, rows: int) -> dict[str, np.ndarray]:
    """Every array the kernel touches, allocated once per process."""
    return {
        "ids": np.arange(agents, dtype=np.uint64),
        "reactivity": np.linspace(-0.5, 0.5, agents),
        "optimism": np.linspace(0.2, 0.8, agents),
        "weight": np.full(agents, 1.0 / agents),
        "prob": np.empty(agents), "contrib": np.empty(agents), "accum": np.empty(agents),
        "buy": np.empty(agents, dtype=bool),
        "bits": np.empty((rows, agents), dtype=np.uint64),
        "shifted": np.empty((rows, agents), dtype=np.uint64),
        "u": np.empty((rows, agents)),
    }


def _uniforms(keys: list[int], b: dict[str, np.ndarray]) -> np.ndarray:
    rows = len(keys)
    x, tmp, u = b["bits"][:rows], b["shifted"][:rows], b["u"][:rows]
    base = np.array([(k + _GAMMA) & MASK64 for k in keys], dtype=np.uint64)
    np.bitwise_xor(base[:, None], b["ids"][None, :], out=x)
    for shift, mix in ((30, _NP_MIX1), (27, _NP_MIX2)):
        np.right_shift(x, shift, out=tmp)
        x ^= tmp
        x *= mix
    np.right_shift(x, 31, out=tmp)
    x ^= tmp
    np.right_shift(x, 11, out=tmp)
    np.multiply(tmp, 2.0**-53, out=u)
    return u


def _simulation(agents: int, steps: int) -> float:
    block = max(1, BLOCK_ELEMENTS // agents)
    b = _buffers(agents, min(block, steps))
    prob, contrib, accum, buy = b["prob"], b["contrib"], b["accum"], b["buy"]
    price, last = 100.0, 0.0
    for s in range(steps):
        if s % block == 0:
            u_block = _uniforms([_fold(7, 0x4445, t) for t in range(s, min(s + block, steps))], b)
        np.multiply(b["reactivity"], last, out=prob)
        prob += b["optimism"]
        np.clip(prob, 0.0, 1.0, out=prob)
        np.less(u_block[s % block], prob, out=buy)
        np.negative(b["weight"], out=contrib)
        np.copyto(contrib, b["weight"], where=buy)
        demand = 0.0
        for lo in range(0, agents, CHUNK):
            hi = min(lo + CHUNK, agents)
            np.add.accumulate(contrib[lo:hi], out=accum[lo:hi])
            demand += float(accum[hi - 1])
        last = 0.01 * demand
        price *= 1.0 + last
    return price


def probe(agents: int) -> float:
    """Seconds the frozen kernel takes at `agents` agents (500 or 200_000)."""
    simulations, steps = SIZES[agents]
    t0 = time.perf_counter()
    for _ in range(simulations):
        _simulation(agents, steps)
    return time.perf_counter() - t0


def sample(agents: int) -> float:
    """Mean of REPEATS probe times: one sample point of the host's speed."""
    return statistics.mean(probe(agents) for _ in range(REPEATS))
