"""Counter-based random streams for order-independent, reproducible simulation.

Every draw in the simulator is a pure function of a 64-bit key tuple
(seed, purpose tag, counters such as step or agent index).  Nothing is
stateful on the hot path, so agent decisions can be evaluated in any
order, by any number of workers, and still come out bit-identical.

The mixing function is the splitmix64 finalizer (Steele, Lea & Flood's
SplittableRandom), applied after folding each key part into the running
hash.  It is implemented three times: on Python ints (reference),
vectorized over numpy uint64 arrays, and in C, where amr/_walk.c's
above_uniform hashes the compiled walk's streamed decision uniforms; all
three must agree exactly.  One array mixer serves every vectorized twin.
The grid twin, u01_grid, hashes a (steps, parts, keys) block in place in
the caller's buffer, with a caller-owned scratch, so a caller that walks
a large grid in slabs small enough for the L2 cache allocates nothing
per slab; every value depends only on its key, so slabs may be hashed in
any order.

u01_grid takes its keys and parts with the mixer's first round already
applied.  fold(key, p) mixes z = (key + GAMMA) ^ p, and the mixer opens
with z ^= z >> 30.  A logical shift distributes over xor, so that round
gives k' ^ p' with k' = (key + GAMMA) ^ ((key + GAMMA) >> 30) and
p' = p ^ (p >> 30).  The caller makes k' once per (steps, keys) array
(grid_keys), and every grid value then takes one xor and the mixer's six
remaining passes.  The simulator's parts are position ids, all below
2**30 (SHIFT_FREE_PARTS) because amr.market caps a market's agents
there, so p >> 30 is 0 and each part is its own p'.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Purpose tags keep independent draw families (jitter, decisions, ...)
# from colliding even when their counters coincide.
TAG_JITTER = 0x4A49
TAG_DECISION = 0x4445
TAG_REPLICATION = 0x5245
TAG_CHAIN = 0x4348


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective scramble of a 64-bit integer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def fold(key: int, *parts: int) -> int:
    """Absorb integer key parts into a 64-bit hash, one mix per part."""
    h = key & MASK64
    for p in parts:
        h = mix64(((h + _GAMMA) & MASK64) ^ (p & MASK64))
    return h


def u01(bits: int) -> float:
    """Map 64 hash bits to a float in [0, 1) using the top 53 bits."""
    return (bits >> 11) * 2.0**-53


def substream(seed: int, index: int) -> int:
    """Derive the master seed of replication `index` from `seed`."""
    return fold(seed, TAG_REPLICATION, index)


# -- vectorized twins ---------------------------------------------------

_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_NP_GAMMA = np.uint64(_GAMMA)


# Parts below this have no bit that the mixer's first xorshift moves, p >> 30 == 0,
# so u01_grid takes them as they are.
SHIFT_FREE_PARTS = 1 << 30


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """mix64 applied to a uint64 array the caller owns, overwriting it."""
    t = x >> np.uint64(30)
    x ^= t
    return _mix64_after_first_round(x, t)


def _mix64_after_first_round(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """mix64's passes after its first xorshift, on x in place; t is a uint64 scratch of x's shape."""
    x *= _NP_MIX1
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= _NP_MIX2
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def fold_array(key: int, parts: np.ndarray) -> np.ndarray:
    """fold(key, p) for every p in `parts` (uint64 array), vectorized."""
    base = np.uint64((key + _GAMMA) & MASK64)
    return _mix64_inplace(base ^ parts)


def fold_matrix(keys: list[int], parts: np.ndarray) -> np.ndarray:
    """fold_array for several keys at once; row k holds fold(keys[k], parts)."""
    base = np.array([(k + _GAMMA) & MASK64 for k in keys], dtype=np.uint64)
    return _mix64_inplace(base[:, None] ^ parts[None, :])


def u01_array(bits: np.ndarray) -> np.ndarray:
    out = (bits >> np.uint64(11)).astype(np.float64)
    out *= 2.0**-53
    return out


def grid_keys(keys: np.ndarray) -> np.ndarray:
    """The u01_grid keys of a uint64 array of fold keys: (key + GAMMA) ^ ((key + GAMMA) >> 30), as a new array."""
    folded = keys + _NP_GAMMA
    folded ^= folded >> np.uint64(30)
    return folded


def u01_grid(keys: np.ndarray, parts: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """u01(fold(k, q)) into out[t, p, s], in place, for keys[t, s] = grid_keys(k) and parts[p] = q ^ (q >> 30).

    keys is a (T, S) and parts a (P,) uint64 array; every part the
    simulator passes, a position id, is below SHIFT_FREE_PARTS, so
    parts[p] = q.  Their xor is the mixer's input after its first round
    (see the module docstring).  out is a C-contiguous float64 (T, P, S)
    array whose memory holds the hash words until they become floats,
    and scratch a uint64 array of out.size elements.  The word's top 53 bits, bits >> 11 < 2**53,
    convert to float64 exactly through an int64 view of the same memory.
    Returns out.
    """
    if not out.flags.c_contiguous:
        raise ValueError("u01_grid needs a C-contiguous out")
    floats = out.reshape(-1)
    words = floats.view(np.uint64)
    np.bitwise_xor(keys[:, None, :], parts[None, :, None], out=out.view(np.uint64))
    _mix64_after_first_round(words, scratch)
    words >>= np.uint64(11)
    np.copyto(floats, words.view(np.int64))
    floats *= 2.0**-53
    return out


class Stream:
    """Sequential view over a counter-based stream.

    Used where an algorithm is inherently serial (the annealing chain):
    draws are still pure functions of (key, draw counter), so replays
    with the same key reproduce the exact sequence.
    """

    def __init__(self, key: int):
        self._key = fold(key, TAG_CHAIN)
        self._count = 0

    def u01(self) -> float:
        u = u01(fold(self._key, self._count))
        self._count += 1
        return u

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u01()

    def integer(self, n: int) -> int:
        """Uniform int in [0, n). Bias is negligible for small n."""
        return min(int(self.u01() * n), n - 1)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller transform; consumes two uniforms per call."""
        u1 = 1.0 - self.u01()  # (0, 1]: keeps the log finite
        u2 = self.u01()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z
