"""The market's documented rules as a plain Python loop over agents.

An executable specification of amr.market: each agent, vote and sum is
written out one at a time, from the module docstring's rules alone, so
the kernel's batched layout, memos and row blocks can be checked
against it bit for bit.  It shares no code with the kernel beyond the
config classes and the scalar hash (fold, u01).
"""

from __future__ import annotations

import math

from amr.market import MarketConfig
from amr.rng import fold, u01

TAG_JITTER, TAG_DECISION = 0x4A49, 0x4445  # amr.rng's purpose tags
FIELDS = ("optimism", "reactivity", "trade_fraction")
BOUNDS = ((0.0, 1.0), (-1.0, 1.0), (1e-6, 1.0))


def agents(config: MarketConfig, seed: int, mask) -> list[tuple[float, float, float]]:
    """(optimism, reactivity, vote weight) of every agent, in id order.

    Field d of agent a is (2u - 1) * jitter + its type's value, clipped
    to the field's bounds, with u = u01(fold(fold(seed, jitter tag, d), a)).
    The weight is |trade_fraction * assets / total assets|, or 0 when
    the mask disables the agent's type.
    """
    out, a = [], 0
    for t, on in zip(config.types, mask):
        for _ in range(t.count):
            optimism, reactivity, trade_fraction = (
                min(max((2.0 * u01(fold(fold(seed, TAG_JITTER, d), a)) - 1.0) * config.jitter
                        + getattr(t, field), lo), hi)
                for d, (field, (lo, hi)) in enumerate(zip(FIELDS, BOUNDS)))
            weight = abs(trade_fraction * t.assets_per_investor / config.total_assets) if on else 0.0
            out.append((optimism, reactivity, weight))
            a += 1
    return out


def demand(people, seed: int, t: int, last_return: float, chunk_size: int) -> float:
    """Net demand of day t: each vote copysign(weight, x - nextafter(u, inf)), with
    x = reactivity * last_return + optimism and u = u01(fold(seed, decision tag, t, a)).

    Votes are summed from -0.0 in agent order within chunks of
    chunk_size agents (one chunk when all fit), then the chunk totals
    from 0.0 in chunk order; a lone chunk's total is taken as is.
    """
    votes = [math.copysign(w, r * last_return + o - math.nextafter(u01(fold(seed, TAG_DECISION, t, a)), math.inf))
             for a, (o, r, w) in enumerate(people)]
    totals = []
    for lo in range(0, len(votes), chunk_size):
        total = -0.0
        for vote in votes[lo : lo + chunk_size]:
            total += vote
        totals.append(total)
    if len(totals) == 1:
        return totals[0]
    net = 0.0
    for total in totals:
        net += total
    return net


def run(config: MarketConfig, seed: int, mask, p0: float, horizon: int, chunk_size: int):
    """(prices, demands) of one run: price' = (demand * impact + 1) * price, and the
    first day's last return is 0, each later day's the run's own last move."""
    people = agents(config, seed, mask)
    prices, demands, last_return = [p0], [], 0.0
    for t in range(horizon - 1):
        demands.append(demand(people, seed, t, last_return, chunk_size))
        prices.append((demands[-1] * config.price_impact + 1.0) * prices[-1])
        last_return = (prices[-1] - prices[-2]) / prices[-2]
    return prices, demands
