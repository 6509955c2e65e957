"""Reference market configurations and synthetic target generation.

Two asset distributions are bundled.  In the first, one type (Banks)
holds the large majority of investable assets; in the second, raising
the central-bank allocation tenfold leaves two types with comparable
investment capacity.  The bundled behavioral parameters make the
dominant-asset types carry the trend signal (optimism away from the
neutral 0.5) while the small types contribute noise and momentum only,
so the reduction outcomes are stable: a single dominant model suffices
in the first market, and exactly the two heavyweights are needed in
the second.

These configurations double as generators: simulating them yields
synthetic targets with a known ground truth, used by the test suite and
the demo scripts in place of real index data.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import date, timedelta

from .market import InvestorType, MarketConfig, simulate_pk
from .timeseries import TimeSeries


def bank_dominated_config(master_seed: int = 2008) -> MarketConfig:
    """Four investor types; Banks hold ~80% of total assets."""
    return MarketConfig(
        types=(
            InvestorType("Individual", 0.1, 150, optimism=0.50, reactivity=0.10, trade_fraction=0.50),
            InvestorType("Funds", 100.0, 100, optimism=0.50, reactivity=0.80, trade_fraction=0.40),
            InvestorType("Banks", 1000.0, 245, optimism=0.55, reactivity=0.30, trade_fraction=0.80),
            InvestorType("Govt", 10000.0, 5, optimism=0.50, reactivity=0.00, trade_fraction=0.30),
        ),
        price_impact=0.01,
        master_seed=master_seed,
    )


def balanced_config(master_seed: int = 2009) -> MarketConfig:
    """The bank-dominated market with Govt assets raised tenfold: two comparable heavyweights.

    Govt agents are few and near-deterministic buyers of a small asset
    slice; Banks are many probabilistic trend followers.  Each carries
    about half of the aggregate demand signal, so neither model alone
    reproduces the target.
    """
    config = bank_dominated_config(master_seed)
    govt = replace(config.types[-1], assets_per_investor=100000.0, optimism=0.95, trade_fraction=0.06)
    return replace(config, types=config.types[:-1] + (govt,))


def weekdays(start: date, n: int) -> tuple[date, ...]:
    """n consecutive Mon-Fri calendar days beginning at or after `start`; ValueError past date.max."""
    out: list[date] = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        if len(out) < n:  # step only while another day is needed
            if d == date.max:
                raise ValueError(f"{n} weekdays from {start} run past {date.max}")
            d += timedelta(days=1)
    return tuple(out)


def synthetic_target(config: MarketConfig, seed: int, n_days: int = 390) -> TimeSeries:
    """Generate a target series by simulating `config` under `seed`.

    The series starts at price 100.0 on 2009-01-02, a Friday, and runs
    `n_days` weekdays.
    """
    dates = weekdays(date(2009, 1, 2), n_days)
    run = simulate_pk(replace(config, master_seed=seed), p0=100.0, horizon=n_days, dates=dates)
    return run.predicted
