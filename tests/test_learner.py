import hashlib
import json
from dataclasses import replace
from math import exp, sqrt, ulp

import numpy as np
import pytest

from amr import learner, market
from amr.learner import (
    AnnealingSchedule,
    ParameterVector,
    accept,
    anneal,
    energy,
    fit_to_dict,
    params_from_fit_dict,
    propose,
)
from amr.presets import bank_dominated_config, synthetic_target
from amr.rng import Stream, substream
from amr.timeseries import TimeSeries


# sha256 of the sorted-key JSON fit_to_dict of a 300-evaluation anneal with only Banks enabled.
REDUCED_CONFIG_FIT = "3e11af540582d3d5f7aaeac839b82ee69e25a983427ac57e974602055b1197db"


@pytest.fixture(scope="module")
def small_cfg():
    return bank_dominated_config(master_seed=31)


@pytest.fixture(scope="module")
def small_target(small_cfg):
    # Generated by the replication-0 substream so energy(generator) with
    # one replication reproduces the series exactly.
    return synthetic_target(small_cfg, seed=substream(small_cfg.master_seed, 0), n_days=120)


class TestParameterVector:
    def test_round_trip_through_config(self, small_cfg):
        vec = ParameterVector.from_config(small_cfg)
        assert vec.apply(small_cfg) == small_cfg
        assert len(vec.values) == 3 * len(small_cfg.types) + 1

    def test_dict_round_trip(self, small_cfg):
        vec = ParameterVector.from_config(small_cfg)
        back = ParameterVector.from_dict(vec.to_dict(), small_cfg.type_names)
        assert np.array_equal(back.values, vec.values)

    def test_out_of_bounds_rejected(self, small_cfg):
        vec = ParameterVector.from_config(small_cfg)
        bad = vec.values.copy()
        bad[0] = 1.5  # optimism above 1
        with pytest.raises(ValueError, match="optimism"):
            ParameterVector(vec.type_names, bad)
        bad = vec.values.copy()
        bad[-1] = 0.2  # impact above 0.1
        with pytest.raises(ValueError, match="price_impact"):
            ParameterVector(vec.type_names, bad)

    def test_nan_coordinate_rejected_by_name(self, small_cfg):
        vec = ParameterVector.from_config(small_cfg)
        bad = vec.values.copy()
        bad[4] = np.nan  # the second type's reactivity; NaN compares false both ways
        name = vec.coordinate_names()[4]
        with pytest.raises(ValueError, match=rf"^coordinate {name} = nan out of bounds$"):
            ParameterVector(vec.type_names, bad)

    def test_type_name_mismatch_rejected(self, small_cfg):
        vec = ParameterVector.from_config(small_cfg)
        other = replace(small_cfg, types=tuple(replace(t, name=t.name + "X") for t in small_cfg.types))
        with pytest.raises(ValueError):
            vec.apply(other)

    def test_missing_key_rejected(self, small_cfg):
        vec = ParameterVector.from_config(small_cfg)
        d = vec.to_dict()
        del d["price_impact"]
        with pytest.raises(ValueError, match="price_impact"):
            ParameterVector.from_dict(d, small_cfg.type_names)

    def test_round_trip_at_the_floors(self, small_cfg):
        lo_trade, lo_impact = market.TRADE_FRACTION_BOUNDS[0], market.PRICE_IMPACT_BOUNDS[0]
        floored = replace(small_cfg, price_impact=lo_impact,
                          types=tuple(replace(t, trade_fraction=lo_trade) for t in small_cfg.types))
        vec = ParameterVector.from_config(floored)
        assert vec.apply(floored) == floored
        assert vec.apply(small_cfg) == floored

    def test_random_within_bounds(self, small_cfg):
        stream = Stream(3)
        for _ in range(50):
            vec = ParameterVector.random(small_cfg, stream)
            lo, hi = vec.bounds()
            assert np.all(vec.values >= lo) and np.all(vec.values <= hi)


class TestPropose:
    def test_zero_sigma_keeps_vector(self, small_cfg):
        vec = ParameterVector.from_config(small_cfg)
        moved = propose(vec, 0.0, Stream(1))
        assert np.array_equal(moved.values, vec.values)

    def test_exactly_one_coordinate_changes(self, small_cfg):
        # Counting harness: from an interior point, every proposal moves
        # exactly one coordinate.
        vec = ParameterVector.from_config(small_cfg)
        stream = Stream(2)
        changed_counts = [
            int(np.sum(propose(vec, 0.05, stream).values != vec.values)) for _ in range(1000)
        ]
        assert changed_counts.count(1) == 1000

    def test_stays_in_bounds_when_chained(self, small_cfg):
        stream = Stream(5)
        vec = ParameterVector.random(small_cfg, stream)
        lo, hi = vec.bounds()
        for _ in range(500):
            vec = propose(vec, 0.5, stream)
            assert np.all(vec.values >= lo) and np.all(vec.values <= hi)


class TestAccept:
    def test_downhill_always(self):
        stream = Stream(1)
        assert all(accept(-0.01, t, stream) for t in (1e-9, 1.0, 100.0))
        assert accept(0.0, 0.5, stream)

    def test_monte_carlo_matches_boltzmann_at_delta_equals_t(self):
        # Oracle: empirical estimate of P(accept) over 1e5 draws vs e^-1.
        stream = Stream(7)
        n = 100_000
        hits = sum(accept(0.05, 0.05, stream) for _ in range(n))
        assert hits / n == pytest.approx(exp(-1.0), abs=0.01)

    def test_frozen_system_rejects(self):
        stream = Stream(9)
        assert not any(accept(10.0, 1e-6, stream) for _ in range(1000))

    @pytest.mark.parametrize("delta,temp", [(0.02, 0.05), (0.1, 0.05), (0.05, 0.2)])
    def test_acceptance_frequency_within_three_sigma(self, delta, temp):
        p = exp(-delta / temp)
        n = 20_000
        stream = Stream(11)
        hits = sum(accept(delta, temp, stream) for _ in range(n))
        se = sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * se

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError):
            accept(0.1, 0.0, Stream(1))


class TestEnergy:
    def test_deterministic(self, small_cfg, small_target):
        vec = ParameterVector.from_config(small_cfg)
        e1 = energy(vec, small_target, small_cfg, replications=2)
        e2 = energy(vec, small_target, small_cfg, replications=2)
        assert e1 == e2

    def test_self_consistency_is_exact_zero(self, small_cfg, small_target):
        # The target was generated by this config's replication-0 stream,
        # so scoring the generator parameters with one replication gives 0.
        vec = ParameterVector.from_config(small_cfg)
        assert energy(vec, small_target, small_cfg, replications=1) == 0.0

    def test_scale_invariance_power_of_two(self, small_cfg, small_target):
        vec = ParameterVector.from_config(small_cfg)
        scaled = TimeSeries(small_target.dates, tuple(4.0 * v for v in small_target.values))
        assert energy(vec, scaled, small_cfg, replications=2) == energy(
            vec, small_target, small_cfg, replications=2
        )

    def test_constant_market_on_constant_target(self, small_cfg):
        from datetime import date

        from amr.market import set_enabled
        from amr.presets import weekdays

        cfg = set_enabled(small_cfg, small_cfg.type_names, False)
        vec = ParameterVector.from_config(cfg)
        flat = TimeSeries(weekdays(date(2009, 1, 2), 30), tuple([50.0] * 30))
        assert energy(vec, flat, cfg, replications=3) == 0.0


class TestAnneal:
    def test_single_evaluation_is_scored_start(self, small_cfg, small_target):
        schedule = AnnealingSchedule(total_evaluations=1, replications=1)
        fit = anneal(small_target, small_cfg, schedule, seed=3)
        assert fit.evaluations == 1
        assert fit.energy_trace == (fit.best_energy,)

    def test_best_never_worse_than_start_and_trace_monotone(self, small_cfg, small_target):
        schedule = AnnealingSchedule(total_evaluations=40, replications=1)
        fit = anneal(small_target, small_cfg, schedule, seed=4)
        assert fit.best_energy <= fit.energy_trace[0]
        assert all(a >= b for a, b in zip(fit.energy_trace, fit.energy_trace[1:]))
        assert fit.best_energy == fit.energy_trace[-1]
        assert fit.evaluations == 40

    def test_reproducible(self, small_cfg, small_target):
        schedule = AnnealingSchedule(total_evaluations=25, replications=1)
        f1 = anneal(small_target, small_cfg, schedule, seed=5)
        f2 = anneal(small_target, small_cfg, schedule, seed=5)
        assert f1.energy_trace == f2.energy_trace
        assert np.array_equal(f1.best_params.values, f2.best_params.values)

    def test_seed_matters(self, small_cfg, small_target):
        schedule = AnnealingSchedule(total_evaluations=10, replications=1)
        f1 = anneal(small_target, small_cfg, schedule, seed=5)
        f2 = anneal(small_target, small_cfg, schedule, seed=6)
        assert f1.energy_trace != f2.energy_trace

    def test_unchanged_proposal_is_not_rescored(self, small_cfg, small_target, monkeypatch):
        events = []  # ("propose", current values) and ("energy", scored values), in call order
        real_propose, real_energy = learner.propose, learner.energy

        def recording_propose(params, sigma, stream):
            events.append(("propose", params.values.tobytes()))
            return real_propose(params, sigma, stream)

        def recording_energy(params, *args):
            events.append(("energy", params.values.tobytes()))
            return real_energy(params, *args)

        monkeypatch.setattr(learner, "propose", recording_propose)
        monkeypatch.setattr(learner, "energy", recording_energy)
        # A wide sigma clamps many proposals at a bound, back onto the current vector.
        schedule = AnnealingSchedule(total_evaluations=60, proposal_sigma=0.5, replications=1)
        fit = anneal(small_target, small_cfg, schedule, seed=4)
        scored_after_proposal = [(cur, vec) for (k1, cur), (k2, vec) in zip(events, events[1:])
                                 if k1 == "propose" and k2 == "energy"]
        assert all(vec != cur for cur, vec in scored_after_proposal)
        proposals = sum(kind == "propose" for kind, _ in events)
        unchanged = proposals - len(scored_after_proposal)
        assert proposals == 59 and unchanged > 0
        assert sum(kind == "energy" for kind, _ in events) == 60 - unchanged
        assert fit.evaluations == len(fit.energy_trace) == 60

    def test_disabled_type_moves_are_not_rescored(self, monkeypatch):
        # Only Banks is enabled, so 9 of the 13 coordinates move no price and
        # most proposals reuse the current energy (105 energies; 296 when
        # only a proposal clamped onto the current vector did).
        config = market.only_enabled(bank_dominated_config(7), ["Banks"])
        target = synthetic_target(bank_dominated_config(7), seed=11, n_days=120)
        real_energy, energies = learner.energy, []
        monkeypatch.setattr(learner, "energy", lambda *args: energies.append(args) or real_energy(*args))
        fit = anneal(target, config, AnnealingSchedule(total_evaluations=300), seed=3)
        assert len(energies) < fit.evaluations // 2 and fit.evaluations == 300
        # Pinned while every moved coordinate was scored.
        digest = hashlib.sha256(json.dumps(fit_to_dict(fit), sort_keys=True).encode()).hexdigest()
        assert digest == REDUCED_CONFIG_FIT

    def test_temperature_underflow_rejects_uphill_moves(self, small_cfg, small_target, monkeypatch):
        # Halving T after every proposal takes 0.05 below the smallest
        # subnormal float after about 1070 proposals.
        calls = []  # (delta, temperature, accepted) of every acceptance test
        real_accept = learner.accept

        def recording_accept(delta, temperature, stream):
            calls.append((delta, temperature, real_accept(delta, temperature, stream)))
            return calls[-1][2]

        monkeypatch.setattr(learner, "accept", recording_accept)
        short = TimeSeries(small_target.dates[:10], small_target.values[:10])
        schedule = AnnealingSchedule(cooling_factor=0.5, proposals_per_epoch=1,
                                     total_evaluations=1200, replications=1)
        fit = anneal(short, small_cfg, schedule, seed=1)
        assert fit.evaluations == len(fit.energy_trace) == 1200
        assert min(t for _, t, _ in calls) == ulp(0.0)
        floored = [(delta, ok) for delta, t, ok in calls if t == ulp(0.0)]
        assert len(floored) > 100
        assert not any(ok for delta, ok in floored if delta > 0)

    def test_needs_two_observations(self, small_cfg, small_target):
        one = TimeSeries(small_target.dates[:1], small_target.values[:1])
        with pytest.raises(ValueError):
            anneal(one, small_cfg, AnnealingSchedule(total_evaluations=1), seed=1)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(cooling_factor=1.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(initial_temperature=0.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(total_evaluations=0)

    def test_fit_dict_round_trip(self, small_cfg, small_target):
        schedule = AnnealingSchedule(total_evaluations=5, replications=1)
        fit = anneal(small_target, small_cfg, schedule, seed=8)
        payload = fit_to_dict(fit)
        assert payload["best_mape"] == fit.best_energy
        assert payload["evaluations"] == 5
        back = params_from_fit_dict(payload, small_cfg.type_names)
        assert np.array_equal(back.values, fit.best_params.values)
