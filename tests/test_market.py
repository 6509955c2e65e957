import json
import sys
from dataclasses import asdict, replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr import market
from amr.market import (
    InvestorType,
    MarketConfig,
    config_from_dict,
    init_population,
    set_enabled,
    simulate_pk,
    step,
)
from amr.presets import weekdays

# Asset layout mirrored by the fixture markets (per-investor, count):
TABLE_A = {"Individual": (0.1, 150), "Funds": (100.0, 100), "Banks": (1000.0, 245), "Govt": (10000.0, 5)}
TABLE_B = {**TABLE_A, "Govt": (100000.0, 5)}


def sole_type_config(**overrides):
    kwargs = dict(
        name="Solo", assets_per_investor=10.0, count=1,
        optimism=1.0, reactivity=0.0, trade_fraction=1.0,
    )
    kwargs.update(overrides)
    return MarketConfig(types=(InvestorType(**kwargs),), price_impact=0.01, jitter=0.0, master_seed=1)


class TestInvestorType:
    def test_total_assets_match_reference_tables(self, cfg_a, cfg_b):
        # Oracle: per-investor assets times head count, from the tables.
        for cfg, table in ((cfg_a, TABLE_A), (cfg_b, TABLE_B)):
            for t in cfg.types:
                per_investor, count = table[t.name]
                assert t.assets_per_investor == per_investor
                assert t.count == count
                assert t.total_assets == per_investor * count
        assert {t.name: t.total_assets for t in cfg_a.types} == {
            "Individual": 15.0, "Funds": 10000.0, "Banks": 245000.0, "Govt": 50000.0
        }
        assert {t.name: t.total_assets for t in cfg_b.types}["Govt"] == 500000.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("assets_per_investor", 0.0),
            ("assets_per_investor", -1.0),
            ("count", 0),
            ("optimism", 1.5),
            ("optimism", -0.1),
            ("reactivity", 1.01),
            ("trade_fraction", 0.0),
            ("trade_fraction", 1.2),
            ("name", ""),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        kwargs = dict(
            name="T", assets_per_investor=1.0, count=1,
            optimism=0.5, reactivity=0.0, trade_fraction=0.5,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            InvestorType(**kwargs)


def _one_type(count, assets=1.0, name="Solo"):
    return InvestorType(name, assets, count, 0.5, 0.1, 0.01)


class TestMarketConfig:
    def test_rejects_empty_and_oversized(self, cfg_a):
        with pytest.raises(ValueError):
            MarketConfig(types=(), price_impact=0.01)
        many = tuple(
            replace(cfg_a.types[0], name=f"T{i}") for i in range(17)
        )
        with pytest.raises(ValueError):
            MarketConfig(types=many, price_impact=0.01)

    def test_caps_a_market_at_2_30_agents(self):
        # Checked when the config is built: nothing is simulated or allocated.
        assert market.MAX_AGENTS == 2**30
        full = MarketConfig(types=(_one_type(2**29), _one_type(2**29, name="Other")), price_impact=0.01)
        assert full.n_agents == market.MAX_AGENTS
        # The largest market's positions fill C * K = 2**30 exactly, so every position id is below 2**30.
        size, chunks = market._chunking(full.n_agents)
        assert size * chunks == market.MAX_AGENTS
        with pytest.raises(ValueError, match=r"at most 1073741824 .* got 1073741825 from the type counts "
                                             r"\(Solo 536870913, Other 536870912\)"):
            MarketConfig(types=(_one_type(2**29 + 1), _one_type(2**29, name="Other")), price_impact=0.01)

    @pytest.mark.parametrize("types", [
        (_one_type(2, assets=1e308),),  # one type's total overflows
        (_one_type(1, assets=1e308), _one_type(1, assets=1e308, name="Other")),  # only their sum does
    ], ids=["type_total", "sum"])
    def test_rejects_overflowing_total_assets(self, types):
        with pytest.raises(ValueError, match=r"assets_per_investor \* count .*Solo 1e\+308 \* \d.* not finite"):
            MarketConfig(types=types, price_impact=0.01)
        # One such investor alone is a finite market.
        assert MarketConfig(types=(_one_type(1, assets=1e308),), price_impact=0.01).total_assets == 1e308

    def test_rejects_bad_impact_and_jitter(self, cfg_a):
        with pytest.raises(ValueError):
            MarketConfig(types=cfg_a.types, price_impact=0.0)
        with pytest.raises(ValueError):
            MarketConfig(types=cfg_a.types, price_impact=0.11)
        with pytest.raises(ValueError):
            MarketConfig(types=cfg_a.types, price_impact=0.01, jitter=0.25)

    def test_rejects_duplicate_names(self, cfg_a):
        with pytest.raises(ValueError, match="duplicate"):
            MarketConfig(types=(cfg_a.types[0], cfg_a.types[0]), price_impact=0.01)

    def test_json_round_trip(self, cfg_a):
        assert config_from_dict(json.loads(json.dumps(asdict(cfg_a)))) == cfg_a

    @pytest.mark.parametrize("preset", ["cfg_a", "cfg_b"])
    def test_dict_round_trip(self, preset, request):
        # asdict keeps `types` a tuple; no JSON pass turns it into a list.
        cfg = request.getfixturevalue(preset)
        assert config_from_dict(asdict(cfg)) == cfg

    def test_missing_field_message(self):
        with pytest.raises(ValueError, match="missing"):
            config_from_dict({"types": []})


class TestSetEnabled:
    def test_disable_enable_is_involution(self, cfg_a):
        toggled = set_enabled(set_enabled(cfg_a, ["Banks"], False), ["Banks"], True)
        assert toggled == cfg_a

    def test_unknown_label(self, cfg_a):
        with pytest.raises(ValueError, match="Hedge"):
            set_enabled(cfg_a, ["Hedge"], False)

    def test_share_drop_when_banks_disabled(self, cfg_a):
        # Oracle: remaining assets over the full total, from the tables.
        total = 15.0 + 10000.0 + 245000.0 + 50000.0
        expected = (total - 245000.0) / total
        cfg = set_enabled(cfg_a, ["Banks"], False)
        assert cfg.enabled_asset_share == pytest.approx(expected, abs=1e-12)
        assert cfg_a.enabled_asset_share == 1.0

    def test_normalization_unchanged_by_disabling(self, cfg_a):
        pop_full = init_population(cfg_a)
        pop_part = init_population(set_enabled(cfg_a, ["Banks", "Funds"], False))
        assert pop_part.normalization_assets == pop_full.normalization_assets
        assert len(pop_part) == len(pop_full)  # agents exist, just silent


class TestInitPopulation:
    def test_population_count(self, cfg_a):
        # Oracle: sum of the table head counts.
        assert len(init_population(cfg_a)) == 150 + 100 + 245 + 5

    def test_zero_jitter_copies_type_parameters(self, cfg_a):
        pop = init_population(replace(cfg_a, jitter=0.0))
        for k, t in enumerate(cfg_a.types):
            rows = pop.type_index == k
            assert np.all(pop.optimism[rows] == t.optimism)
            assert np.all(pop.reactivity[rows] == t.reactivity)
            assert np.all(pop.trade_fraction[rows] == t.trade_fraction)

    def test_same_config_same_population(self, cfg_a):
        p1, p2 = init_population(cfg_a), init_population(cfg_a)
        assert np.array_equal(p1.optimism, p2.optimism)
        assert np.array_equal(p1.reactivity, p2.reactivity)
        assert np.array_equal(p1.trade_fraction, p2.trade_fraction)

    def test_jitter_within_amplitude_and_bounds(self, cfg_a):
        cfg = replace(cfg_a, jitter=0.2)
        pop = init_population(cfg)
        for k, t in enumerate(cfg.types):
            rows = pop.type_index == k
            assert np.all(np.abs(pop.optimism[rows] - t.optimism) <= 0.2 + 1e-15)
        assert np.all(pop.optimism >= 0.0) and np.all(pop.optimism <= 1.0)
        assert np.all(pop.reactivity >= -1.0) and np.all(pop.reactivity <= 1.0)
        assert np.all(pop.trade_fraction > 0.0) and np.all(pop.trade_fraction <= 1.0)

    def test_different_seeds_differ(self, cfg_a):
        p1 = init_population(cfg_a)
        p2 = init_population(replace(cfg_a, master_seed=cfg_a.master_seed + 1))
        assert not np.array_equal(p1.optimism, p2.optimism)


class TestStep:
    def test_all_disabled_is_identity(self, cfg_a):
        cfg = set_enabled(cfg_a, cfg_a.type_names, False)
        next_price, demand = step(cfg, 1000.0, 0.05, 0)
        assert demand == 0.0
        assert next_price == 1000.0

    def test_forced_buy_full_weight(self):
        cfg = sole_type_config()  # optimism 1, reactivity 0, fraction 1, all assets
        next_price, demand = step(cfg, 100.0, 0.0, 0)
        assert demand == 1.0
        assert next_price == 100.0 * (1.0 + 0.01 * 1.0)

    def test_banks_only_demand_bound(self, cfg_a, target_a):
        # Oracle: asset-share bound from the table totals.
        bound = 245000.0 / (15.0 + 10000.0 + 245000.0 + 50000.0)
        cfg = set_enabled(cfg_a, ["Individual", "Funds", "Govt"], False)
        run = simulate_pk(cfg, 100.0, 120, weekdays(date(2009, 1, 2), 120))
        assert max(abs(d) for d in run.demands) <= bound + 1e-12

    def test_rejects_non_positive_price(self, cfg_a):
        with pytest.raises(ValueError):
            step(cfg_a, 0.0, 0.0, 0)

    def test_rejects_subnormal_price_as_simulate_pk_rejects_p0(self, cfg_a):
        with pytest.raises(ValueError, match="price must be positive, finite and normal"):
            step(cfg_a, 1e-310, 0.0, 0)
        with pytest.raises(ValueError, match="p0 must be positive, finite and normal"):
            simulate_pk(cfg_a, 1e-310, 2, weekdays(date(2009, 1, 2), 2))
        assert step(cfg_a, sys.float_info.min, 0.0, 0)[0] > 0


class TestSimulatePK:
    def test_horizon_one_is_start_only(self, cfg_a):
        run = simulate_pk(cfg_a, 123.0, 1, weekdays(date(2009, 1, 2), 1))
        assert run.predicted.values == (123.0,)
        assert run.demands == ()

    def test_price_falling_below_normal_names_p0_value_and_date(self, cfg_a):
        # Every agent sells, so a normal p0 just above the floor decays below it on day 5.
        types = tuple(replace(t, optimism=0.0, reactivity=0.0) for t in cfg_a.types)
        cfg = replace(cfg_a, types=types, jitter=0.0)
        dates = weekdays(date(2009, 1, 2), 30)
        with pytest.raises(ValueError) as info:
            simulate_pk(cfg, 2.3e-308, 30, dates)
        message = str(info.value)
        assert message.startswith("p0 2.3e-308 is too small")
        assert "2.22007041640372e-308" in message and "float64" not in message
        assert message.endswith(" on 2009-01-09")
        assert simulate_pk(cfg, 2.3e-308, dates.index(date(2009, 1, 9)), dates[:5]).predicted.values[-1] > 0

    def test_all_disabled_is_constant(self, cfg_a):
        cfg = set_enabled(cfg_a, cfg_a.type_names, False)
        run = simulate_pk(cfg, 777.0, 50, weekdays(date(2009, 1, 2), 50))
        assert set(run.predicted.values) == {777.0}
        assert set(run.demands) == {0.0}

    def test_pure_function_of_inputs(self, cfg_a):
        dates = weekdays(date(2009, 1, 2), 60)
        r1 = simulate_pk(cfg_a, 100.0, 60, dates)
        r2 = simulate_pk(cfg_a, 100.0, 60, dates)
        assert r1.predicted == r2.predicted
        assert r1.demands == r2.demands

    def test_worker_count_is_invisible(self, cfg_a, monkeypatch):
        # Small chunks force multi-chunk aggregation across workers.
        monkeypatch.setattr(market, "CHUNK_SIZE", 64)
        dates = weekdays(date(2009, 1, 2), 80)
        runs = [
            simulate_pk(cfg_a, 100.0, 80, dates, workers=w)
            for w in (1, 2, 8)
        ]
        for other in runs[1:]:
            assert other.predicted.values == runs[0].predicted.values
            assert other.demands == runs[0].demands

    def test_demand_never_exceeds_enabled_share(self, cfg_a):
        for off in ([], ["Govt"], ["Banks"], ["Individual", "Funds", "Govt"]):
            cfg = set_enabled(cfg_a, off, False)
            run = simulate_pk(cfg, 100.0, 60, weekdays(date(2009, 1, 2), 60))
            share = cfg.enabled_asset_share
            assert all(abs(d) <= share + 1e-12 for d in run.demands)

    def test_scaling_p0_by_power_of_two_scales_series_exactly(self, cfg_a):
        dates = weekdays(date(2009, 1, 2), 100)
        base = simulate_pk(cfg_a, 100.0, 100, dates)
        scaled = simulate_pk(cfg_a, 400.0, 100, dates)
        assert all(4.0 * b == s for b, s in zip(base.predicted.values, scaled.predicted.values))
        assert base.demands == scaled.demands

    def test_negative_master_seed_works(self, cfg_a):
        cfg = replace(cfg_a, master_seed=-5)
        dates = weekdays(date(2009, 1, 2), 20)
        r1 = simulate_pk(cfg, 100.0, 20, dates)
        r2 = simulate_pk(cfg, 100.0, 20, dates)
        assert r1.predicted == r2.predicted
        assert r1.predicted != simulate_pk(cfg_a, 100.0, 20, dates).predicted

    def test_validation_errors(self, cfg_a):
        dates = weekdays(date(2009, 1, 2), 3)
        with pytest.raises(ValueError):
            simulate_pk(cfg_a, 100.0, 0, ())
        with pytest.raises(ValueError):
            simulate_pk(cfg_a, 100.0, 2, dates)
        with pytest.raises(ValueError):
            simulate_pk(cfg_a, -1.0, 3, dates)


types_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=1e5),  # assets per investor
        st.integers(min_value=1, max_value=25),  # count
        st.floats(min_value=0.0, max_value=1.0),  # optimism
        st.floats(min_value=-1.0, max_value=1.0),  # reactivity
        st.floats(min_value=0.01, max_value=1.0),  # trade fraction
        st.booleans(),  # enabled
    ),
    min_size=1,
    max_size=4,
)


@given(
    types_strategy,
    st.floats(min_value=1e-4, max_value=0.1),
    st.floats(min_value=0.0, max_value=0.2),
    st.integers(min_value=0, max_value=2**63 - 1),
)
@settings(max_examples=60, deadline=None)
def test_prices_stay_positive_and_demand_bounded(specs, impact, jitter, seed):
    cfg = MarketConfig(
        types=tuple(
            InvestorType(f"T{i}", a, c, o, r, f, enabled=e)
            for i, (a, c, o, r, f, e) in enumerate(specs)
        ),
        price_impact=impact,
        jitter=jitter,
        master_seed=seed,
    )
    run = simulate_pk(cfg, 50.0, 25, weekdays(date(2010, 1, 1), 25))
    assert all(v > 0 for v in run.predicted.values)
    share = cfg.enabled_asset_share
    assert all(abs(d) <= share + 1e-12 for d in run.demands)
