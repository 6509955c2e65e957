import json
from dataclasses import replace

import pytest

from amr import reducer
from amr.learner import ParameterVector
from amr.market import InvestorType, MarketConfig
from amr.presets import synthetic_target
from amr.reducer import (
    ModelSet,
    evaluate_subset,
    exhaustive_reduce,
    greedy_reduce,
    rank_models,
)
from amr.timeseries import TimeSeries, mape

REPS = 5


@pytest.fixture(scope="module")
def short_a(cfg_a):
    return synthetic_target(cfg_a, seed=901, n_days=150)


@pytest.fixture(scope="module")
def short_b(cfg_b):
    return synthetic_target(cfg_b, seed=902, n_days=150)


class TestModelSet:
    def test_members_follow_declaration_order(self, cfg_a):
        ms = ModelSet.of(cfg_a, ["Govt", "Banks"])
        assert ms.member_names == ("Banks", "Govt")

    def test_unknown_member(self, cfg_a):
        with pytest.raises(ValueError, match="Hedge"):
            ModelSet.of(cfg_a, ["Hedge"])

    def test_empty_allowed(self, cfg_a):
        assert len(ModelSet.of(cfg_a, [])) == 0


class TestEvaluateSubset:
    def test_empty_subset_is_constant_baseline(self, cfg_a, params_a, short_a):
        score = evaluate_subset((), params_a, cfg_a, short_a, replications=10)
        # Independent oracle: MAPE of the constant-at-p0 series.
        p0 = short_a.values[0]
        const = TimeSeries(short_a.dates, tuple([p0] * len(short_a)))
        assert score.mean == pytest.approx(mape(short_a, const), abs=1e-12)
        assert score.std == 0.0
        assert score.mean > 0.0

    def test_full_subset_equals_benchmark(self, cfg_a, params_a, short_a):
        full = evaluate_subset(cfg_a.type_names, params_a, cfg_a, short_a, replications=REPS)
        again = evaluate_subset(ModelSet.of(cfg_a, cfg_a.type_names), params_a, cfg_a, short_a, replications=REPS)
        assert (full.mean, full.std) == (again.mean, again.std)

    def test_single_replication_has_zero_std(self, cfg_a, params_a, short_a):
        s1 = evaluate_subset(("Banks",), params_a, cfg_a, short_a, replications=1)
        s2 = evaluate_subset(("Banks",), params_a, cfg_a, short_a, replications=1)
        assert s1 == s2
        assert s1.std == 0.0

    def test_unknown_type(self, cfg_a, params_a, short_a):
        with pytest.raises(ValueError, match="Hedge"):
            evaluate_subset(("Hedge",), params_a, cfg_a, short_a, replications=1)


class TestRankModels:
    def test_banks_rank_first_in_dominated_market(self, cfg_a, params_a, short_a):
        ranking = rank_models(cfg_a, params_a, short_a, replications=REPS)
        assert ranking[0][0] == "Banks"
        means = [m for _, m in ranking]
        assert means == sorted(means)

    def test_single_type_config(self):
        cfg = MarketConfig(
            types=(InvestorType("Only", 10.0, 3, 0.6, 0.1, 0.5),),
            price_impact=0.01,
            master_seed=5,
        )
        target = synthetic_target(cfg, seed=6, n_days=60)
        ranking = rank_models(cfg, ParameterVector.from_config(cfg), target, replications=3)
        assert [n for n, _ in ranking] == ["Only"]

    def test_exact_ties_keep_declaration_order(self):
        # Duplicated deterministic types (always-buy, zero jitter) yield
        # bit-identical singleton series, hence exact MAPE ties.
        twin = dict(assets_per_investor=10.0, count=2, optimism=1.0,
                    reactivity=0.0, trade_fraction=0.5)
        cfg = MarketConfig(
            types=(InvestorType("Zed", **twin), InvestorType("Abe", **twin)),
            price_impact=0.01,
            jitter=0.0,
            master_seed=9,
        )
        target = synthetic_target(cfg, seed=10, n_days=40)
        params = ParameterVector.from_config(cfg)
        s_zed = evaluate_subset(("Zed",), params, cfg, target, replications=3)
        s_abe = evaluate_subset(("Abe",), params, cfg, target, replications=3)
        assert s_zed.mean == s_abe.mean  # genuine tie
        ranking = rank_models(cfg, params, target, replications=3)
        assert [n for n, _ in ranking] == ["Zed", "Abe"]


class TestGreedyReduce:
    def test_dominated_market_reduces_to_banks(self, cfg_a, params_a, short_a):
        report = greedy_reduce(cfg_a, params_a, short_a, tolerance=0.005, replications=REPS)
        assert report.reduced_set.member_names == ("Banks",)
        assert len(report.selection_trace) == 1
        assert report.selection_trace[0][0] == "Banks"
        assert report.singletons["Banks"].mean <= report.benchmark.mean + 0.005

    def test_balanced_market_needs_both_heavyweights(self, cfg_b, params_b, short_b):
        report = greedy_reduce(cfg_b, params_b, short_b, tolerance=0.005, replications=REPS)
        assert set(report.reduced_set.member_names) == {"Banks", "Govt"}
        assert [name for name, _ in report.selection_trace] == list(report.ranking[:2])

    def test_infinite_tolerance_stops_after_top_singleton(self, cfg_a, params_a, short_a):
        report = greedy_reduce(cfg_a, params_a, short_a, tolerance=float("inf"), replications=REPS)
        assert len(report.reduced_set) == 1
        assert report.reduced_set.member_names == (report.ranking[0],)

    def test_zero_tolerance_terminates(self, cfg_a, params_a, short_a):
        report = greedy_reduce(cfg_a, params_a, short_a, tolerance=0.0, replications=2)
        assert 1 <= len(report.reduced_set) <= len(cfg_a.types)
        final = report.selection_trace[-1][1]
        assert final.mean <= report.benchmark.mean

    def test_trace_grows_one_at_a_time(self, cfg_b, params_b, short_b):
        report = greedy_reduce(cfg_b, params_b, short_b, tolerance=0.0, replications=2)
        names = [name for name, _ in report.selection_trace]
        assert len(names) == len(set(names)) == len(report.reduced_set)
        assert tuple(sorted(names)) == tuple(sorted(report.reduced_set.member_names))

    def test_negative_tolerance_rejected(self, cfg_a, params_a, short_a):
        with pytest.raises(ValueError):
            greedy_reduce(cfg_a, params_a, short_a, tolerance=-0.1, replications=1)

    def test_report_serializes(self, cfg_a, params_a, short_a):
        report = greedy_reduce(cfg_a, params_a, short_a, replications=2)
        payload = report.to_dict()
        assert payload["reduced_set"] == list(report.reduced_set.member_names)
        assert payload["replications"] == 2
        table = report.format_table()
        assert "full set" in table and "all disabled (constant)" in table
        assert table.count("only ") == len(cfg_a.types)


class TestExhaustive:
    def test_subset_count_for_four_types(self, cfg_a, params_a, short_a):
        oracle = exhaustive_reduce(cfg_a, params_a, short_a, replications=2)
        assert len(oracle.table) == 2 ** len(cfg_a.types) - 1 == 15
        assert set(oracle.best_by_size) == {1, 2, 3, 4}

    def test_best_singleton_matches_ranking(self, cfg_a, params_a, short_a):
        oracle = exhaustive_reduce(cfg_a, params_a, short_a, replications=REPS)
        ranking = rank_models(cfg_a, params_a, short_a, replications=REPS)
        best_set, best_score = oracle.best_by_size[1]
        assert best_set.member_names == (ranking[0][0],)
        assert best_score.mean == ranking[0][1]

    def test_greedy_never_beats_oracle_at_same_size(self, cfg_b, params_b, short_b):
        report = greedy_reduce(cfg_b, params_b, short_b, tolerance=0.0, replications=REPS)
        oracle = exhaustive_reduce(cfg_b, params_b, short_b, replications=REPS)
        for k, (_, score) in enumerate(report.selection_trace, start=1):
            assert oracle.best_by_size[k][1].mean <= score.mean + 1e-15

    def test_worker_count_is_invisible(self, cfg_a, params_a, short_a):
        serial = exhaustive_reduce(cfg_a, params_a, short_a, replications=2, workers=1)
        reducer._known_scores.cache_clear()  # simulate again, not from the memo
        threaded = exhaustive_reduce(cfg_a, params_a, short_a, replications=2, workers=4)
        assert serial == threaded


@pytest.fixture()
def simulated_masks(monkeypatch):
    """Every mask the reducer passes to replication_mapes, in call order."""
    seen = []
    real = reducer.replication_mapes

    def counting(config, masks, target, replications):
        seen.extend(tuple(mask) for mask in masks)
        return real(config, masks, target, replications)

    monkeypatch.setattr(reducer, "replication_mapes", counting)
    return seen


class TestScoreSlot:
    @pytest.mark.parametrize("preset", ["a", "b"])
    def test_greedy_then_oracle_equals_fresh_runs(self, request, preset):
        cfg, params, target = (request.getfixturevalue(f"{n}_{preset}") for n in ("cfg", "params", "short"))
        greedy = greedy_reduce(cfg, params, target, replications=REPS)
        oracle = exhaustive_reduce(cfg, params, target, replications=REPS)
        reducer._known_scores.cache_clear()
        fresh_greedy = greedy_reduce(cfg, params, target, replications=REPS)
        reducer._known_scores.cache_clear()
        fresh_oracle = exhaustive_reduce(cfg, params, target, replications=REPS)
        assert json.dumps(greedy.to_dict()) == json.dumps(fresh_greedy.to_dict())
        assert json.dumps(oracle.to_dict()) == json.dumps(fresh_oracle.to_dict())
        # A score does not depend on the masks that shared its kernel call:
        # every oracle row equals its subset simulated alone.
        for model_set, score in oracle.table:
            reducer._known_scores.cache_clear()
            assert evaluate_subset(model_set, params, cfg, target, replications=REPS) == score

    def test_oracle_after_greedy_simulates_only_new_masks(self, request, simulated_masks):
        # Full set, baseline and four singletons, plus one mask per pick after the first.
        for preset, picks, greedy_masks in [("a", ["Banks"], 6), ("b", ["Govt", "Banks"], 7)]:
            cfg, params, target = (request.getfixturevalue(f"{n}_{preset}") for n in ("cfg", "params", "target"))
            simulated_masks.clear()
            greedy = greedy_reduce(cfg, params, target)
            assert [name for name, _ in greedy.selection_trace] == picks, preset
            assert len(simulated_masks) == greedy_masks, preset
            exhaustive_reduce(cfg, params, target)
            assert len(simulated_masks) == 16, preset
            assert len(set(simulated_masks)) == 16, preset  # no mask simulated twice

    def test_any_other_key_recomputes(self, cfg_a, params_a, short_a, simulated_masks):
        subsets = [("Banks",), ("Banks", "Govt"), cfg_a.type_names]
        impact_halved = params_a.values.copy()
        impact_halved[-1] /= 2
        other_seed = replace(cfg_a, master_seed=cfg_a.master_seed + 1)
        variants = {
            "target": (cfg_a, params_a, synthetic_target(cfg_a, seed=903, n_days=150), REPS),
            "params": (cfg_a, ParameterVector(params_a.type_names, impact_halved), short_a, REPS),
            "replications": (cfg_a, params_a, short_a, REPS + 1),
            "master_seed": (other_seed, ParameterVector.from_config(other_seed), short_a, REPS),
        }

        def scores(cfg, params, target, replications):
            return [evaluate_subset(s, params, cfg, target, replications) for s in subsets]

        for name, variant in variants.items():
            reducer._known_scores.cache_clear()
            base = scores(cfg_a, params_a, short_a, REPS)
            before = len(simulated_masks)
            changed = scores(*variant)
            assert len(simulated_masks) - before == len(subsets), name
            reducer._known_scores.cache_clear()
            assert changed == scores(*variant) != base, name

    def test_one_type_config_simulates_its_full_set_once(self, simulated_masks):
        cfg = MarketConfig(
            types=(InvestorType("Only", 10.0, 3, 0.6, 0.1, 0.5),),
            price_impact=0.01,
            master_seed=5,
        )
        target = synthetic_target(cfg, seed=6, n_days=60)
        params = ParameterVector.from_config(cfg)
        report = greedy_reduce(cfg, params, target, replications=3)
        oracle = exhaustive_reduce(cfg, params, target, replications=3)
        assert sorted(simulated_masks) == [(False,), (True,)]
        assert report.benchmark == report.singletons["Only"] == oracle.table[0][1]
