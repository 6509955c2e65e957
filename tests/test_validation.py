"""Bad replication counts, tolerances, config, fit and spec fields, schedules and non-finite inputs fail by name."""

import json
import math
from dataclasses import asdict
from datetime import date

import pytest

from amr.cli import main
from amr.learner import AnnealingSchedule, ParameterVector, energy, params_from_fit_dict
from amr.market import PRICE_IMPACT_BOUNDS, TRADE_FRACTION_BOUNDS, config_from_dict, save_config
from amr.presets import bank_dominated_config, synthetic_target, weekdays
from amr.reducer import evaluate_subset, exhaustive_reduce, greedy_reduce
from amr.timeseries import TimeSeries, load_csv, save_csv


@pytest.fixture(scope="module")
def market():
    config = bank_dominated_config()
    return config, ParameterVector.from_config(config), synthetic_target(config, seed=3, n_days=40)


@pytest.mark.parametrize("replications", [0, -1])
def test_reducers_reject_fewer_than_one_replication(market, replications):
    config, params, target = market
    with pytest.raises(ValueError, match="replications"):
        evaluate_subset(("Banks",), params, config, target, replications=replications)
    with pytest.raises(ValueError, match="replications"):
        greedy_reduce(config, params, target, replications=replications)
    with pytest.raises(ValueError, match="replications"):
        exhaustive_reduce(config, params, target, replications=replications)


def test_greedy_rejects_nan_tolerance(market):
    config, params, target = market
    with pytest.raises(ValueError, match="tolerance"):
        greedy_reduce(config, params, target, tolerance=math.nan, replications=1)


def _wire(config):
    """`config` as its saved JSON reads back: asdict with the types tuple a list."""
    return json.loads(json.dumps(asdict(config)))


def _type_dict(**overrides):
    data = _wire(bank_dominated_config())
    data["types"][2].update(overrides)  # Banks
    return data


@pytest.mark.parametrize(
    "field,value",
    [("enabled", "false"), ("enabled", 0), ("count", 1.5), ("count", 245.0), ("count", True),
     ("assets_per_investor", None), ("optimism", None), ("reactivity", None),
     ("trade_fraction", None), ("optimism", True), ("reactivity", "0.1")],
)
def test_config_fields_parse_strictly(field, value):
    with pytest.raises(ValueError, match=rf"'Banks'.*{field}"):
        config_from_dict(_type_dict(**{field: value}))


@pytest.mark.parametrize(
    "field,value",
    [("price_impact", None), ("price_impact", False), ("jitter", None), ("jitter", "0.05"),
     ("master_seed", None), ("master_seed", 1.5), ("master_seed", True)],
)
def test_config_top_level_numbers_parse_strictly(field, value):
    data = _wire(bank_dominated_config())
    data[field] = value
    with pytest.raises(ValueError, match=rf"market config {field} must be"):
        config_from_dict(data)


@pytest.mark.parametrize("seed", [-(2**63), 2**64 - 1])
def test_config_master_seed_bounds_are_valid(seed):
    data = _wire(bank_dominated_config())
    data["master_seed"] = seed
    assert config_from_dict(data).master_seed == seed


@pytest.fixture()
def reduce_args(tmp_path):
    config = bank_dominated_config(master_seed=5)
    target = synthetic_target(config, seed=6, n_days=60)
    save_config(config, tmp_path / "config.json")
    save_csv(target, tmp_path / "target.csv")
    fit = {"params": ParameterVector.from_config(config).to_dict()}
    (tmp_path / "fit.json").write_text(json.dumps(fit))
    return [
        "reduce",
        "--data", str(tmp_path / "target.csv"),
        "--split", target.dates[29].isoformat(),
        "--config", str(tmp_path / "config.json"),
        "--params", str(tmp_path / "fit.json"),
        "--out", str(tmp_path / "out"),
    ]


def test_cli_zero_replications_exits_2(reduce_args, capsys):
    assert main(reduce_args + ["--replications", "0"]) == 2
    assert "--replications" in capsys.readouterr().err


def test_cli_nan_tolerance_exits_2(reduce_args, capsys):
    assert main(reduce_args + ["--tolerance", "nan"]) == 2
    assert "--tolerance" in capsys.readouterr().err


def test_cli_nan_fit_coordinate_exits_2_before_out(reduce_args, tmp_path, capsys):
    # Python's json reads NaN, so a fit file can hold one.
    fit = json.loads((tmp_path / "fit.json").read_text())
    fit["params"]["Individual.optimism"] = math.nan
    (tmp_path / "fit.json").write_text(json.dumps(fit))
    assert main(reduce_args + ["--replications", "1"]) == 2
    assert "coordinate Individual.optimism = nan out of bounds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda params: params.update({"Individual.optimism": math.nan}),
     "coordinate Individual.optimism = nan out of bounds"),
    (lambda params: params.pop("price_impact"), "parameter file missing 'price_impact'"),
    (lambda params: params.update({"Banks.reactivity": "0.5"}), "parameter file 'Banks.reactivity' must be a number"),
    (lambda params: params.update({"Banks.optimsm": 0.5}), "parameter file params has unknown key(s)"),
], ids=["nan", "missing", "string", "unknown"])
def test_cli_fit_file_errors_name_the_file(reduce_args, tmp_path, capsys, edit, message):
    fit_path = tmp_path / "fit.json"
    fit = json.loads(fit_path.read_text())
    edit(fit["params"])
    fit_path.write_text(json.dumps(fit))
    assert main(reduce_args + ["--replications", "1"]) == 2
    assert f"error: {fit_path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["20090102", "2009-W01-5", "2009-1-2"])
def test_cli_dates_other_than_yyyy_mm_dd_exit_2(reduce_args, tmp_path, capsys, text):
    # Python 3.11's date.fromisoformat takes the first two; 3.10's does not.
    assert main([*reduce_args[:4], text, *reduce_args[5:]]) == 2  # --split
    assert f"bad date {text!r}" in capsys.readouterr().err
    simulate = ["simulate", "--config", reduce_args[6], "--p0", "100.0", "--horizon", "5",
                "--start-date", text, "--out", str(tmp_path / "prediction.csv")]
    assert main(simulate) == 2
    assert f"bad date {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "prediction.csv").exists()


@pytest.mark.parametrize("field,value", [("enabled", "false"), ("count", 1.5)])
def test_cli_loose_config_field_exits_2(reduce_args, tmp_path, capsys, field, value):
    (tmp_path / "config.json").write_text(json.dumps(_type_dict(**{field: value})))
    assert main(reduce_args + ["--replications", "1"]) == 2
    err = capsys.readouterr().err
    assert "Banks" in err and field in err


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_series_rejects_non_finite_values(value):
    dates = weekdays(date(2009, 1, 2), 2)
    with pytest.raises(ValueError, match="non-finite value .* at position 1"):
        TimeSeries(dates, (100.0, value))


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
def test_load_csv_rejects_non_finite_values_by_line(tmp_path, text):
    path = tmp_path / "target.csv"
    path.write_text(f"date,value\n2009-01-02,100\n2009-01-05,{text}\n")
    with pytest.raises(ValueError, match=r"target\.csv:3: non-positive or non-finite value"):
        load_csv(path)


@pytest.mark.parametrize("name", [["a"], {"x": 1}, 5, None, ""], ids=["list", "object", "number", "null", "empty"])
def test_type_name_must_be_non_empty_string(name):
    with pytest.raises(ValueError, match=r"types\[2\]\.name must be a non-empty string"):
        config_from_dict(_type_dict(name=name))


def test_infinite_assets_per_investor_rejected():
    with pytest.raises(ValueError, match="'?Banks'?.*assets_per_investor"):
        config_from_dict(_type_dict(assets_per_investor=math.inf))


@pytest.mark.parametrize("payload,field", [
    ([1, 2], "market config"),
    ({"types": ["Banks"], "price_impact": 0.01}, r"types\[0\]"),
    ({"types": "Banks", "price_impact": 0.01}, "types"),
])
def test_config_that_is_not_an_object_rejected(payload, field):
    with pytest.raises(ValueError, match=field):
        config_from_dict(payload)


@pytest.fixture()
def simulate_args(tmp_path):
    save_config(bank_dominated_config(), tmp_path / "config.json")
    return ["simulate", "--config", str(tmp_path / "config.json"),
            "--horizon", "5", "--out", str(tmp_path / "prediction.csv")]


@pytest.mark.parametrize("config_text,field", [
    ("[]", "market config"),
    ('{"types": ["Banks"], "price_impact": 0.01}', "types[0]"),
    (json.dumps(_type_dict(assets_per_investor=math.inf)), "assets_per_investor"),
    (json.dumps(_type_dict(optimism=None)), "optimism"),
    (json.dumps({**_wire(bank_dominated_config()), "price_impact": None}), "price_impact"),
    (json.dumps(_type_dict(name=["a"])), "types[2].name"),
    (json.dumps(_type_dict(name=5)), "types[2].name"),
    (json.dumps(_type_dict(count=10**15)), "Banks 1000000000000000"),
    (json.dumps(_type_dict(assets_per_investor=1e308, count=2)), "Banks 1e+308 * 2"),
    ('{"types": "Banks", "price_impact": 0.01}', "market config types must be a JSON list, got 'Banks'"),
    ('{"types": {"name": "Banks"}, "price_impact": 0.01}', "market config types must be a JSON list, got {"),
], ids=["list", "string_type", "infinite_assets", "null_optimism", "null_price_impact", "list_name",
        "number_name", "over_2_30_agents", "overflowing_total_assets", "string_types", "object_types"])
def test_cli_bad_config_exits_2(simulate_args, tmp_path, capsys, config_text, field):
    (tmp_path / "config.json").write_text(config_text)
    assert main(simulate_args + ["--p0", "100.0"]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


def test_trade_fraction_below_floor_exits_2(simulate_args, tmp_path, capsys):
    floor = TRADE_FRACTION_BOUNDS[0]
    (tmp_path / "config.json").write_text(json.dumps(_type_dict(trade_fraction=floor / 10)))
    assert main(simulate_args + ["--p0", "100.0"]) == 2
    assert "Banks: trade_fraction 1e-07 outside" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


def test_price_impact_below_floor_exits_2(simulate_args, tmp_path, capsys):
    floor = PRICE_IMPACT_BOUNDS[0]
    data = {**_wire(bank_dominated_config()), "price_impact": floor / 10}
    (tmp_path / "config.json").write_text(json.dumps(data))
    assert main(simulate_args + ["--p0", "100.0"]) == 2
    assert "price_impact 1e-07 outside" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


@pytest.mark.parametrize("seed", [2**64, -(2**63) - 1])
def test_cli_config_master_seed_outside_64_bits_exits_2(simulate_args, tmp_path, capsys, seed):
    # fold reads a seed modulo 2**64, so 2**64 would run as seed 0.
    (tmp_path / "config.json").write_text(json.dumps({**_wire(bank_dominated_config()), "master_seed": seed}))
    assert main(simulate_args + ["--p0", "100.0"]) == 2
    assert f"master_seed must be in [-2**63, 2**64), got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


def test_cli_seed_outside_64_bits_exits_2(simulate_args, tmp_path, capsys):
    assert main(simulate_args + ["--p0", "100.0", "--seed", "18446744073709551616"]) == 2
    assert "master_seed must be in [-2**63, 2**64), got 18446744073709551616" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


@pytest.mark.parametrize("p0", ["inf", "nan", "-inf"])
def test_cli_non_finite_p0_exits_2(simulate_args, tmp_path, capsys, p0):
    assert main(simulate_args + [f"--p0={p0}"]) == 2
    assert "p0" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


def test_cli_train_on_infinite_value_exits_2(reduce_args, tmp_path, capsys):
    lines = (tmp_path / "target.csv").read_text().splitlines()
    lines[10] = lines[10].split(",")[0] + ",inf"
    (tmp_path / "target.csv").write_text("\n".join(lines) + "\n")
    argv = ["train", *reduce_args[1:7], "--evaluations", "2", "--out", str(tmp_path / "fit_out.json")]
    assert main(argv) == 2
    assert "target.csv:11: non-positive or non-finite value inf" in capsys.readouterr().err
    assert not (tmp_path / "fit_out.json").exists()


@pytest.mark.parametrize("spec_text", ["5", '{"data": "d.csv", "split": "2009-01-05", '
                                             '"market_config": "c.json", "schedule": [1]}'],
                         ids=["number", "schedule_list"])
def test_cli_experiment_spec_that_is_not_an_object_exits_2(tmp_path, capsys, spec_text):
    (tmp_path / "experiment.json").write_text(spec_text)
    assert main(["experiment", "--spec", str(tmp_path / "experiment.json")]) == 2
    assert "experiment spec" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("initial_temperature", math.inf), ("initial_temperature", math.nan),
    ("proposal_sigma", math.inf), ("proposal_sigma", math.nan),
])
def test_schedule_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        AnnealingSchedule(**{field: value})


@pytest.mark.parametrize("flag,value,field", [
    ("--initial-temp", "inf", "initial_temperature"),
    ("--sigma", "inf", "proposal_sigma"),
    ("--sigma", "nan", "proposal_sigma"),
])
def test_cli_train_non_finite_schedule_exits_2(reduce_args, tmp_path, capsys, flag, value, field):
    argv = ["train", *reduce_args[1:7], "--evaluations", "2", "--out", str(tmp_path / "fit_out.json")]
    assert main(argv + [f"{flag}={value}"]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "fit_out.json").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--evaluations", "0", "total_evaluations must be >= 1, got 0"),
    ("--per-epoch", "0", "proposals_per_epoch must be >= 1, got 0"),
    ("--train-replications", "0", "replications must be >= 1, got 0"),
    ("--cooling", "1", "cooling_factor must be in (0, 1), got 1.0"),
])
def test_cli_train_schedule_errors_name_the_field_and_value(reduce_args, tmp_path, capsys, flag, value, message):
    argv = ["train", *reduce_args[1:7], "--evaluations", "2", "--out", str(tmp_path / "fit_out.json")]
    assert main(argv + [flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fit_out.json").exists()


def test_energy_rejects_fewer_than_one_replication(market):
    config, params, target = market
    with pytest.raises(ValueError, match="replications must be >= 1, got 0"):
        energy(params, target, config, replications=0)


@pytest.mark.parametrize("key,value", [
    ("Banks.optimism", None), ("Banks.optimism", "0.5"), ("price_impact", True),
])
def test_fit_file_values_parse_strictly(key, value):
    data = ParameterVector.from_config(bank_dominated_config()).to_dict()
    data[key] = value
    with pytest.raises(ValueError, match=rf"parameter file '{key}' must be a number"):
        ParameterVector.from_dict(data, bank_dominated_config().type_names)


FIT_NOT_OBJECTS = pytest.mark.parametrize("fit,message", [
    (5, "fit file must be a JSON object, got int"),
    ({"params": 5}, "parameter file params must be a JSON object, got int"),
], ids=["number", "number_params"])


@FIT_NOT_OBJECTS
def test_fit_file_that_is_not_an_object_rejected(fit, message):
    with pytest.raises(ValueError, match=message):
        params_from_fit_dict(fit, bank_dominated_config().type_names)


@FIT_NOT_OBJECTS
def test_cli_fit_file_that_is_not_an_object_exits_2(simulate_args, tmp_path, capsys, fit, message):
    (tmp_path / "fit.json").write_text(json.dumps(fit))
    assert main(simulate_args + ["--p0", "100.0", "--params", str(tmp_path / "fit.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


def test_cli_fit_file_null_value_exits_2(simulate_args, tmp_path, capsys):
    fit = {"params": {**ParameterVector.from_config(bank_dominated_config()).to_dict(),
                      "Banks.optimism": None}}
    (tmp_path / "fit.json").write_text(json.dumps(fit))
    assert main(simulate_args + ["--p0", "100.0", "--params", str(tmp_path / "fit.json")]) == 2
    assert "Banks.optimism" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("schedule.initial_temperature", None), ("schedule.total_evaluations", "3"),
    ("schedule.replications", 1.0), ("tolerance", None), ("replications", None),
    ("replications", 2.7), ("seed", None), ("seed", "11"), ("exhaustive", "false"), ("exhaustive", 1),
    ("split", None), ("split", 20090130),
])
def test_cli_experiment_spec_fields_parse_strictly(reduce_args, tmp_path, capsys, field, value):
    spec = {"data": "target.csv", "split": reduce_args[4], "market_config": "config.json",
            "schedule": {"total_evaluations": 2, "replications": 1}, "replications": 1,
            "out_dir": "out"}
    if field.startswith("schedule."):
        spec["schedule"][field.split(".", 1)[1]] = value
    else:
        spec[field] = value
    (tmp_path / "experiment.json").write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(tmp_path / "experiment.json")]) == 2
    assert f"experiment spec {field}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit.json").exists()


@pytest.mark.parametrize("field,value", [
    ("out_dir", None), ("out_dir", 3), ("data", 5), ("market_config", None), ("market_config", ["c.json"]),
], ids=["null_out_dir", "number_out_dir", "number_data", "null_market_config", "list_market_config"])
def test_cli_experiment_spec_paths_must_be_strings(reduce_args, tmp_path, capsys, field, value):
    spec = {"data": "target.csv", "split": reduce_args[4], "market_config": "config.json",
            "schedule": {"total_evaluations": 2, "replications": 1}, "replications": 1,
            "out_dir": "out", field: value}
    (tmp_path / "experiment.json").write_text(json.dumps(spec))
    before = set(tmp_path.iterdir())
    assert main(["experiment", "--spec", str(tmp_path / "experiment.json")]) == 2
    assert f"experiment spec {field} must be a path string" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


def test_cli_unknown_config_key_exits_2(simulate_args, tmp_path, capsys):
    data = {**_wire(bank_dominated_config()), "jiter": 0.2}
    (tmp_path / "config.json").write_text(json.dumps(data))
    assert main(simulate_args + ["--p0", "100.0"]) == 2
    assert "market config has unknown key(s) ['jiter']" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


def test_cli_unknown_type_key_exits_2(simulate_args, tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps(_type_dict(enabeld=False)))
    assert main(simulate_args + ["--p0", "100.0"]) == 2
    assert "investor type 'Banks' has unknown key(s) ['enabeld']" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()


def test_cli_unknown_experiment_spec_key_exits_2(reduce_args, tmp_path, capsys):
    spec = {"data": "target.csv", "split": reduce_args[4], "market_config": "config.json",
            "schedule": {"total_evaluations": 2, "replications": 1}, "replications": 1,
            "out_dir": "out", "tolerence": 0.01}
    (tmp_path / "experiment.json").write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(tmp_path / "experiment.json")]) == 2
    assert "experiment spec has unknown key(s) ['tolerence']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_fit_params_key_exits_2(simulate_args, tmp_path, capsys):
    params = ParameterVector.from_config(bank_dominated_config()).to_dict()
    argv = simulate_args + ["--p0", "100.0", "--params", str(tmp_path / "fit.json")]
    (tmp_path / "fit.json").write_text(json.dumps({"params": {**params, "Banks.optimsm": 0.5}}))
    assert main(argv) == 2
    assert "parameter file params has unknown key(s) ['Banks.optimsm']" in capsys.readouterr().err
    assert not (tmp_path / "prediction.csv").exists()
    # Keys beside `params` (best_mape, seed, ... or any other) stay allowed.
    (tmp_path / "fit.json").write_text(json.dumps({"params": params, "note": "hand-written"}))
    assert main(argv) == 0


@pytest.mark.parametrize("role", ["market config", "parameter file", "experiment spec"])
def test_cli_malformed_json_exits_2_naming_the_file(simulate_args, tmp_path, capsys, role):
    broken = tmp_path / "broken.json"
    broken.write_text('{"types": [\n')
    argv = {
        "market config": ["simulate", "--config", str(broken), *simulate_args[3:], "--p0", "100.0"],
        "parameter file": [*simulate_args, "--p0", "100.0", "--params", str(broken)],
        "experiment spec": ["experiment", "--spec", str(broken)],
    }[role]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{role} {broken}" in err and "not valid JSON" in err
    assert not (tmp_path / "prediction.csv").exists()
