"""Invalid replication counts, tolerances and config fields are rejected by name."""

import json
import math

import pytest

from amr.cli import main
from amr.learner import ParameterVector
from amr.market import config_from_dict, config_to_dict, save_config
from amr.presets import bank_dominated_config, synthetic_target
from amr.reducer import evaluate_subset, exhaustive_reduce, greedy_reduce
from amr.timeseries import save_csv


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


def _type_dict(**overrides):
    data = config_to_dict(bank_dominated_config())
    data["types"][2].update(overrides)  # Banks
    return data


@pytest.mark.parametrize(
    "field,value",
    [("enabled", "false"), ("enabled", 0), ("count", 1.5), ("count", 245.0), ("count", True)],
)
def test_config_fields_parse_strictly(field, value):
    with pytest.raises(ValueError, match=rf"'Banks'.*{field}"):
        config_from_dict(_type_dict(**{field: value}))


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


@pytest.mark.parametrize("field,value", [("enabled", "false"), ("count", 1.5)])
def test_cli_loose_config_field_exits_2(reduce_args, tmp_path, capsys, field, value):
    (tmp_path / "config.json").write_text(json.dumps(_type_dict(**{field: value})))
    assert main(reduce_args + ["--replications", "1"]) == 2
    err = capsys.readouterr().err
    assert "Banks" in err and field in err
