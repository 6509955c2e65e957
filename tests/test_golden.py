"""Pinned digests of simulation and reduction outputs.

Each digest is the sha256 of an output's exact bytes, so any change to
the order of floating-point operations in the simulation kernel shows up
here.  The simulation pins cover both bundled presets, an all-disabled
market (including one whose demands are -0.0), several summation chunks and one
population larger than one 4096-agent chunk.  The grid pin covers every enabled
mask of both presets under three seeds and two chunk widths, the config pins
cover the bytes `save_config` writes for both presets, and the CLI pins
cover every file written by `experiment --exhaustive`, `reduce --exhaustive`,
`simulate` and `plotdata`.

Every digest is checked on both walks, the compiled one and NumPy's
(the walk fixture): the pinned bits are the contract of each.
"""

import hashlib
import itertools
import json
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

import amr.market as market_module
from amr.cli import main
from amr.learner import ParameterVector
from amr.market import only_enabled, save_config, simulate_pk
from amr.presets import balanced_config, bank_dominated_config, synthetic_target, weekdays
from amr.reducer import exhaustive_reduce, greedy_reduce
from amr.timeseries import save_csv
from walks import on_each_walk


def _scaled(config, factor):
    return replace(config, types=tuple(replace(t, count=t.count * factor) for t in config.types))


def _silent_sellers():
    """All types disabled, every agent sells: each step sums only -0.0 terms."""
    config = bank_dominated_config()
    types = tuple(replace(t, optimism=0.0, reactivity=0.0, enabled=False) for t in config.types)
    return replace(config, types=types, jitter=0.0)


# name -> (config factory, horizon, market.CHUNK_SIZE during the run)
SIMULATIONS = {
    "bank_dominated": (lambda: bank_dominated_config(), 250, 4096),
    "balanced": (lambda: balanced_config(), 250, 4096),
    "all_disabled": (lambda: only_enabled(bank_dominated_config(), ()), 250, 4096),
    "all_disabled_sellers": (_silent_sellers, 250, 4096),
    "chunk_64": (lambda: bank_dominated_config(master_seed=77), 250, 64),
    "over_4096_agents": (lambda: _scaled(bank_dominated_config(master_seed=5), 10), 60, 4096),
}

SIMULATION_DIGESTS = {
    "bank_dominated": "afda76538c71c0fb994db923fd22be9a250e9ceb0d9fc4f44479151de8314133",
    "balanced": "f29497225a4ef483db941fe9c2e9ef204c6ca383ce3f5b18500a2e376ec78565",
    "all_disabled": "e74cfc636e2c75357947dbdda2ad98e800b4b55cba9c7377e8b2c10bed6c3b7c",
    "all_disabled_sellers": "ab64631da2a845cd960d72e68a863c3aa290ce7cdafecdd57ba0ebb062d29075",
    "chunk_64": "8a88209f13ea90d7791ad75f4703cf0056f89cc20d1416b237c2ae761c76b6e4",
    "over_4096_agents": "8018e1e85814b66ce913dd16d44014877ead66530699796673d43cda61b36c1d",
}

REDUCTION_DIGESTS = {
    "greedy": "75f4b417e2547866e56fceccfa27b9a0d34b884bb9b4d723afc65b019d4639db",
    "exhaustive": "0c5becf6503e0ca9af148c553b7631eb083af9a035b01b851082a6341497d3b1",
}


def _run_digest(run) -> str:
    prices = np.asarray(run.predicted.values, dtype=np.float64)
    demands = np.asarray(run.demands, dtype=np.float64)
    return hashlib.sha256(prices.tobytes() + demands.tobytes()).hexdigest()


def _json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Uniform-table cap by path: the default tables every pinned run, 0 streams it.
TABLE_CAPS = {"table": market_module._UNIFORM_TABLE_ELEMENTS, "stream": 0}


@pytest.mark.parametrize("name, table_cap, walk", on_each_walk([
    pytest.param(name, cap, id=name if path == "table" else f"{name}-{path}")
    for path, cap in TABLE_CAPS.items() for name in sorted(SIMULATIONS)
]), indirect=["walk"])
def test_simulation_digest(monkeypatch, name, table_cap, walk):
    make_config, horizon, chunk_width = SIMULATIONS[name]
    monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", table_cap)
    run = simulate_pk(make_config(), 100.0, horizon, weekdays(date(2009, 1, 2), horizon))
    assert _run_digest(run) == SIMULATION_DIGESTS[name]


def test_all_disabled_sellers_demand_is_negative_zero():
    run = simulate_pk(_silent_sellers(), 100.0, 5, weekdays(date(2009, 1, 2), 5))
    assert all(np.signbit(d) and d == 0.0 for d in run.demands)


@pytest.fixture(scope="module")
def reduction_inputs():
    config = bank_dominated_config()
    target = synthetic_target(config, seed=31, n_days=120)
    return config, ParameterVector.from_config(config), target


def test_greedy_reduce_digest(reduction_inputs):
    config, params, target = reduction_inputs
    report = greedy_reduce(config, params, target, replications=2)
    assert _json_digest(report.to_dict()) == REDUCTION_DIGESTS["greedy"]


def test_exhaustive_reduce_digest(reduction_inputs):
    config, params, target = reduction_inputs
    report = exhaustive_reduce(config, params, target, replications=2)
    assert _json_digest(report.to_dict()) == REDUCTION_DIGESTS["exhaustive"]


@pytest.mark.parametrize("walk", ["numpy"], indirect=True)
def test_greedy_reduce_digest_on_numpy_walk(reduction_inputs, walk):
    test_greedy_reduce_digest(reduction_inputs)


@pytest.mark.parametrize("walk", ["numpy"], indirect=True)
def test_exhaustive_reduce_digest_on_numpy_walk(reduction_inputs, walk):
    test_exhaustive_reduce_digest(reduction_inputs)


# Every preset x chunk width x seed x enabled mask, hashed in that loop order.
GRID_DIGEST = "5e8d9804bdcd57e47bdfc94d057e06b8df97b80c1956c9690cb9b9ace146202b"


@pytest.mark.parametrize("table_cap, walk", on_each_walk([pytest.param(cap, id=path) for path, cap in TABLE_CAPS.items()]),
                         indirect=["walk"])
def test_mask_grid_digest(monkeypatch, table_cap, walk):
    monkeypatch.setattr(market_module, "_UNIFORM_TABLE_ELEMENTS", table_cap)
    dates = weekdays(date(2009, 1, 2), 120)
    digest = hashlib.sha256()
    for config in (bank_dominated_config(11), balanced_config(3)):
        for chunk_width in (4096, 64):
            monkeypatch.setattr(market_module, "CHUNK_SIZE", chunk_width)
            for seed in (11, 12, 13):
                for mask in itertools.product([False, True], repeat=4):
                    names = [n for n, on in zip(config.type_names, mask) if on]
                    cell = only_enabled(replace(config, master_seed=seed), names)
                    run = simulate_pk(cell, 100.0, 120, dates)
                    digest.update(np.asarray(run.predicted.values, dtype=np.float64).tobytes())
                    digest.update(np.asarray(run.demands, dtype=np.float64).tobytes())
    assert digest.hexdigest() == GRID_DIGEST


CONFIG_DIGESTS = {
    "bank_dominated": "6c44769cde67977d7d80a01301ea173dfc530b56f605e8bf51a9b089d31950ed",
    "balanced": "55aff10db411254141b88b99cb93f4089e8c1c26ff641b0a9583ff30ad8c0e2b",
}


@pytest.mark.parametrize("name, make_config", [
    ("bank_dominated", bank_dominated_config),
    ("balanced", balanced_config),
])
def test_saved_config_digest(tmp_path, name, make_config):
    save_config(make_config(), tmp_path / "config.json")
    assert hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest() == CONFIG_DIGESTS[name]


# The same bytes at master seed 7, the demo workspace's seed, rather than each preset's default.
SEED_7_CONFIG_DIGESTS = {
    "bank_dominated": "4a47e124a0739f0b050061a76b915ff210eca0adc98ecf927c9bf6c02f7ebd90",
    "balanced": "52576f43b7f165cf649295556ed49d0e6fb58b3a65cdad33493ae691ceacc9e7",
}


@pytest.mark.parametrize("name, make_config", [
    ("bank_dominated", bank_dominated_config),
    ("balanced", balanced_config),
])
def test_saved_config_digest_at_seed_7(tmp_path, name, make_config):
    save_config(make_config(7), tmp_path / "config.json")
    assert hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest() == SEED_7_CONFIG_DIGESTS[name]


# sha256 of every file each command writes, on the `cli_workspace` inputs.
CLI_DIGESTS = {
    "experiment": {
        "fit.json": "f91d84a824a3ef7e3dc2f99c41664f7f7e644cc662fca99a121d807a609e900c",
        "plotdata.csv": "f902bd465a4d3ccf6c112eb3d144a0794d2d19e7066c35e8c80fa74f498bb40d",
        "prediction.csv": "b831bd6fc803a761e11ac0f0d0221a092d0234e4e224dc7942bfd0593081147e",
        "reduction.json": "24161b0c68c0501992d87cea50b4917c5b3392308c4a3cf1b4a189c61d527e0f",
        "reduction.txt": "f07c5d608c4e69b2b6fd5bd406f771be951118e0de3159f059b6a562dc68dd21",
    },
    "reduce": {
        "reduction.json": "068d529b7c4e6f9b3ee5639e5fa5387b8e8de76db7f0111df98486d0b54ce69a",
        "reduction.txt": "d0d007883ad5e14fa4542bced76c00f63ccb64cff0bf22dd3e748b933ccd1ce5",
    },
    "simulate": {"prediction.csv": "b0918281311013f63827729d38a3dc9f3e7b3ce577c11ee48b40c39ffd000e6a"},
    "plotdata": {"plotdata.csv": "d12955c31c29916144c4b91292c60161f19f4d7aff96253cdb34ad11ca552361"},
}


@pytest.fixture()
def cli_workspace(tmp_path):
    config = bank_dominated_config(master_seed=77)
    target = synthetic_target(config, seed=78, n_days=120)
    save_config(config, tmp_path / "config.json")
    save_csv(target, tmp_path / "target.csv")
    fit = {"params": ParameterVector.from_config(config).to_dict()}
    (tmp_path / "fit.json").write_text(json.dumps(fit))
    spec = {
        "data": "target.csv",
        "split": target.dates[59].isoformat(),
        "market_config": "config.json",
        "schedule": {"total_evaluations": 20, "replications": 1},
        "tolerance": 0.005,
        "replications": 2,
        "seed": 11,
    }
    (tmp_path / "experiment.json").write_text(json.dumps(spec))
    return tmp_path, target.dates[59].isoformat()


def _file_digests(*paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def test_cli_artifact_digests(cli_workspace):
    ws, boundary = cli_workspace
    out = ws / "out"
    argv = {
        "experiment": ["experiment", "--spec", str(ws / "experiment.json"), "--exhaustive",
                       "--out", str(out / "experiment")],
        "reduce": ["reduce", "--data", str(ws / "target.csv"), "--split", boundary,
                   "--config", str(ws / "config.json"), "--params", str(ws / "fit.json"),
                   "--replications", "2", "--exhaustive", "--out", str(out / "reduce")],
        "simulate": ["simulate", "--config", str(ws / "config.json"), "--p0", "100.0",
                     "--horizon", "30", "--start-date", "2009-01-03", "--seed", "5",
                     "--out", str(out / "simulate" / "prediction.csv")],
        "plotdata": ["plotdata", "--actual", str(ws / "target.csv"),
                     "--predicted", str(ws / "target.csv"),
                     "--out", str(out / "plotdata" / "plotdata.csv")],
    }
    for name in ("simulate", "plotdata"):
        (out / name).mkdir(parents=True)
    got = {}
    for name, args in argv.items():
        assert main(args) == 0, name
        got[name] = _file_digests(*(out / name).iterdir())
    assert got == CLI_DIGESTS


@pytest.mark.parametrize("walk", ["numpy"], indirect=True)
def test_cli_artifact_digests_on_numpy_walk(cli_workspace, walk):
    test_cli_artifact_digests(cli_workspace)
