import json
import subprocess
import sys
import warnings
from dataclasses import replace
from datetime import date

import pytest

from amr import market
from amr.cli import main
from amr.market import save_config, set_enabled
from amr.presets import bank_dominated_config, synthetic_target, weekdays
from amr.timeseries import TimeSeries, load_csv, save_csv


@pytest.fixture()
def workspace(tmp_path):
    cfg = bank_dominated_config(master_seed=77)
    target = synthetic_target(cfg, seed=78, n_days=120)
    save_config(cfg, tmp_path / "config.json")
    save_csv(target, tmp_path / "target.csv")
    boundary = target.dates[59].isoformat()
    return {"dir": tmp_path, "config": cfg, "target": target, "split": boundary}


def run_train(ws, out_name="fit.json", extra=()):
    return main(
        [
            "train",
            "--data", str(ws["dir"] / "target.csv"),
            "--split", ws["split"],
            "--config", str(ws["dir"] / "config.json"),
            "--seed", "3",
            "--evaluations", "25",
            "--train-replications", "1",
            "--out", str(ws["dir"] / out_name),
            *extra,
        ]
    )


class TestTrain:
    def test_writes_parseable_fit(self, workspace, capsys):
        assert run_train(workspace) == 0
        data = json.loads((workspace["dir"] / "fit.json").read_text())
        assert isinstance(data["best_mape"], float)
        assert data["evaluations"] == 25
        assert "Banks.optimism" in data["params"]
        assert "train MAPE" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, workspace):
        run_train(workspace, "fit1.json")
        run_train(workspace, "fit2.json")
        assert (workspace["dir"] / "fit1.json").read_bytes() == (
            workspace["dir"] / "fit2.json"
        ).read_bytes()

    def test_missing_out_directory_exits_2_before_annealing(self, workspace, capsys, monkeypatch):
        def no_anneal(*args, **kwargs):
            raise AssertionError("annealed before checking --out")

        monkeypatch.setattr("amr.learner.anneal", no_anneal)
        assert run_train(workspace, out_name="absent/fit.json") == 2
        assert "--out directory not found" in capsys.readouterr().err
        assert not (workspace["dir"] / "absent").exists()

    def test_out_that_is_a_directory_exits_2_before_annealing(self, workspace, capsys, monkeypatch):
        def no_anneal(*args, **kwargs):
            raise AssertionError("annealed before checking --out")

        monkeypatch.setattr("amr.learner.anneal", no_anneal)
        (workspace["dir"] / "fits").mkdir()
        assert run_train(workspace, out_name="fits") == 2
        assert "--out is a directory" in capsys.readouterr().err

    def test_unwritable_out_directory_exits_2_before_annealing(self, workspace, capsys, monkeypatch):
        # Root ignores mode bits, so the directory is made unwritable by denying os.access.
        def no_anneal(*args, **kwargs):
            raise AssertionError("annealed before checking --out")

        monkeypatch.setattr("amr.learner.anneal", no_anneal)
        monkeypatch.setattr("amr.cli.os.access", lambda path, mode: False)
        assert run_train(workspace) == 2
        assert "--out directory is not writable" in capsys.readouterr().err
        assert not (workspace["dir"] / "fit.json").exists()

    def test_missing_data_file_exits_2(self, workspace, capsys):
        code = main(
            [
                "train",
                "--data", str(workspace["dir"] / "absent.csv"),
                "--split", workspace["split"],
                "--config", str(workspace["dir"] / "config.json"),
                "--out", str(workspace["dir"] / "fit.json"),
            ]
        )
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_bad_split_date_exits_2(self, workspace, capsys):
        code = main(
            [
                "train",
                "--data", str(workspace["dir"] / "target.csv"),
                "--split", "31-12-2008",
                "--config", str(workspace["dir"] / "config.json"),
                "--out", str(workspace["dir"] / "fit.json"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_all_disabled_writes_constant_csv(self, workspace):
        cfg = set_enabled(workspace["config"], workspace["config"].type_names, False)
        save_config(cfg, workspace["dir"] / "off.json")
        out = workspace["dir"] / "pred.csv"
        code = main(
            ["simulate", "--config", str(workspace["dir"] / "off.json"),
             "--p0", "500.0", "--horizon", "10", "--out", str(out)]
        )
        assert code == 0
        assert set(load_csv(out).values) == {500.0}

    def test_horizon_one_single_row(self, workspace):
        out = workspace["dir"] / "one.csv"
        code = main(
            ["simulate", "--config", str(workspace["dir"] / "config.json"),
             "--p0", "42.0", "--horizon", "1", "--out", str(out)]
        )
        assert code == 0
        assert len(load_csv(out)) == 1

    def test_same_seed_identical_output(self, workspace):
        args = ["simulate", "--config", str(workspace["dir"] / "config.json"),
                "--p0", "100.0", "--horizon", "30", "--seed", "5"]
        main([*args, "--out", str(workspace["dir"] / "p1.csv")])
        main([*args, "--out", str(workspace["dir"] / "p2.csv")])
        assert (workspace["dir"] / "p1.csv").read_bytes() == (workspace["dir"] / "p2.csv").read_bytes()

    def test_dates_from_csv(self, workspace):
        out = workspace["dir"] / "pred.csv"
        code = main(
            ["simulate", "--config", str(workspace["dir"] / "config.json"),
             "--p0", "100.0", "--dates-from", str(workspace["dir"] / "target.csv"),
             "--out", str(out)]
        )
        assert code == 0
        assert load_csv(out).dates == workspace["target"].dates

    def test_price_overflow_exits_2_naming_p0_and_date(self, workspace, capsys):
        # Every agent always buys, so the price grows each day until it overflows.
        cfg = workspace["config"]
        types = tuple(replace(t, optimism=1.0, reactivity=0.0) for t in cfg.types)
        save_config(replace(cfg, types=types, jitter=0.0), workspace["dir"] / "bull.json")
        args = ["simulate", "--config", str(workspace["dir"] / "bull.json"), "--p0", "1e308",
                "--out", str(workspace["dir"] / "bull.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape the kernel
            assert main([*args, "--horizon", "200"]) == 2
        err = capsys.readouterr().err
        assert "p0 1e+308" in err
        overflow_day = date.fromisoformat(err.strip().rsplit(" ", 1)[-1])
        dates = weekdays(date(2000, 1, 3), 200)
        # The day before the named date is still finite.
        assert main([*args, "--horizon", str(dates.index(overflow_day))]) == 0
        assert main([*args, "--horizon", str(dates.index(overflow_day) + 1)]) == 2

    def test_failed_write_keeps_old_file(self, workspace, capsys, monkeypatch):
        out = workspace["dir"] / "pred.csv"
        args = ["simulate", "--config", str(workspace["dir"] / "config.json"),
                "--p0", "100.0", "--horizon", "30", "--out", str(out)]
        assert main([*args, "--seed", "5"]) == 0
        before = out.read_bytes()

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("amr.timeseries.os.replace", full_disk)
        assert main([*args, "--seed", "6"]) == 2
        assert "No space left" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert not list(workspace["dir"].glob("*.tmp")) and not list(workspace["dir"].glob(".*"))

    @pytest.mark.parametrize("p0", ["1e-310", "2.2250738585072014e-309"])
    def test_subnormal_p0_exits_2(self, workspace, capsys, p0):
        # A subnormal start keeps only a few mantissa bits: its run would not scale with p0.
        out = workspace["dir"] / "tiny.csv"
        code = main(["simulate", "--config", str(workspace["dir"] / "config.json"),
                     "--p0", p0, "--horizon", "100", "--out", str(out)])
        assert code == 2
        assert "p0" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_horizon_or_dates(self, workspace, capsys):
        code = main(
            ["simulate", "--config", str(workspace["dir"] / "config.json"),
             "--p0", "100.0", "--out", str(workspace["dir"] / "x.csv")]
        )
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_window_ending_on_the_last_date_runs(self, workspace, capsys):
        # 9999-12-30 and 9999-12-31 are a Thursday and a Friday.
        out = workspace["dir"] / "edge.csv"
        code = main(["simulate", "--config", str(workspace["dir"] / "config.json"), "--p0", "100",
                     "--start-date", "9999-12-30", "--horizon", "2", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_csv(out).dates == (date(9999, 12, 30), date(9999, 12, 31))

    def test_window_past_the_last_date_exits_2(self, workspace, capsys):
        out = workspace["dir"] / "past.csv"
        code = main(["simulate", "--config", str(workspace["dir"] / "config.json"), "--p0", "100",
                     "--start-date", "9999-12-30", "--horizon", "3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "9999-12-30" in err and "3 weekdays" in err
        assert not out.exists()


def test_weekdays_ends_on_the_last_date():
    assert weekdays(date(9999, 12, 31), 1) == (date(9999, 12, 31),)
    assert weekdays(date(9999, 12, 30), 2) == (date(9999, 12, 30), date(9999, 12, 31))
    with pytest.raises(ValueError, match="2 weekdays from 9999-12-31"):
        weekdays(date(9999, 12, 31), 2)


class TestReduce:
    def test_report_structure(self, workspace, capsys):
        run_train(workspace)
        out_dir = workspace["dir"] / "red"
        code = main(
            ["reduce",
             "--data", str(workspace["dir"] / "target.csv"),
             "--split", workspace["split"],
             "--config", str(workspace["dir"] / "config.json"),
             "--params", str(workspace["dir"] / "fit.json"),
             "--replications", "3",
             "--out", str(out_dir)]
        )
        assert code == 0
        table = (out_dir / "reduction.txt").read_text()
        # Case rows: full set, all-disabled, one per type, reduced set.
        assert "full set" in table
        assert "all disabled (constant)" in table
        for name in workspace["config"].type_names:
            assert f"only {name}" in table
        assert "reduced {" in table
        payload = json.loads((out_dir / "reduction.json").read_text())
        assert payload["replications"] == 3
        assert len(payload["singletons"]) == 4

    def test_exhaustive_flag_appends_15_subsets(self, workspace):
        run_train(workspace)
        out_dir = workspace["dir"] / "redx"
        code = main(
            ["reduce",
             "--data", str(workspace["dir"] / "target.csv"),
             "--split", workspace["split"],
             "--config", str(workspace["dir"] / "config.json"),
             "--params", str(workspace["dir"] / "fit.json"),
             "--replications", "2", "--exhaustive",
             "--out", str(out_dir)]
        )
        assert code == 0
        payload = json.loads((out_dir / "reduction.json").read_text())
        assert len(payload["exhaustive"]["table"]) == 15
        assert "exhaustive subsets (oracle)" in (out_dir / "reduction.txt").read_text()

    def test_exhaustive_reduce_makes_one_kernel_call(self, workspace, monkeypatch):
        # The oracle scores all 15 subsets in one batch, then greedy reads the memo.
        run_train(workspace)
        batches = []
        real_batch = market.simulate_batch
        monkeypatch.setattr(market, "simulate_batch",
                            lambda config, seeds, masks, *args: batches.append(len(masks))
                            or real_batch(config, seeds, masks, *args))
        code = main(
            ["reduce",
             "--data", str(workspace["dir"] / "target.csv"),
             "--split", workspace["split"],
             "--config", str(workspace["dir"] / "config.json"),
             "--params", str(workspace["dir"] / "fit.json"),
             "--replications", "2", "--exhaustive",
             "--out", str(workspace["dir"] / "redx")]
        )
        assert code == 0
        assert batches == [15]

    def test_missing_params_file_exits_2(self, workspace, capsys):
        code = main(
            ["reduce",
             "--data", str(workspace["dir"] / "target.csv"),
             "--split", workspace["split"],
             "--config", str(workspace["dir"] / "config.json"),
             "--params", str(workspace["dir"] / "nofit.json"),
             "--out", str(workspace["dir"] / "red")]
        )
        assert code == 2
        assert "nofit.json" in capsys.readouterr().err

    def test_unwritable_out_dir_exits_2_before_reducing(self, workspace, capsys, monkeypatch):
        # Root ignores mode bits, so the directory is made unwritable by denying os.access.
        def no_reduce(*args, **kwargs):
            raise AssertionError("reduced before checking --out")

        run_train(workspace)
        monkeypatch.setattr("amr.reducer.greedy_reduce", no_reduce)
        monkeypatch.setattr("amr.reducer.exhaustive_reduce", no_reduce)
        monkeypatch.setattr("amr.cli.os.access", lambda path, mode: False)
        out_dir = workspace["dir"] / "red"
        code = main(
            ["reduce",
             "--data", str(workspace["dir"] / "target.csv"),
             "--split", workspace["split"],
             "--config", str(workspace["dir"] / "config.json"),
             "--params", str(workspace["dir"] / "fit.json"),
             "--exhaustive",
             "--out", str(out_dir)]
        )
        assert code == 2
        assert "--out" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []


class TestPlotdata:
    def test_merges_columns(self, workspace):
        ws = workspace["dir"]
        save_csv(workspace["target"], ws / "pred.csv")
        code = main(
            ["plotdata", "--actual", str(ws / "target.csv"),
             "--predicted", str(ws / "pred.csv"), "--out", str(ws / "merged.csv")]
        )
        assert code == 0
        lines = (ws / "merged.csv").read_text().strip().splitlines()
        assert lines[0] == "date,actual,predicted"
        assert len(lines) - 1 == len(workspace["target"])
        for line in lines[1:]:
            _, a, p = line.split(",")
            assert a == p

    def test_misaligned_dates_exit_2_with_first_offender(self, workspace, capsys):
        ws = workspace["dir"]
        shifted = TimeSeries(
            weekdays(date(2011, 1, 3), len(workspace["target"])), workspace["target"].values
        )
        save_csv(shifted, ws / "pred.csv")
        code = main(
            ["plotdata", "--actual", str(ws / "target.csv"),
             "--predicted", str(ws / "pred.csv"), "--out", str(ws / "merged.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 0" in err
        assert "2011-01-03" in err


class TestExperiment:
    def spec(self, ws, out_dir="results", extra=None):
        payload = {
            "data": "target.csv",
            "split": ws["split"],
            "market_config": "config.json",
            "schedule": {"total_evaluations": 20, "replications": 1},
            "tolerance": 0.005,
            "replications": 3,
            "seed": 11,
            "out_dir": out_dir,
        }
        if extra:
            payload.update(extra)
        path = ws["dir"] / "experiment.json"
        path.write_text(json.dumps(payload))
        return path

    def test_full_chain_writes_artifacts(self, workspace, capsys):
        spec = self.spec(workspace)
        assert main(["experiment", "--spec", str(spec)]) == 0
        out = workspace["dir"] / "results"
        for name in ("fit.json", "prediction.csv", "reduction.json", "reduction.txt", "plotdata.csv"):
            assert (out / name).exists(), name
        rows = (out / "plotdata.csv").read_text().strip().splitlines()
        test_len = len(workspace["target"]) - 60
        assert len(rows) - 1 == test_len
        assert "train MAPE" in capsys.readouterr().out

    def test_unknown_schedule_key_exits_2(self, workspace, capsys):
        spec = self.spec(workspace, extra={"schedule": {"temperature": 1}})
        assert main(["experiment", "--spec", str(spec)]) == 2
        assert "schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, field", [
        ({"replications": 0}, "replications"),
        ({"tolerance": float("nan")}, "tolerance"),
        ({"tolerance": -1}, "tolerance"),
        ({"schedule": {"bogus": 1}}, "schedule"),
    ], ids=["replications-0", "tolerance-nan", "tolerance-negative", "schedule-bogus"])
    def test_bad_field_exits_2_before_any_output(self, workspace, capsys, extra, field):
        spec = self.spec(workspace, out_dir="never", extra=extra)
        assert main(["experiment", "--spec", str(spec)]) == 2
        assert field in capsys.readouterr().err
        assert not (workspace["dir"] / "never").exists()

    def test_unwritable_out_dir_exits_2_before_annealing(self, workspace, capsys, monkeypatch):
        # Root ignores mode bits, so the directory is made unwritable by denying os.access.
        def no_anneal(*args, **kwargs):
            raise AssertionError("annealed before checking out_dir")

        monkeypatch.setattr("amr.learner.anneal", no_anneal)
        monkeypatch.setattr("amr.cli.os.access", lambda path, mode: False)
        spec = self.spec(workspace)
        assert main(["experiment", "--spec", str(spec)]) == 2
        assert "out_dir is not writable" in capsys.readouterr().err
        assert list((workspace["dir"] / "results").iterdir()) == []

    def test_worker_counts_are_byte_identical(self, workspace):
        outputs = {}
        for w in (1, 2):
            spec = self.spec(workspace, out_dir=f"res{w}")
            assert main(["experiment", "--spec", str(spec), "--workers", str(w)]) == 0
            out = workspace["dir"] / f"res{w}"
            outputs[w] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs[1] == outputs[2]


class TestWorkersFlag:
    def test_env_fallback(self, workspace, monkeypatch):
        monkeypatch.setenv("AMR_WORKERS", "2")
        out = workspace["dir"] / "env.csv"
        assert main(
            ["simulate", "--config", str(workspace["dir"] / "config.json"),
             "--p0", "100.0", "--horizon", "5", "--out", str(out)]
        ) == 0

    def test_bad_env_value_exits_2(self, workspace, monkeypatch, capsys):
        monkeypatch.setenv("AMR_WORKERS", "lots")
        code = main(
            ["simulate", "--config", str(workspace["dir"] / "config.json"),
             "--p0", "100.0", "--horizon", "5", "--out", str(workspace["dir"] / "x.csv")]
        )
        assert code == 2
        assert "AMR_WORKERS" in capsys.readouterr().err

    def test_zero_workers_rejected(self, workspace, capsys):
        code = main(
            ["simulate", "--config", str(workspace["dir"] / "config.json"),
             "--p0", "100.0", "--horizon", "5", "--workers", "0",
             "--out", str(workspace["dir"] / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("workers,env", [("0", None), (None, "abc")], ids=["flag_0", "env_abc"])
    def test_plotdata_validates_workers(self, workspace, monkeypatch, capsys, workers, env):
        ws = workspace["dir"]
        argv = ["plotdata", "--actual", str(ws / "target.csv"), "--predicted", str(ws / "target.csv"),
                "--out", str(ws / "merged.csv")]
        if workers is not None:
            argv += ["--workers", workers]
        if env is not None:
            monkeypatch.setenv("AMR_WORKERS", env)
        assert main(argv) == 2
        assert ("AMR_WORKERS" if env else "worker count") in capsys.readouterr().err
        assert not (ws / "merged.csv").exists()


def test_module_entry_point(tmp_path):
    cfg = bank_dominated_config(master_seed=1)
    save_config(cfg, tmp_path / "c.json")
    proc = subprocess.run(
        [sys.executable, "-m", "amr.cli", "simulate", "--config", str(tmp_path / "c.json"),
         "--p0", "10", "--horizon", "3", "--out", str(tmp_path / "o.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o.csv").exists()
