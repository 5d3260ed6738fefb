import csv
import dataclasses
import json
import math
import os
import re
import stat

import numpy as np
import pytest

import uotpool
from uotpool import NonFiniteLossError, UotParams, experiments, solve
from uotpool.cli import main as cli_main
from uotpool.experiments import (
    DEFAULT_SEEDS,
    ExperimentConfig,
    cmd_approx,
    cmd_bench,
    cmd_convergence,
    cmd_stability,
    cmd_train,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_header(path):
    with open(path, newline="") as fh:
        return fh.readline().strip()


def help_text(capsys, command):
    with pytest.raises(SystemExit) as info:
        cli_main([command, "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


def no_temp_leftovers(outdir):
    return not any(p.name.startswith(".tmp-") for p in outdir.iterdir())


class TestConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert c.seed is None
        assert c.dims == (5, 10)
        assert c.weight_grid == tuple(10.0 ** e for e in range(-5, 5))
        assert c.k_list == (1, 2, 4, 8, 16, 32)
        assert c.solvers == ("sinkhorn", "badmm")
        assert c.k_iters == 4 and c.rho == 1.0 and c.alpha0 == 0.1
        assert c.batch_size == 50 and c.batch_dims == (100, 500)
        assert c.bench_k == (4, 8) and c.trials == 10 and c.warmup == 2
        assert c.epochs == 30 and c.lr == 3.0
        assert (c.n_bags, c.bag_size, c.feature_dim) == (200, 16, 8)

    def test_command_default_seeds(self):
        assert DEFAULT_SEEDS == {"approx": 25, "stability": 0, "convergence": 0,
                                 "bench": 0, "train": 7}
        assert ExperimentConfig().resolve_seed("approx") == 25
        assert ExperimentConfig(seed=11).resolve_seed("approx") == 11

    def test_from_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dims": [3, 4], "k_iters": 2, "seed": 5}))
        c = ExperimentConfig.from_json(str(path))
        assert c.dims == (3, 4) and c.k_iters == 2 and c.seed == 5

    def test_from_json_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dims": [3, 4], "bogus": 1}))
        with pytest.raises(ValueError, match="unknown config key: bogus"):
            ExperimentConfig.from_json(str(path))

    def test_from_json_rejects_non_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(str(path))

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            ExperimentConfig(solvers=("sinkhorn", "newton"))


class TestApprox:
    def test_outputs_and_summary(self, tmp_path):
        config = ExperimentConfig(out=str(tmp_path), dims=(4, 6))
        files = cmd_approx(config)
        assert sorted(files) == sorted(
            [f"approx_{t}_{s}.csv" for t in ("mean", "max", "attention")
             for s in ("sinkhorn", "badmm")] + ["approx_summary.csv"]
        )
        summary = {(r["target"], r["solver"]): float(r["max_abs_error"])
                   for r in read_rows(tmp_path / "approx_summary.csv")}
        assert summary[("mean", "sinkhorn")] < 1e-3
        assert summary[("mean", "badmm")] < 1e-3
        assert summary[("attention", "sinkhorn")] < 1e-2
        assert no_temp_leftovers(tmp_path)

    def test_per_cell_rows_cover_matrix(self, tmp_path):
        config = ExperimentConfig(out=str(tmp_path), dims=(4, 6))
        cmd_approx(config)
        rows = read_rows(tmp_path / "approx_mean_sinkhorn.csv")
        assert len(rows) == 24
        cells = {(int(r["row"]), int(r["col"])) for r in rows}
        assert cells == {(i, j) for i in range(4) for j in range(6)}
        # Columns are serialized at 12 significant digits, so the recomputed
        # difference can deviate from the stored one by the rounding scale.
        for r in rows[:5]:
            err = abs(float(r["target_plan"]) - float(r["solved_plan"]))
            assert err == pytest.approx(float(r["abs_error"]), abs=1e-12)

    def test_seed_override_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_approx(ExperimentConfig(out=str(a), dims=(4, 6), seed=1))
        cmd_approx(ExperimentConfig(out=str(b), dims=(4, 6), seed=2))
        rows_a = read_rows(a / "approx_mean_sinkhorn.csv")
        rows_b = read_rows(b / "approx_mean_sinkhorn.csv")
        assert any(x["solved_plan"] != y["solved_plan"]
                   for x, y in zip(rows_a, rows_b))


@pytest.fixture(scope="module")
def stability_outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("stability")
    cmd_stability(ExperimentConfig(out=str(path), dims=(4, 6), k_iters=2))
    return path


@pytest.fixture(scope="module")
def convergence_outdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("convergence")
    cmd_convergence(ExperimentConfig(out=str(path), batch_dims=(6, 7),
                                     batch_size=3, k_list=(1, 2, 4)))
    return path


class TestStability:
    def test_row_count_and_solvers(self, stability_outdir):
        rows = read_rows(stability_outdir / "stability.csv")
        assert len(rows) == 3 * 100
        assert {r["solver"] for r in rows} == {"sinkhorn", "badmm_entropic",
                                               "badmm_quadratic"}

    def test_grid_holds_exact_decades(self, stability_outdir):
        rows = read_rows(stability_outdir / "stability.csv")
        decades = {10.0 ** e for e in range(-5, 5)}
        assert {float(r["alpha0"]) for r in rows} == decades
        assert {float(r["alpha12"]) for r in rows} == decades

    def test_flags_are_booleans_and_mass_parses(self, stability_outdir):
        rows = read_rows(stability_outdir / "stability.csv")
        assert {r["has_nan"] for r in rows} <= {"true", "false"}
        for r in rows:
            mass = float(r["total_mass"])
            if r["has_nan"] == "false":
                assert math.isfinite(mass)

    def test_badmm_rows_all_finite_with_unit_mass(self, stability_outdir):
        rows = [r for r in read_rows(stability_outdir / "stability.csv")
                if r["solver"].startswith("badmm")]
        assert all(r["has_nan"] == "false" for r in rows)
        assert all(abs(float(r["total_mass"]) - 1.0) < 1e-9 for r in rows)

    @staticmethod
    def per_cell_stability(config):
        """The sweep as one solve per cell, the way ``cmd_stability`` ran it
        before it solved each configuration's grid as one batch."""
        seed = config.resolve_seed("stability")
        d, n = config.dims
        x = np.random.default_rng(seed).uniform(0.0, 1.0, (d, n))
        rows = []
        for name, kind, reg in experiments._STABILITY_CONFIGS:
            for a0 in config.weight_grid:
                for a12 in config.weight_grid:
                    params = UotParams.uniform(
                        d, n, k_iters=config.k_iters,
                        alpha0=a0, alpha1=a12, alpha2=a12, rho=config.rho, reg=reg,
                    )
                    _, diag = solve(x, params, kind)
                    rows.append([name, a0, a12, diag.has_nan, diag.total_mass])
        experiments._write_outputs(config, "stability", seed, {
            "stability.csv": (["solver", "alpha0", "alpha12", "has_nan", "total_mass"], rows),
        })

    @pytest.mark.parametrize("kwargs", [
        {"seed": 0}, {"seed": 1}, {"seed": 12345},
        {"seed": 3, "dims": (4, 6), "k_iters": 3, "rho": 0.5,
         "weight_grid": (3e-4, 0.02, 0.7, 1.0, 45.0, 2e3, 9e4)},
    ])
    def test_batched_sweep_writes_the_per_cell_bytes(self, tmp_path, kwargs):
        batched, per_cell = tmp_path / "batched", tmp_path / "per_cell"
        cmd_stability(ExperimentConfig(out=str(batched), **kwargs))
        self.per_cell_stability(ExperimentConfig(out=str(per_cell), **kwargs))
        assert (batched / "stability.csv").read_bytes() == \
            (per_cell / "stability.csv").read_bytes()
        if kwargs["seed"] == 0:  # the kernel scheme overflows in some cells of the default grid
            assert "true" in {r["has_nan"] for r in read_rows(batched / "stability.csv")}


class TestConvergence:
    def test_rows_cover_solvers_and_depths(self, convergence_outdir):
        rows = read_rows(convergence_outdir / "convergence.csv")
        assert len(rows) == 9
        combos = {(r["solver"], r["reg"]) for r in rows}
        assert combos == {("sinkhorn", "entropic"), ("badmm", "entropic"),
                          ("badmm", "quadratic")}
        assert {int(r["k"]) for r in rows} == {1, 2, 4}

    def test_single_module_row_present(self, convergence_outdir):
        rows = read_rows(convergence_outdir / "convergence.csv")
        assert any(int(r["k"]) == 1 and r["solver"] == "sinkhorn" for r in rows)

    def test_objective_serialized_with_nine_significant_digits(self, convergence_outdir):
        rows = read_rows(convergence_outdir / "convergence.csv")
        digits = re.sub(r"[^0-9]", "", rows[0]["objective"].split("e")[0])
        assert len(digits.lstrip("0")) >= 9

    @staticmethod
    def per_depth_convergence(config):
        """The study as one solve per depth, the way ``cmd_convergence`` ran
        it before it read every depth from one solve at the deepest."""
        seed = config.resolve_seed("convergence")
        d, n = config.batch_dims
        x = np.random.default_rng(seed).uniform(0.0, 1.0, (config.batch_size, d, n))
        rows = []
        for _, kind, reg in experiments._STABILITY_CONFIGS:
            for k in config.k_list:
                params = UotParams.uniform(d, n, k_iters=k, alpha0=config.alpha0,
                                           alpha1=config.alpha1, alpha2=config.alpha2,
                                           rho=config.rho, reg=reg)
                _, diag = solve(x, params, kind)
                rows.append([kind.value, reg.value, k, float(diag.objective_trace[-1].mean())])
        experiments._write_outputs(config, "convergence", seed, {
            "convergence.csv": (["solver", "reg", "k", "objective"], rows),
        })

    @pytest.mark.parametrize("kwargs", [
        {"batch_dims": (6, 7), "batch_size": 3, "seed": 0},
        {"batch_dims": (6, 7), "batch_size": 3, "seed": 1},
        {"batch_dims": (6, 7), "batch_size": 3, "seed": 12345, "k_list": (8, 1, 3, 8, 2.0, 3)},
        {"batch_dims": (8, 16), "batch_size": 200, "seed": 2, "k_list": (1, 2, 5)},
        {"batch_dims": (6, 1), "batch_size": 4, "seed": 3, "k_list": (1, 4)},
        {"batch_dims": (5, 10), "batch_size": 3, "k_list": (1, 2, 4),
         "alpha0": 1e-5, "alpha1": 1e-5, "alpha2": 1e-5, "rho": 1e4},
        {"batch_dims": (6, 1), "batch_size": 4, "seed": 5, "k_list": (3, 1),
         "alpha0": 1e-5, "alpha1": 1e-5, "alpha2": 1e-5, "rho": 1e4},
        {"batch_dims": (6, 7), "batch_size": 3, "k_list": ()},
    ])
    def test_one_solve_per_config_writes_the_per_depth_bytes(self, tmp_path, kwargs):
        deepest, per_depth = tmp_path / "deepest", tmp_path / "per_depth"
        cmd_convergence(ExperimentConfig(out=str(deepest), **kwargs))
        self.per_depth_convergence(ExperimentConfig(out=str(per_depth), **kwargs))
        written = (deepest / "convergence.csv").read_bytes()
        assert written == (per_depth / "convergence.csv").read_bytes()
        k_list = kwargs.get("k_list", ExperimentConfig().k_list)
        assert len(read_rows(deepest / "convergence.csv")) == 3 * len(k_list)
        if kwargs.get("alpha0") == 1e-5:  # the kernel scheme overflows at these weights
            assert "nan" in written.decode()

    @pytest.mark.parametrize("bad", [0, -2, 1.5, True, "4"])
    def test_rejects_each_bad_depth(self, tmp_path, bad):
        config = ExperimentConfig(out=str(tmp_path), batch_dims=(6, 7), batch_size=2,
                                  k_list=(2, bad, 4))
        with pytest.raises(ValueError, match="k_iters must be a positive integer"):
            cmd_convergence(config)
        assert not (tmp_path / "convergence.csv").exists()


class TestBench:
    def test_schema_and_methods(self, tmp_path):
        config = ExperimentConfig(out=str(tmp_path), batch_dims=(6, 7),
                                  batch_size=2, bench_k=(1, 2), trials=2, warmup=0)
        cmd_bench(config)
        rows = read_rows(tmp_path / "bench.csv")
        methods = [(r["method"], int(r["k"])) for r in rows]
        assert methods == [("mean", 0), ("max", 0), ("attention", 0), ("mixed", 0),
                           ("uot_sinkhorn", 1), ("uot_badmm", 1),
                           ("uot_sinkhorn", 2), ("uot_badmm", 2)]
        for r in rows:
            assert float(r["mean_ms"]) > 0
            assert float(r["median_ms"]) > 0
            assert float(r["std_ms"]) >= 0

    def test_trials_run_in_rounds_after_all_warm_ups(self, tmp_path, monkeypatch):
        # Transport rounds first, then the reference operators' rounds.
        calls = []
        for name in ("mean_pool", "max_pool", "mixed_pool"):
            monkeypatch.setattr(experiments, name, lambda x, *a, name=name: calls.append(name))
        monkeypatch.setattr(experiments, "attention_pool", lambda x, att: calls.append("att"))
        monkeypatch.setattr(experiments, "uot_pool", lambda x, params, kind: calls.append(
            f"{kind.value}{params.k_iters}"))
        cmd_bench(ExperimentConfig(out=str(tmp_path), batch_dims=(6, 7), batch_size=2,
                                   bench_k=(1, 2), trials=3, warmup=2))
        jobs = ["mean_pool", "max_pool", "att", "mixed_pool",
                "sinkhorn1", "badmm1", "sinkhorn2", "badmm2"]
        assert calls == [job for job in jobs for _ in range(2)] + jobs[4:] * 3 + jobs[:4] * 3
        assert len(read_rows(tmp_path / "bench.csv")) == len(jobs)

    def test_manifest_notes_scope(self, tmp_path):
        config = ExperimentConfig(out=str(tmp_path), batch_dims=(6, 7),
                                  batch_size=2, bench_k=(1,), trials=1, warmup=0)
        cmd_bench(config)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "notes" in manifest
        assert "baselines" in manifest["notes"]

    def test_manifest_records_cpu_count(self, tmp_path):
        # The timings depend on it: a large batch runs on up to that many threads.
        config = ExperimentConfig(out=str(tmp_path), batch_dims=(6, 7),
                                  batch_size=2, bench_k=(1,), trials=1, warmup=0)
        cmd_bench(config)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["cpu_count"] == os.cpu_count()


class TestTrain:
    def test_trace_rows_and_initial_loss(self, tmp_path):
        config = ExperimentConfig(out=str(tmp_path), feature_dim=3, bag_size=4,
                                  n_bags=8, epochs=2, k_iters=2, lr=1.0)
        cmd_train(config)
        rows = read_rows(tmp_path / "train.csv")
        assert [int(r["epoch"]) for r in rows] == [0, 1, 2]
        assert float(rows[0]["loss"]) == pytest.approx(math.log(2.0), abs=1e-12)
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])

    def test_abort_writes_partial_trace_with_nan_row(self, tmp_path, monkeypatch):
        def fake_train(task, spec, epochs, lr):
            raise NonFiniteLossError(2, np.array([0.7, 0.65]))

        monkeypatch.setattr("uotpool.experiments.train_synthetic", fake_train)
        config = ExperimentConfig(out=str(tmp_path), feature_dim=3, bag_size=4,
                                  n_bags=8, epochs=2, k_iters=2)
        cmd_train(config)
        rows = read_rows(tmp_path / "train.csv")
        assert [r["loss"] for r in rows[:2]] == ["0.7", "0.65"]
        assert rows[-1]["epoch"] == "2"
        assert rows[-1]["loss"] == "nan"


class TestManifest:
    def test_contents(self, tmp_path):
        config = ExperimentConfig(out=str(tmp_path), dims=(4, 6))
        files = cmd_approx(config)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "approx"
        assert manifest["version"] == uotpool.__version__
        assert manifest["files"] == sorted(files)
        for name in manifest["files"]:
            assert (tmp_path / name).exists()
        echo = manifest["config"]
        assert echo["seed"] == 25
        assert echo["dims"] == [4, 6]
        expected_keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(echo) == expected_keys

    def test_records_numpy_version(self, tmp_path):
        cmd_stability(ExperimentConfig(out=str(tmp_path), dims=(4, 6), k_iters=1))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["numpy"] == np.__version__

    def test_seed_echo_uses_override(self, tmp_path):
        cmd_stability(ExperimentConfig(out=str(tmp_path), dims=(4, 6),
                                       k_iters=1, seed=99))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99


class TestOutputFiles:
    def test_mode_matches_plain_open(self, tmp_path):
        cmd_stability(ExperimentConfig(out=str(tmp_path), dims=(4, 6), k_iters=1))
        with open(tmp_path / "plain.txt", "w"):
            pass
        expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        for name in ("stability.csv", "manifest.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == expected
        assert no_temp_leftovers(tmp_path)

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(experiments.os, "replace", fail_replace)
        with pytest.raises(OSError, match="rename refused"):
            cmd_stability(ExperimentConfig(out=str(tmp_path), dims=(4, 6), k_iters=1))
        assert no_temp_leftovers(tmp_path)
        assert not (tmp_path / "stability.csv").exists()


class TestDeterminism:
    @pytest.mark.parametrize("runner,kwargs", [
        (cmd_approx, {"dims": (4, 6)}),
        (cmd_stability, {"dims": (4, 6), "k_iters": 2}),
        (cmd_convergence, {"batch_dims": (6, 7), "batch_size": 3, "k_list": (1, 2)}),
        (cmd_train, {"feature_dim": 3, "bag_size": 4, "n_bags": 8,
                     "epochs": 1, "k_iters": 2}),
    ])
    def test_repeat_runs_are_bitwise_identical(self, tmp_path, runner, kwargs):
        config = ExperimentConfig(out=str(tmp_path), **kwargs)
        runner(config)
        snapshot = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        runner(config)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert snapshot == after


class TestCliGoldenHeaders:
    CASES = [
        ("approx", "approx_mean_sinkhorn.csv",
         {"dims": (4, 6)}, cmd_approx),
        ("approx", "approx_summary.csv",
         {"dims": (4, 6)}, cmd_approx),
        ("stability", "stability.csv",
         {"dims": (4, 6), "k_iters": 1}, cmd_stability),
        ("convergence", "convergence.csv",
         {"batch_dims": (6, 7), "batch_size": 2, "k_list": (1,)}, cmd_convergence),
        ("bench", "bench.csv",
         {"batch_dims": (6, 7), "batch_size": 2, "bench_k": (1,),
          "trials": 1, "warmup": 0}, cmd_bench),
        ("train", "train.csv",
         {"feature_dim": 3, "bag_size": 4, "n_bags": 8, "epochs": 1,
          "k_iters": 1}, cmd_train),
    ]

    @pytest.mark.parametrize("command,fname,kwargs,runner", CASES)
    def test_written_header_documented_in_help(self, tmp_path, capsys,
                                               command, fname, kwargs, runner):
        runner(ExperimentConfig(out=str(tmp_path), **kwargs))
        header = read_header(tmp_path / fname)
        assert header in help_text(capsys, command)


class TestCli:
    def test_success_exit_code_and_message(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"dims": [4, 6]}))
        code = cli_main(["approx", "--config", str(config),
                         "--out", str(tmp_path / "run")])
        assert code == 0
        assert "manifest.json" in capsys.readouterr().out
        assert (tmp_path / "run" / "approx_summary.csv").exists()

    def test_unknown_config_key_fails_with_one_line(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"mystery": 1}))
        code = cli_main(["stability", "--config", str(config),
                         "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_config_file_fails(self, tmp_path, capsys):
        code = cli_main(["train", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"dims": [4, 6], "k_iters": 1}))
        out = tmp_path / "run"
        code = cli_main(["stability", "--config", str(config), "--seed", "123",
                         "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 123

    def test_rejects_out_of_range_seed(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["approx", "--seed", "-1"])
        assert info.value.code == 2

    def test_rejects_non_integer_seed(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["approx", "--seed", "abc"])
        assert info.value.code == 2
        assert "seed must be an integer, got 'abc'" in capsys.readouterr().err
