import csv
import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from lobmix import (
    DatasetManifest,
    LabeledDataset,
    TrainConfig,
    exponential_counts,
    write_cifar10_binary,
)
from lobmix.cli import TRAIN_TYPES, ExperimentConfig, config_hash, load_config, main
from lobmix.seeds import RNG_LAYOUT

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def cifar_file(tmp_path):
    """Tiny synthetic file in the 3073-byte record format, 100 examples/class."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(10), 100)
    pixels = rng.integers(0, 256, size=(labels.size, 3072), dtype=np.uint8)
    ds = LabeledDataset(pixels.astype(np.float64) / 255.0, labels, 10)
    path = tmp_path / "batch.bin"
    write_cifar10_binary(ds, path)
    return path


def cifar_config(train_paths, test_path, out_dir=None):
    """base_config with a CIFAR-10 binary source."""
    cfg = base_config(out_dir)
    cfg["dataset"] = {"kind": "cifar10", "train_paths": [str(p) for p in train_paths], "test_path": str(test_path)}
    cfg["profile"] = {"kind": "exponential", "rho": 5, "n_max": 40}
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def assert_one_error(capsys, message):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]


def base_config(out_dir=None):
    return {
        "dataset": {
            "kind": "synth",
            "classes": 6,
            "dim": 6,
            "separation": 3.0,
            "base_per_class": 120,
            "test_per_class": 30,
        },
        "profile": {"kind": "exponential", "rho": 10, "n_max": 80},
        "train": {
            "epochs": 3,
            "batches_per_epoch": 5,
            "batch_size": 32,
            "lr": 0.4,
            "lr_decay_epochs": [2],
            "lr_decay_factor": 0.1,
            "alpha": 1.0,
            "strategy": "mixup",
        },
        "seed": 0,
        "out_dir": out_dir,
    }


class TestBuildLt:
    def test_counts_match_profile(self, tmp_path, cifar_file, capsys):
        out = tmp_path / "lt"
        code = main([
            "build-lt", "--base", str(cifar_file), "--rho", "10", "--profile", "exp",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert manifest.counts == tuple(exponential_counts(100, 10, 10))
        printed = capsys.readouterr().out
        assert "imbalance ratio: 10" in printed
        info = json.loads((out / "build_info.json").read_text())
        assert "config_sha256" in info

    def test_rho_one_balanced(self, tmp_path, cifar_file):
        out = tmp_path / "flat"
        assert main(["build-lt", "--base", str(cifar_file), "--rho", "1", "--out", str(out)]) == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert manifest.counts == (100,) * 10

    def test_missing_base(self, tmp_path, capsys):
        code = main(["build-lt", "--base", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "x")])
        assert code == 2
        assert_one_error(capsys, "base dataset file not found")
        assert not (tmp_path / "x").exists()

    def test_synth_base(self, tmp_path):
        out = tmp_path / "synth"
        code = main([
            "build-lt", "--synth-classes", "5", "--synth-dim", "4", "--synth-per-class", "60",
            "--profile", "step", "--rho", "4", "--out", str(out),
        ])
        assert code == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert manifest.counts == (60, 60, 15, 15, 15)

    def test_manifest_seed_reproducible(self, tmp_path, cifar_file):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            main(["build-lt", "--base", str(cifar_file), "--rho", "5", "--seed", "7", "--out", str(out)])
        assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


class TestTwoFileCifar:
    """Several CIFAR-10 files are one base: their records concatenated in order."""

    @pytest.fixture()
    def files(self, tmp_path, cifar_file):
        """a.bin and b.bin split cifar_file's records unevenly; ab.bin is their concatenation."""
        raw = cifar_file.read_bytes()
        cut = 3073 * 430
        paths = [tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "ab.bin"]
        for path, data in zip(paths, (raw[:cut], raw[cut:], raw)):
            path.write_bytes(data)
        return paths

    @staticmethod
    def manifest(out):
        return DatasetManifest.load(out / "manifest.json").to_dict()

    def test_build_lt(self, tmp_path, files):
        a, b, ab = files
        outs = [tmp_path / "two", tmp_path / "one"]
        for out, base in zip(outs, ([a, b], [ab])):
            assert main(["build-lt", "--base", *map(str, base), "--rho", "10", "--seed", "3", "--out", str(out)]) == 0
        two, one = map(self.manifest, outs)
        assert two["source"] == f"{a};{b}"
        assert two == {**one, "source": two["source"]}
        assert max(max(idx) for idx in two["kept_indices"]) >= 430  # records of b.bin are kept

    def test_train(self, tmp_path, files, cifar_file):
        a, b, ab = files
        outs = [tmp_path / "two", tmp_path / "one"]
        for out, paths in zip(outs, ([a, b], [ab])):
            config = write_config(tmp_path, cifar_config(paths, cifar_file))
            assert main(["train", "--config", str(config), "--strategy", "lob", "--out", str(out)]) == 0
        two, one = map(self.manifest, outs)
        assert two["source"] == f"{a};{b}"
        assert two == {**one, "source": two["source"]}
        assert max(max(idx) for idx in two["kept_indices"]) >= 430
        assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
        evals = [json.loads((out / "eval.json").read_text()) for out in outs]
        for e in evals:
            e.pop("config_sha256")  # hashes the config, which names the files
        assert evals[0] == evals[1]


class TestMalformedManifest:
    @pytest.fixture()
    def manifest_dict(self, tmp_path):
        out = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", "4", "--synth-per-class", "20", "--rho", "4", "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("seed", None, "manifest.seed must be an integer, got None"),
            ("counts", ["a", 10, 5, 5], "manifest.counts entry must be an integer, got 'a'"),
            ("counts", {"0": 20}, "manifest.counts must be a list"),
            ("source", 7, "manifest.source must be a string, got 7"),
            ("kept_indices", [[0.5], [], [], []], "manifest.kept_indices[0] entry must be an integer, got 0.5"),
            ("kept_indices", [5], "manifest.kept_indices[0] must be a list, got 5"),
            ("profile", 3, "manifest.profile must be an object, got 3"),
        ],
    )
    def test_wrong_type_rejected(self, tmp_path, capsys, manifest_dict, key, value, message):
        manifest_dict[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest_dict))
        capsys.readouterr()
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(path), "--samples", "100", "--out", str(out)]) == 2
        assert_one_error(capsys, message)
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture()
    def manifest_path(self, tmp_path, cifar_file):
        out = tmp_path / "lt"
        main(["build-lt", "--base", str(cifar_file), "--rho", "10", "--seed", "1", "--out", str(out)])
        return out / "manifest.json"

    def test_all_combos(self, tmp_path, manifest_path):
        out = tmp_path / "occ"
        code = main([
            "analyze", "--manifest", str(manifest_path), "--samples", "20000",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        for name in ("ib_ib", "ib_cb", "cb_cb"):
            assert (out / f"occurrence_{name}.csv").exists()
            report = json.loads((out / f"occurrence_{name}.json").read_text())
            assert set(report) == {"combo", "counts", "analytic", "empirical"}
            assert report["empirical"]["sample_count"] == 20000
        with (out / "occurrence_summary.csv").open() as fh:
            rows = {row["combo"]: row for row in csv.DictReader(fh)}
        assert float(rows["ib-ib"]["balance_ratio_analytic"]) == 10.0
        assert float(rows["cb-cb"]["balance_ratio_analytic"]) == 1.0
        # exact-arithmetic oracle on this manifest's counts
        from fractions import Fraction

        counts = DatasetManifest.load(manifest_path).counts
        total = sum(counts)
        gamma = [(Fraction(n, total) + Fraction(1, 10)) / 2 for n in counts]
        expected = float(max(gamma) / min(gamma))
        assert float(rows["ib-cb"]["balance_ratio_analytic"]) == pytest.approx(expected, rel=1e-5)
        assert abs(float(rows["cb-cb"]["balance_ratio_empirical"]) - 1.0) < 0.2

    def test_analytic_only(self, tmp_path, manifest_path):
        out = tmp_path / "occ0"
        assert main(["analyze", "--manifest", str(manifest_path), "--samples", "0", "--out", str(out)]) == 0
        with (out / "occurrence_ib_ib.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["gamma_empirical"] == "" for row in rows)

    def test_rng_layout_recorded(self, tmp_path, manifest_path):
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(manifest_path), "--samples", "100", "--out", str(out)]) == 0
        info = json.loads((out / "analyze_info.json").read_text())
        assert info["rng_layout"] == RNG_LAYOUT
        assert info["config_sha256"] == config_hash({k: v for k, v in info.items() if k != "config_sha256"})

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--alpha", "0", "--alpha must be positive, got 0.0"),
            ("--seed", "-5", "--seed must fit in 64 bits, got -5"),
            ("--samples", "-3", "--samples must be >= 0, got -3"),
        ],
    )
    def test_bad_setting_rejected(self, tmp_path, capsys, manifest_path, flag, value, message):
        out = tmp_path / "occ"
        capsys.readouterr()
        assert main(["analyze", "--manifest", str(manifest_path), flag, value, "--out", str(out)]) == 2
        assert_one_error(capsys, message)
        assert not out.exists()

    def test_single_combo(self, tmp_path, manifest_path):
        out = tmp_path / "occ1"
        assert main([
            "analyze", "--manifest", str(manifest_path), "--combo", "cb-cb",
            "--samples", "1000", "--out", str(out),
        ]) == 0
        assert (out / "occurrence_cb_cb.csv").exists()
        assert not (out / "occurrence_ib_ib.csv").exists()


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("config.json", "manifest.json", "history.csv", "eval.json", "DONE"):
            assert (out / name).exists()
        evaluation = json.loads((out / "eval.json").read_text())
        assert set(evaluation["group_accuracy"]) == {"head", "medium", "tail"}
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["rng_layout"] == RNG_LAYOUT
        expected = config_hash({k: v for k, v in resolved.items() if k != "out_dir"})
        assert (out / "DONE").read_text().strip() == expected

    def test_rerun_byte_identical(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["train", "--config", str(config_path), "--seed", "9", "--out", str(out)]) == 0
        for name in ("history.csv", "eval.json", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_all_strategies_from_one_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        for strategy in ("erm", "mixup", "lob", "deferred"):
            out = tmp_path / f"run_{strategy}"
            assert main([
                "train", "--config", str(config_path), "--strategy", strategy, "--out", str(out),
            ]) == 0

    def test_deferred_past_end_rejected(self, tmp_path, capsys):
        cfg = base_config()
        cfg["train"]["strategy"] = "deferred"
        cfg["train"]["defer_epoch"] = 3  # epochs == 3
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "x")]) != 0
        assert "defer" in capsys.readouterr().err

    def test_missing_out_dir_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        assert main(["train", "--config", str(config_path)]) != 0
        assert "output directory" in capsys.readouterr().err

    @staticmethod
    def deferred_without_switch(tmp_path):
        cfg = base_config()
        cfg["train"]["strategy"] = "deferred"
        del cfg["train"]["lr_decay_epochs"]
        return write_config(tmp_path, cfg)

    def test_strategy_override_applies_before_checks(self, tmp_path):
        config_path = self.deferred_without_switch(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--strategy", "mixup", "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["train"]["strategy"] == "mixup"

    def test_deferred_without_switch_rejected(self, tmp_path, capsys):
        config_path = self.deferred_without_switch(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--strategy", "deferred", "--out", str(out)]) == 2
        assert_one_error(capsys, "deferred strategy needs defer_epoch or at least one lr decay epoch")
        assert not out.exists()

    def test_missing_cifar_train_file_leaves_no_directory(self, tmp_path, capsys, cifar_file):
        config_path = write_config(tmp_path, cifar_config([cifar_file, tmp_path / "nope.bin"], cifar_file))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert_one_error(capsys, f"base dataset file not found: {tmp_path / 'nope.bin'}")
        assert not out.exists()

    def test_cifar_config_needs_train_path(self, tmp_path, capsys, cifar_file):
        config_path = write_config(tmp_path, cifar_config([], cifar_file))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert_one_error(capsys, "dataset.train_paths must name at least one file")
        assert not out.exists()

    def test_cifar_config_needs_test_path(self, tmp_path, capsys, cifar_file):
        cfg = cifar_config([cifar_file], cifar_file)
        del cfg["dataset"]["test_path"]
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert_one_error(capsys, "dataset.test_path must be a string, got None")
        assert not out.exists()


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("train", "epochs", "2", "train.epochs must be an integer"),
            ("train", "alpha", "1.0", "train.alpha must be a number"),
            ("train", "lr_decay_epochs", 5, "train.lr_decay_epochs must be a list"),
            ("train", "lr_decay_epochs", [2.5], "train.lr_decay_epochs entry must be an integer"),
            ("train", "defer_epoch", "2", "train.defer_epoch must be an integer"),
            ("train", "momentum", True, "train.momentum must be a number"),
            ("profile", "rho", None, "profile.rho must be a number"),
            ("dataset", "classes", None, "dataset.classes must be an integer"),
            (None, "seed", None, "seed must be an integer"),
            (None, "out_dir", 5, "out_dir must be a string"),
        ],
    )
    def test_wrong_type_rejected(self, tmp_path, capsys, section, key, value, message):
        cfg = base_config(out_dir=str(tmp_path / "run"))
        (cfg[section] if section else cfg)[key] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert message in err[0]
        assert not (tmp_path / "run").exists()

    def test_missing_train_setting_rejected(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["train"]["lr"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: missing train settings: ['lr']"]
        assert not (tmp_path / "run").exists()

    def test_train_types_cover_every_setting(self):
        assert set(TRAIN_TYPES) == {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}

    def test_other_rng_layout_rejected(self, tmp_path, capsys):
        cfg = base_config(out_dir=str(tmp_path / "run"))
        cfg["rng_layout"] = RNG_LAYOUT - 1
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert_one_error(capsys, f"rng_layout {RNG_LAYOUT - 1} is not this version's random-stream layout")
        assert not (tmp_path / "run").exists()

    def test_seed_only_at_top_level(self, tmp_path, capsys):
        cfg = base_config(out_dir=str(tmp_path / "run"))
        cfg["train"]["seed"] = 3
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: unknown train settings: ['seed']"]
        assert not (tmp_path / "run").exists()


class TestReport:
    def _run_many(self, tmp_path, seeds, strategies):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config()))
        dirs = []
        for strategy in strategies:
            for seed in seeds:
                out = tmp_path / f"{strategy}_{seed}"
                assert main([
                    "train", "--config", str(config_path), "--seed", str(seed),
                    "--strategy", strategy, "--out", str(out),
                ]) == 0
                dirs.append(out)
        return dirs

    def test_two_strategies_two_rows(self, tmp_path, capsys):
        dirs = self._run_many(tmp_path, seeds=range(3), strategies=("mixup", "lob"))
        out_csv = tmp_path / "aggregate.csv"
        assert main(["report", *map(str, dirs), "--out", str(out_csv)]) == 0
        with out_csv.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["strategy"] for row in rows] == ["lob", "mixup"]
        assert all(row["runs"] == "3" for row in rows)

    def test_single_run_zero_std(self, tmp_path):
        dirs = self._run_many(tmp_path, seeds=(0,), strategies=("erm",))
        out_csv = tmp_path / "aggregate.csv"
        assert main(["report", *map(str, dirs), "--out", str(out_csv)]) == 0
        with out_csv.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["balanced_std"] == "0"

    def test_mismatched_family_rejected(self, tmp_path, capsys):
        dirs = self._run_many(tmp_path, seeds=(0,), strategies=("erm",))
        other = base_config()
        other["train"]["lr"] = 0.123
        config_path = tmp_path / "other.json"
        config_path.write_text(json.dumps(other))
        out = tmp_path / "other_run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["report", str(dirs[0]), str(out)]) != 0
        assert "incompatible" in capsys.readouterr().err

    def test_mixed_rng_layouts_rejected(self, tmp_path, capsys):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        # a run directory written before the layout was recorded has no rng_layout key
        config_path = dirs[1] / "config.json"
        older = json.loads(config_path.read_text())
        del older["rng_layout"]
        config_path.write_text(json.dumps(older))
        capsys.readouterr()
        assert main(["report", *map(str, dirs)]) == 2
        assert_one_error(capsys, f"runs mix random-stream layouts [1, {RNG_LAYOUT}]")

    def test_incomplete_runs_ignored(self, tmp_path):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        (dirs[1] / "DONE").unlink()
        out_csv = tmp_path / "aggregate.csv"
        assert main(["report", *map(str, dirs), "--out", str(out_csv)]) == 0
        with out_csv.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["runs"] == "1"

    def test_no_completed_runs(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) != 0
        assert "no completed runs" in capsys.readouterr().err


class TestConfigRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(base_config(out_dir="runs/x")))
        cfg = load_config(config_path)
        again_path = tmp_path / "again.json"
        again_path.write_text(json.dumps(cfg.to_dict()))
        assert load_config(again_path) == cfg
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_family_hash_ignores_run_identity(self):
        a = ExperimentConfig.from_dict(base_config())
        b_dict = base_config(out_dir="elsewhere")
        b_dict["seed"] = 99
        b_dict["train"]["strategy"] = "lob"
        b = ExperimentConfig.from_dict(b_dict)
        assert config_hash(a.family_dict()) == config_hash(b.family_dict())

    def test_unknown_train_key_rejected(self):
        bad = base_config()
        bad["train"]["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            ExperimentConfig.from_dict(bad)

    def test_seed_written_once_at_top_level(self):
        d = ExperimentConfig.from_dict(base_config()).to_dict()
        assert d["seed"] == 0 and "seed" not in d["train"]
        assert set(d["train"]) == set(TRAIN_TYPES)

    def test_strategy_comparison_script_config(self):
        spec = importlib.util.spec_from_file_location("strategy_comparison", REPO / "scripts" / "run_strategy_comparison.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        raw = script.experiment_config()
        cfg = ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.to_dict()["train"].items() >= raw["train"].items()


class TestSamplerAblationScript:
    def test_prints_three_combo_rows(self, monkeypatch, capsys):
        path = REPO / "scripts" / "run_sampler_ablation.py"
        spec = importlib.util.spec_from_file_location("sampler_ablation", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        argv = ["run_sampler_ablation.py", "--classes", "4", "--n-max", "50", "--samples", "2000"]
        monkeypatch.setattr("sys.argv", argv)
        script.main()
        rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
        for combo in ("ib-ib", "ib-cb", "cb-cb"):
            analytic, measured, incidence = map(float, rows[combo])
            assert analytic >= 1.0 and measured >= 1.0 and 0.0 < incidence <= 1.0
        assert float(rows["cb-cb"][0]) == 1.0
