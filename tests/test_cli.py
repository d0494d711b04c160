import argparse
import ast
import csv
import dataclasses
import importlib.util
import json
import mmap
import os
import re
import shlex
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from lobmix import (
    COMBOS,
    STRATEGIES,
    ClassIndex,
    DatasetManifest,
    ImbalanceProfile,
    LabeledDataset,
    TrainConfig,
    analytic_occurrence,
    load_cifar10_binary,
    longtail_split,
    write_cifar10_binary,
)
from lobmix import longtail
from lobmix.atomic import write_json
from lobmix.cli import ExperimentConfig, build_parser, config_hash, load_config, main, resolve_datasets, run_digest
from lobmix.longtail import BLOCK_BYTES, SCHEMA
from lobmix.seeds import RNG_LAYOUT

from conftest import hex_block, traced_peak

REPO = Path(__file__).resolve().parents[1]
SRC = Path(longtail.__file__).resolve().parents[1]  # the directory holding the lobmix package


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
    def test_counts_match_profile(self, tmp_path, capsys):
        out = tmp_path / "lt"
        code = main([
            "build-lt", "--synth-classes", "10", "--synth-per-class", "100", "--rho", "10", "--profile", "exponential",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert manifest.counts == tuple(ImbalanceProfile("exponential", 10, 100).class_counts(10))
        printed = capsys.readouterr().out
        assert "imbalance ratio: 10" in printed
        info = json.loads((out / "build_info.json").read_text())
        assert "config_sha256" in info

    def test_rho_one_balanced(self, tmp_path):
        out = tmp_path / "flat"
        argv = ["build-lt", "--synth-classes", "10", "--synth-per-class", "100", "--rho", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert manifest.counts == (100,) * 10

    def test_nan_rho_rejected(self, tmp_path, capsys):
        out = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", "4", "--rho", "nan", "--out", str(out)]) == 2
        assert_one_error(capsys, "imbalance ratio must be >= 1, got nan")
        assert not out.exists()

    def test_empty_synth_class_rejected(self, tmp_path, capsys):
        out = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", "3", "--synth-per-class", "0", "--out", str(out)]) == 2
        assert_one_error(capsys, "every class needs at least one example, got (0, 0, 0)")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (
                ["--synth-classes", "4", "--n-max", "0", "--rho", "2"],
                "n_max=0 would shrink the smallest class below one example (rho=2.0)",
            ),
            (["--synth-classes", "0"], "need at least 2 classes, got 0"),
        ],
    )
    def test_zero_flag_is_not_left_out(self, tmp_path, capsys, flags, message):
        out = tmp_path / "lt"
        assert main(["build-lt", *flags, "--out", str(out)]) == 2
        assert_one_error(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("classes", ["-3", "1"])
    def test_fewer_than_two_synth_classes_named_as_given(self, tmp_path, capsys, classes):
        out = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", classes, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: need at least 2 classes, got {classes}\n"
        assert not out.exists()

    def test_no_base_rejected(self, tmp_path, capsys):
        # the labels-only base is the only one build-lt subsamples: its class count is required
        out = tmp_path / "lt"
        with pytest.raises(SystemExit) as excinfo:
            main(["build-lt", "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "lobmix build-lt: error: the following arguments are required: --synth-classes"
        assert not out.exists()

    def test_base_is_no_flag(self, tmp_path, capsys):
        # CIFAR-10 files are read by train alone, whose run directory holds the manifest
        out = tmp_path / "lt"
        with pytest.raises(SystemExit) as excinfo:
            main(["build-lt", "--synth-classes", "4", "--base", "x.bin", "--out", str(out)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "lobmix: error: unrecognized arguments: --base x.bin"
        assert not out.exists()

    def test_synth_defaults_filled_in(self, tmp_path):
        for name, flags in (("left-out", []), ("given", ["--synth-per-class", "1000"])):
            assert main(["build-lt", "--synth-classes", "3", *flags, "--out", str(tmp_path / name)]) == 0
        for file in ("manifest.json", "build_info.json"):
            assert (tmp_path / "left-out" / file).read_bytes() == (tmp_path / "given" / file).read_bytes()

    def test_synth_base(self, tmp_path):
        out = tmp_path / "synth"
        code = main([
            "build-lt", "--synth-classes", "5", "--synth-per-class", "60",
            "--profile", "step", "--rho", "4", "--out", str(out),
        ])
        assert code == 0
        manifest = DatasetManifest.load(out / "manifest.json")
        assert manifest.counts == (60, 60, 15, 15, 15)
        assert manifest.source == "labels-only:classes=5,per_class=60"

    def test_synth_base_draws_no_feature_rows(self, tmp_path, capsys):
        # build-lt reads only the base's class index, which the class counts give
        classes, per_class = 20, 1000
        argv = ["build-lt", "--synth-classes", str(classes), "--synth-per-class", str(per_class),
                "--rho", "10", "--out", str(tmp_path / "lt")]
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert peak < classes * per_class * 64 * 8  # the bytes of such a base's feature rows at 64 dimensions
        manifest = DatasetManifest.load(tmp_path / "lt" / "manifest.json")
        assert manifest.counts[0] == per_class and manifest.counts[-1] == per_class // 10

    def test_manifest_seed_reproducible(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            argv = ["build-lt", "--synth-classes", "10", "--synth-per-class", "100", "--rho", "5", "--seed", "7"]
            assert main([*argv, "--out", str(out)]) == 0
        assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


@pytest.mark.parametrize(
    "argv,setting,message",
    [
        pytest.param(["build-lt", "--synth-classes", "4", "--n-max", str(10**400)], None,
                     f"n_max must fit in a float, got {10**400}", id="build-lt-n-max"),
        pytest.param(["build-lt", "--synth-classes", "4", "--synth-per-class", str(10**20)], None,
                     f"class counts must total below 2**63, got {4 * 10**20}", id="build-lt-synth-per-class"),
        pytest.param(["build-lt", "--synth-classes", str(10**20)], None,
                     f"--synth-classes must be at most {sys.maxsize}, got {10**20}", id="build-lt-synth-classes"),
        pytest.param(["train"], ("profile", "n_max", 10**400),
                     f"n_max must fit in a float, got {10**400}", id="train-profile.n_max"),
        pytest.param(["train"], ("dataset", "base_per_class", 10**20),
                     f"class counts must total below 2**63, got {6 * 10**20}", id="train-dataset.base_per_class"),
    ],
)
def test_huge_integer_is_one_error_line(tmp_path, capsys, argv, setting, message):
    # each is checked where it first becomes a float, an int64 or a tuple length, which would raise OverflowError
    out = tmp_path / "out"
    if setting is None:
        argv = [*argv, "--out", str(out)]
    else:
        cfg = base_config(out_dir=str(out))
        section, key, value = setting
        cfg[section][key] = value
        argv = [*argv, "--config", str(write_config(tmp_path, cfg))]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Runs resolve_datasets of the config named by argv[1] argv[2] times, freeing
# each result before the next, and after each prints the rise of the peak RSS
# since the start, then the bytes of its train floats and of its test floats.
# It reads VmHWM, the peak RSS of its own address space: ru_maxrss would start
# from the peak of the process that spawned it.
RSS_CHILD = """
import re, sys
import numpy.random  # numpy imports it on first use, which lobmix's first draw would count
from lobmix.cli import load_config, resolve_datasets

def peak_bytes():
    return 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", open("/proc/self/status").read()).group(1))

base = peak_bytes()
for _ in range(int(sys.argv[2])):
    train, test, _ = resolve_datasets(load_config(sys.argv[1]))
    print(peak_bytes() - base, train.features.nbytes, test.features.nbytes)
    del train, test
"""


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

    def test_train(self, tmp_path, files, cifar_file):
        a, b, ab = files
        outs = [tmp_path / "two", tmp_path / "one"]
        for out, paths in zip(outs, ([a, b], [ab])):
            config = write_config(tmp_path, cifar_config(paths, cifar_file))
            assert main(["train", "--config", str(config), "--strategy", "lob", "--out", str(out)]) == 0
        two, one = map(self.manifest, outs)
        assert two["source"] == f"{a};{b}"
        assert two == {**one, "source": two["source"]}
        assert DatasetManifest.from_dict(two).kept_indices.max() >= 430
        assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
        evals = [json.loads((out / "eval.json").read_text()) for out in outs]
        for e in evals:
            e.pop("config_sha256")  # hashes the config, which names the files
        assert evals[0] == evals[1]


    @staticmethod
    def float_oracle(train_paths, test_path, profile, seed):
        """Oracle: every record of every file as float64, concatenated, then subsampled."""
        bases = [load_cifar10_binary(p) for p in train_paths]
        features = np.concatenate([b.features for b in bases])
        labels = np.concatenate([b.labels for b in bases])
        source = ";".join(str(p) for p in train_paths)
        index = ClassIndex.from_labels(labels, 10)
        manifest = longtail_split(index, profile.class_counts(10), 0, seed, source=source, profile=profile)[1]
        train = LabeledDataset(features[manifest.kept_indices], labels[manifest.kept_indices], 10)
        return train, load_cifar10_binary(test_path), manifest

    # the kept rows (203 at n_max 40, 493 at 97) end in a partial row block
    @pytest.mark.parametrize(
        "num_files,n_max", [pytest.param(1, 40, id="1"), pytest.param(2, 40, id="2"), pytest.param(2, 97, id="2-n_max97")]
    )
    def test_resolve_datasets_match_float_oracle(self, tmp_path, files, cifar_file, num_files, n_max):
        paths = files[:2] if num_files == 2 else files[2:]
        config = cifar_config(paths, cifar_file)
        config["profile"]["n_max"] = n_max
        cfg = load_config(write_config(tmp_path, config), seed=6)
        got = resolve_datasets(cfg)
        blocks = longtail.row_blocks(got[0].features)
        assert len(blocks) > 1 and len(got[0]) % (blocks[0].stop - blocks[0].start) != 0
        want = self.float_oracle(paths, cifar_file, cfg.profile, 6)
        for ds, oracle in zip(got[:2], want[:2]):
            assert ds.features.dtype == np.float64
            assert ds.features.tobytes() == oracle.features.tobytes()
            assert np.array_equal(ds.labels, oracle.labels)
        assert got[2].to_dict() == want[2].to_dict()

    def test_resolve_datasets_memory(self, tmp_path, files):
        """Only kept rows become float64: the traced peak stays within their bytes plus the files'."""
        labels = np.repeat(np.arange(10), 20)
        pixels = np.random.default_rng(5).integers(0, 256, size=(labels.size, 3072), dtype=np.uint8)
        test_path = tmp_path / "test.bin"
        write_cifar10_binary(LabeledDataset(pixels / 255.0, labels, 10), test_path)
        paths = files[:2]
        cfg = load_config(write_config(tmp_path, cifar_config(paths, test_path)), seed=6)
        (train_ds, test_ds, _), peak = traced_peak(resolve_datasets, cfg)
        # the files' bytes sit in a memory mapping, which tracemalloc does not
        # see: test_resolve_datasets_rss_in_a_fresh_process counts them
        assert peak <= train_ds.features.nbytes + test_ds.features.nbytes + 2 * BLOCK_BYTES

    @staticmethod
    def rss_rises(tmp_path, loads):
        """The (rise, train float bytes, test float bytes) after each of ``loads`` loads, and the train files' bytes."""
        rng = np.random.default_rng(7)
        labels = np.repeat(np.arange(10), 120)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "test.bin"]
        for path, rows in zip(paths, (labels, labels, labels[::3])):
            pixels = rng.integers(0, 256, size=(rows.size, 3072), dtype=np.uint8)
            write_cifar10_binary(LabeledDataset(pixels / 255.0, rng.permutation(rows), 10), path)
        cfg = cifar_config(paths[:2], paths[2])
        cfg["profile"]["n_max"] = 100
        config = write_config(tmp_path, cfg)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), os.environ.get("PYTHONPATH", "")))}
        argv = [sys.executable, "-c", RSS_CHILD, str(config), str(loads)]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        rises = [tuple(map(int, line.split())) for line in out.stdout.splitlines()]
        assert len(rises) == loads
        return rises, paths[0].stat().st_size + paths[1].stat().st_size

    def test_resolve_datasets_rss_in_a_fresh_process(self, tmp_path):
        """The peak RSS rises by the floats and a few row blocks: no copy of the files' bytes is resident with them.

        The train files' records are gathered into the train floats, so they
        coexist once; as on CIFAR-10, the test floats outweigh them.
        """
        [(rise, train_bytes, test_bytes)], source_bytes = self.rss_rises(tmp_path, 1)
        assert test_bytes > source_bytes > 7 << 20
        assert rise <= train_bytes + test_bytes + 4 * BLOCK_BYTES + (1 << 20)  # 1 MiB for the interpreter

    def test_second_load_rss_in_a_fresh_process(self, tmp_path):
        """A second load, after the first is freed, keeps the bound: set-up, then a command, as in bench/child.py.

        The files' bytes live in an anonymous mapping, returned to the system
        when unmapped. Read into a heap block of their size, they would raise
        malloc's mmap threshold once freed, so the second load's floats would
        come from the heap (29.2 MiB here, with glibc on Linux, against 22.4 MiB for either load).
        """
        [_, (rise, train_bytes, test_bytes)], _ = self.rss_rises(tmp_path, 2)
        assert rise <= train_bytes + test_bytes + 4 * BLOCK_BYTES + (1 << 20)

    def test_records_mapping_released(self, tmp_path, files, cifar_file, monkeypatch):
        """The train files' records live in one anonymous mapping, unmapped once resolve_datasets returns."""
        mappings = []
        read = longtail.read_cifar10_records

        def spy(*paths):
            pixels, labels = read(*paths)
            owner = pixels
            while not isinstance(owner, mmap.mmap):  # views of views of a memoryview of the mapping
                owner = owner.obj if isinstance(owner, memoryview) else owner.base
            mappings.append(weakref.ref(owner))
            return pixels, labels

        monkeypatch.setattr(longtail, "read_cifar10_records", spy)
        cfg = load_config(write_config(tmp_path, cifar_config(files[:2], cifar_file)), seed=6)
        train_ds, test_ds, _ = resolve_datasets(cfg)  # the datasets hold no view of the mapping
        assert len(mappings) == 1 and mappings[0]() is None


def test_cli_import_leaves_out_fractions_and_decimal():
    """Every command pays for what ``import lobmix.cli`` loads; the occurrence oracle needs no rationals."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), os.environ.get("PYTHONPATH", "")))}
    code = "import sys, lobmix.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_artifact_formats_live_in_atomic():
    # every JSON and CSV file is read or written by lobmix.atomic; config_hash's canonical dumps writes no file
    found = []
    for path in sorted((SRC / "lobmix").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names if alias.name == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
                found.append((path.name, f"from {node.module} import"))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("csv", "json"):
                    found.append((path.name, f"{node.value.id}.{node.attr}"))
    assert {use for name, use in found if name == "atomic.py"} >= {"csv", "csv.writer", "json.dump", "json.loads"}
    assert [(name, use) for name, use in found if name != "atomic.py"] == [("cli.py", "json.dumps")]


@pytest.mark.parametrize(
    "argv", [["train", "--config", "c.json"], ["analyze", "--manifest", "m.json", "--out", "o"]], ids=["train", "analyze"]
)
def test_alpha_is_no_flag(capsys, argv):
    # alpha is set in a config's train section only; analyze draws at TrainConfig.alpha
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--alpha", "0.5"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "lobmix: error: unrecognized arguments: --alpha 0.5"


def test_package_exports_resolve_sorted_and_unique():
    """``lobmix.__all__`` names only live objects, once each and in order, so a retired export cannot linger."""
    import lobmix

    assert all(hasattr(lobmix, name) for name in lobmix.__all__)
    assert lobmix.__all__ == sorted(set(lobmix.__all__))


class TestMalformedManifest:
    @pytest.fixture()
    def manifest_dict(self, tmp_path):
        out = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", "4", "--synth-per-class", "20", "--rho", "4", "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    # pytest names a list, dict or callable value by its place in the list, so those cases carry
    # explicit ids (the names they had): adding or removing a case renames no other
    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("seed", None, "manifest.seed must be an integer, got None"),
            pytest.param(
                "counts", ["a", 10, 5, 5], "manifest.counts entry must be an integer, got 'a'",
                id="counts-value1-manifest.counts entry must be an integer, got 'a'",
            ),
            pytest.param(
                "counts", {"0": 20}, "manifest.counts must be a list", id="counts-value2-manifest.counts must be a list"
            ),
            ("source", 7, "manifest.source must be a string, got 7"),
            pytest.param(  # 0.5 over the block's first entry; the id is the one layout 1's nested list [[0.5], ...] had
                "kept_indices", lambda block: "0.5" + block[3:], "manifest.kept_indices entry 0 holds '.', not a hex digit",
                id="kept_indices-value4-manifest.kept_indices entry 0 holds '.', not a hex digit",
            ),
            pytest.param(
                "kept_indices", [[5]], "manifest.kept_indices must be a string, got [[5]]",
                id="kept_indices-value5-manifest.kept_indices must be a string, got [[5]]",
            ),
            ("profile", 3, "manifest.profile must be an object, got 3"),
        ],
    )
    def test_wrong_type_rejected(self, tmp_path, capsys, manifest_dict, key, value, message):
        manifest_dict[key] = value(manifest_dict[key]) if callable(value) else value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest_dict))
        capsys.readouterr()
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(path), "--samples", "100", "--out", str(out)]) == 2
        assert_one_error(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "counts,message",
        [
            ([5, 0], "every class needs at least one example, got (5, 0)"),
            ([3], "need at least 2 classes"),
        ],
    )
    def test_bad_counts_rejected(self, tmp_path, capsys, manifest_dict, counts, message):
        # kept_indices match the counts, so the manifest itself parses
        manifest_dict.update(counts=counts, kept_indices=hex_block([i for n in counts for i in range(n)]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest_dict))
        capsys.readouterr()
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(path), "--samples", "100", "--out", str(out)]) == 2
        assert_one_error(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("counts,indices", [([3, -1], [0, 1]), ([2, -3], [])])
    def test_negative_count_rejected(self, tmp_path, capsys, manifest_dict, counts, indices):
        # named before the block's length is checked against the sum of the counts
        manifest_dict.update(counts=counts, kept_indices=hex_block(indices))
        message = f"manifest.counts entry must be non-negative, got {counts[1]}"
        with pytest.raises(ValueError) as excinfo:
            DatasetManifest.from_dict(manifest_dict)
        assert str(excinfo.value) == message
        self.assert_analyze_rejects(tmp_path, capsys, manifest_dict, message)

    @pytest.mark.parametrize(
        "section,key,message",
        [
            (None, "sede", "unknown manifest settings: ['sede']"),
            (None, "seed", "missing manifest settings: ['seed']"),
            (None, "profile", "missing manifest settings: ['profile']"),
            ("profile", "n_maxx", "unknown manifest.profile settings: ['n_maxx']"),
            ("profile", "n_max", "missing manifest.profile settings: ['n_max']"),
        ],
    )
    def test_unknown_or_missing_key_rejected(self, tmp_path, capsys, manifest_dict, section, key, message):
        d = manifest_dict[section] if section else manifest_dict
        if key in d:
            del d[key]
        else:
            d[key] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest_dict))
        capsys.readouterr()
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(path), "--samples", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_null_profile_accepted(self, tmp_path, manifest_dict):
        manifest_dict["profile"] = None
        path = tmp_path / "lean.json"
        path.write_text(json.dumps(manifest_dict))
        assert DatasetManifest.load(path).profile is None
        assert main(["analyze", "--manifest", str(path), "--samples", "100", "--out", str(tmp_path / "occ")]) == 0

    def assert_analyze_rejects(self, tmp_path, capsys, d, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        capsys.readouterr()
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(path), "--samples", "100", "--out", str(out)]) == 2
        assert_one_error(capsys, message)
        assert not out.exists()

    def test_index_beyond_32_bits_rejected(self, tmp_path, capsys, manifest_dict):
        # 2**40 takes 6 little-endian bytes, 12 hex digits, where an entry has 8
        block = manifest_dict["kept_indices"]
        manifest_dict["kept_indices"] = (2**40).to_bytes(6, "little").hex() + block[8:]
        n = sum(manifest_dict["counts"])
        message = f"manifest.kept_indices must hold 8 hex digits an index, {8 * n} for {n}, got {8 * n + 4}"
        self.assert_analyze_rejects(tmp_path, capsys, manifest_dict, message)

    def test_layout_1_rejected(self, tmp_path, capsys, manifest_dict):
        # as layout 1 wrote it: no layout key, and one JSON list of ints per class
        d = manifest_dict
        flat = np.frombuffer(bytes.fromhex(d.pop("kept_indices")), "<u4").tolist()
        del d["manifest_layout"]
        d["kept_indices"] = [flat[end - n : end] for n, end in zip(d["counts"], np.cumsum(d["counts"]).tolist())]
        message = "manifest layout 1 is not read by this lobmix (layout 3); rebuild it with build-lt"
        self.assert_analyze_rejects(tmp_path, capsys, d, message)

    def test_layout_2_rejected(self, tmp_path, capsys, manifest_dict):
        # as layout 2 wrote it: one hex block of little-endian int64, 16 digits an index
        d = manifest_dict
        d["kept_indices"] = np.frombuffer(bytes.fromhex(d["kept_indices"]), "<u4").astype("<i8").tobytes().hex()
        d["manifest_layout"] = 2
        message = "manifest layout 2 is not read by this lobmix (layout 3); rebuild it with build-lt"
        self.assert_analyze_rejects(tmp_path, capsys, d, message)

    @pytest.mark.parametrize("layout,shown", [(4, "4"), ("2", "'2'"), (None, "None")])
    def test_other_layout_rejected(self, tmp_path, capsys, manifest_dict, layout, shown):
        manifest_dict["manifest_layout"] = layout
        message = f"manifest layout {shown} is not read by this lobmix (layout 3); rebuild it with build-lt"
        self.assert_analyze_rejects(tmp_path, capsys, manifest_dict, message)

    @pytest.mark.parametrize("length", [737, 735])
    def test_block_length_checked(self, tmp_path, capsys, manifest_dict, length):
        # every class twice over: 92 indices, 736 digits
        manifest_dict["counts"] = [2 * n for n in manifest_dict["counts"]]
        assert sum(manifest_dict["counts"]) == 92
        manifest_dict["kept_indices"] = (2 * manifest_dict["kept_indices"] + "0")[:length]
        message = f"manifest.kept_indices must hold 8 hex digits an index, 736 for 92, got {length}"
        self.assert_analyze_rejects(tmp_path, capsys, manifest_dict, message)

    @pytest.mark.parametrize(
        "entry,text,message",
        [
            (7, "00g", "manifest.kept_indices entry 7 holds 'g', not a hex digit"),
            # bytes.fromhex skips whitespace between digit pairs: the block decodes a byte short
            (9, "00  ", "manifest.kept_indices entry 9 holds ' ', not a hex digit"),
            (2, "\n0", "manifest.kept_indices entry 2 holds '\\n', not a hex digit"),
        ],
    )
    def test_bad_entry_rejected(self, tmp_path, capsys, manifest_dict, entry, text, message):
        block = manifest_dict["kept_indices"]
        manifest_dict["kept_indices"] = block[: 8 * entry] + text + block[8 * entry + len(text) :]
        self.assert_analyze_rejects(tmp_path, capsys, manifest_dict, message)

    def test_directory_rejected(self, tmp_path, capsys):
        # the build-lt output directory in place of its manifest.json
        lt = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", "4", "--synth-per-class", "20", "--rho", "4", "--out", str(lt)]) == 0
        capsys.readouterr()
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(lt), "--out", str(out)]) == 2
        assert_one_error(capsys, "Is a directory")
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture()
    def manifest_path(self, tmp_path):
        out = tmp_path / "lt"
        argv = ["build-lt", "--synth-classes", "10", "--synth-per-class", "100", "--rho", "10", "--seed", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        return out / "manifest.json"

    @staticmethod
    def assert_combo_reports(out, manifest_path, samples):
        """Each combo's JSON holds the manifest's counts, its exact analytic ratios and its draws (null for none)."""
        counts = DatasetManifest.load(manifest_path).counts
        index = ClassIndex.from_counts(counts)
        for name, kinds in COMBOS.items():
            stem = f"occurrence_{name.replace('-', '_')}"
            assert not (out / f"{stem}.csv").exists()
            report = json.loads((out / f"{stem}.json").read_text())
            assert set(report) == {"combo", "counts", "analytic", "empirical"}
            assert report["combo"] == name and report["counts"] == list(counts)
            # JSON round-trips floats: the ratios written are the analytic ones bit for bit
            written = np.array(report["analytic"]["ratios"])
            assert written.tobytes() == analytic_occurrence(kinds, index).ratios.tobytes()
            if samples == 0:
                assert report["empirical"] is None
            else:
                assert report["empirical"]["sample_count"] == samples

    @pytest.mark.parametrize("samples", ["20000", "0"])
    def test_output_files(self, tmp_path, manifest_path, samples):
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(manifest_path), "--samples", samples, "--out", str(out)]) == 0
        names = {"occurrence_ib_ib.json", "occurrence_ib_cb.json", "occurrence_cb_cb.json"}
        assert {p.name for p in out.iterdir()} == {*names, "occurrence_summary.csv", "analyze_info.json"}

    def test_all_combos(self, tmp_path, manifest_path):
        out = tmp_path / "occ"
        code = main([
            "analyze", "--manifest", str(manifest_path), "--samples", "20000",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        self.assert_combo_reports(out, manifest_path, 20000)
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
        self.assert_combo_reports(out, manifest_path, 0)
        with (out / "occurrence_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["combo"] for row in rows] == list(COMBOS)
        assert all(row["balance_ratio_empirical"] == row["head_incidence"] == "" for row in rows)

    @staticmethod
    def wide_analyze_peak(tmp_path, samples):
        """The traced peak of ``analyze --samples samples`` on a C=1000 manifest, in sizes of the manifest file."""
        lt = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", "1000", "--rho", "10", "--out", str(lt)]) == 0
        path = lt / "manifest.json"
        assert DatasetManifest.load(path).kept_indices.size == 391_012
        argv = ["analyze", "--manifest", str(path), "--samples", samples, "--out", str(tmp_path / "o")]
        code, peak = traced_peak(main, argv)
        assert code == 0
        return peak / path.stat().st_size

    def test_manifest_read_holds_two_copies_of_the_file(self, tmp_path):
        # the file's bytes are hashed and freed before the parse, so the read holds the bytes and their text,
        # then the text and the parsed block, never all three: the peak is read_json's, about 2.5x the file
        assert self.wide_analyze_peak(tmp_path, "0") < 2.8

    def test_measuring_holds_only_the_counts(self, tmp_path):
        # the decoded indices are freed before the draws, and the labels are uint16 at C=1000: the draws hold
        # the class index, the labels and one combo's rows, about 3.1x the file
        assert self.wide_analyze_peak(tmp_path, "100000") < 3.4

    def test_rng_layout_recorded(self, tmp_path, manifest_path):
        out = tmp_path / "occ"
        assert main(["analyze", "--manifest", str(manifest_path), "--samples", "100", "--out", str(out)]) == 0
        info = json.loads((out / "analyze_info.json").read_text())
        assert info["rng_layout"] == RNG_LAYOUT
        assert info["config_sha256"] == config_hash({k: v for k, v in info.items() if k != "config_sha256"})

    @staticmethod
    def bad_setting(*args, message):
        return pytest.param(args, message, id="-".join([*args, message]))

    @pytest.mark.parametrize(
        "args,message",
        [
            bad_setting("--seed", "-5", message="--seed must fit in 64 bits, got -5"),
            bad_setting("--samples", "-3", message="--samples must be >= 0, got -3"),
            bad_setting("--seed", "-1", message="--seed must fit in 64 bits, got -1"),
            # the checks hold also when nothing is drawn
            bad_setting("--samples", "0", "--seed", "-5", message="--seed must fit in 64 bits, got -5"),
            bad_setting("--samples", "0", "--seed", str(2**64), message=f"--seed must fit in 64 bits, got {2**64}"),
        ],
    )
    def test_bad_setting_rejected(self, tmp_path, capsys, manifest_path, args, message):
        out = tmp_path / "occ"
        capsys.readouterr()
        assert main(["analyze", "--manifest", str(manifest_path), *args, "--out", str(out)]) == 2
        assert_one_error(capsys, message)
        assert not out.exists()

    def test_three_combo_rows(self, tmp_path):
        lt, out = tmp_path / "lt", tmp_path / "occ"
        build = ["--synth-classes", "4", "--synth-per-class", "50", "--rho", "10", "--n-max", "50"]
        assert main(["build-lt", *build, "--out", str(lt)]) == 0
        assert main(["analyze", "--manifest", str(lt / "manifest.json"), "--samples", "2000", "--out", str(out)]) == 0
        with (out / "occurrence_summary.csv").open() as fh:
            rows = {row["combo"]: row for row in csv.DictReader(fh)}
        assert list(rows) == ["ib-ib", "ib-cb", "cb-cb"]
        for row in rows.values():
            cells = ("balance_ratio_analytic", "balance_ratio_empirical", "head_incidence")
            analytic, measured, incidence = (float(row[cell]) for cell in cells)
            assert analytic >= 1.0 and measured >= 1.0 and 0.0 < incidence <= 1.0
        assert float(rows["cb-cb"]["balance_ratio_analytic"]) == 1.0

    @pytest.mark.parametrize(
        "samples,incidence",
        [
            pytest.param("0", False, id="nothing-drawn"),
            # 50 rows over 100 classes leave some class without mass: the measured balance is the empty cell
            pytest.param("50", True, id="class-without-mass"),
        ],
    )
    def test_no_measured_balance(self, tmp_path, capsys, samples, incidence):
        lt, out = tmp_path / "lt", tmp_path / "occ"
        build = ["--synth-classes", "100", "--synth-per-class", "50", "--rho", "10", "--n-max", "50"]
        assert main(["build-lt", *build, "--out", str(lt)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--manifest", str(lt / "manifest.json"), "--samples", samples, "--out", str(out)]) == 0
        with (out / "occurrence_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["combo"] for row in rows] == ["ib-ib", "ib-cb", "cb-cb"]
        assert all(row["balance_ratio_empirical"] == "" and (row["head_incidence"] != "") == incidence for row in rows)
        want = [f"{row['combo']}: analytic max/min={row['balance_ratio_analytic']}" for row in rows]
        assert capsys.readouterr().out.splitlines() == want

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, manifest_path):
        def draw_pairs(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

        monkeypatch.setattr("lobmix.occurrence.draw_pairs", draw_pairs)
        out = tmp_path / "occ"
        capsys.readouterr()
        assert main(["analyze", "--manifest", str(manifest_path), "--out", str(out)]) == 2
        assert_one_error(capsys, "Unable to allocate 745. GiB")
        assert not out.exists()


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
        cfg["train"].update(strategy="deferred", lr_decay_epochs=[3])  # epochs == 3
        out = tmp_path / "x"
        assert main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: deferred strategy needs a first lr decay epoch strictly inside (0, epochs=3), got (3,)"
        ]
        assert not out.exists()

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
        assert capsys.readouterr().err.splitlines() == [
            "error: deferred strategy needs a first lr decay epoch strictly inside (0, epochs=3), got ()"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("batches_per_epoch", [2, 4])
    def test_diverged_run_is_one_error_line(self, tmp_path, capsys, batches_per_epoch):
        # the first step, of the largest finite learning rate on a one-row batch, overflows the
        # weights, so the second batch's loss is NaN, and so is every later batch's, since the
        # losses are checked once the epoch's steps are done; numpy warnings are errors in this
        # suite, so any warning on the way fails the test
        cfg = base_config(out_dir=str(tmp_path / "run"))
        cfg["train"].update(
            epochs=1, batches_per_epoch=batches_per_epoch, batch_size=1, lr=1.7976931348623157e308, lr_decay_epochs=[]
        )
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == "error: non-finite loss nan at epoch 0, batch 1\n"
        assert not (tmp_path / "run" / "DONE").exists()

    @pytest.mark.parametrize(
        "separation,message",
        [
            (1e308, "separation 1e+308 puts class centers beyond the float range"),
            (1e306, "train features are too large to standardize: their mean or spread overflows"),
        ],
    )
    def test_overflowing_features_rejected(self, tmp_path, capsys, separation, message):
        cfg = base_config(out_dir=str(tmp_path / "run"))
        cfg["dataset"]["separation"] = separation
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert_one_error(capsys, message)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("classes", [-3, 1])
    def test_fewer_than_two_classes_named_as_given(self, tmp_path, capsys, classes):
        # (base_per_class,) * -3 is an empty tuple: the class count is checked before the base is built
        cfg = base_config(out_dir=str(tmp_path / "run"))
        cfg["dataset"]["classes"] = classes
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err == f"error: need at least 2 classes, got {classes}\n"
        assert not (tmp_path / "run").exists()

    def test_missing_cifar_train_file_leaves_no_directory(self, tmp_path, capsys, cifar_file):
        config_path = write_config(tmp_path, cifar_config([cifar_file, tmp_path / "nope.bin"], cifar_file))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert_one_error(capsys, f"dataset file not found: {tmp_path / 'nope.bin'}")
        assert not out.exists()

    def test_missing_cifar_test_file_is_named_before_any_read(self, tmp_path, capsys, cifar_file, monkeypatch):
        reads = []
        monkeypatch.setattr(longtail, "read_cifar10_records", lambda *paths: reads.append(paths))
        config_path = write_config(tmp_path, cifar_config([cifar_file], tmp_path / "nope.bin"))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dataset file not found: {tmp_path / 'nope.bin'}\n"
        assert reads == [] and not out.exists()

    @pytest.mark.parametrize("role", ["train", "test"])
    def test_directory_as_cifar_file_rejected(self, tmp_path, capsys, cifar_file, role):
        folder = tmp_path / "data"
        folder.mkdir()
        paths = ([folder], cifar_file) if role == "train" else ([cifar_file], folder)
        config_path = write_config(tmp_path, cifar_config(*paths))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: dataset file not found: {folder}\n"
        assert not out.exists()

    def test_cifar_train_file_missing_class_leaves_no_directory(self, tmp_path, capsys, cifar_file):
        labels = np.repeat(np.arange(9), 50)  # no example of class 9
        train_path = tmp_path / "train_nine.bin"
        write_cifar10_binary(LabeledDataset(np.zeros((labels.size, 3072)), labels, 10), train_path)
        config_path = write_config(tmp_path, cifar_config([train_path], cifar_file))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: class 9 has 0 examples, need 8\n"
        assert not out.exists()

    def test_directory_config_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert_one_error(capsys, "Is a directory")
        assert not out.exists()

    def test_cifar_test_file_missing_class_leaves_no_directory(self, tmp_path, capsys, cifar_file):
        labels = np.repeat(np.arange(9), 5)
        test_path = tmp_path / "test_nine.bin"
        write_cifar10_binary(LabeledDataset(np.zeros((labels.size, 3072)), labels, 10), test_path)
        config_path = write_config(tmp_path, cifar_config([cifar_file], test_path))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert_one_error(capsys, "class 9 missing from the evaluation set")
        assert not out.exists()

    def test_synth_config_without_test_rows_leaves_no_directory(self, tmp_path, capsys):
        cfg = base_config()
        cfg["dataset"]["test_per_class"] = 0
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: class 0 missing from the evaluation set\n"
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
        assert_one_error(capsys, "missing dataset settings: ['test_path']")
        assert not out.exists()


class TestMalformedConfig:
    # pytest names a list value by its place in the list, so those cases carry explicit ids (the
    # names they had): adding or removing a case renames no other
    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("train", "epochs", "2", "train.epochs must be an integer"),
            ("train", "alpha", "1.0", "train.alpha must be a number"),
            ("train", "lr_decay_epochs", 5, "train.lr_decay_epochs must be a list"),
            pytest.param(
                "train", "lr_decay_epochs", [2.5], "train.lr_decay_epochs entry must be an integer",
                id="train-lr_decay_epochs-value3-train.lr_decay_epochs entry must be an integer",
            ),
            ("train", "lr_decay_factor", True, "train.lr_decay_factor must be a number"),
            ("profile", "rho", None, "profile.rho must be a number"),
            ("dataset", "classes", None, "dataset.classes must be an integer"),
            ("train", "strategy", None, "train.strategy must be a string, got None"),
            (None, "seed", None, "seed must be an integer"),
            (None, "out_dir", 5, "out_dir must be a string"),
            # json reads NaN and Infinity as floats
            ("train", "lr", float("nan"), "train.lr must be a finite number, got nan"),
            ("train", "alpha", float("inf"), "train.alpha must be a finite number, got inf"),
            ("dataset", "separation", float("inf"), "dataset.separation must be a finite number, got inf"),
            ("profile", "rho", 10**400, "profile.rho must be a finite number"),
            # the settings of the one-hidden-layer model, momentum and weight decay are gone, so each
            # is an unknown key, even at its old default
            ("train", "arch", "linear", "unknown train settings: ['arch']"),
            ("train", "hidden", 32, "unknown train settings: ['hidden']"),
            ("train", "momentum", 0.0, "unknown train settings: ['momentum']"),
            ("train", "weight_decay", 0.0, "unknown train settings: ['weight_decay']"),
            # a two-phase strategy switches at its first decay epoch, so the switch-epoch key is gone too
            ("train", "defer_epoch", None, "unknown train settings: ['defer_epoch']"),
            ("train", "defer_epoch", 2, "unknown train settings: ['defer_epoch']"),
            # range checks of TrainConfig, by field name
            ("train", "lr_decay_factor", -3.0, "lr_decay_factor must be non-negative, got -3.0"),
            pytest.param(
                "train", "lr_decay_epochs", [-2], "decay epochs must be >= 1, got (-2,)",
                id="train-lr_decay_epochs-value19-decay epochs must be >= 1, got (-2,)",
            ),
            pytest.param(
                "train", "lr_decay_epochs", [0, 2], "decay epochs must be >= 1, got (0, 2)",
                id="train-lr_decay_epochs-value20-decay epochs must be >= 1, got (0, 2)",
            ),
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

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        cfg = base_config(out_dir=str(tmp_path / "run"))
        cfg["train"]["strategy"] = "lobb"
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        want = f"error: unknown strategy 'lobb', expected one of {', '.join(STRATEGIES)}"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "train",
        [
            pytest.param(dict(lr_decay_epochs=[1, 2], lr_decay_factor=1e200), id="factor-power-overflows"),
            pytest.param(dict(lr=1e300, lr_decay_epochs=[1], lr_decay_factor=1e10), id="rate-overflows"),
        ],
    )
    def test_overflowing_decay_rejected(self, tmp_path, capsys, train):
        # 1e200**2 raised OverflowError at epoch 2, a traceback after the run directory was made
        cfg = base_config(out_dir=str(tmp_path / "run"))
        cfg["train"].update(train)
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert_one_error(capsys, "learning rate lr * lr_decay_factor**")
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

    @pytest.mark.parametrize(
        "section,key,message",
        [
            (None, "sed", "unknown config settings: ['sed']"),
            (None, "train", "missing config settings: ['train']"),
            ("dataset", "dims", "unknown dataset settings: ['dims']"),
            ("dataset", "dim", "missing dataset settings: ['dim']"),
            ("dataset", "kind", "unknown dataset kind None"),
            ("profile", "nmax", "unknown profile settings: ['nmax']"),
            ("profile", "n_max", "missing profile settings: ['n_max']"),
            ("profile", "kind", "missing profile settings: ['kind']"),
        ],
    )
    def test_unknown_or_missing_key_rejected(self, tmp_path, capsys, section, key, message):
        cfg = base_config(out_dir=str(tmp_path / "run"))
        d = cfg[section] if section else cfg
        if key in d:
            del d[key]
        else:
            d[key] = 7
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "rename,message",
        [("train_path", "unknown dataset settings: ['train_path']"), (None, "missing dataset settings: ['train_paths']")],
    )
    def test_cifar_unknown_or_missing_key_rejected(self, tmp_path, capsys, cifar_file, rename, message):
        cfg = cifar_config([cifar_file], cifar_file, out_dir=str(tmp_path / "run"))
        paths = cfg["dataset"].pop("train_paths")
        if rename:
            cfg["dataset"][rename] = paths
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    def test_override_without_train_section(self, tmp_path, capsys):
        cfg = base_config(out_dir=str(tmp_path / "run"))
        del cfg["train"]
        assert main(["train", "--config", str(write_config(tmp_path, cfg)), "--strategy", "lob"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: missing config settings: ['train']"]
        assert not (tmp_path / "run").exists()

    def test_train_types_cover_every_setting(self):
        assert set(SCHEMA["train"]) == {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}

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

    @staticmethod
    def _rewrite_config(run, config):
        """Write ``config`` as the run's config.json, with the eval.json and DONE hashes that match it."""
        (run / "config.json").write_text(json.dumps(config))
        digest = run_digest(config)
        evaluation = json.loads((run / "eval.json").read_text())
        (run / "eval.json").write_text(json.dumps({**evaluation, "config_sha256": digest}))
        (run / "DONE").write_text(digest + "\n")

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

    @staticmethod
    def _set_layout(run, layout):
        """Rewrite the run's config.json under random-stream layout ``layout``; None drops the key."""
        config = json.loads((run / "config.json").read_text())
        config.pop("rng_layout")
        TestReport._rewrite_config(run, config if layout is None else {**config, "rng_layout": layout})

    def test_mixed_rng_layouts_rejected(self, tmp_path, capsys):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        # a run directory written before the layout was recorded has no rng_layout key: layout 1
        self._set_layout(dirs[1], None)
        out = tmp_path / "aggregate.csv"
        capsys.readouterr()
        assert main(["report", *map(str, dirs), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {dirs[1] / 'config.json'}: rng_layout 1 is not this version's random-stream layout {RNG_LAYOUT}"
        ]
        assert not out.exists()

    # one rule for a lone run as for a mix: a run of another layout is refused, with or without the key
    @pytest.mark.parametrize("layout", [None, 2])
    def test_lone_older_layout_rejected(self, tmp_path, capsys, layout):
        (run,) = self._run_many(tmp_path, seeds=(0,), strategies=("erm",))
        self._set_layout(run, layout)
        capsys.readouterr()
        assert main(["report", str(run)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {run / 'config.json'}: rng_layout {layout or 1} is not this version's random-stream layout {RNG_LAYOUT}"
        ]

    # a train key no version has, one that runs written before plain SGD recorded, and the
    # switch-epoch key that runs recorded before deferred switched at the first decay epoch
    @pytest.mark.parametrize("key,value", [("dropout", 0.5), ("momentum", 0.0), ("defer_epoch", None)])
    def test_config_failing_schema_named(self, tmp_path, capsys, key, value):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        config = json.loads((dirs[1] / "config.json").read_text())
        config["train"][key] = value
        self._rewrite_config(dirs[1], config)
        out = tmp_path / "aggregate.csv"
        capsys.readouterr()
        assert main(["report", *map(str, dirs), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {dirs[1] / 'config.json'}: unknown train settings: ['{key}']"
        ]
        assert not out.exists()

    def test_config_without_strategy_reported_as_mixup(self, tmp_path, capsys):
        # the parser reads a missing strategy as mixup, and so does report
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("mixup",))
        capsys.readouterr()
        assert main(["report", *map(str, dirs)]) == 0
        expected = capsys.readouterr().out
        config = json.loads((dirs[1] / "config.json").read_text())
        del config["train"]["strategy"]
        self._rewrite_config(dirs[1], config)
        assert main(["report", *map(str, dirs)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == expected
        assert captured.out.splitlines()[1].startswith("mixup,2,")

    # a copy, and a copy whose config.json leaves the strategy to its default, train the same experiment
    @pytest.mark.parametrize("strategy_written", [True, False])
    def test_copied_run_rejected(self, tmp_path, capsys, strategy_written):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("mixup",))
        copy = tmp_path / "copy"
        shutil.copytree(dirs[0], copy)
        if not strategy_written:
            config = json.loads((copy / "config.json").read_text())
            del config["train"]["strategy"]
            self._rewrite_config(copy, config)
        out = tmp_path / "aggregate.csv"
        capsys.readouterr()
        assert main(["report", *map(str, dirs), str(copy), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: run directories {dirs[0]} and {copy} hold the same experiment\n"
        assert not out.exists()

    def test_errors_in_run_order(self, tmp_path, capsys):
        # each run is read whole before the next: the first bad run is named, whatever its fault
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        config = json.loads((dirs[0] / "config.json").read_text())
        config["train"]["dropout"] = 0.5
        self._rewrite_config(dirs[0], config)
        (dirs[1] / "DONE").write_text("0" * 64 + "\n")
        capsys.readouterr()
        assert main(["report", *map(str, dirs)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {dirs[0] / 'config.json'}: unknown train settings: ['dropout']"
        ]

    def test_done_not_utf8_named(self, tmp_path, capsys):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        (dirs[1] / "DONE").write_bytes(b"\xff\xfe\n")
        out = tmp_path / "aggregate.csv"
        capsys.readouterr()
        assert main(["report", *map(str, dirs), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {dirs[1] / 'DONE'} is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "alteration", ["truncated DONE", "edited config.json", "eval.json of another run", "eval.json not an object"]
    )
    def test_altered_run_rejected(self, tmp_path, capsys, alteration):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        run = dirs[1]
        message = f"run directory {run} is partial or altered"
        if alteration == "truncated DONE":
            (run / "DONE").write_text((run / "DONE").read_text()[:10])
        elif alteration == "edited config.json":
            config = json.loads((run / "config.json").read_text())
            config["train"]["lr"] = 0.5
            (run / "config.json").write_text(json.dumps(config))
        elif alteration == "eval.json of another run":
            (run / "eval.json").write_bytes((dirs[0] / "eval.json").read_bytes())
        else:
            (run / "eval.json").write_text("[]")
            message = f"{run / 'eval.json'} must be an object, got []"
        capsys.readouterr()
        assert main(["report", *map(str, dirs)]) == 2
        assert_one_error(capsys, message)

    @pytest.mark.parametrize(
        ("edit", "message"),
        [
            (lambda e: e.pop("balanced_accuracy"), "missing {} settings: ['balanced_accuracy']"),
            (lambda e: e.update(balanced_accuracy="x"), "{}.balanced_accuracy must be a number, got 'x'"),
            (lambda e: e.update(seed=3), "unknown {} settings: ['seed']"),
            (lambda e: e["group_accuracy"].pop("tail"), "missing {}.group_accuracy settings: ['tail']"),
            (lambda e: e["group_accuracy"].update(head=[]), "{}.group_accuracy.head must be a number, got []"),
            (lambda e: e["per_class_recall"].insert(1, "x"), "{}.per_class_recall entry must be a number, got 'x'"),
        ],
    )
    def test_malformed_eval_rejected(self, tmp_path, capsys, edit, message):
        # DONE holds the config hash only, so an edited eval.json of a finished run gets this far
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        path = dirs[1] / "eval.json"
        evaluation = json.loads(path.read_text())
        edit(evaluation)
        path.write_text(json.dumps(evaluation))
        capsys.readouterr()
        assert main(["report", *map(str, dirs)]) == 2
        assert_one_error(capsys, message.format(path))

    def test_null_group_accuracy_reported_empty(self, tmp_path, capsys):
        dirs = self._run_many(tmp_path, seeds=(0,), strategies=("erm",))
        path = dirs[0] / "eval.json"
        evaluation = json.loads(path.read_text())
        evaluation["group_accuracy"]["tail"] = None  # an empty group
        path.write_text(json.dumps(evaluation))
        capsys.readouterr()
        assert main(["report", str(dirs[0])]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[8:10] == ["", ""]

    def test_incomplete_runs_ignored(self, tmp_path):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("erm",))
        (dirs[1] / "DONE").unlink()
        out_csv = tmp_path / "aggregate.csv"
        assert main(["report", *map(str, dirs), "--out", str(out_csv)]) == 0
        with out_csv.open() as fh:
            row = next(csv.DictReader(fh))
        assert row["runs"] == "1"

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_path_that_is_no_directory_rejected(self, tmp_path, capsys, kind):
        # a mistyped run path is an error, not an incomplete run to skip
        (run,) = self._run_many(tmp_path, seeds=(0,), strategies=("erm",))
        typo = tmp_path / "mixpu"
        if kind == "file":
            typo.write_text("")
        out_csv = tmp_path / "aggregate.csv"
        capsys.readouterr()
        assert main(["report", str(run), str(typo), "--out", str(out_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: no run directory at {typo}\n"
        assert not out_csv.exists()

    def test_run_named_twice_rejected(self, tmp_path, capsys, monkeypatch):
        dirs = self._run_many(tmp_path, seeds=(0, 1), strategies=("mixup",))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        # the same directory by another path is the same run
        assert main(["report", str(dirs[0]), str(dirs[1]), dirs[0].name]) == 2
        assert_one_error(capsys, f"run directory {dirs[0].name} is named twice")

    def test_no_completed_runs(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) != 0
        assert "no completed runs" in capsys.readouterr().err


# ways to make a JSON file unreadable, each applied to its bytes
SPOILED = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "not UTF-8": lambda raw: raw.replace(b'"', b'"\xff', 1),
    "nested too deep": lambda raw: b"[" * 100_000 + raw,
}


def spoil(path, how):
    path.write_bytes(SPOILED[how](path.read_bytes()))


@pytest.mark.parametrize("how", SPOILED)
class TestUnreadableJson:
    """A file that is not UTF-8 JSON is one error line naming it, and no output is written."""

    def assert_rejected(self, capsys, argv, path, output):
        capsys.readouterr()
        assert main(argv) == 2
        assert_one_error(capsys, f"error: {path} is not UTF-8 JSON: ")
        assert not output.exists()

    def test_train_config(self, tmp_path, capsys, how):
        path = write_config(tmp_path, base_config())
        spoil(path, how)
        out = tmp_path / "run"
        self.assert_rejected(capsys, ["train", "--config", str(path), "--out", str(out)], path, out)

    def test_analyze_manifest(self, tmp_path, capsys, how):
        lt = tmp_path / "lt"
        assert main(["build-lt", "--synth-classes", "4", "--synth-per-class", "20", "--rho", "4", "--out", str(lt)]) == 0
        path = lt / "manifest.json"
        spoil(path, how)
        out = tmp_path / "occ"
        self.assert_rejected(capsys, ["analyze", "--manifest", str(path), "--out", str(out)], path, out)

    @pytest.mark.parametrize("name", ["config.json", "eval.json"])
    def test_report_run_file(self, tmp_path, capsys, how, name):
        config_path = write_config(tmp_path, base_config())
        runs = [tmp_path / "run0", tmp_path / "run1"]
        for seed, run in enumerate(runs):
            assert main(["train", "--config", str(config_path), "--seed", str(seed), "--out", str(run)]) == 0
        spoil(runs[1] / name, how)
        out = tmp_path / "aggregate.csv"
        self.assert_rejected(capsys, ["report", *map(str, runs), "--out", str(out)], runs[1] / name, out)


class _FullDisk:
    """A file handle that writes half of its first chunk, then fails as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fail_writing(monkeypatch, name):
    """Make the atomic write of every file called ``name`` fail half-way through."""
    import builtins

    import lobmix.atomic

    def opener(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return _FullDisk(fh) if Path(path).name.startswith(f".{name}.") else fh

    monkeypatch.setattr(lobmix.atomic, "open", opener, raising=False)


class TestAtomicWrites:
    def test_failed_block_keeps_old_file(self, tmp_path):
        from lobmix.atomic import atomic_write

        path = tmp_path / "artifact.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError), atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.txt"]

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_is_not_written(self, tmp_path, x):
        # NaN and Infinity are not JSON: nothing, not even the temporary file, is left
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(tmp_path / "x.json", {"x": x})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["config.json", "manifest.json", "history.csv", "eval.json", "DONE"])
    def test_train_failure_mid_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch, name):
        order = ["config.json", "manifest.json", "history.csv", "eval.json", "DONE"]
        config_path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        fail_writing(monkeypatch, name)
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        assert_one_error(capsys, "No space left on device")
        # the artifacts written before the failing one are whole; nothing else is there
        assert sorted(p.name for p in out.iterdir()) == sorted(order[: order.index(name)])

    def test_report_failure_mid_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path, base_config())
        run = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run)]) == 0
        fail_writing(monkeypatch, "aggregate.csv")
        assert main(["report", str(run), "--out", str(tmp_path / "aggregate.csv")]) == 2
        assert_one_error(capsys, "No space left on device")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run"]

    @pytest.mark.parametrize("target", ["missing/aggregate.csv", "run"])
    def test_open_or_replace_error_names_the_final_path(self, tmp_path, capsys, target):
        config_path = write_config(tmp_path, base_config())
        run = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run)]) == 0
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["report", str(run), "--out", str(tmp_path / target)]) == 2
        assert_one_error(capsys, f": '{tmp_path / target}'")
        assert sorted(p.name for p in tmp_path.iterdir()) == before


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
        assert set(d["train"]) == set(SCHEMA["train"])

    def test_float_settings_stored_as_floats(self):
        # an integer given for a float setting is written back as a float in every section
        cfg = base_config()
        rows = {"dataset": SCHEMA["synth"], "profile": SCHEMA["profile"], "train": SCHEMA["train"]}
        floats = [(section, k) for section, row in rows.items() for k, kind in row.items() if kind is float]
        for section, k in floats:
            cfg[section][k] = 1
        d = ExperimentConfig.from_dict(cfg).to_dict()
        assert [repr(d[section][k]) for section, k in floats] == ["1.0"] * 5

    def test_numpy_numbers_stored_as_json_numbers(self):
        # json_value takes numpy numbers as require_kind does; the parsed config still writes as JSON
        cfg = base_config()
        cfg["seed"] = np.int64(3)
        cfg["dataset"].update(classes=np.int32(4), separation=np.float32(2.5))
        d = ExperimentConfig.from_dict(cfg).to_dict()
        assert [type(v) for v in (d["seed"], d["dataset"]["classes"], d["dataset"]["separation"])] == [int, int, float]
        assert json.loads(json.dumps(d)) == d

    def test_numpy_fields_written_as_json_numbers(self, tmp_path):
        # the constructors store numpy numbers, and an integer float field, as Python numbers
        cfg = ExperimentConfig.from_dict({**base_config(), "seed": 3})
        train = dataclasses.replace(cfg.train, epochs=np.int32(3), lr=np.float64(0.4), alpha=1, seed=np.int64(3))
        profile = ImbalanceProfile("exponential", np.int64(10), np.uint16(80))
        write_json(tmp_path / "got.json", ExperimentConfig(cfg.dataset, profile, train).to_dict())
        write_json(tmp_path / "want.json", cfg.to_dict())
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @staticmethod
    def strategy_comparison_script():
        spec = importlib.util.spec_from_file_location("strategy_comparison", REPO / "scripts" / "run_strategy_comparison.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    def test_strategy_comparison_script_config(self, tmp_path, monkeypatch):
        script = self.strategy_comparison_script()
        calls = []
        monkeypatch.setattr(script, "lobmix_main", lambda argv: calls.append(argv) or 0)
        monkeypatch.setattr("sys.argv", ["run_strategy_comparison.py", "--seeds", "2", "--out", str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            script.main()
        assert exit_info.value.code == 0
        runs = [(argv[argv.index("--strategy") + 1], argv[argv.index("--seed") + 1]) for argv in calls[:-1]]
        assert runs == [(s, seed) for s in STRATEGIES for seed in ("0", "1")]  # the table's order, then the seeds
        assert all(argv[:3] == ["train", "--config", str(REPO / "configs" / "c10.json")] for argv in calls[:-1])
        run_dirs = [argv[argv.index("--out") + 1] for argv in calls[:-1]]
        assert calls[-1] == ["report", *run_dirs, "--out", str(tmp_path / "aggregate.csv")]
        assert list(tmp_path.iterdir()) == []  # the script writes no file itself: train and report do

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_strategy_comparison_script_rejects_no_seeds(self, tmp_path, monkeypatch, capsys, seeds):
        script = self.strategy_comparison_script()
        out = tmp_path / "runs"
        monkeypatch.setattr("sys.argv", ["run_strategy_comparison.py", "--seeds", seeds, "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            script.main()
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert captured.out == "" and errors == [f"run_strategy_comparison.py: error: --seeds must be >= 1, got {seeds}"]
        assert not out.exists()


class TestReadme:
    def test_library_snippet_runs(self, capsys):
        blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(), re.S | re.M)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == "10.0"  # the analytic ib-ib balance the snippet's comment states

    def test_cli_blocks_parse(self):
        # a retired flag or choice left in README's commands fails here; nothing is run
        lines = []
        for block in re.findall(r"^```bash\n(.*?)^```", (REPO / "README.md").read_text(), re.S | re.M):
            lines += [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("lobmix ")]
        assert len(lines) >= 6  # the CLI block's four commands and the occurrence table's two
        for line in lines:
            try:
                build_parser().parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    # the flags README names that are not lobmix options, each with the program it belongs to
    OTHER_PROGRAMS_FLAGS = {"--seeds": "scripts/run_strategy_comparison.py", "--no-build-isolation": "pip install"}

    def test_flags_are_cli_options(self):
        # a retired flag named anywhere in README, prose included, fails here
        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {flag for p in commands.choices.values() for flag in p._option_string_actions}
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (REPO / "README.md").read_text()))
        assert named - options <= set(self.OTHER_PROGRAMS_FLAGS), sorted(named - options)

    def test_config_block_is_a_valid_config(self):
        # a stale or misspelled key in a committed config fails here
        paths = sorted((REPO / "configs").glob("*.json"))
        assert REPO / "configs" / "c10.json" in paths
        for path in paths:
            cfg = load_config(path)
            assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg, path.name
        blocks = re.findall(r"^```json\n(.*?)^```", (REPO / "README.md").read_text(), re.S | re.M)
        assert len(blocks) == 1
        cfg = ExperimentConfig.from_dict(json.loads(blocks[0]))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_strategy_comparison_config_is_the_readme_config(self):
        # the script runs the README's experiment: the file it passes to train is README's block
        (block,) = re.findall(r"^```json\n(.*?)^```", (REPO / "README.md").read_text(), re.S | re.M)
        script = TestConfigRoundTrip.strategy_comparison_script()
        assert script.CONFIG == REPO / "configs" / "c10.json"
        assert json.loads(script.CONFIG.read_text()) == json.loads(block)

    def test_train_defaults_table_matches_train_config(self):
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)`", (REPO / "README.md").read_text(), re.M)
        table = {key: json.loads(value) for key, value in rows}
        required = [f.name for f in dataclasses.fields(TrainConfig) if f.default is dataclasses.MISSING]
        cfg = ExperimentConfig.from_dict({**base_config(), "train": {k: base_config()["train"][k] for k in required}})
        defaults = {k: v for k, v in cfg.to_dict()["train"].items() if k not in required}
        assert table == defaults
