"""What the benchmark's scripts call in lobmix.

``bench/inputs.py`` writes each workload's inputs through the public API, and
``bench/child.py`` loads each workload's set-up through the public loaders
before it times a command. These tests run both on every workload, so a change
to an entry point they use fails here rather than in a benchmark run.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lobmix import ClassIndex, DatasetManifest, LabeledDataset
from lobmix.cli import build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = load_script("inputs")
child = load_script("child")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_planned_setups_load(tmp_path, workload):
    plan = inputs.PLANNERS[workload](30, tmp_path)
    parser = build_parser()
    loaded = set()
    for op in plan["ops"]:
        # every option the plan passes is still accepted
        assert parser.parse_args(op["argv"]).command == op["kind"]
        setup = op["setup"]
        if setup is None or setup["path"] in loaded:
            continue
        loaded.add(setup["path"])
        if setup["kind"] == "config":
            train, test, manifest = child.load_dataset(setup)
            assert isinstance(train, LabeledDataset) and isinstance(test, LabeledDataset)
            assert list(train.class_index().counts) == list(manifest.counts)
            assert (test.num_classes, test.dim) == (train.num_classes, train.dim)
        else:
            manifest, index = child.load_dataset(setup)
            assert isinstance(manifest, DatasetManifest) and isinstance(index, ClassIndex)
            assert list(manifest.counts) == op["counts"]
            assert manifest.kept_indices.dtype == np.int64
            assert manifest.kept_indices.shape == (index.total,)
    assert loaded
