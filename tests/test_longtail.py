import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobmix import (
    ClassIndex,
    DatasetManifest,
    ImbalanceProfile,
    LabeledDataset,
    load_cifar10_binary,
    longtail_split,
    synth_gaussian_mixture,
    write_cifar10_binary,
)
from lobmix import longtail
from lobmix.atomic import write_json
from lobmix.cli import main
from lobmix.longtail import BLOCK_BYTES, mixture_centers, read_cifar10_records, row_blocks
from lobmix.seeds import make_rng

from conftest import CIFAR_LT_RHO10, hex_block, traced_peak


def profile_counts(kind, n_max, num_classes, rho):
    return ImbalanceProfile(kind, rho, n_max).class_counts(num_classes)


class TestExponentialCounts:
    def test_rho10_reference_vector(self):
        assert tuple(profile_counts("exponential", 5000, 10, 10)) == CIFAR_LT_RHO10

    def test_rho1_is_balanced(self):
        assert tuple(profile_counts("exponential", 5000, 10, 1)) == (5000,) * 10

    def test_rho100(self):
        # interior values frozen from the same half-up evaluation script
        assert tuple(profile_counts("exponential", 5000, 10, 100)) == (
            5000, 2997, 1797, 1077, 646, 387, 232, 139, 83, 50,
        )

    @pytest.mark.parametrize("bad", [(5000, 10, 0.5), (5000, 1, 10), (5, 10, 10)])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            profile_counts("exponential", *bad)

    @given(
        rho=st.floats(1.0, 100.0),
        num_classes=st.integers(2, 100),
        scale=st.floats(50.0, 200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonincreasing_and_ratio(self, rho, num_classes, scale):
        # the 1% ratio guarantee needs the smallest class to round off at
        # most half an example relative to 1% of itself, i.e. n_max/rho >= 50
        n_max = int(np.ceil(rho * scale))
        counts = profile_counts("exponential", n_max, num_classes, rho)
        assert all(a >= b for a, b in zip(counts, list(counts)[1:]))
        assert abs(max(counts) / min(counts) - rho) / rho <= 0.01


class TestParetoCounts:
    def test_esc50_shape(self):
        counts = profile_counts("pareto", 32, 50, 10)
        assert counts[0] == 32
        assert counts[49] == 3
        # training budget: 50-class pool of 2000 minus 8 held out per class
        assert sum(counts) <= 2000 - 8 * 50
        assert sum(counts) == 327

    def test_rho1_is_balanced(self):
        assert tuple(profile_counts("pareto", 100, 5, 1)) == (100,) * 5

    def test_endpoints(self):
        counts = profile_counts("pareto", 100, 4, 10)
        assert counts[0] == 100
        assert counts[3] == 10

    @given(rho=st.floats(1.0, 50.0), num_classes=st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing(self, rho, num_classes):
        counts = profile_counts("pareto", int(np.ceil(rho * 60)), num_classes, rho)
        assert all(a >= b for a, b in zip(counts, list(counts)[1:]))


class TestStepCounts:
    def test_two_levels(self):
        counts = profile_counts("step", 1000, 10, 10)
        assert tuple(counts) == (1000,) * 5 + (100,) * 5
        assert max(counts) / min(counts) == 10.0

    def test_odd_class_count(self):
        counts = profile_counts("step", 100, 5, 4)
        assert tuple(counts) == (100, 100, 25, 25, 25)


class TestImbalanceRatio:
    """``build-lt`` prints the kept counts' largest over smallest class size."""

    @staticmethod
    def printed_ratio(tmp_path, capsys, classes, per_class, profile, rho):
        out = tmp_path / "lt"
        argv = [
            "build-lt", "--synth-classes", str(classes), "--synth-per-class", str(per_class),
            "--profile", profile, "--rho", str(rho), "--out", str(out),
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return DatasetManifest.load(out / "manifest.json").counts, lines[1]

    def test_exponential_profile(self, tmp_path, capsys):
        counts, line = self.printed_ratio(tmp_path, capsys, 10, 5000, "exponential", 10)
        assert counts == CIFAR_LT_RHO10
        assert line == "imbalance ratio: 10"

    def test_balanced(self, tmp_path, capsys):
        counts, line = self.printed_ratio(tmp_path, capsys, 5, 7, "exponential", 1)
        assert counts == (7,) * 5
        assert line == "imbalance ratio: 1"

    def test_large_scale_profile(self, tmp_path, capsys):
        counts, line = self.printed_ratio(tmp_path, capsys, 4, 1280, "pareto", 256)
        assert counts == (1280, 80, 16, 5)
        assert line == "imbalance ratio: 256"


class TestImbalanceProfile:
    def test_dispatch(self):
        profile = ImbalanceProfile("exponential", 10.0, 5000)
        assert tuple(profile.class_counts(10)) == CIFAR_LT_RHO10

    @pytest.mark.parametrize("kind", ["exponential", "pareto", "step"])
    def test_counts_are_a_tuple_of_ints(self, kind):
        # the manifest's type: JSON writes it, and the largest over smallest is exact
        counts = ImbalanceProfile(kind, 10.0, 100).class_counts(7)
        assert type(counts) is tuple and all(type(n) is int and n >= 1 for n in counts)
        assert json.loads(json.dumps(counts)) == list(counts)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("exponential", True, 5), "rho must be a number, got True"),
            (("exponential", "10", 50), "rho must be a number, got '10'"),
            (("pareto", 2.0, 5.5), "n_max must be an integer, got 5.5"),
            (("pareto", 2.0, True), "n_max must be an integer, got True"),
            ((["step"], 2.0, 5), "kind must be a string, got ['step']"),
        ],
    )
    def test_field_of_another_kind_rejected(self, args, message):
        # rho=True was written to a manifest as true; n_max=5.5 was recorded beside a largest class of 6
        with pytest.raises(ValueError) as excinfo:
            ImbalanceProfile(*args)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("num_classes,shown", [(3.0, "3.0"), (True, "True"), ("3", "'3'")])
    def test_class_count_of_another_kind_rejected(self, num_classes, shown):
        with pytest.raises(ValueError) as excinfo:
            ImbalanceProfile("step", 2.0, 6).class_counts(num_classes)
        assert str(excinfo.value) == f"num_classes must be an integer, got {shown}"

    def test_numpy_numbers_accepted(self):
        profile = ImbalanceProfile("step", np.float64(2.0), np.int64(6))
        assert profile.class_counts(4) == (6, 6, 3, 3)

    @pytest.mark.parametrize(
        "rho,n_max",
        [(np.float64(2.0), np.int64(6)), (np.float32(2.0), np.uint16(6)), (2, 6), (np.int8(2), 6)],
        ids=["float64-int64", "float32-uint16", "int-int", "int8-int"],
    )
    def test_written_as_the_cli_writes_it(self, tmp_path, rho, n_max):
        # numpy numbers and an integer ratio are stored as Python numbers: the bytes of the CLI's float rho
        write_json(tmp_path / "got.json", ImbalanceProfile("step", rho, n_max).to_dict())
        write_json(tmp_path / "want.json", ImbalanceProfile("step", 2.0, 6).to_dict())
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            ImbalanceProfile("exp", 10.0, 5000)  # long names only
        with pytest.raises(ValueError):
            ImbalanceProfile("pareto", 0.9, 100)
        with pytest.raises(ValueError):
            ImbalanceProfile("pareto", 200.0, 100)
        with pytest.raises(ValueError, match="imbalance ratio must be >= 1, got nan"):
            ImbalanceProfile("pareto", float("nan"), 100)


def _balanced_base(per_class, num_classes=2, dim=3, seed=11):
    counts = (per_class,) * num_classes
    return synth_gaussian_mixture(counts, dim, 4.0, seed)


class TestSubsample:
    def test_exact_sizes(self):
        base = _balanced_base(1000)
        manifest = longtail_split(base.class_index(), (1000, 100), 0, seed=5)[1]
        assert list(ClassIndex.from_labels(base.labels[manifest.kept_indices], 2).counts) == [1000, 100]
        assert manifest.counts == (1000, 100)

    def test_same_seed_same_indices(self):
        base = _balanced_base(300)
        m1 = longtail_split(base.class_index(), (300, 50), 0, seed=9)[1]
        m2 = longtail_split(base.class_index(), (300, 50), 0, seed=9)[1]
        assert m1.kept_indices.dtype == np.int64
        assert np.array_equal(m1.kept_indices, m2.kept_indices)

    def test_full_counts_reproduce_base(self):
        base = _balanced_base(120)
        kept = longtail_split(base.class_index(), (120, 120), 0, seed=1)[1].kept_indices
        # same rows up to ordering: compare per-class sorted feature blocks
        for k in range(2):
            got = np.sort(base.features[kept][base.labels[kept] == k], axis=0)
            want = np.sort(base.features[base.labels == k], axis=0)
            assert np.array_equal(got, want)

    def test_insufficient_class(self):
        base = _balanced_base(40)
        with pytest.raises(ValueError, match="^class 1 has 40 examples, need 41$"):
            longtail_split(base.class_index(), (40, 41), 0, seed=0)

    def test_counts_must_cover_every_class(self):
        base = _balanced_base(50, num_classes=4)
        with pytest.raises(ValueError, match="^counts cover 2 classes but dataset has 4$"):
            longtail_split(base.class_index(), (30, 10), 0, seed=0)

    def test_manifest_roundtrip(self, tmp_path):
        base = _balanced_base(200, num_classes=3)
        manifest = longtail_split(base.class_index(), (200, 60, 20), 0, seed=3)[1]
        path = tmp_path / "manifest.json"
        manifest.save(path)
        loaded = DatasetManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        assert np.array_equal(loaded.kept_indices, manifest.kept_indices)
        # the reloaded indices gather the same rows, class by class
        assert np.array_equal(base.features[loaded.kept_indices], base.features[manifest.kept_indices])
        assert np.array_equal(base.labels[loaded.kept_indices], np.repeat(np.arange(3), (200, 60, 20)))

    def test_rerun_from_manifest_seed(self):
        base = _balanced_base(200, num_classes=3)
        manifest = longtail_split(base.class_index(), (200, 60, 20), 0, seed=3)[1]
        again = longtail_split(base.class_index(), manifest.counts, 0, seed=manifest.seed)[1]
        assert np.array_equal(base.features[manifest.kept_indices], base.features[again.kept_indices])
        assert np.array_equal(base.labels[manifest.kept_indices], base.labels[again.kept_indices])


class TestManifestLayout:
    @given(sizes=st.lists(st.integers(0, 6), min_size=2, max_size=6), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_flat_layout_matches_nested(self, sizes, data):
        rows = 30
        nested = [data.draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n)) for n in sizes]
        manifest = DatasetManifest("test", None, 0, sizes, nested)
        flat = [i for idx in nested for i in idx]
        assert manifest.kept_indices.dtype == np.int64
        assert manifest.kept_indices.tolist() == flat
        d = manifest.to_dict()
        assert d["manifest_layout"] == 3 and d["kept_indices"] == hex_block(flat)
        loaded = DatasetManifest.from_dict(json.loads(json.dumps(d)))
        assert loaded.to_dict() == d and loaded.counts == tuple(sizes)
        assert loaded.kept_indices.tolist() == flat
        rng = np.random.default_rng(len(sizes))
        base = LabeledDataset(rng.standard_normal((rows, 2)), rng.integers(0, 3, size=rows), 3)
        gathers = [np.asarray(idx, dtype=np.int64) for idx in nested]
        want_features = np.concatenate([base.features[idx] for idx in gathers])
        assert np.array_equal(base.features[manifest.kept_indices], want_features)
        assert np.array_equal(base.labels[manifest.kept_indices], np.concatenate([base.labels[idx] for idx in gathers]))

    @pytest.mark.parametrize("bad,shown", [(True, "True"), (None, "None"), (0.5, "0.5"), ("7", "'7'")])
    @pytest.mark.parametrize("key", ["counts", "kept_indices"])
    def test_long_list_names_its_first_bad_entry(self, key, bad, shown):
        # a later bad entry of another kind must not be the one named
        n = 10**5 + 3
        d = {"manifest_layout": 3, "source": "test", "profile": None, "seed": 0, "counts": [2, n - 2]}
        d["kept_indices"] = hex_block(range(n))
        if key == "counts":
            d["counts"] = list(range(10**5)) + [bad, 3, [4]]
            message = f"manifest.counts entry must be an integer, got {shown}"
        else:
            # entry 10**5 holds the bad value's JSON text, entry 10**5 + 1 a space
            text = json.dumps(bad).ljust(8, "0")
            d["kept_indices"] = d["kept_indices"][: 8 * 10**5] + text + " " * 8 + d["kept_indices"][-8:]
            first = next(c for c in text if c not in "0123456789abcdef")
            message = f"manifest.kept_indices entry 100000 holds {first!r}, not a hex digit"
        with pytest.raises(ValueError) as excinfo:
            DatasetManifest.from_dict(d)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "indices,dtype",
        [([0.5, 1.9], "float64"), (np.array([1.0, 2.0]), "float64"), ([True, False], "bool"), (["1", "2"], "<U1")],
    )
    def test_non_integer_indices_rejected(self, indices, dtype):
        # an assignment into the int64 array would keep [0, 1] for [0.5, 1.9]
        with pytest.raises(ValueError) as excinfo:
            DatasetManifest("test", None, 0, [1, 2], [[3], indices])
        assert str(excinfo.value) == f"kept indices must be integers, got {dtype} in class 1"

    @pytest.mark.parametrize(
        "kept,message",
        [
            ([[0, 1]], "one kept-index list per class required"),
            ([[0], [1]], "kept-index list length must match the class count"),
        ],
    )
    def test_kept_lists_must_match_the_counts(self, kept, message):
        with pytest.raises(ValueError) as excinfo:
            DatasetManifest("test", None, 0, [2, 1], kept)
        assert str(excinfo.value) == message

    def test_integer_sequences_and_empty_classes_accepted(self):
        kept = ([4, 1], np.array([7], dtype=np.uint16), np.array([]), (), np.array([2, 0], dtype=np.int32), (5,))
        manifest = DatasetManifest("test", None, 0, [2, 1, 0, 0, 2, 1], kept)
        assert manifest.kept_indices.dtype == np.int64
        assert manifest.kept_indices.tolist() == [4, 1, 7, 2, 0, 5]

    @pytest.mark.parametrize("case", ["upper", "plain"])
    def test_block_decodes_as_little_endian_uint32(self, case):
        # index 0x0102 is bytes 02 01 00 00: read big-endian it would be 2**25 + 2**16;
        # ffffffff is 2**32 - 1, not the -1 a signed read would give
        block = "02010000" + "ff" * 4
        d = {"manifest_layout": 3, "source": "test", "profile": None, "seed": 0, "counts": [1, 1]}
        d["kept_indices"] = block.upper() if case == "upper" else block
        manifest = DatasetManifest.from_dict(d)
        assert manifest.kept_indices.dtype == np.int64
        assert manifest.kept_indices.tolist() == [0x0102, 2**32 - 1]

    @pytest.mark.parametrize(
        "index,message",
        [
            (-1, "kept indices must be non-negative, got -1"),
            (2**32, "kept indices must be below 2**32, got 4294967296"),
        ],
    )
    def test_out_of_range_index_rejected(self, index, message):
        # a file entry holds 4 bytes, so it can be neither; the constructor rejects what to_dict would wrap
        with pytest.raises(ValueError) as excinfo:
            DatasetManifest("test", None, 0, [2, 1], [[3, index], [5]])
        assert str(excinfo.value) == message

    def test_largest_index_round_trips(self, tmp_path):
        manifest = DatasetManifest("test", None, 0, [1, 2], [[2**32 - 1], np.array([0, 2**32 - 2], dtype=np.uint32)])
        manifest.save(tmp_path / "manifest.json")
        loaded = DatasetManifest.load(tmp_path / "manifest.json")
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.kept_indices.dtype == np.int64 and loaded.kept_indices.tolist() == [2**32 - 1, 0, 2**32 - 2]

    def test_save_holds_a_few_copies_of_the_block(self, tmp_path):
        # build-lt --synth-classes 1000 --rho 10: 391,012 kept indices, a 3.13 MB file
        profile = ImbalanceProfile("exponential", 10.0, 1000)
        counts = profile.class_counts(1000)
        index = ClassIndex.from_counts((1000,) * 1000)
        manifest = longtail_split(index, counts, 0, 0, profile=profile)[1]
        assert manifest.kept_indices.size == 391_012
        _, peak = traced_peak(manifest.save, tmp_path / "manifest.json")
        block_bytes = 8 * manifest.kept_indices.size
        assert peak < 4 * block_bytes
        assert DatasetManifest.load(tmp_path / "manifest.json").to_dict() == manifest.to_dict()


def two_pass_split(index, counts, test_per_class, seed):
    """Test and kept indices of the split drawn in two passes, every held-out set first: the reference."""
    rng = make_rng(seed, "holdout")
    test_idx, pools = [], []
    for k in range(len(counts)):
        have = index.members(k)
        held = np.sort(rng.choice(have, size=test_per_class, replace=False))
        test_idx.append(held)
        pools.append(np.setdiff1d(have, held, assume_unique=True))
    rng = make_rng(seed, "train-pick")
    kept = [np.sort(rng.choice(pool, size=want, replace=False)) for pool, want in zip(pools, counts)]
    return np.concatenate(test_idx), np.concatenate(kept).astype(np.int64)


class TestLongtailSplit:
    def test_balanced_test_disjoint_train(self):
        base = _balanced_base(150, num_classes=4, dim=2)
        test_idx, manifest = longtail_split(base.class_index(), (100, 50, 25, 13), 20, seed=2)
        assert test_idx.dtype == np.int64
        assert np.array_equal(base.labels[manifest.kept_indices], np.repeat(np.arange(4), (100, 50, 25, 13)))
        assert np.array_equal(base.labels[test_idx], np.repeat(np.arange(4), 20))
        assert np.unique(test_idx).size == test_idx.size
        assert np.intersect1d(test_idx, manifest.kept_indices).size == 0

    def test_insufficient_pool(self):
        base = _balanced_base(30, num_classes=2)
        with pytest.raises(ValueError, match="^class 0 has 30 examples, need 35$"):
            longtail_split(base.class_index(), (25, 25), 10, seed=0)

    def test_counts_must_cover_every_class(self):
        base = _balanced_base(50, num_classes=4)
        with pytest.raises(ValueError, match="^counts cover 2 classes but dataset has 4$"):
            longtail_split(base.class_index(), (30, 10), 5, seed=0)

    def test_negative_test_set_rejected(self):
        base = _balanced_base(50, num_classes=2)
        with pytest.raises(ValueError) as excinfo:
            longtail_split(base.class_index(), (30, 10), -1, seed=0)
        assert str(excinfo.value) == "test_per_class must be >= 0"

    @given(
        counts=st.lists(st.integers(0, 12), min_size=2, max_size=6),
        test_per_class=st.integers(1, 8),
        spare=st.integers(0, 5),
        seed=st.integers(0, 2**64 - 1),
        shuffled=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_the_two_pass_split(self, counts, test_per_class, spare, seed, shuffled):
        # the classes of a from_labels index interleave; those of a from_counts index lie in blocks
        sizes = [n + test_per_class + spare for n in counts]
        labels = np.repeat(np.arange(len(sizes)), sizes)
        if shuffled:
            index = ClassIndex.from_labels(np.random.default_rng(seed % 97).permutation(labels), len(sizes))
        else:
            index = ClassIndex.from_counts(sizes)
        test_idx, manifest = longtail_split(index, counts, test_per_class, seed, source="s")
        want_test, want_kept = two_pass_split(index, counts, test_per_class, seed)
        assert test_idx.dtype == want_test.dtype and test_idx.tobytes() == want_test.tobytes()
        assert manifest.kept_indices.tobytes() == want_kept.tobytes()
        assert manifest.counts == tuple(counts) and manifest.seed == seed and manifest.source == "s"

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_no_held_out_rows_is_the_train_pick_draw(self, shuffled):
        counts, sizes = (9, 4, 0, 1), (12, 4, 3, 6)
        labels = np.repeat(np.arange(4), sizes)
        if shuffled:
            index = ClassIndex.from_labels(np.random.default_rng(1).permutation(labels), 4)
        else:
            index = ClassIndex.from_counts(sizes)
        test_idx, manifest = longtail_split(index, counts, 0, 17)
        assert test_idx.dtype == np.int64 and test_idx.size == 0
        rng = make_rng(17, "train-pick")
        want = [np.sort(rng.choice(index.members(k), size=n, replace=False)) for k, n in enumerate(counts)]
        assert manifest.kept_indices.tobytes() == np.concatenate(want).tobytes()


def per_class_mixture(counts, dim, separation, seed):
    """Features and labels of the mixture drawn one class at a time and concatenated: the reference."""
    centers = mixture_centers(len(counts), dim, separation, seed)
    rng = make_rng(seed, "points")
    features = np.concatenate([centers[k] + rng.standard_normal((n, dim)) for k, n in enumerate(counts)])
    return features, np.concatenate([np.full(n, k, dtype=np.int64) for k, n in enumerate(counts)])


class TestSynthGaussianMixture:
    @given(
        counts=st.lists(st.integers(1, 40), min_size=2, max_size=8),
        dim=st.integers(2, 6),
        block_rows=st.integers(1, 50),
        seed=st.integers(0, 2**32),
    )
    @example(counts=[1, 7, 1, 1, 3], dim=3, block_rows=2, seed=0)  # 1-row classes; blocks straddle classes
    @settings(max_examples=60, deadline=None)
    def test_bitwise_the_per_class_draws(self, counts, dim, block_rows, seed):
        # BLOCK_BYTES holds block_rows rows, so row blocks start and end inside classes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(longtail, "BLOCK_BYTES", block_rows * dim * 8)
            ds = synth_gaussian_mixture(counts, dim, 3.0, seed)
        features, labels = per_class_mixture(counts, dim, 3.0, seed)
        assert ds.features.tobytes() == features.tobytes() and ds.features.shape == features.shape
        assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)
        assert ds.num_classes == len(counts)

    def test_base_is_allocated_once(self):
        # one (N, dim) draw shifted in place: no per-class blocks, no concatenated copy
        synth_gaussian_mixture((2, 3), 32, 3.0, 5)  # a first call's one-time allocations (about 650 kB) are not traced
        ds, peak = traced_peak(synth_gaussian_mixture, (400,) * 50, 32, 3.0, 5)
        assert peak < ds.features.nbytes + ds.labels.nbytes + 4 * BLOCK_BYTES
        features, _ = per_class_mixture((400,) * 50, 32, 3.0, 5)
        assert ds.features.tobytes() == features.tobytes()

    def test_sizes(self):
        ds = synth_gaussian_mixture((100, 10), 2, 5.0, seed=8)
        assert len(ds) == 110
        assert list(ds.class_index().counts) == [100, 10]

    def test_deterministic(self):
        a = synth_gaussian_mixture((50, 20, 10), 4, 3.0, seed=21)
        b = synth_gaussian_mixture((50, 20, 10), 4, 3.0, seed=21)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_means_near_centers(self):
        counts = (400, 200, 100)
        ds = synth_gaussian_mixture(counts, 4, 6.0, seed=17)
        centers = mixture_centers(3, 4, 6.0, seed=17)
        for k, n_k in enumerate(counts):
            mean = ds.features[ds.labels == k].mean(axis=0)
            assert np.all(np.abs(mean - centers[k]) <= 3.0 / np.sqrt(n_k))

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_gaussian_mixture((5, 5), 1, 3.0, seed=0)
        with pytest.raises(ValueError):
            synth_gaussian_mixture((5, 5), 2, 0.0, seed=0)
        with pytest.raises(ValueError, match="separation must be positive, got nan"):
            synth_gaussian_mixture((5, 5), 2, float("nan"), seed=0)

    @pytest.mark.parametrize(
        "dim,separation,message",
        [
            (2.5, 3.0, "dim must be an integer, got 2.5"),
            (True, 3.0, "dim must be an integer, got True"),
            (4, True, "separation must be a number, got True"),
            (4, "3", "separation must be a number, got '3'"),
        ],
    )
    def test_dim_or_separation_of_another_kind_rejected(self, dim, separation, message):
        # each kind is checked before any range: dim=True is not "dim >= 2", separation=True not radius 1
        with pytest.raises(ValueError) as excinfo:
            synth_gaussian_mixture((3, 3), dim, separation, seed=0)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "counts,shown", [((5, 2.5), "2.5"), ((True, 5), "True"), ((5, np.float64(3.0)), "np.float64(3.0)")]
    )
    def test_non_integer_count_rejected(self, counts, shown):
        with pytest.raises(ValueError) as excinfo:
            synth_gaussian_mixture(counts, 4, 3.0, seed=0)
        assert str(excinfo.value) == f"class count must be an integer, got {shown}"

    def test_one_class_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 classes, got 1$"):
            synth_gaussian_mixture((5,), 2, 3.0, seed=0)

    @pytest.mark.parametrize("size", [0, -2])
    def test_class_without_examples_rejected(self, size):
        with pytest.raises(ValueError, match=f"every class needs at least one example, got \\(5, {size}, 5\\)"):
            synth_gaussian_mixture((5, size, 5), 4, 3.0, seed=0)

    def test_centers_beyond_float_range_rejected(self):
        # numpy warnings are errors in this suite, so an overflow warning fails the test
        with pytest.raises(ValueError, match="separation 1e\\+308 puts class centers beyond the float range"):
            synth_gaussian_mixture((5, 5, 5), 4, 1e308, seed=0)


# rows of float pixels in one row block: load_cifar10_binary reads a file a block at a time
CIFAR_BLOCK_ROWS = BLOCK_BYTES // (3072 * 8)


class TestCifar10Binary:
    def _random_cifar(self, n, seed=0):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.int64)
        return LabeledDataset(pixels.astype(np.float64) / 255.0, labels, 10)

    def test_roundtrip_bit_exact(self, tmp_path):
        ds = self._random_cifar(64)
        path = tmp_path / "batch.bin"
        write_cifar10_binary(ds, path)
        again = load_cifar10_binary(path)
        assert np.array_equal(again.features, ds.features)
        assert np.array_equal(again.labels, ds.labels)
        # raw bytes recovered exactly by the inverse writer
        write_cifar10_binary(again, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_record_count_and_scale(self, tmp_path):
        ds = self._random_cifar(10)
        path = tmp_path / "ten.bin"
        write_cifar10_binary(ds, path)
        loaded = load_cifar10_binary(path)
        assert len(loaded) == 10
        assert loaded.num_classes == 10
        assert loaded.features.min() >= 0.0 and loaded.features.max() <= 1.0

    def test_records_scale_to_loaded_features(self, tmp_path):
        ds = self._random_cifar(40, seed=3)
        path = tmp_path / "batch.bin"
        write_cifar10_binary(ds, path)
        pixels, labels = read_cifar10_records(path)
        assert pixels.dtype == np.uint8 and pixels.shape == (40, 3072)
        kept = np.array([39, 0, 7, 7, 21])
        scaled = pixels[kept].astype(np.float64) / 255.0
        assert scaled.tobytes() == load_cifar10_binary(path).features[kept].tobytes()
        assert np.divide(pixels[kept], 255.0, dtype=np.float64).tobytes() == scaled.tobytes()
        assert np.array_equal(labels, ds.labels)

    def test_records_of_several_files_in_order(self, tmp_path):
        paths = [tmp_path / f"{n}.bin" for n in range(3)]
        parts = [self._random_cifar(n, seed=n) for n in (7, 0, 5)]
        for part, path in zip(parts, paths):
            write_cifar10_binary(part, path)
        pixels, labels = read_cifar10_records(*paths)
        assert pixels.shape == (12, 3072)
        assert np.array_equal(pixels / 255.0, np.concatenate([p.features for p in parts]))
        assert np.array_equal(labels, np.concatenate([p.labels for p in parts]))

    @pytest.mark.parametrize("flaw", ["length", "label"])
    def test_several_files_name_the_bad_one(self, tmp_path, flaw):
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        write_cifar10_binary(self._random_cifar(3), good)
        bad.write_bytes(b"\x00" * 3072 if flaw == "length" else bytes([10]) + b"\x00" * 3072)
        message = "file length 3072 is not a multiple" if flaw == "length" else "label byte 10 out of range"
        with pytest.raises(ValueError, match=f"{bad}: {message}"):
            read_cifar10_records(good, bad)

    # as if the file shrank (3 records stated, 2 read) or grew (1 stated, 2 read) after the stat
    @pytest.mark.parametrize(
        "stated,reader",
        [
            pytest.param(3, read_cifar10_records, id="3"),
            pytest.param(1, read_cifar10_records, id="1"),
            pytest.param(3, load_cifar10_binary, id="3-load"),
            pytest.param(1, load_cifar10_binary, id="1-load"),
        ],
    )
    def test_file_changed_after_stat_rejected(self, tmp_path, monkeypatch, stated, reader):
        path = tmp_path / "batch.bin"
        write_cifar10_binary(self._random_cifar(2), path)
        monkeypatch.setattr(longtail.os.path, "getsize", lambda p: stated * 3073)
        with pytest.raises(ValueError, match="file changed while being read"):
            reader(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        ds = load_cifar10_binary(path)
        assert len(ds) == 0

    @pytest.mark.parametrize("files", [0, 1])
    def test_no_records(self, tmp_path, files):
        # mmap rejects a length of 0, so no records still map one byte
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        pixels, labels = read_cifar10_records(*[path][:files])
        assert pixels.shape == (0, 3072) and pixels.dtype == np.uint8
        assert labels.shape == (0,) and labels.dtype == np.int64

    def test_blocks_bitwise_the_whole_file(self, tmp_path):
        path = tmp_path / "batch.bin"
        rows = 3 * CIFAR_BLOCK_ROWS + 7
        write_cifar10_binary(self._random_cifar(rows, seed=4), path)
        assert len(row_blocks(np.empty((rows, 3072)))) == 4
        pixels, labels = read_cifar10_records(path)
        ds = load_cifar10_binary(path)
        assert ds.features.tobytes() == np.divide(pixels, 255.0, dtype=np.float64).tobytes()
        assert np.array_equal(ds.labels, labels)

    def test_bad_label_in_last_block_named(self, tmp_path):
        path = tmp_path / "batch.bin"
        rows = 3 * CIFAR_BLOCK_ROWS + 7
        write_cifar10_binary(self._random_cifar(rows), path)
        raw = bytearray(path.read_bytes())
        raw[(rows - 1) * 3073] = 10
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"{path}: label byte 10 out of range 0-9"):
            load_cifar10_binary(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x00" * 3072)
        with pytest.raises(ValueError, match="3073"):
            load_cifar10_binary(path)

    def test_label_out_of_range(self, tmp_path):
        record = bytes([11]) + b"\x00" * 3072
        path = tmp_path / "bad.bin"
        path.write_bytes(record)
        with pytest.raises(ValueError, match="label"):
            load_cifar10_binary(path)

    @pytest.mark.parametrize("label", [12, 300])
    def test_writer_rejects_label_beyond_nine(self, tmp_path, label):
        # a label byte holds 0-9: 300 would wrap to 44, 12 would write a file the loader rejects
        ds = LabeledDataset(np.zeros((2, 3072)), np.array([0, label]), label + 1)
        path = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match=f"label {label} out of range 0-9"):
            write_cifar10_binary(ds, path)
        assert not path.exists()


    def test_writer_rejects_other_widths(self, tmp_path):
        path = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match="^expected 3072 features per row, got 3071$"):
            write_cifar10_binary(LabeledDataset(np.zeros((2, 3071)), np.array([0, 1]), 10), path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [1.01, -0.01])
    def test_writer_rejects_features_outside_unit_range(self, tmp_path, value):
        # each rounds to a pixel outside 0-255 (257.55 and -2.55), which a byte would wrap
        features = np.zeros((2, 3072))
        features[1, -1] = value
        path = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match=r"^features must lie in \[0, 1\]$"):
            write_cifar10_binary(LabeledDataset(features, np.array([0, 1]), 10), path)
        assert not path.exists()


class TestLabeledDataset:
    def test_label_bounds(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 3)), np.array([0, 5]), 3)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(4), np.array([0]), 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 3)), np.array([0]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.zeros((3, 4))
        features[2, 1] = bad
        with pytest.raises(ValueError, match="features must be finite, got NaN or infinity"):
            LabeledDataset(features, np.array([0, 1, 1]), 2)

    def test_non_finite_in_last_block_rejected(self):
        features = np.zeros((3 * (BLOCK_BYTES // 32) + 7, 4))
        assert len(row_blocks(features)) == 4
        features[-1, 3] = np.nan
        with pytest.raises(ValueError, match="features must be finite, got NaN or infinity"):
            LabeledDataset(features, np.zeros(len(features), dtype=np.int64), 1)

    @pytest.mark.parametrize("shape", [(0, 3), (5, 0), (9, 3), (3 * (BLOCK_BYTES // 24) + 1, 3)])
    def test_row_blocks_cover_every_row_once(self, shape):
        x = np.zeros(shape)
        blocks = row_blocks(x)
        assert [i for b in blocks for i in range(len(x))[b]] == list(range(len(x)))
        assert all(x[b].nbytes <= max(BLOCK_BYTES, x[:1].nbytes) for b in blocks)


class TestClassIndex:
    @given(labels=st.lists(st.integers(0, 30), max_size=200), extra=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_groups_labels_by_class(self, labels, extra):
        # sparse labels leave interior classes empty; extra > 0 adds empty classes at the end
        labels = np.array(labels, dtype=np.int64)
        num_classes = int(labels.max(initial=-1)) + 1 + extra
        index = ClassIndex.from_labels(labels, num_classes)
        counts = np.bincount(labels, minlength=num_classes)
        assert index.num_classes == num_classes
        assert index.total == labels.size
        assert np.array_equal(index.counts, counts)
        for k in range(num_classes):
            assert index.offsets[k] == counts[:k].sum()
            assert np.array_equal(index.members(k), np.flatnonzero(labels == k))

    @given(counts=st.lists(st.integers(1, 30), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_from_counts_is_from_labels(self, counts):
        # the index of the class-ordered labels, dtypes included
        want = ClassIndex.from_labels(np.repeat(np.arange(len(counts)), counts), len(counts))
        index = ClassIndex.from_counts(counts)
        for got, ref in ((index.flat, want.flat), (index.counts, want.counts)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "counts,shown", [([2.5, 3], "2.5"), ([2, True], "True"), ([3, np.bool_(True)], "np.True_"), ([2, "3"], "'3'")]
    )
    def test_from_counts_rejects_non_integer_count(self, counts, shown):
        # np.asarray(counts, dtype=np.int64) would truncate 2.5 to 2
        with pytest.raises(ValueError) as excinfo:
            ClassIndex.from_counts(counts)
        assert str(excinfo.value) == f"class count must be an integer, got {shown}"

    def test_from_counts_takes_numpy_integers(self):
        index = ClassIndex.from_counts([np.int64(2), np.uint8(3), 4])
        assert index.counts.tolist() == [2, 3, 4] and index.flat.tolist() == list(range(9))

    @pytest.mark.parametrize("labels", [[0, -1, 1], [0, 3, 1]])
    def test_rejects_labels_outside_range(self, labels):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            ClassIndex.from_labels(np.array(labels), 3)


class TestKinds:
    """One kind table: json_value checks a value's kind with require_kind, in the same words."""

    @pytest.mark.parametrize(
        "value,kind,message",
        [
            (True, int, "x must be an integer, got True"),
            (2.5, int, "x must be an integer, got 2.5"),
            (True, float, "x must be a number, got True"),
            ("1", float, "x must be a number, got '1'"),
            (1, str, "x must be a string, got 1"),
            ({}, list, "x must be a list, got {}"),
            ([], dict, "x must be an object, got []"),
        ],
    )
    def test_json_value_and_require_kind_agree(self, value, kind, message):
        for check in (longtail.json_value, longtail.require_kind):
            with pytest.raises(ValueError) as excinfo:
                check(value, kind, "x")
            assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "value,kind",
        [([1], list), ({"a": 1}, dict), (3, float), (np.float32(2.5), float), (np.int64(3), int), ("s", str)],
    )
    def test_json_value_and_require_kind_accept(self, value, kind):
        longtail.require_kind(value, kind, "x")
        assert longtail.json_value(value, kind, "x") is value

    @pytest.mark.parametrize("value", [np.float32("inf"), np.float16("nan")])
    def test_numpy_float_must_be_finite(self, value):
        # compared as a Python float, with no cast of the bounds to the value's precision
        with pytest.raises(ValueError) as excinfo:
            longtail.json_value(value, float, "x")
        assert str(excinfo.value) == f"x must be a finite number, got {value!r}"
