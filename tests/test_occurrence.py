import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobmix import (
    CB,
    COMBOS,
    IB,
    ClassIndex,
    analytic_occurrence,
    draw_pairs,
    empirical_occurrence,
    make_rng,
)
from lobmix import occurrence
from lobmix.occurrence import measure_combos
from lobmix.trainer import default_groups

from conftest import labels_only_dataset


def rational_gamma(kinds, counts):
    """Independent exact-arithmetic oracle for the expected occurrence ratios; one kind's are its masses."""
    total = sum(counts)
    num_classes = len(counts)

    def mass(kind):
        if kind == CB:
            return [Fraction(1, num_classes)] * num_classes
        if kind == IB:
            return [Fraction(n, total) for n in counts]
        raise ValueError(f"no occurrence oracle for sampler kind {kind!r}")

    if len(kinds) == 1:
        return mass(kinds[0])
    m1, m2 = mass(kinds[0]), mass(kinds[1])
    return [(a + b) / 2 for a, b in zip(m1, m2)]


class TestAnalytic:
    def test_cb_cb_uniform(self, lt_dataset):
        report = analytic_occurrence((CB, CB), lt_dataset.class_index())
        assert np.array_equal(report.ratios, np.full(10, 0.1))
        assert report.balance_ratio == 1.0
        assert report.sample_count == 0

    @pytest.mark.parametrize("kinds", [(IB, IB), (CB,), (IB, CB)])
    def test_empty_class_rejected(self, kinds):
        index = ClassIndex.from_labels(np.array([0, 0, 0, 2, 2]), 3)  # class 1 is empty
        with pytest.raises(ValueError, match="^analytic occurrence requires every class to be populated$"):
            analytic_occurrence(kinds, index)

    def test_ib_ib_matches_class_shares(self, lt_counts, lt_dataset):
        report = analytic_occurrence((IB, IB), lt_dataset.class_index())
        shares = np.array(list(lt_counts)) / sum(lt_counts)
        assert np.allclose(report.ratios, shares, rtol=0, atol=1e-15)
        assert report.balance_ratio == 10.0

    def test_ib_cb_rational_oracle(self, lt_counts, lt_dataset):
        report = analytic_occurrence((IB, CB), lt_dataset.class_index())
        oracle = rational_gamma((IB, CB), list(lt_counts))
        assert report.ratios.tolist() == [float(g) for g in oracle]
        assert report.ratios[0] == pytest.approx(0.172345, abs=5e-7)
        assert report.ratios[9] == pytest.approx(0.0622346, abs=5e-7)
        assert max(oracle) / min(oracle) == Fraction(3913, 1413)
        assert report.balance_ratio == float(Fraction(3913, 1413))
        assert abs(report.balance_ratio - 2.7693) < 0.001

    @given(
        counts=st.lists(st.integers(1, 10**9), min_size=2, max_size=2000),
        kinds=st.sampled_from([(IB, IB), (IB, CB), (CB, IB), (CB, CB), (IB,), (CB,)]),
    )
    @example(counts=[10**9 - 7 * k for k in range(2000)], kinds=(CB, IB))
    @example(counts=[10**9 - 7 * k for k in range(2000)], kinds=(IB,))  # one kind is an unmixed draw
    @example(counts=[3, 1, 1], kinds=(CB,))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_rational_oracle(self, counts, kinds):
        # every ratio is the float nearest its rational value, as float(Fraction) gives it;
        # the oracle reads the counts only, so the index holds no 10**12 example ids
        report = analytic_occurrence(kinds, ClassIndex(np.empty(0, dtype=np.int64), np.asarray(counts)))
        oracle = rational_gamma(kinds, counts)
        assert report.ratios.tolist() == [float(g) for g in oracle]  # equal positive floats have equal bits
        assert report.balance_ratio == float(max(oracle) / min(oracle))

    def test_sums_to_one(self, lt_dataset):
        index = lt_dataset.class_index()
        for kinds in ((IB, IB), (IB, CB), (CB, IB), (CB, CB)):
            report = analytic_occurrence(kinds, index)
            assert abs(report.ratios.sum() - 1.0) <= 1e-9

    @given(counts=st.lists(st.integers(1, 500), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_cb_cb_balance_is_exactly_one(self, counts):
        report = analytic_occurrence((CB, CB), labels_only_dataset(counts).class_index())
        assert report.balance_ratio == 1.0

    @given(counts=st.lists(st.integers(1, 500), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_ib_ib_ordering_follows_counts(self, counts):
        report = analytic_occurrence((IB, IB), labels_only_dataset(counts).class_index())
        assert np.array_equal(np.argsort(report.ratios, kind="stable"), np.argsort(counts, kind="stable"))



def single_example(lam, class_i, class_j):
    """``(c_i, c_j, lam)`` of one mixed row."""
    return np.array([class_i]), np.array([class_j]), np.array([lam])


def drawn_classes(ds, size, alpha, kinds, rng):
    """``(c_i, c_j, lam)`` of ``size`` rows drawn by ``draw_pairs``."""
    i, j, lam = draw_pairs(kinds, ds.class_index(), alpha, rng, size)
    return ds.labels[i], ds.labels[j], lam


class TestEmpirical:
    def test_single_example_definition(self):
        report = empirical_occurrence(*single_example(0.7, 2, 5), 10)
        expect = np.zeros(10)
        expect[2], expect[5] = 0.7, 0.3
        assert np.allclose(report.ratios, expect, rtol=0, atol=1e-15)
        assert report.sample_count == 1
        assert report.balance_ratio is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no mixed examples"):
            empirical_occurrence(np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([]), 4)

    @pytest.mark.parametrize("class_i,class_j", [(0, 4), (-1, 0), (4, 1)])
    def test_class_ids_outside_tally_rejected(self, class_i, class_j):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            empirical_occurrence(*single_example(0.5, class_i, class_j), 4)

    @pytest.mark.parametrize("kinds", [(IB, IB), (IB, CB), (CB, IB), (CB, CB)])
    def test_converges_to_analytic(self, kinds, lt_dataset):
        index = lt_dataset.class_index()
        n = 100_000
        c_i, c_j, lam = drawn_classes(lt_dataset, n, 1.0, kinds, make_rng(4242, "test"))
        empirical = empirical_occurrence(c_i, c_j, lam, 10)
        analytic = analytic_occurrence(kinds, index)

        per_example = np.zeros((n, 10))
        rows = np.arange(n)
        np.add.at(per_example, (rows, c_i), lam)
        np.add.at(per_example, (rows, c_j), 1.0 - lam)
        sigma = per_example.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(empirical.ratios - analytic.ratios) <= 3.0 * sigma)

    def test_alpha_converges_to_same_limit(self, lt_dataset):
        index = lt_dataset.class_index()
        analytic = analytic_occurrence((CB, CB), index)
        for alpha, seed in ((0.2, 1), (2.0, 2)):
            empirical = empirical_occurrence(*drawn_classes(lt_dataset, 100_000, alpha, (CB, CB), make_rng(seed, "test")), 10)
            assert np.all(np.abs(empirical.ratios - analytic.ratios) <= 0.005)

    def test_mass_sums_to_one(self, lt_dataset):
        report = empirical_occurrence(*drawn_classes(lt_dataset, 50_000, 1.0, (IB, CB), make_rng(7, "test")), 10)
        assert abs(math.fsum(report.ratios) - 1.0) <= 1e-12

    def test_tally_matches_per_class_fsum(self, lt_dataset):
        ci, cj, lam = drawn_classes(lt_dataset, 100_000, 1.0, (IB, CB), make_rng(17, "test"))
        mass = [math.fsum(lam[ci == k]) + math.fsum(1.0 - lam[cj == k]) for k in range(10)]
        expect = np.array(mass) / math.fsum(mass)
        report = empirical_occurrence(ci, cj, lam, 10)
        assert np.allclose(report.ratios, expect, rtol=1e-12, atol=0)


class TestBalanceRatio:
    def test_uniform_is_one(self):
        report = empirical_occurrence(np.arange(10), np.arange(10), np.full(10, 0.5), 10)
        assert np.array_equal(report.ratios, np.full(10, 0.1))
        assert report.balance_ratio == 1.0

    def test_analytic_ib_ib(self, lt_dataset):
        report = analytic_occurrence((IB, IB), lt_dataset.class_index())
        assert report.balance_ratio == 10.0

    def test_zero_entry_is_unbalanced(self):
        report = empirical_occurrence(*single_example(0.7, 2, 5), 10)
        assert report.ratios[0] == 0.0
        assert report.balance_ratio is None
        assert report.to_dict()["balance_ratio"] is None


def head_incidence(rows, num_classes, head):
    return empirical_occurrence(*rows, num_classes, head=head).head_incidence


class TestHeadLabelIncidence:
    def test_all_classes_head(self, lt_dataset):
        rows = drawn_classes(lt_dataset, 1_000, 1.0, (IB, IB), make_rng(3, "test"))
        assert head_incidence(rows, 10, np.ones(10, dtype=bool)) == 1.0

    def test_ib_ib_half_mass(self):
        # head classes hold exactly half the examples: expect 1 - 0.5**2
        ds = labels_only_dataset([500, 500, 250, 250, 250, 250])
        rows = drawn_classes(ds, 100_000, 1.0, (IB, IB), make_rng(11, "test"))
        incidence = head_incidence(rows, 6, np.arange(6) < 2)
        assert abs(incidence - 0.75) <= 0.01

    def test_cb_cb_three_of_ten(self, lt_dataset):
        rows = drawn_classes(lt_dataset, 100_000, 1.0, (CB, CB), make_rng(19, "test"))
        incidence = head_incidence(rows, 10, np.arange(10) < 3)
        assert abs(incidence - 0.51) <= 0.01

    def test_validation(self, lt_dataset):
        rows = drawn_classes(lt_dataset, 10, 1.0, (IB, IB), make_rng(3, "test"))
        with pytest.raises(ValueError, match="head"):
            head_incidence(rows, 10, np.zeros(10, dtype=bool))
        empty = (np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(ValueError, match="no mixed examples"):
            head_incidence(empty, 10, np.arange(10) == 0)

    @pytest.mark.parametrize(
        "head",
        [
            np.array([0, 1, 2, 3]),  # class ids, the old head-set spelling
            (np.arange(10) < 4).astype(np.int64),  # 0/1 ints of the right length would index classes 0 and 1
            (np.arange(10) < 4).astype(np.float64),
            np.ones(9, dtype=bool),
            np.ones(11, dtype=bool),
            np.ones((1, 10), dtype=bool),
            np.zeros(10, dtype=bool),
        ],
    )
    def test_head_must_be_a_class_mask(self, lt_dataset, head):
        rows = drawn_classes(lt_dataset, 10, 1.0, (IB, IB), make_rng(3, "test"))
        with pytest.raises(ValueError, match="boolean mask of 10 classes"):
            head_incidence(rows, 10, head)

    def test_report_field_only_with_head_set(self, lt_dataset):
        rows = drawn_classes(lt_dataset, 1_000, 1.0, (IB, IB), make_rng(3, "test"))
        bare = empirical_occurrence(*rows, 10)
        assert bare.head_incidence is None
        with_head = empirical_occurrence(*rows, 10, head=np.arange(10) < 2)
        assert with_head.head_incidence is not None


class TestHelpers:
    def test_default_head_set(self, lt_counts):
        # analyze's head mask: the classes default_groups puts in group 0 ("head"), the largest ceil(C/3)
        head = default_groups(lt_counts) == 0
        assert head.tolist() == [True] * 4 + [False] * 6

    def test_combos(self):
        assert (IB, CB) == ("ib", "cb")
        assert list(COMBOS.items()) == [("ib-ib", ("ib", "ib")), ("ib-cb", ("ib", "cb")), ("cb-cb", ("cb", "cb"))]


class TestMeasureCombos:
    @given(counts=st.lists(st.integers(1, 30), min_size=2, max_size=12))
    # measure_combos looks labels up as uint8 up to 256 classes and as uint16 beyond: one fixed case of each
    @example(counts=[9, 2, 5])
    @example(counts=[1 + k % 7 for k in range(300)])
    @settings(max_examples=100, deadline=None)
    def test_index_from_counts_is_the_stable_sort(self, counts):
        # measure_combos builds its class index from the counts, without a sort; it must be the
        # index of the class-ordered labels, dtypes included, so its draws are those of that index
        labels = np.repeat(np.arange(len(counts)), counts)
        want = ClassIndex.from_labels(labels, len(counts))
        seen = []

        def spy(kinds, index, *args):
            seen.append(index)
            return draw_pairs(kinds, index, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(occurrence, "draw_pairs", spy)
            results = measure_combos(counts, 1.0, 3, 64)
        assert [name for name, _, _ in results] == list(COMBOS) and len(seen) == len(COMBOS)
        for index, (name, _, empirical) in zip(seen, results):
            for got, ref in ((index.flat, want.flat), (index.counts, want.counts)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            i, j, lam = draw_pairs(COMBOS[name], want, 1.0, make_rng(3, "analyze:" + name), 64)
            oracle = empirical_occurrence(labels[i], labels[j], lam, len(counts), head=default_groups(counts) == 0)
            assert empirical.ratios.tobytes() == oracle.ratios.tobytes()
            assert empirical.head_incidence == oracle.head_incidence
