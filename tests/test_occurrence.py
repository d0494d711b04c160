import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobmix import (
    CB,
    IB,
    SamplerCombo,
    analytic_occurrence,
    balance_ratio,
    empirical_occurrence,
    labels_only_dataset,
    make_batch,
    make_rng,
)
from lobmix.mixer import MixedBatch
from lobmix.occurrence import (
    OccurrenceReport,
    OccurrenceTally,
    UnrepresentedClassError,
    default_head_set,
    parse_combo,
    write_occurrence_csv,
)


def rational_gamma(kinds, counts):
    """Independent exact-arithmetic oracle for the expected occurrence ratios."""
    total = sum(counts)
    num_classes = len(counts)

    def mass(kind):
        if kind is CB:
            return [Fraction(1, num_classes)] * num_classes
        return [Fraction(n, total) for n in counts]

    m1, m2 = mass(kinds[0]), mass(kinds[1])
    return [(a + b) / 2 for a, b in zip(m1, m2)]


class TestAnalytic:
    def test_cb_cb_uniform(self, lt_dataset):
        report = analytic_occurrence(SamplerCombo((CB, CB)), lt_dataset.class_index())
        assert np.array_equal(report.ratios, np.full(10, 0.1))
        assert report.balance_ratio == 1.0
        assert report.sample_count == 0

    def test_ib_ib_matches_class_shares(self, lt_counts, lt_dataset):
        report = analytic_occurrence(SamplerCombo((IB, IB)), lt_dataset.class_index())
        shares = np.array(list(lt_counts)) / lt_counts.total
        assert np.allclose(report.ratios, shares, rtol=0, atol=1e-15)
        assert report.balance_ratio == 10.0

    def test_ib_cb_rational_oracle(self, lt_counts, lt_dataset):
        report = analytic_occurrence(SamplerCombo((IB, CB)), lt_dataset.class_index())
        oracle = rational_gamma((IB, CB), list(lt_counts))
        assert report.ratios == pytest.approx([float(g) for g in oracle], abs=1e-15)
        assert report.ratios[0] == pytest.approx(0.172345, abs=5e-7)
        assert report.ratios[9] == pytest.approx(0.0622346, abs=5e-7)
        assert report.balance_ratio == pytest.approx(float(Fraction(3913, 1413)), abs=1e-15)
        assert abs(report.balance_ratio - 2.7693) < 0.001

    def test_sums_to_one(self, lt_dataset):
        index = lt_dataset.class_index()
        for kinds in ((IB, IB), (IB, CB), (CB, IB), (CB, CB)):
            report = analytic_occurrence(SamplerCombo(kinds), index)
            assert abs(report.ratios.sum() - 1.0) <= 1e-9

    @given(counts=st.lists(st.integers(1, 500), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_cb_cb_balance_is_exactly_one(self, counts):
        report = analytic_occurrence(SamplerCombo((CB, CB)), labels_only_dataset(counts).class_index())
        assert report.balance_ratio == 1.0

    @given(counts=st.lists(st.integers(1, 500), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_ib_ib_ordering_follows_counts(self, counts):
        report = analytic_occurrence(SamplerCombo((IB, IB)), labels_only_dataset(counts).class_index())
        assert np.array_equal(np.argsort(report.ratios, kind="stable"), np.argsort(counts, kind="stable"))

    def test_alpha_does_not_enter(self, lt_dataset):
        index = lt_dataset.class_index()
        reports = [analytic_occurrence(SamplerCombo((IB, CB), alpha), index) for alpha in (0.2, 1.0, 2.0)]
        for other in reports[1:]:
            assert np.array_equal(reports[0].ratios, other.ratios)


def single_example_batch(lam, class_i, class_j):
    return MixedBatch(
        features=np.zeros((1, 2)),
        lams=np.array([lam]),
        src=np.array([[0, 1, class_i, class_j]]),
    )


class TestEmpirical:
    def test_single_example_definition(self):
        report = empirical_occurrence([single_example_batch(0.7, 2, 5)], 10)
        expect = np.zeros(10)
        expect[2], expect[5] = 0.7, 0.3
        assert np.allclose(report.ratios, expect, rtol=0, atol=1e-15)
        assert report.sample_count == 1
        assert report.balance_ratio is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            empirical_occurrence([], 4)

    @pytest.mark.parametrize("class_i,class_j", [(0, 4), (-1, 0), (4, 1)])
    def test_class_ids_outside_tally_rejected(self, class_i, class_j):
        tally = OccurrenceTally(4)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            tally.add(single_example_batch(0.5, class_i, class_j))

    @pytest.mark.parametrize("kinds", [(IB, IB), (IB, CB), (CB, IB), (CB, CB)])
    def test_converges_to_analytic(self, kinds, lt_dataset):
        index = lt_dataset.class_index()
        n = 100_000
        batch = make_batch(lt_dataset, index, n, 1.0, kinds, make_rng(4242, "test"))
        empirical = empirical_occurrence([batch], 10)
        analytic = analytic_occurrence(SamplerCombo(kinds), index)

        lam = batch.lams
        per_example = np.zeros((n, 10))
        rows = np.arange(n)
        np.add.at(per_example, (rows, batch.src[:, 2]), lam)
        np.add.at(per_example, (rows, batch.src[:, 3]), 1.0 - lam)
        sigma = per_example.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(empirical.ratios - analytic.ratios) <= 3.0 * sigma)

    def test_alpha_converges_to_same_limit(self, lt_dataset):
        index = lt_dataset.class_index()
        analytic = analytic_occurrence(SamplerCombo((CB, CB)), index)
        for alpha, seed in ((0.2, 1), (2.0, 2)):
            batch = make_batch(lt_dataset, index, 100_000, alpha, (CB, CB), make_rng(seed, "test"))
            empirical = empirical_occurrence([batch], 10)
            assert np.all(np.abs(empirical.ratios - analytic.ratios) <= 0.005)

    def test_mass_sums_to_one(self, lt_dataset):
        index = lt_dataset.class_index()
        batch = make_batch(lt_dataset, index, 50_000, 1.0, (IB, CB), make_rng(7, "test"))
        report = empirical_occurrence([batch], 10)
        assert abs(math.fsum(report.ratios) - 1.0) <= 1e-12

    def test_tally_matches_per_class_fsum(self, lt_dataset):
        batch = make_batch(lt_dataset, lt_dataset.class_index(), 100_000, 1.0, (IB, CB), make_rng(17, "test"))
        ci, cj, lam = batch.src[:, 2], batch.src[:, 3], batch.lams
        mass = [math.fsum(lam[ci == k]) + math.fsum(1.0 - lam[cj == k]) for k in range(10)]
        expect = np.array(mass) / math.fsum(mass)
        report = empirical_occurrence([batch], 10)
        assert np.allclose(report.ratios, expect, rtol=1e-12, atol=0)

    def test_tally_merge_order_invariant(self, lt_dataset):
        index = lt_dataset.class_index()
        batches = [
            make_batch(lt_dataset, index, 5_000, 1.0, (IB, CB), make_rng(seed, "test")) for seed in (1, 2, 3)
        ]
        combined = empirical_occurrence(batches, 10)
        left = OccurrenceTally(10)
        left.add(batches[2])
        right = OccurrenceTally(10)
        right.add(batches[0])
        right.add(batches[1])
        left.merge(right)
        merged = left.report()
        assert np.array_equal(merged.ratios, combined.ratios)
        assert merged.sample_count == combined.sample_count


class TestBalanceRatio:
    def test_uniform_is_one(self):
        report = OccurrenceReport(np.full(10, 0.1), 1.0, 0)
        assert balance_ratio(report) == 1.0

    def test_analytic_ib_ib(self, lt_dataset):
        report = analytic_occurrence(SamplerCombo((IB, IB)), lt_dataset.class_index())
        assert balance_ratio(report) == 10.0

    def test_zero_entry_raises(self):
        report = empirical_occurrence([single_example_batch(0.7, 2, 5)], 10)
        with pytest.raises(UnrepresentedClassError, match="zero occurrence"):
            balance_ratio(report)


def head_incidence(batches, num_classes, head_set):
    return empirical_occurrence(batches, num_classes, head_set=head_set).head_incidence


class TestHeadLabelIncidence:
    def test_all_classes_head(self, lt_dataset):
        index = lt_dataset.class_index()
        batch = make_batch(lt_dataset, index, 1_000, 1.0, (IB, IB), make_rng(3, "test"))
        assert head_incidence([batch], 10, set(range(10))) == 1.0

    def test_ib_ib_half_mass(self):
        # head classes hold exactly half the examples: expect 1 - 0.5**2
        ds = labels_only_dataset([500, 500, 250, 250, 250, 250])
        index = ds.class_index()
        batch = make_batch(ds, index, 100_000, 1.0, (IB, IB), make_rng(11, "test"))
        incidence = head_incidence([batch], 6, {0, 1})
        assert abs(incidence - 0.75) <= 0.01

    def test_cb_cb_three_of_ten(self, lt_dataset):
        index = lt_dataset.class_index()
        batch = make_batch(lt_dataset, index, 100_000, 1.0, (CB, CB), make_rng(19, "test"))
        incidence = head_incidence([batch], 10, {0, 1, 2})
        assert abs(incidence - 0.51) <= 0.01

    def test_validation(self, lt_dataset):
        index = lt_dataset.class_index()
        batch = make_batch(lt_dataset, index, 10, 1.0, (IB, IB), make_rng(3, "test"))
        with pytest.raises(ValueError, match="head set"):
            head_incidence([batch], 10, set())
        with pytest.raises(ValueError, match="no mixed examples"):
            head_incidence([], 10, {0})

    def test_report_field_only_with_head_set(self, lt_dataset):
        index = lt_dataset.class_index()
        batch = make_batch(lt_dataset, index, 1_000, 1.0, (IB, IB), make_rng(3, "test"))
        bare = empirical_occurrence([batch], 10)
        assert bare.head_incidence is None
        with_head = empirical_occurrence([batch], 10, head_set={0, 1})
        assert with_head.head_incidence is not None


class TestHelpers:
    def test_default_head_set(self, lt_counts):
        assert default_head_set(lt_counts) == frozenset({0, 1, 2, 3, 4})

    def test_parse_combo(self):
        combo = parse_combo("ib-cb", alpha=0.5)
        assert combo.kinds == (IB, CB)
        assert combo.alpha == 0.5
        assert combo.name == "ib-cb"

    def test_csv_emission(self, tmp_path, lt_counts, lt_dataset):
        index = lt_dataset.class_index()
        analytic = analytic_occurrence(SamplerCombo((IB, CB)), index)
        batch = make_batch(lt_dataset, index, 2_000, 1.0, (IB, CB), make_rng(5, "test"))
        empirical = empirical_occurrence([batch], 10)
        path = tmp_path / "occurrence.csv"
        write_occurrence_csv(path, list(lt_counts), analytic, empirical)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "n_k", "gamma_analytic", "gamma_empirical"]
        assert len(rows) == 11
        assert rows[1][1] == "5000"
        assert float(rows[1][2]) == pytest.approx(0.172345, abs=1e-6)

    def test_csv_analytic_only(self, tmp_path, lt_counts, lt_dataset):
        analytic = analytic_occurrence(SamplerCombo((CB, CB)), lt_dataset.class_index())
        path = tmp_path / "occurrence.csv"
        write_occurrence_csv(path, list(lt_counts), analytic, None)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert all(row[3] == "" for row in rows[1:])
