"""Confusion/UAR math, result tables, duration histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbekit.corpus import CorpusManifest, Sample
from bbekit.errors import ConfigError, InputError, LabelError, MetricError, ReportError
from bbekit.metrics import (
    ConfusionMatrix,
    confusion,
    duration_histogram,
    histogram_csv,
    report,
    uar,
)


def dummy_manifest(durations):
    samples = [Sample(f"f{i}", "anger", 3, "s", "c", None, d)
               for i, d in enumerate(durations)]
    return CorpusManifest("c", samples)


class TestConfusion:
    def test_documented_example(self):
        # preds [0,1,0] vs labels [0,1,1]: one miss of class 1 into class 0
        cm = confusion([0, 1, 0], [0, 1, 1], n_classes=2)
        assert np.array_equal(cm.counts, [[1, 0], [1, 1]])

    def test_perfect_predictions_are_diagonal(self):
        labels = [0, 1, 2, 2, 1, 0]
        cm = confusion(labels, labels, n_classes=3)
        assert np.array_equal(cm.counts, np.diag([2, 2, 2]))

    def test_empty_inputs_give_zero_matrix(self):
        cm = confusion([], [], n_classes=4)
        assert np.array_equal(cm.counts, np.zeros((4, 4)))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            confusion([0, 1], [0], n_classes=2)

    def test_out_of_range_classes(self):
        with pytest.raises(LabelError):
            confusion([2], [0], n_classes=2)
        with pytest.raises(LabelError):
            confusion([0], [-1], n_classes=2)

    def test_bad_n_classes(self):
        with pytest.raises(ConfigError):
            confusion([], [], n_classes=0)

    def test_matrix_validation(self):
        with pytest.raises(InputError):
            ConfusionMatrix(np.zeros((2, 3)))
        with pytest.raises(InputError):
            ConfusionMatrix(np.array([[1, -1], [0, 0]]))

    def test_row_is_true_class(self):
        cm = confusion([1], [0], n_classes=2)
        assert cm.counts[0, 1] == 1  # true 0 predicted as 1


class TestUar:
    def test_diagonal_is_one(self):
        assert uar(ConfusionMatrix(np.diag([3, 1, 7]))) == 1.0

    def test_documented_example(self):
        # recalls 2/2 and 1/2 -> (1.0 + 0.5) / 2 = 0.75
        assert uar(ConfusionMatrix([[2, 0], [1, 1]])) == 0.75

    def test_zero_support_class_excluded(self):
        # class 1 never occurs; mean over the present classes only
        cm = ConfusionMatrix([[3, 0, 0], [0, 0, 0], [0, 0, 2]])
        assert uar(cm) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(MetricError):
            uar(ConfusionMatrix(np.zeros((3, 3))))

    def test_constant_predictor_on_balanced_labels(self):
        preds = [0] * 12
        labels = [0, 1, 2] * 4
        assert uar(confusion(preds, labels, 3)) == pytest.approx(1.0 / 3.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 6),
           n=st.integers(1, 60))
    def test_matches_independent_recall_mean(self, seed, n_classes, n):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_classes, n).tolist()
        preds = rng.integers(0, n_classes, n).tolist()
        got = uar(confusion(preds, labels, n_classes))
        recalls = []
        for c in range(n_classes):
            hits = sum(1 for p, t in zip(preds, labels) if t == c and p == c)
            total = labels.count(c)
            if total:
                recalls.append(hits / total)
        assert got == pytest.approx(float(np.mean(recalls)), abs=1e-12)

    def test_invariant_to_sample_order(self):
        preds = [0, 1, 2, 0, 1]
        labels = [0, 2, 2, 1, 1]
        base = uar(confusion(preds, labels, 3))
        perm = np.random.default_rng(0).permutation(5)
        shuffled = uar(confusion([preds[i] for i in perm], [labels[i] for i in perm], 3))
        assert base == shuffled

    def test_equals_accuracy_when_balanced(self):
        rng = np.random.default_rng(123)
        labels = [0, 1, 2] * 10
        preds = rng.integers(0, 3, 30).tolist()
        cm = confusion(preds, labels, 3)
        # every class has identical support, so the recall mean collapses
        # to plain accuracy
        accuracy = cm.counts.diagonal().sum() / cm.counts.sum()
        assert uar(cm) == pytest.approx(accuracy, abs=1e-12)

    def test_duplicating_every_sample_preserves_uar(self):
        preds = [0, 1, 1, 2]
        labels = [0, 1, 2, 2]
        once = uar(confusion(preds, labels, 3))
        twice = uar(confusion(preds * 2, labels * 2, 3))
        assert once == pytest.approx(twice, abs=1e-15)


class TestReport:
    def test_single_cell(self):
        text, csv = report({"c0": {"base": 0.5}})
        assert csv == "corpus,base\nc0,50.0*\nAVERAGE,50.0*\n"
        assert "c0" in text and "50.0*" in text

    def test_average_row(self):
        _, csv = report({"a": {"m": 0.6}, "b": {"m": 0.8}})
        lines = csv.strip().splitlines()
        assert lines[-1] == "AVERAGE,70.0*"

    def test_best_variant_starred_per_row(self):
        _, csv = report({
            "a": {"base": 0.50, "exp": 0.75},
            "b": {"base": 0.90, "exp": 0.40},
        })
        lines = csv.strip().splitlines()
        assert lines[0] == "corpus,base,exp"
        assert lines[1] == "a,50.0,75.0*"
        assert lines[2] == "b,90.0*,40.0"
        # averages: base 0.70, exp 0.575
        assert lines[3] == "AVERAGE,70.0*,57.5"

    def test_ties_star_all(self):
        _, csv = report({"a": {"x": 0.5, "y": 0.5}})
        assert csv.strip().splitlines()[1] == "a,50.0*,50.0*"

    def test_star_decided_on_raw_values(self):
        # 0.5004 and 0.5001 both print as 50.0 but only the former wins
        _, csv = report({"a": {"x": 0.5004, "y": 0.5001}})
        assert csv.strip().splitlines()[1] == "a,50.0*,50.0"

    def test_text_table_alignment(self):
        text, _ = report({"long-corpus-name": {"base": 1.0}})
        lines = text.splitlines()
        assert lines[1].startswith("long-corpus-name")
        assert lines[2].startswith("AVERAGE")

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            report({})

    def test_no_variants_rejected(self):
        with pytest.raises(ReportError):
            report({"a": {}})

    def test_ragged_variants_rejected(self):
        with pytest.raises(ReportError):
            report({"a": {"x": 0.5}, "b": {"y": 0.5}})


class TestDurationHistogram:
    def test_documented_example(self):
        # durations 0.5, 1.5, 1.6 at width 1: one in [0,1), two in [1,2)
        bins = duration_histogram([dummy_manifest([0.5, 1.5, 1.6])])
        assert bins[0.0] == 1
        assert bins[1.0] == 2
        assert sum(bins.values()) == 3

    def test_bins_cover_zero_to_cap(self):
        bins = duration_histogram([dummy_manifest([])])
        assert sorted(bins) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert all(v == 0 for v in bins.values())

    def test_overflow_bin(self):
        bins = duration_histogram([dummy_manifest([6.0, 7.5, 100.0, 5.99])])
        assert bins[6.0] == 3
        assert bins[5.0] == 1

    def test_multiple_manifests_pool(self):
        bins = duration_histogram([dummy_manifest([0.1]), dummy_manifest([0.2, 3.3])])
        assert bins[0.0] == 2
        assert bins[3.0] == 1

    def test_negative_duration_rejected(self):
        with pytest.raises(InputError):
            duration_histogram([dummy_manifest([-1.0])])

    def test_csv_layout(self):
        bins = duration_histogram([dummy_manifest([0.5, 1.5, 1.6, 9.0])])
        csv = histogram_csv(bins)
        lines = csv.strip().splitlines()
        assert lines[0] == "bin_start_s,count"
        assert lines[1] == "0,1"
        assert lines[2] == "1,2"
        assert lines[-1] == "6,1"
