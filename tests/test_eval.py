import numpy as np
import pytest

from litterscan.evaluation import confusion, format_report, metrics

# Published confusion matrices, printed row-major with rows = output class
# and columns = target class: (output0,target0), (output0,target1),
# (output1,target0), (output1,target1).
TRAINING_MATRIX = {"tn": 375070, "fn": 4709, "fp": 4399, "tp": 71102}
TEST_MATRIX = {"tn": 80231, "fn": 991, "fp": 914, "tp": 15424}


def test_confusion_identity():
    assert confusion([0, 1, 0, 1], [0, 1, 0, 1]) == {"tn": 2, "fp": 0, "fn": 0, "tp": 2}


def test_confusion_all_false_alarms():
    assert confusion([1] * 5, [0] * 5) == {"tn": 0, "fp": 5, "fn": 0, "tp": 0}


def test_confusion_matches_counting_oracle():
    rng = np.random.default_rng(0)
    p = rng.integers(0, 2, size=1000)
    t = rng.integers(0, 2, size=1000)
    m = confusion(p, t)
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for pi, ti in zip(p, t):
        counts[(int(ti), int(pi))] += 1
    assert m == {"tn": counts[(0, 0)], "fp": counts[(0, 1)],
                 "fn": counts[(1, 0)], "tp": counts[(1, 1)]}


def test_confusion_accepts_masks():
    a = np.array([[False, True], [True, False]])
    m = confusion(a, a)
    assert metrics(m)["accuracy"] == 1.0


def test_swap_transposes():
    rng = np.random.default_rng(1)
    p = rng.integers(0, 2, size=500)
    t = rng.integers(0, 2, size=500)
    a, b = confusion(p, t), confusion(t, p)
    assert (a["tn"], a["tp"]) == (b["tn"], b["tp"])
    assert (a["fp"], a["fn"]) == (b["fn"], b["fp"])


def test_perfect_matrix():
    r = metrics({"tn": 10, "fp": 0, "fn": 0, "tp": 5})
    assert r["accuracy"] == 1.0
    assert r["error_rate"] == 0.0


def test_cell_percentages_sum_to_100():
    r = metrics(TEST_MATRIX)
    assert sum(r["cell_percent"].values()) == pytest.approx(100.0)


def test_published_test_matrix():
    r = metrics(TEST_MATRIX)
    assert r["accuracy"] == pytest.approx(0.9805, abs=5e-4)
    assert 100 * r["error_rate"] == pytest.approx(2.0, abs=0.1)
    assert 100 * r["recall"][1] == pytest.approx(94.0, abs=0.1)


def test_published_training_matrix():
    r = metrics(TRAINING_MATRIX)
    assert 100 * r["recall"][1] == pytest.approx(93.8, abs=0.1)
    assert 100 * r["precision"][1] == pytest.approx(94.2, abs=0.1)
    assert 100 * r["accuracy"] == pytest.approx(98.0, abs=0.1)


def test_metrics_counts_round_trip():
    r = metrics(TRAINING_MATRIX)
    assert r["counts"] == {"tn": 375070, "fp": 4399, "fn": 4709, "tp": 71102}
    assert r["total"] == 455280
    # TRAINING_MATRIX lists tn, fn, fp, tp: a metrics file lists the cells in
    # one order whatever order its counts came in
    assert list(r["counts"]) == list(r["cell_percent"]) == ["tn", "fp", "fn", "tp"]


def test_format_report_contains_summary():
    text = format_report(TEST_MATRIX)
    assert "98.0%" in text
    assert "2.0%" in text
    assert "80231" in text


def test_rates_with_zero_denominator_are_none():
    m = {"tn": 16, "fp": 0, "fn": 0, "tp": 0}
    r = metrics(m)
    assert r["recall"] == [1.0, None] and r["precision"] == [1.0, None]
    lines = format_report(m).splitlines()
    assert lines[2].endswith("   n/a") and "n/a" in lines[3]
