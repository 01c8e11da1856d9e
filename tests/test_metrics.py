"""Tests for the metrics package."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import percentile, percentile_summary


# -- percentile ---------------------------------------------------------------

def test_percentile_basics():
    data = list(range(1, 101))
    assert percentile(data, 0) == 1
    assert percentile(data, 100) == 100
    assert percentile(data, 50) == pytest.approx(50.5)


def test_percentile_single_value():
    assert percentile([7.0], 99) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
       st.floats(0, 100))
def test_percentile_within_range(data, q):
    value = percentile(data, q)
    assert min(data) <= value <= max(data)


def test_percentile_summary_labels():
    summary = percentile_summary([1.0, 2.0, 3.0])
    assert set(summary) == {"avg", "P50", "P90", "P99", "P999", "P9999"}
    assert summary["avg"] == pytest.approx(2.0)


def test_percentile_summary_empty():
    assert percentile_summary([])["P99"] == 0.0
