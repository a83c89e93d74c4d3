"""The tail rule: a percentile is reported only with ten samples beyond it."""

import pytest

from perfbench.stats import median, percentile, tail_percentile


@pytest.mark.parametrize(
    "count, expected",
    [(5000, 99), (1000, 99), (999, 90), (100, 90), (99, 50), (20, 50), (19, None), (0, None)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert median(values) == 2.5
    assert percentile(list(range(101)), 99) == 99


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)
