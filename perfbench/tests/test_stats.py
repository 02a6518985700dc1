import numpy as np
import pytest

from stats import geomean, median, percentile, reportable


def test_percentile_matches_numpy():
    values = np.random.default_rng(0).exponential(size=137)
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, 100 * q))
    assert median([3, 1, 2]) == 2


def test_tail_needs_ten_samples_beyond():
    assert reportable(1000, 0.99)
    assert not reportable(999, 0.99)
    assert reportable(100, 0.9)
    assert not reportable(99, 0.9)
    assert not reportable(90, 0.99)
    assert reportable(20, 0.5)


def test_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
