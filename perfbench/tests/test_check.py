"""The independent output checker agrees with ``repro`` and catches bad output."""

import numpy as np
import pytest

from check import check_record, envelope_bandwidth, fiedler_residuals, is_permutation
from repro.envelope.metrics import bandwidth, envelope_size
from repro.orderings.spectral import spectral_ordering
from repro.sparse.pattern import SymmetricPattern


def random_pattern(rng, n, density, components=1):
    """Random symmetric pattern; with ``components > 1`` the vertex set is cut
    into blocks with no edges between them, plus a few isolated vertices."""
    rows, cols = [], []
    blocks = np.array_split(rng.permutation(n), components)
    for block in blocks:
        m = block.size
        if m < 2:
            continue
        count = max(1, int(density * m * m))
        a, b = block[rng.integers(0, m, count)], block[rng.integers(0, m, count)]
        chain = block[:-1], block[1:]  # keeps each block connected
        rows.extend([a, chain[0]])
        cols.extend([b, chain[1]])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    keep = rows != cols
    pairs = np.unique(np.concatenate([np.stack([rows[keep], cols[keep]], 1),
                                      np.stack([cols[keep], rows[keep]], 1)]), axis=0)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(pairs[:, 0], minlength=n))))
    return SymmetricPattern(n, indptr, pairs[:, 1])


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("components", [1, 3])
def test_envelope_and_bandwidth_match_library(seed, components):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    pattern = random_pattern(rng, n, 0.05, components)
    for perm in (np.arange(n), rng.permutation(n)):
        got = envelope_bandwidth(pattern.indptr, pattern.indices, perm)
        assert got == (envelope_size(pattern, perm), bandwidth(pattern, perm))


def test_edgeless_pattern():
    pattern = SymmetricPattern(4, np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert envelope_bandwidth(pattern.indptr, pattern.indices, np.arange(4)) == (0, 0)


def test_is_permutation():
    assert is_permutation(np.array([2, 0, 1]), 3)
    assert not is_permutation(np.array([0, 0, 1]), 3)
    assert not is_permutation(np.array([0, 1, 3]), 3)
    assert not is_permutation(np.array([0, 1]), 3)
    assert not is_permutation(np.array([0.0, 1.0, 2.0]), 3)


def test_wrong_metrics_are_reported():
    pattern = random_pattern(np.random.default_rng(3), 30, 0.1)
    perm = np.arange(30)
    envelope, band = envelope_bandwidth(pattern.indptr, pattern.indices, perm)
    good = {"envelope_size": envelope, "bandwidth": band}
    assert check_record(pattern.indptr, pattern.indices, 30, perm, good) == ([], [])
    found, _ = check_record(pattern.indptr, pattern.indices, 30, perm,
                            dict(good, envelope_size=envelope + 1))
    assert found and "envelope_size" in found[0]
    found, _ = check_record(pattern.indptr, pattern.indices, 30, perm[::-1][:29], good)
    assert found == ["ordering is not a permutation of range(n)"]


@pytest.mark.parametrize("components", [1, 3])
def test_fiedler_residuals_of_spectral_ordering(components):
    pattern = random_pattern(np.random.default_rng(7), 120, 0.04, components)
    ordering = spectral_ordering(pattern, rng=0)
    details = ordering.metadata["components"]
    residuals = fiedler_residuals(pattern.indptr, pattern.indices, pattern.n, details)
    assert len(residuals) == len(details) >= 1
    assert max(residuals) < 1e-6
    spoiled = [dict(d, fiedler_value=d["fiedler_value"] + 0.5) for d in details]
    assert max(fiedler_residuals(pattern.indptr, pattern.indices, pattern.n, spoiled)) > 1e-3


def test_fiedler_metadata_must_match_components():
    pattern = random_pattern(np.random.default_rng(8), 60, 0.05, 3)
    details = spectral_ordering(pattern, rng=0).metadata["components"]
    with pytest.raises(ValueError):
        fiedler_residuals(pattern.indptr, pattern.indices, pattern.n, details[:-1])
