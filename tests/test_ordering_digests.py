"""Digests pin the GPS, GK and King orderings at sizes where levels are wide.

The golden suites run at scales 0.02 and 0.0003 and the kernel identity
tests at n up to about 2k, where a level holds a few dozen vertices.  The
level-numbering heap only goes deep on wide levels, so the digests in
``fixtures/ordering_digests.json`` pin the three level-numbered orderings of
every paper problem at scales 0.1 and 0.25 and of each random family at
0.01 (n up to 21k).  They were recorded from the numbering that the list
heap of :func:`repro.orderings.gps.number_by_levels` replaced, so a match
means the orderings are bit-identical.  Run with ``PYTHONPATH=src python -m
pytest -q tests/test_ordering_digests.py`` (the 0.25 half is marked slow).
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.collections.registry import available_problems, load_problem
from repro.orderings.registry import get_ordering_algorithm

DIGESTS_PATH = Path(__file__).parent / "fixtures" / "ordering_digests.json"

#: The orderings built on :func:`repro.orderings.gps.number_by_levels`.
ALGORITHMS = ("gk", "gps", "king")

#: Problem cases: every paper problem at 0.1 and 0.25, each random family at 0.01.
FAST_CASES = [(problem, 0.1) for problem in available_problems(paper_order=True)]
FAST_CASES += [(problem, 0.01) for problem in available_problems("random", paper_order=True)]
SLOW_CASES = [(problem, 0.25) for problem in available_problems(paper_order=True)]


def case_id(problem: str, scale: float, algorithm: str) -> str:
    return f"{algorithm}/{problem}@{scale:g}"


def permutation_digest(perm) -> str:
    """sha256 of the new-to-old permutation as little-endian int64."""
    return hashlib.sha256(np.ascontiguousarray(perm, dtype="<i8").tobytes()).hexdigest()


def compute_digests(problem: str, scale: float) -> dict:
    """Digest of each level-numbered ordering of one problem, keyed by :func:`case_id`."""
    pattern, _spec = load_problem(problem, scale=scale)
    return {
        case_id(problem, scale, algorithm):
            permutation_digest(get_ordering_algorithm(algorithm)(pattern).perm)
        for algorithm in ALGORITHMS
    }


@lru_cache(maxsize=1)
def recorded_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def _check(problem: str, scale: float) -> None:
    recorded = recorded_digests()
    computed = compute_digests(problem, scale)
    assert computed == {key: recorded[key] for key in computed}


@pytest.mark.parametrize("problem,scale", FAST_CASES)
def test_orderings_match_recorded_digests(problem, scale):
    _check(problem, scale)


@pytest.mark.slow
@pytest.mark.parametrize("problem,scale", SLOW_CASES)
def test_orderings_match_recorded_digests_at_quarter_scale(problem, scale):
    _check(problem, scale)


def test_every_recorded_case_is_checked():
    cases = {
        case_id(problem, scale, algorithm)
        for problem, scale in FAST_CASES + SLOW_CASES
        for algorithm in ALGORITHMS
    }
    assert cases == set(recorded_digests())
