"""Structural digests pin every surrogate builder to its recorded output.

The builders in :mod:`repro.collections.meshes` and
:mod:`repro.collections.generators` assemble numpy endpoint arrays.  The
digests in ``fixtures/pattern_digests.json`` were recorded from the
per-edge loop builders those arrays replaced, so a match here means the
pattern, and with it every ordering and golden built on it, is bit-identical:
every paper problem at three scales, and each elementary builder at two or
three sizes.  Run with ``PYTHONPATH=src python -m pytest -q
tests/test_collections_digests.py``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.collections.generators import cylinder_shell_pattern
from repro.collections.meshes import (
    binary_tree_pattern,
    complete_pattern,
    cycle_pattern,
    grid2d_pattern,
    grid3d_pattern,
    multi_dof_pattern,
    path_pattern,
    star_pattern,
)
from repro.collections.registry import available_problems, load_problem
from repro.sparse.pattern import SymmetricPattern
from repro.store.spectral import pattern_digest

DIGESTS_PATH = Path(__file__).parent / "fixtures" / "pattern_digests.json"

#: Surrogate scales every paper problem is pinned at.
PAPER_SCALES = (0.02, 0.25, 1.0)


def _multi_dof_cases() -> dict:
    bases = {
        "grid2d(3,4,9)": lambda: grid2d_pattern(3, 4, stencil=9),
        "binary_tree(2)": lambda: binary_tree_pattern(2),
    }
    cases = {
        f"multi_dof({name},{d})": (lambda base=base, d=d: multi_dof_pattern(base(), d))
        for name, base in bases.items()
        for d in range(1, 7)
    }
    cases["multi_dof(empty(3),2)"] = lambda: multi_dof_pattern(SymmetricPattern.empty(3), 2)
    return cases


#: Case id -> zero-argument builder call.
ELEMENTARY_CASES = {
    **{f"path({n})": (lambda n=n: path_pattern(n)) for n in (1, 2, 17)},
    **{f"cycle({n})": (lambda n=n: cycle_pattern(n)) for n in (3, 4, 25)},
    **{f"star({n})": (lambda n=n: star_pattern(n)) for n in (2, 3, 19)},
    **{f"complete({n})": (lambda n=n: complete_pattern(n)) for n in (1, 2, 9)},
    **{f"binary_tree({d})": (lambda d=d: binary_tree_pattern(d)) for d in (0, 1, 5)},
    **{
        f"grid2d({nx},{ny},{stencil})": (
            lambda nx=nx, ny=ny, stencil=stencil: grid2d_pattern(nx, ny, stencil=stencil)
        )
        for stencil in (5, 9)
        for nx, ny in ((1, 1), (3, 4), (7, 5))
    },
    **{
        f"grid3d({nx},{ny},{nz},{stencil})": (
            lambda nx=nx, ny=ny, nz=nz, stencil=stencil: grid3d_pattern(
                nx, ny, nz, stencil=stencil
            )
        )
        for stencil in (7, 27)
        for nx, ny, nz in ((1, 1, 1), (2, 3, 4), (5, 4, 3))
    },
    **_multi_dof_cases(),
    **{
        f"cylinder_shell({axial},{around},{dofs},{every})": (
            lambda axial=axial, around=around, dofs=dofs, every=every: cylinder_shell_pattern(
                axial, around, dofs_per_node=dofs, stiffener_every=every
            )
        )
        for axial, around, dofs, every in (
            (2, 3, 1, 0), (6, 8, 1, 0), (9, 12, 3, 0),
            (5, 3, 1, 1), (6, 8, 1, 2), (9, 12, 2, 3),
        )
    },
}


def paper_case_id(problem: str, scale: float) -> str:
    return f"{problem}@{scale:g}"


@lru_cache(maxsize=1)
def recorded_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("case", list(ELEMENTARY_CASES))
def test_elementary_builder_matches_recorded_digest(case):
    assert pattern_digest(ELEMENTARY_CASES[case]()) == recorded_digests()[case]


@pytest.mark.parametrize("scale", PAPER_SCALES)
@pytest.mark.parametrize("problem", available_problems(paper_order=True))
def test_paper_problem_matches_recorded_digest(problem, scale):
    pattern, _spec = load_problem(problem, scale=scale)
    assert pattern_digest(pattern) == recorded_digests()[paper_case_id(problem, scale)]


def test_every_recorded_case_is_checked():
    cases = set(ELEMENTARY_CASES) | {
        paper_case_id(problem, scale)
        for problem in available_problems()
        for scale in PAPER_SCALES
    }
    assert cases == set(recorded_digests())
