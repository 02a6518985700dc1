"""Registry of surrogate problems keyed by the paper's matrix names.

Tables 4.1-4.3 of the paper evaluate 18 matrices.  For each of them this
registry records the paper's size (equations and nonzeros), the envelope sizes
the paper reports for each ordering algorithm (which
:func:`repro.analysis.report.fidelity_scorecard` sets our runs against), and
a generator that builds a synthetic surrogate from the same structural
family.

Surrogate sizes
---------------
Real problems have tens of thousands of equations; a pure-Python envelope
solver and eigensolver handle those, but not in a benchmark loop.  Every
surrogate therefore accepts a ``scale`` argument: ``scale=paper_scale``
approximates the paper's size, and smaller scales shrink the mesh dimensions
so that the vertex count is roughly ``scale / paper_scale`` times the
paper's.  ``paper_scale`` is 1.0 for most problems, 0.125 for the small
Table 4.2 matrices and 4.0 for IN3C, so the default ``scale=0.125`` builds
every table at a size the suite runs in minutes.  Set the environment
variable ``REPRO_BENCH_SCALE`` to change the default used by the benchmark
harnesses.
"""

from __future__ import annotations

import difflib
import fnmatch
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.collections.generators import (
    airfoil_pattern,
    annulus_pattern,
    perforated_solid_pattern,
    plate_with_holes_pattern,
    power_network_pattern,
    random_geometric_pattern,
    shell_assembly_pattern,
)
from repro.collections.meshes import grid3d_pattern, multi_dof_pattern
from repro.collections.random_graphs import RANDOM_PROBLEMS, GeneratorSpec
from repro.sparse.pattern import SymmetricPattern
from repro.utils.validation import require_positive_finite

__all__ = [
    "ProblemSpec",
    "PAPER_PROBLEMS",
    "RANDOM_PROBLEMS",
    "UnknownProblemError",
    "available_problems",
    "all_problems",
    "get_problem_spec",
    "resolve_problems",
    "expected_problem_size",
    "has_analytic_size",
    "load_problem",
    "default_scale",
]


@dataclass(frozen=True)
class ProblemSpec:
    """One test problem of the paper and its synthetic surrogate.

    Attributes
    ----------
    name:
        The paper's matrix name (e.g. ``"BCSSTK29"``).
    table:
        Which paper table the matrix appears in (``"4.1"``, ``"4.2"``, ``"4.3"``).
    paper_n:
        Number of equations reported by the paper.
    paper_nnz:
        Number of nonzeros reported by the paper.
    description:
        What the matrix is (as far as the collections document it).
    paper_envelopes:
        The envelope sizes the paper reports, keyed by algorithm name
        (``spectral``, ``gk``, ``gps``, ``rcm``).
    paper_bandwidths:
        The bandwidths the paper reports, same keys.
    generator:
        Callable ``generator(fraction) -> SymmetricPattern`` building the
        surrogate at about ``fraction`` times the paper's vertex count.
    paper_scale:
        The ``scale`` that builds the surrogate at about the paper's size:
        :meth:`build` hands the generator ``scale / paper_scale``, and
        :func:`expected_problem_size` estimates sizes the same way.
    """

    name: str
    table: str
    paper_n: int
    paper_nnz: int
    description: str
    paper_envelopes: dict = field(default_factory=dict)
    paper_bandwidths: dict = field(default_factory=dict)
    generator: Callable[[float], SymmetricPattern] = None
    paper_scale: float = 1.0

    def build(self, scale: float | None = None) -> SymmetricPattern:
        """Build the surrogate pattern at the given (or default) scale."""
        if scale is None:
            scale = default_scale()
        require_positive_finite(scale, "scale")
        return self.generator(scale / self.paper_scale)


def default_scale() -> float:
    """Default surrogate scale (``REPRO_BENCH_SCALE`` env var, else 0.125)."""
    value = os.environ.get("REPRO_BENCH_SCALE", "")
    if not value:
        return 0.125
    return require_positive_finite(value, "REPRO_BENCH_SCALE")


def _dim2(scale: float, value: int, minimum: int = 4) -> int:
    """Scale one dimension of a 2-D mesh so the vertex count scales by ``scale``."""
    return max(minimum, int(round(value * np.sqrt(scale))))


def _dim3(scale: float, value: int, minimum: int = 3) -> int:
    """Scale one dimension of a 3-D mesh so the vertex count scales by ``scale``."""
    return max(minimum, int(round(value * scale ** (1.0 / 3.0))))


# --------------------------------------------------------------------------- #
# Surrogate generators, one per paper matrix.
# --------------------------------------------------------------------------- #

def _bcsstk13(scale: float) -> SymmetricPattern:
    # Fluid flow generalized eigenproblem structure: moderate 3-D block mesh.
    base = grid3d_pattern(_dim3(scale, 14), _dim3(scale, 12), _dim3(scale, 12), stencil=27)
    return base


def _bcsstk29(scale: float) -> SymmetricPattern:
    # Buckling model of an aircraft engine nacelle: shell assembly with
    # several segments, access cutouts, ring frames and equipment panels.
    s = np.sqrt(scale)
    return shell_assembly_pattern(
        segments=(
            (max(3, int(35 * s)), max(6, int(40 * s))),
            (max(3, int(30 * s)), max(6, int(34 * s))),
            (max(3, int(25 * s)), max(6, int(46 * s))),
        ),
        dofs_per_node=4,
        cutouts=3,
        panels=3,
        stiffener_every=6,
        seed=29,
    )


def _bcsstk30(scale: float) -> SymmetricPattern:
    # Off-shore platform / solid model: perforated brick with appendages.
    return perforated_solid_pattern(
        nx=_dim3(scale, 36), ny=_dim3(scale, 18), nz=_dim3(scale, 15),
        cavities=3, appendages=2, dofs_per_node=3, seed=30,
    )


def _bcsstk31(scale: float) -> SymmetricPattern:
    # Automobile component model: elongated irregular 3-D solid.
    return perforated_solid_pattern(
        nx=_dim3(scale, 60), ny=_dim3(scale, 20), nz=_dim3(scale, 10),
        cavities=4, appendages=2, dofs_per_node=3, seed=31,
    )


def _bcsstk32(scale: float) -> SymmetricPattern:
    # Automobile chassis: plate-dominated model with openings, 3 dofs per node.
    base = plate_with_holes_pattern(
        nx=_dim2(scale, 170), ny=_dim2(scale, 90), holes=5, seed=32
    )
    return multi_dof_pattern(base, 3)


def _bcsstk33(scale: float) -> SymmetricPattern:
    # Pin boss (solid) model: compact perforated 3-D solid with high row density.
    return perforated_solid_pattern(
        nx=_dim3(scale, 20), ny=_dim3(scale, 16), nz=_dim3(scale, 9),
        cavities=2, appendages=1, dofs_per_node=3, seed=33,
    )


def _can1072(scale: float) -> SymmetricPattern:
    # CANnes structural dummy matrices: unstructured 2-D finite element mesh.
    return random_geometric_pattern(max(64, int(1072 * scale)), seed=1072)


def _pow9(scale: float) -> SymmetricPattern:
    return power_network_pattern(max(32, int(1723 * scale)), seed=9)


def _blkhole(scale: float) -> SymmetricPattern:
    side = _dim2(scale, 52)
    return plate_with_holes_pattern(nx=side, ny=max(4, int(side * 0.8)), holes=3, seed=2132)


def _dwt2680(scale: float) -> SymmetricPattern:
    rings = max(3, int(round(20 * np.sqrt(scale))))
    around = max(8, int(round(134 * np.sqrt(scale))))
    return annulus_pattern(n_rings=rings, n_around=around)


def _sstmodel(scale: float) -> SymmetricPattern:
    # Supersonic transport structural model: stiffened shell assembly.
    s = np.sqrt(scale)
    return shell_assembly_pattern(
        segments=(
            (max(3, int(26 * s)), max(6, int(20 * s))),
            (max(3, int(20 * s)), max(6, int(26 * s))),
        ),
        dofs_per_node=1,
        cutouts=2,
        panels=3,
        stiffener_every=5,
        seed=3345,
    )


def _barth4(scale: float) -> SymmetricPattern:
    return airfoil_pattern(max(200, int(6019 * scale)), seed=4)


def _shuttle(scale: float) -> SymmetricPattern:
    # Shuttle rocket booster model: long segmented shell with frames.
    s = np.sqrt(scale)
    return shell_assembly_pattern(
        segments=(
            (max(3, int(60 * s)), max(6, int(48 * s))),
            (max(3, int(55 * s)), max(6, int(56 * s))),
            (max(3, int(40 * s)), max(6, int(44 * s))),
        ),
        dofs_per_node=1,
        cutouts=2,
        panels=3,
        stiffener_every=8,
        seed=9205,
    )


def _skirt(scale: float) -> SymmetricPattern:
    # Aft skirt of the shuttle booster: conical shell assembly, denser rows.
    s = np.sqrt(scale)
    return shell_assembly_pattern(
        segments=(
            (max(3, int(40 * s)), max(6, int(52 * s))),
            (max(3, int(30 * s)), max(6, int(40 * s))),
        ),
        dofs_per_node=3,
        cutouts=2,
        panels=2,
        stiffener_every=4,
        seed=12598,
    )


def _pwt(scale: float) -> SymmetricPattern:
    # Pressurized wind tunnel model: large unstructured surface mesh.
    return airfoil_pattern(max(400, int(36519 * scale)), seed=36519)


def _body(scale: float) -> SymmetricPattern:
    # Automobile body-in-white surface mesh: large plate with many openings.
    return plate_with_holes_pattern(
        nx=_dim2(scale, 320), ny=_dim2(scale, 140), holes=6, seed=45087
    )


def _flap(scale: float) -> SymmetricPattern:
    # Actuator flap model: irregular solid + shell mix, high row density.
    return perforated_solid_pattern(
        nx=_dim3(scale, 48), ny=_dim3(scale, 28), nz=_dim3(scale, 13),
        cavities=3, appendages=2, dofs_per_node=3, seed=51537,
    )


def _in3c(scale: float) -> SymmetricPattern:
    # Largest NASA problem (262620 equations): very large unstructured mesh.
    return airfoil_pattern(max(600, int(262620 * scale)), seed=262620)


PAPER_PROBLEMS: dict[str, ProblemSpec] = {
    spec.name: spec
    for spec in [
        # ---- Table 4.1: Boeing-Harwell structural analysis ---------------- #
        ProblemSpec(
            "BCSSTK13", "4.1", 2003, 11973,
            "Fluid flow generalized eigenvalue problem (structural set)",
            paper_envelopes={"spectral": 64486, "gk": 58542, "gps": 57501, "rcm": 56299},
            paper_bandwidths={"spectral": 455, "gk": 223, "gps": 145, "rcm": 198},
            generator=_bcsstk13,
        ),
        ProblemSpec(
            "BCSSTK29", "4.1", 13992, 316740,
            "Buckling model of an aircraft engine nacelle (shell)",
            paper_envelopes={"spectral": 3067004, "gk": 6948091, "gps": 7040998, "rcm": 7374140},
            paper_bandwidths={"spectral": 882, "gk": 1505, "gps": 869, "rcm": 914},
            generator=_bcsstk29,
        ),
        ProblemSpec(
            "BCSSTK30", "4.1", 28924, 1036208,
            "Off-shore generator platform (3-D solid)",
            paper_envelopes={"spectral": 9135742, "gk": 15686968, "gps": 23242990, "rcm": 23242990},
            paper_bandwidths={"spectral": 4769, "gk": 16947, "gps": 2515, "rcm": 2512},
            generator=_bcsstk30,
        ),
        ProblemSpec(
            "BCSSTK31", "4.1", 35588, 608502,
            "Automobile component model (3-D solid)",
            paper_envelopes={"spectral": 19574992, "gk": 22330987, "gps": 23416579, "rcm": 23641124},
            paper_bandwidths={"spectral": 4763, "gk": 1880, "gps": 1104, "rcm": 1176},
            generator=_bcsstk31,
        ),
        ProblemSpec(
            "BCSSTK32", "4.1", 44609, 1029655,
            "Automobile chassis model (plates + solids)",
            paper_envelopes={"spectral": 27614531, "gk": 49457764, "gps": 50067390, "rcm": 52170122},
            paper_bandwidths={"spectral": 13792, "gk": 3761, "gps": 2339, "rcm": 2390},
            generator=_bcsstk32,
        ),
        ProblemSpec(
            "BCSSTK33", "4.1", 8738, 300321,
            "Pin boss model (3-D solid, dense rows)",
            paper_envelopes={"spectral": 3788702, "gk": 3571395, "gps": 3717032, "rcm": 3799285},
            paper_bandwidths={"spectral": 1199, "gk": 932, "gps": 519, "rcm": 749},
            generator=_bcsstk33,
        ),
        # ---- Table 4.2: Boeing-Harwell miscellaneous ---------------------- #
        ProblemSpec(
            "CAN1072", "4.2", 1072, 6758,
            "Cannes structural dummy matrix (unstructured 2-D mesh)",
            paper_envelopes={"spectral": 55228, "gk": 48538, "gps": 74067, "rcm": 56361},
            paper_bandwidths={"spectral": 301, "gk": 234, "gps": 159, "rcm": 175},
            generator=_can1072,
            paper_scale=0.125,
        ),
        ProblemSpec(
            "POW9", "4.2", 1723, 4117,
            "Power network (very sparse, tree-like)",
            paper_envelopes={"spectral": 29149, "gk": 64788, "gps": 69446, "rcm": 79260},
            paper_bandwidths={"spectral": 264, "gk": 201, "gps": 116, "rcm": 133},
            generator=_pow9,
            paper_scale=0.125,
        ),
        ProblemSpec(
            "BLKHOLE", "4.2", 2132, 8502,
            "Plate with holes (2-D finite elements)",
            paper_envelopes={"spectral": 120767, "gk": 169219, "gps": 173243, "rcm": 171437},
            paper_bandwidths={"spectral": 426, "gk": 134, "gps": 106, "rcm": 105},
            generator=_blkhole,
            paper_scale=0.125,
        ),
        ProblemSpec(
            "DWT2680", "4.2", 2680, 13853,
            "DTNSRDC wheel/disc mesh (annulus)",
            paper_envelopes={"spectral": 93907, "gk": 96591, "gps": 101769, "rcm": 102983},
            paper_bandwidths={"spectral": 142, "gk": 92, "gps": 65, "rcm": 69},
            generator=_dwt2680,
            paper_scale=0.125,
        ),
        ProblemSpec(
            "SSTMODEL", "4.2", 3345, 13047,
            "Supersonic transport structural model (stiffened shell)",
            paper_envelopes={"spectral": 86635, "gk": 104562, "gps": 110936, "rcm": 105421},
            paper_bandwidths={"spectral": 228, "gk": 125, "gps": 83, "rcm": 88},
            generator=_sstmodel,
            paper_scale=0.125,
        ),
        # ---- Table 4.3: NASA ------------------------------------------------ #
        ProblemSpec(
            "BARTH4", "4.3", 6019, 23492,
            "Unstructured airfoil CFD mesh (Barth)",
            paper_envelopes={"spectral": 345623, "gk": 658181, "gps": 669239, "rcm": 725950},
            paper_bandwidths={"spectral": 593, "gk": 280, "gps": 213, "rcm": 215},
            generator=_barth4,
        ),
        ProblemSpec(
            "SHUTTLE", "4.3", 9205, 45966,
            "Shuttle solid rocket booster shell model",
            paper_envelopes={"spectral": 566496, "gk": 531420, "gps": 531422, "rcm": 567887},
            paper_bandwidths={"spectral": 631, "gk": 92, "gps": 92, "rcm": 150},
            generator=_shuttle,
        ),
        ProblemSpec(
            "SKIRT", "4.3", 12598, 104559,
            "Shuttle booster aft skirt model",
            paper_envelopes={"spectral": 688924, "gk": 1013423, "gps": 1039544, "rcm": 1068993},
            paper_bandwidths={"spectral": 1021, "gk": 425, "gps": 309, "rcm": 314},
            generator=_skirt,
        ),
        ProblemSpec(
            "PWT", "4.3", 36519, 181313,
            "Pressurized wind tunnel model",
            paper_envelopes={"spectral": 5101527, "gk": 5520603, "gps": 5638855, "rcm": 5652184},
            paper_bandwidths={"spectral": 1627, "gk": 450, "gps": 340, "rcm": 340},
            generator=_pwt,
        ),
        ProblemSpec(
            "BODY", "4.3", 45087, 208821,
            "Automobile body surface mesh",
            paper_envelopes={"spectral": 6706747, "gk": 10526446, "gps": 10658164, "rcm": 11470411},
            paper_bandwidths={"spectral": 2496, "gk": 1081, "gps": 667, "rcm": 756},
            generator=_body,
        ),
        ProblemSpec(
            "FLAP", "4.3", 51537, 531157,
            "Actuator flap model (solid + shell)",
            paper_envelopes={"spectral": 10471456, "gk": 12367171, "gps": 12339642, "rcm": 12598705},
            paper_bandwidths={"spectral": 1784, "gk": 1019, "gps": 743, "rcm": 874},
            generator=_flap,
        ),
        ProblemSpec(
            "IN3C", "4.3", 262620, 1026888,
            "Largest NASA mesh (262k equations)",
            paper_envelopes={"spectral": 425232466, "gk": 519316395, "gps": 526302263, "rcm": 581700745},
            paper_bandwidths={"spectral": 9504, "gk": 3780, "gps": 2473, "rcm": 2746},
            generator=_in3c,
            paper_scale=4.0,
        ),
    ]
}


class UnknownProblemError(KeyError):
    """A problem name (or glob) that matches nothing in the registry.

    Subclasses :class:`KeyError` for backward compatibility, but carries the
    failing ``name``, near-miss ``suggestions`` and the full ``available``
    name list so callers (the CLI exits 2 on it) can print a structured
    message instead of a bare repr.
    """

    def __init__(self, name: str, suggestions: list[str], available: list[str]):
        self.name = name
        self.suggestions = list(suggestions)
        self.available = list(available)
        hint = f" did you mean: {', '.join(self.suggestions)}?" if self.suggestions else ""
        self.message = (
            f"unknown problem {name!r};{hint} available: {', '.join(self.available)}"
        )
        super().__init__(self.message)

    def __str__(self) -> str:  # KeyError would quote the message
        return self.message


def _external_problems() -> dict:
    """Registered external matrices (``EXT/<NAME>``), name → spec.

    Imported lazily: the external module pulls in the matrix readers and the
    download cache, none of which the surrogate-only paths need.
    """
    from repro.collections.external import registered_externals

    return registered_externals()


def available_problems(table: str | None = None, paper_order: bool = False) -> list[str]:
    """Names of the registered problems, optionally restricted to one table.

    ``table`` may be a paper table (``"4.1"``, ``"4.2"``, ``"4.3"``),
    ``"random"`` for the generated random-graph families, or ``"external"``
    for matrices registered via ``repro fetch --register``; ``None`` keeps
    the historical default of the 18 paper matrices (the other tables are
    opt-in via explicit names, globs, or ``table=...`` so that the default
    suite matches the paper's).

    ``paper_order=True`` returns the names in the row order of the paper's
    tables (the registration order) instead of alphabetically — the order the
    benchmark result files use for side-by-side comparison with the paper.
    """
    if table == "random":
        names = list(RANDOM_PROBLEMS)
    elif table == "external":
        names = list(_external_problems())
    else:
        names = [
            name for name, spec in PAPER_PROBLEMS.items()
            if table is None or spec.table == table
        ]
    return names if paper_order else sorted(names)


def all_problems() -> list[str]:
    """Every registered problem name: paper matrices, random families, then
    registered external matrices (``EXT/*``)."""
    return list(PAPER_PROBLEMS) + list(RANDOM_PROBLEMS) + list(_external_problems())


def get_problem_spec(name: str) -> "ProblemSpec | GeneratorSpec | None":
    """The spec registered under ``name`` (case-insensitive), or ``None``.

    ``EXT/``-prefixed names resolve against the registered external matrices
    (:func:`repro.collections.external.registered_externals`).
    """
    key = str(name).strip().upper()
    spec = PAPER_PROBLEMS.get(key) or RANDOM_PROBLEMS.get(key)
    if spec is None and key.startswith("EXT/"):
        from repro.collections.external import get_external_spec

        spec = get_external_spec(key)
    return spec


def _lookup(name: str) -> ProblemSpec | GeneratorSpec:
    spec = get_problem_spec(name)
    if spec is None:
        key = str(name).strip().upper()
        names = all_problems()
        suggestions = difflib.get_close_matches(key, names, n=3, cutoff=0.6)
        raise UnknownProblemError(name, suggestions, sorted(names))
    return spec


def resolve_problems(patterns: list[str]) -> list[str]:
    """Expand a mix of problem names and ``fnmatch`` globs to registry names.

    Each entry is normalized (case-insensitive) and either matched exactly or,
    when it contains a glob metacharacter (``*``, ``?``, ``[``), expanded
    against every registered name in registration order (paper tables first,
    then random families).  Duplicates are dropped while preserving order.

    Raises
    ------
    UnknownProblemError
        For a name that is not registered (with near-miss suggestions) or a
        glob that matches nothing.
    """
    names = all_problems()
    resolved: list[str] = []
    for pattern in patterns:
        key = str(pattern).strip().upper()
        if any(ch in key for ch in "*?["):
            matches = [name for name in names if fnmatch.fnmatchcase(name, key)]
            if not matches:
                raise UnknownProblemError(pattern, [], sorted(names))
            resolved.extend(matches)
        else:
            resolved.append(_lookup(key).name)
    seen: set[str] = set()
    return [name for name in resolved if not (name in seen or seen.add(name))]


def expected_problem_size(problem: str, scale: float | None = None) -> float:
    """Estimated ``n * nnz`` of a problem cell, for cost planning.

    Paper problems use the paper's reported sizes rescaled by
    ``(scale / paper_scale)**2`` (vertex count and nonzeros both scale
    roughly linearly with the builder's fraction of the paper's size);
    random-graph families use their analytic ``expected_n``/``expected_nnz``;
    registered external matrices (``EXT/*``) are fixed-size and report their
    exact ``n * nnz`` regardless of *scale*.  Unknown problems return the
    neutral weight 1.0 — the historical fallback of
    :class:`repro.batch.sched.CostModel`.
    """
    from repro.collections.external import ExternalSpec

    spec = get_problem_spec(problem)
    effective = default_scale() if scale is None else float(scale)
    if isinstance(spec, ProblemSpec):
        return float(spec.paper_n) * float(spec.paper_nnz) * (effective / spec.paper_scale)**2
    if isinstance(spec, GeneratorSpec):
        return float(spec.expected_n(effective)) * float(spec.expected_nnz(effective))
    if isinstance(spec, ExternalSpec):
        return float(spec.n) * float(spec.nnz)
    return 1.0


def has_analytic_size(problem: str) -> bool:
    """True when the problem's size is known without building it (analytic
    random family, or a fixed-size registered external matrix)."""
    from repro.collections.external import ExternalSpec

    return isinstance(get_problem_spec(problem), (GeneratorSpec, ExternalSpec))


def load_problem(
    name: str, scale: float | None = None
) -> tuple[SymmetricPattern, ProblemSpec | GeneratorSpec]:
    """Build the surrogate for the named problem.

    Parameters
    ----------
    name:
        Registered problem name, case-insensitive: a paper matrix
        (e.g. ``"barth4"``) or a random-graph family (e.g. ``"random/ba"``).
    scale:
        Surrogate scale; ``None`` uses :func:`default_scale`.

    Returns
    -------
    (pattern, spec)

    Raises
    ------
    UnknownProblemError
        If the name is not registered (lists near-miss suggestions).
    """
    spec = _lookup(name)
    return spec.build(scale), spec
