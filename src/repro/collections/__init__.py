"""Problem collections: synthetic surrogates for the paper's test matrices.

The paper evaluates on Boeing-Harwell matrices (structural analysis and
miscellaneous sets) and on NASA structural/CFD matrices.  Those files are not
redistributable with this repository, so this subpackage generates synthetic
matrices from the same structural families:

* regular 2-D and 3-D finite-element meshes, optionally with several degrees
  of freedom per node (:mod:`repro.collections.meshes`) — surrogates for the
  BCSSTK solid/shell models;
* unstructured triangulations (airfoil-style), annuli, plates with holes,
  cylindrical shells, power networks (:mod:`repro.collections.generators`) —
  surrogates for BARTH4, DWT2680, BLKHOLE, the shell models and POW9;
* random-graph families — Barabási–Albert, Erdős–Rényi G(n,p)/G(n,m),
  Watts–Strogatz, R-MAT (:mod:`repro.collections.random_graphs`) — power-law
  and small-world stress workloads far outside the paper's mesh regime;
* a registry keyed by the paper's matrix names (plus the ``RANDOM/*``
  families) with configurable size scaling
  (:mod:`repro.collections.registry`), used by every benchmark harness;
* a fetch/ingest path for real external matrices, e.g. from the SuiteSparse
  collection, with a content-addressed download cache
  (:mod:`repro.collections.external`).

Real Boeing-Harwell / Matrix Market files can be substituted at any time via
:func:`repro.sparse.read_harwell_boeing` / :func:`repro.sparse.read_matrix_market`.
"""

from repro.lazy import lazy_exports

__all__ = [
    "grid2d_pattern",
    "grid3d_pattern",
    "multi_dof_pattern",
    "path_pattern",
    "cycle_pattern",
    "star_pattern",
    "complete_pattern",
    "binary_tree_pattern",
    "airfoil_pattern",
    "annulus_pattern",
    "cylinder_shell_pattern",
    "plate_with_holes_pattern",
    "power_network_pattern",
    "random_geometric_pattern",
    "RANDOM_PROBLEMS",
    "GeneratorSpec",
    "barabasi_albert_pattern",
    "erdos_renyi_gnp_pattern",
    "erdos_renyi_gnm_pattern",
    "watts_strogatz_pattern",
    "rmat_pattern",
    "DownloadCache",
    "fetch_problem",
    "fetch_url",
    "ingest_file",
    "suitesparse_url",
    "PAPER_PROBLEMS",
    "ProblemSpec",
    "UnknownProblemError",
    "all_problems",
    "available_problems",
    "expected_problem_size",
    "get_problem_spec",
    "has_analytic_size",
    "load_problem",
    "resolve_problems",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.collections.meshes": (
        "grid2d_pattern",
        "grid3d_pattern",
        "multi_dof_pattern",
        "path_pattern",
        "cycle_pattern",
        "star_pattern",
        "complete_pattern",
        "binary_tree_pattern",
    ),
    "repro.collections.generators": (
        "airfoil_pattern",
        "annulus_pattern",
        "cylinder_shell_pattern",
        "plate_with_holes_pattern",
        "power_network_pattern",
        "random_geometric_pattern",
    ),
    "repro.collections.random_graphs": (
        "RANDOM_PROBLEMS",
        "GeneratorSpec",
        "barabasi_albert_pattern",
        "erdos_renyi_gnm_pattern",
        "erdos_renyi_gnp_pattern",
        "rmat_pattern",
        "watts_strogatz_pattern",
    ),
    "repro.collections.external": (
        "DownloadCache",
        "fetch_problem",
        "fetch_url",
        "ingest_file",
        "suitesparse_url",
    ),
    "repro.collections.registry": (
        "PAPER_PROBLEMS",
        "ProblemSpec",
        "UnknownProblemError",
        "all_problems",
        "available_problems",
        "expected_problem_size",
        "get_problem_spec",
        "has_analytic_size",
        "load_problem",
        "resolve_problems",
    ),
})
