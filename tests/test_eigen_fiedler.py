"""Unit tests for the fiedler_vector front end (repro.eigen.fiedler)."""

import numpy as np
import pytest

from repro.collections.generators import random_geometric_pattern
from repro.collections.meshes import grid2d_pattern, path_pattern
from repro.eigen.fiedler import FIEDLER_METHODS, SOLVER_OPTIONS, fiedler_vector
from repro.graph.laplacian import laplacian_matrix


def _dense_lambda2(pattern):
    return float(np.linalg.eigvalsh(laplacian_matrix(pattern).toarray())[1])


class TestFiedlerVectorMethods:
    @pytest.mark.parametrize("method", ["dense", "lanczos", "eigsh", "lobpcg", "multilevel"])
    def test_all_methods_agree_on_eigenvalue(self, method):
        pattern = grid2d_pattern(9, 8)
        result = fiedler_vector(pattern, method=method)
        assert result.eigenvalue == pytest.approx(_dense_lambda2(pattern), rel=1e-4)
        assert result.method == method

    @pytest.mark.parametrize("method", ["dense", "lanczos", "eigsh", "lobpcg", "multilevel"])
    def test_eigenvector_quality(self, method):
        pattern = random_geometric_pattern(130, seed=3)
        lap = laplacian_matrix(pattern)
        result = fiedler_vector(pattern, method=method)
        residual = np.linalg.norm(lap @ result.eigenvector - result.eigenvalue * result.eigenvector)
        assert residual < 1e-4

    def test_auto_small_uses_dense(self):
        result = fiedler_vector(path_pattern(20), method="auto")
        assert result.method == "dense"

    def test_auto_medium_uses_lanczos(self):
        result = fiedler_vector(grid2d_pattern(15, 10), method="auto")
        assert result.method == "lanczos"

    def test_auto_large_uses_multilevel(self):
        pattern = grid2d_pattern(70, 60)
        result = fiedler_vector(pattern, method="auto", coarsest_size=100)
        assert result.method == "multilevel"

    def test_unknown_method_rejected(self, path10):
        with pytest.raises(ValueError, match="method"):
            fiedler_vector(path10, method="does-not-exist")

    def test_auto_rejects_an_option_no_solver_takes(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'foo'"):
            fiedler_vector(grid2d_pattern(15, 10), foo=1)

    def test_auto_drops_an_option_only_another_solver_takes(self):
        pattern = grid2d_pattern(15, 10)
        plain = fiedler_vector(pattern, rng=0)
        dropped = fiedler_vector(pattern, rng=0, coarsest_size=50, maxiter=10)
        assert dropped.method == plain.method == "lanczos"
        np.testing.assert_array_equal(dropped.eigenvector, plain.eigenvector)

    @pytest.mark.parametrize("method", ["lanczos", "dense", "eigsh"])
    def test_explicit_method_rejects_an_option_it_does_not_take(self, method):
        with pytest.raises(ValueError, match=f"'{method}' takes no option 'coarsest_size'"):
            fiedler_vector(grid2d_pattern(15, 10), method=method, coarsest_size=50)

    def test_solver_options_are_each_solvers_own_keywords(self):
        assert set(SOLVER_OPTIONS) == set(FIEDLER_METHODS) - {"auto"}
        assert SOLVER_OPTIONS["dense"] == frozenset()
        assert SOLVER_OPTIONS["multilevel"] == {"coarsest_size", "rqi_steps"}
        assert SOLVER_OPTIONS["lanczos"] == {"max_iter", "start", "restarts", "reorth"}

    def test_methods_constant_is_complete(self):
        assert set(FIEDLER_METHODS) == {"auto", "dense", "lanczos", "multilevel", "eigsh", "lobpcg"}


class TestFiedlerVectorProperties:
    def test_sign_convention(self, grid_8x6):
        result = fiedler_vector(grid_8x6, method="dense")
        assert result.eigenvector[np.argmax(np.abs(result.eigenvector))] > 0

    def test_orthogonal_to_constant(self, geometric200):
        result = fiedler_vector(geometric200, method="lanczos")
        assert abs(result.eigenvector.sum()) < 1e-7

    def test_path_fiedler_vector_is_monotone(self):
        # The Fiedler vector of a path is cos(pi (i + 1/2) / n): strictly monotone.
        result = fiedler_vector(path_pattern(30), method="dense")
        diffs = np.diff(result.eigenvector)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_matches_networkx(self):
        import networkx as nx

        pattern = random_geometric_pattern(90, seed=5)
        graph = nx.Graph()
        graph.add_nodes_from(range(pattern.n))
        graph.add_edges_from(pattern.edges())
        expected = nx.algebraic_connectivity(graph, tol=1e-10, method="tracemin_lu")
        result = fiedler_vector(pattern, method="lanczos")
        assert result.eigenvalue == pytest.approx(expected, rel=1e-4)

    def test_disconnected_rejected_by_default(self, disconnected_pattern):
        with pytest.raises(ValueError, match="disconnected"):
            fiedler_vector(disconnected_pattern)

    def test_disconnected_allowed_when_requested(self, disconnected_pattern):
        result = fiedler_vector(disconnected_pattern, method="dense", check_connected=False)
        assert result.eigenvalue == pytest.approx(0.0, abs=1e-10)

    def test_accepts_scipy_matrix_input(self):
        pattern = grid2d_pattern(6, 6)
        result_pattern = fiedler_vector(pattern, method="dense")
        result_scipy = fiedler_vector(pattern.to_scipy("spd"), method="dense")
        assert result_pattern.eigenvalue == pytest.approx(result_scipy.eigenvalue)

    def test_single_vertex_rejected(self):
        from repro.sparse.pattern import SymmetricPattern

        with pytest.raises(ValueError):
            fiedler_vector(SymmetricPattern.empty(1))

    def test_fiedler_value_positive_for_connected(self, geometric200):
        result = fiedler_vector(geometric200, method="lanczos")
        assert result.eigenvalue > 0


def _bcsstk30_quarter():
    from repro.collections.registry import load_problem

    return load_problem("BCSSTK30", scale=0.25)[0]


def _dwt2680_tenth():
    from repro.collections.registry import load_problem

    return load_problem("DWT2680", scale=0.1)[0]


#: ``(method, pattern factory, solver options, expected converged)``: each
#: iterative solver once converged and once not, all above 2000 vertices.
CONVERGENCE_CASES = {
    "lanczos-converges": ("lanczos", lambda: grid2d_pattern(60, 48), {}, True),
    "lanczos-capped": ("lanczos", lambda: grid2d_pattern(60, 48),
                       {"max_iter": 5, "restarts": 1}, False),
    "multilevel-converges": ("multilevel", _bcsstk30_quarter, {}, True),
    "multilevel-stalls": ("multilevel", lambda: grid2d_pattern(60, 48), {}, False),
    "lobpcg-capped": ("lobpcg", _dwt2680_tenth, {"maxiter": 250}, False),
    "eigsh-converges": ("eigsh", lambda: grid2d_pattern(60, 48), {}, True),
}


@pytest.mark.parametrize("case", list(CONVERGENCE_CASES))
def test_converged_means_the_residual_meets_tol(case):
    """``converged`` is ``||Lx - λx|| <= tol * max(1, |λ|)`` recomputed from
    the returned pair, and ``residual_norm`` is that residual."""
    method, build, options, expected = CONVERGENCE_CASES[case]
    pattern = build()
    assert pattern.n > 2000
    tol = 1e-8
    result = fiedler_vector(pattern, method=method, tol=tol, rng=0, **options)
    x, lam = result.eigenvector, result.eigenvalue
    residual = float(np.linalg.norm(laplacian_matrix(pattern) @ x - lam * x))
    assert result.residual_norm == pytest.approx(residual, rel=1e-6)
    assert result.converged == (residual <= tol * max(1.0, abs(lam)))
    # The cases must keep covering both outcomes of each solver.
    assert result.converged is expected
