"""Unit and property tests for repro.sparse.pattern.SymmetricPattern."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.collections.registry import available_problems, load_problem
from repro.sparse.pattern import SymmetricPattern
from tests.conftest import small_patterns


class TestConstruction:
    def test_from_edges_basic(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert p.n == 4
        assert p.num_edges == 3
        assert p.nnz_offdiag == 6
        assert p.nnz == 10  # 6 off-diagonal + 4 diagonal

    def test_from_edges_ignores_self_loops(self):
        p = SymmetricPattern.from_edges(3, [(0, 0), (0, 1)])
        assert p.num_edges == 1

    def test_from_edges_merges_duplicates(self):
        p = SymmetricPattern.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert p.num_edges == 1

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SymmetricPattern.from_edges(3, [(0, 3)])

    def test_from_scipy_symmetrizes(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 3.0, 1.0]]))
        p = SymmetricPattern.from_scipy(a)
        assert p.has_edge(0, 1) and p.has_edge(1, 0)
        assert p.has_edge(1, 2) and p.has_edge(2, 1)
        assert not p.has_edge(0, 2)

    def test_from_scipy_drops_small_entries_with_tol(self):
        a = sp.csr_matrix(np.array([[1.0, 1e-15], [1e-15, 1.0]]))
        p = SymmetricPattern.from_scipy(a, tol=1e-12)
        assert p.num_edges == 0

    def test_from_scipy_keeps_an_edge_whose_values_cancel(self):
        a = np.array([[1.0, 2.0], [-2.0, 1.0]])
        assert SymmetricPattern.from_scipy(a).num_edges == 1
        assert SymmetricPattern.from_scipy(sp.csr_matrix(a)).num_edges == 1

    def test_from_scipy_ignores_a_stored_explicit_zero(self):
        # row 0 stores a_01 = 1 and an explicit a_02 = 0; rows 1 and 2 are empty
        a = sp.csr_matrix((np.array([1.0, 0.0]), np.array([1, 2]), np.array([0, 2, 2, 2])),
                          shape=(3, 3))
        assert a.nnz == 2
        p = SymmetricPattern.from_scipy(a)
        assert p.has_edge(0, 1) and p.has_edge(1, 0)
        assert not p.has_edge(0, 2) and p.num_edges == 1

    def test_from_scipy_tol_filters_each_entry_before_symmetrizing(self):
        a = np.array([[1.0, 1e-15, 0.0],
                      [1.0, 1.0, 0.5],
                      [0.0, -0.5, 1.0]])
        assert list(SymmetricPattern.from_scipy(a, tol=0.6).edges()) == [(0, 1)]
        assert list(SymmetricPattern.from_scipy(a, tol=0.1).edges()) == [(0, 1), (1, 2)]

    def test_from_scipy_rejects_rectangular(self):
        with pytest.raises(ValueError):
            SymmetricPattern.from_scipy(sp.csr_matrix(np.zeros((2, 3))))

    def test_from_adjacency_lists_roundtrip(self):
        adj = [[1, 2], [0], [0]]
        p = SymmetricPattern.from_adjacency_lists(adj)
        assert p.to_adjacency_lists() == [[1, 2], [0], [0]]

    def test_from_dense_array(self):
        dense = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        p = SymmetricPattern.from_scipy(dense)
        assert p.num_edges == 2

    def test_empty_pattern(self):
        p = SymmetricPattern.empty(5)
        assert p.n == 5
        assert p.num_edges == 0
        assert p.degree().sum() == 0

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPattern(3, [0, 1], [0])


class TestQueries:
    def test_degree_matches_neighbors(self):
        p = SymmetricPattern.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert p.degree(0) == 3
        assert p.degree(4) == 1
        np.testing.assert_array_equal(p.degree(), [3, 1, 1, 2, 1])

    def test_neighbors_sorted(self):
        p = SymmetricPattern.from_edges(5, [(2, 4), (2, 0), (2, 3)])
        np.testing.assert_array_equal(p.neighbors(2), [0, 3, 4])

    def test_has_edge_diagonal_always_true(self):
        p = SymmetricPattern.empty(3)
        assert p.has_edge(1, 1)

    def test_max_degree(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert p.max_degree() == 3

    def test_edges_iterates_each_once(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        edges = sorted(p.edges())
        assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_row_slices_cover_all(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (2, 3)])
        rows = dict(p.row_slices())
        assert set(rows) == {0, 1, 2, 3}
        assert list(rows[0]) == [1]


class TestConversions:
    def test_to_scipy_pattern_has_unit_diagonal(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        m = p.to_scipy("pattern").toarray()
        np.testing.assert_array_equal(np.diag(m), [1, 1, 1])
        assert m[0, 1] == 1 and m[1, 0] == 1

    def test_to_scipy_laplacian_rows_sum_to_zero(self):
        p = SymmetricPattern.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        lap = p.to_scipy("laplacian").toarray()
        np.testing.assert_allclose(lap.sum(axis=1), 0.0)
        np.testing.assert_allclose(lap, lap.T)

    def test_to_scipy_spd_is_positive_definite(self):
        p = SymmetricPattern.from_edges(5, [(i, i + 1) for i in range(4)])
        m = p.to_scipy("spd").toarray()
        eigenvalues = np.linalg.eigvalsh(m)
        assert eigenvalues.min() > 0

    def test_to_scipy_adjacency_zero_diagonal(self):
        p = SymmetricPattern.from_edges(3, [(0, 2)])
        adj = p.to_scipy("adjacency").toarray()
        np.testing.assert_array_equal(np.diag(adj), 0)

    def test_to_scipy_invalid_mode(self):
        with pytest.raises(ValueError):
            SymmetricPattern.empty(2).to_scipy("bogus")

    def test_to_dense_pattern(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        dense = p.to_dense_pattern()
        assert dense[0, 1] and dense[1, 0]
        assert dense[0, 0] and dense[2, 2]
        assert not dense[0, 2]


class TestOperations:
    def test_permute_identity_is_noop(self):
        p = SymmetricPattern.from_edges(5, [(0, 1), (1, 4), (2, 3)])
        assert p.permute(np.arange(5)) == p

    def test_permute_relabels_edges(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        # new-to-old perm: position 0 <- old 2, 1 <- old 0, 2 <- old 1
        q = p.permute([2, 0, 1])
        # old edge (0,1) -> new labels (1, 2)
        assert q.has_edge(1, 2)
        assert not q.has_edge(0, 1)

    def test_permute_matches_scipy_permutation(self):
        p = SymmetricPattern.from_edges(6, [(0, 1), (1, 2), (2, 5), (3, 4), (0, 5)])
        perm = np.array([3, 1, 4, 0, 5, 2])
        expected = p.to_scipy("adjacency")[perm][:, perm].toarray() > 0
        got = p.permute(perm).to_scipy("adjacency").toarray() > 0
        np.testing.assert_array_equal(got, expected)

    def test_subpattern_induced_edges(self):
        p = SymmetricPattern.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub = p.subpattern([1, 2, 3])
        assert sub.n == 3
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_subpattern_rejects_duplicates(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            p.subpattern([0, 0])

    def test_subpattern_rejects_out_of_range(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            p.subpattern([0, 5])

    def test_copy_is_independent(self):
        p = SymmetricPattern.from_edges(3, [(0, 1)])
        q = p.copy()
        q.indices[0] = 2
        assert p.indices[0] == 1

    def test_equality(self):
        a = SymmetricPattern.from_edges(3, [(0, 1)])
        b = SymmetricPattern.from_edges(3, [(1, 0)])
        c = SymmetricPattern.from_edges(3, [(0, 2)])
        assert a == b
        assert a != c

    def test_validate_passes_on_well_formed(self):
        SymmetricPattern.from_edges(6, [(0, 1), (2, 3), (4, 5)]).validate()

    def test_validate_detects_asymmetry(self):
        p = SymmetricPattern(2, [0, 1, 1], [1])  # edge 0->1 without 1->0
        with pytest.raises(ValueError, match="symmetric"):
            p.validate()

    def test_repr_mentions_size(self):
        assert "n=3" in repr(SymmetricPattern.empty(3))


def _csr(rows: list[list[int]]) -> tuple[list[int], list[int]]:
    """``(indptr, indices)`` of a pattern given row by row."""
    indptr = np.cumsum([0] + [len(row) for row in rows]).tolist()
    return indptr, [j for row in rows for j in row]


#: Rows of a valid 5-vertex pattern (edges 0-1, 1-2, 2-3, 3-4, 0-4, 1-3).
VALID_ROWS = [[1, 4], [0, 2, 3], [1, 3], [1, 2, 4], [0, 3]]


def _mutated(**rows: list[int]) -> tuple[list[int], list[int]]:
    """VALID_ROWS with the rows named ``r<i>`` replaced."""
    return _csr([rows.get(f"r{i}", row) for i, row in enumerate(VALID_ROWS)])


NOT_INCREASING = "is not strictly increasing / has duplicates"

#: One valid pattern and one mutation per invariant, with the message the
#: per-row loop this check replaced raised on each.
VALIDATE_CASES = {
    "valid": (_csr(VALID_ROWS), None),
    "index out of range": (_mutated(r1=[0, 2, 5]), "column indices out of range"),
    "negative index": (_mutated(r4=[-1, 3]), "column indices out of range"),
    "decreasing indptr": (([0, 2, 5, 4, 10, 12], _csr(VALID_ROWS)[1]),
                          "indptr must be nondecreasing"),
    "unsorted row": (_mutated(r1=[2, 0, 3]), f"row 1 {NOT_INCREASING}"),
    "duplicate entry": (_mutated(r3=[1, 2, 2]), f"row 3 {NOT_INCREASING}"),
    "diagonal entry": (_mutated(r2=[1, 2]), "row 2 contains a diagonal index"),
    "one-sided entry": (_mutated(r0=[1, 2, 4]),
                        "structure is not symmetric: (0,2) without (2,0)"),
    # Defects in two rows: the lower row is reported, whatever its defect.
    "lower row diagonal, higher row unsorted": (
        _mutated(r1=[0, 1, 3], r3=[2, 1, 4]), "row 1 contains a diagonal index"),
    "lower row unsorted, higher row diagonal": (
        _mutated(r1=[3, 2, 0], r3=[1, 2, 3]), f"row 1 {NOT_INCREASING}"),
    # Within one row an order defect is reported before a diagonal index.
    "diagonal then order defect in one row": (
        _mutated(r3=[3, 2, 1]), f"row 3 {NOT_INCREASING}"),
    "order defect then diagonal in one row": (
        _mutated(r3=[2, 1, 3]), f"row 3 {NOT_INCREASING}"),
}

#: Every paper problem at 0.25 and every random family at 0.01.
REGISTRY_CASES = [(problem, 0.25) for problem in available_problems(paper_order=True)]
REGISTRY_CASES += [(problem, 0.01)
                   for problem in available_problems("random", paper_order=True)]


def _validate_by_rows(pattern: SymmetricPattern) -> None:
    """A per-row loop reference for :meth:`SymmetricPattern.validate`.

    Its symmetry scan walks the entries in storage order, so that it names
    the same one-sided entry as the array passes: the first in row-major
    order."""
    n, indptr, indices = pattern.n, pattern.indptr, pattern.indices
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("column indices out of range")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be nondecreasing")
    entries = []
    for i in range(n):
        row = indices[indptr[i]:indptr[i + 1]]
        if np.any(np.diff(row) <= 0):
            raise ValueError(f"row {i} {NOT_INCREASING}")
        if np.any(row == i):
            raise ValueError(f"row {i} contains a diagonal index")
        entries += [(i, int(j)) for j in row]
    stored = set(entries)
    for i, j in entries:
        if (j, i) not in stored:
            raise ValueError(f"structure is not symmetric: ({i},{j}) without ({j},{i})")


def _error(check) -> str | None:
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


class TestValidate:
    @pytest.mark.parametrize("case", list(VALIDATE_CASES))
    def test_reports_each_defect_class(self, case):
        (indptr, indices), message = VALIDATE_CASES[case]
        pattern = SymmetricPattern(5, indptr, indices)
        if message is None:
            pattern.validate()
            return
        with pytest.raises(ValueError) as info:
            pattern.validate()
        assert str(info.value) == message

    @given(small_patterns(min_n=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_deleted_entry_leaves_its_mirror_one_sided(self, pattern, data):
        assume(pattern.indices.size > 0)
        k = data.draw(st.integers(min_value=0, max_value=pattern.indices.size - 1))
        i = int(np.searchsorted(pattern.indptr, k, side="right")) - 1
        j = int(pattern.indices[k])
        indptr = pattern.indptr.copy()
        indptr[i + 1:] -= 1
        broken = SymmetricPattern(pattern.n, indptr, np.delete(pattern.indices, k))
        with pytest.raises(ValueError) as info:
            broken.validate()
        assert str(info.value) == f"structure is not symmetric: ({j},{i}) without ({i},{j})"

    @given(small_patterns(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_loop_on_mutated_patterns(self, pattern, data):
        n, indptr, indices = pattern.n, pattern.indptr.copy(), pattern.indices.copy()
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            kind = data.draw(st.sampled_from(["set", "delete", "insert", "indptr"]))
            if kind == "insert":
                k = data.draw(st.integers(min_value=0, max_value=indices.size))
                indices = np.insert(indices, k, data.draw(st.integers(-1, n)))
                indptr[1:][indptr[1:] >= k] += 1
            elif kind == "indptr" and n > 1:
                indptr[data.draw(st.integers(1, n - 1))] = data.draw(
                    st.integers(0, indices.size))
            elif indices.size and kind in ("set", "delete"):
                k = data.draw(st.integers(min_value=0, max_value=indices.size - 1))
                if kind == "set":
                    indices[k] = data.draw(st.integers(-1, n))
                else:
                    indices = np.delete(indices, k)
                    indptr[indptr > k] -= 1
        broken = SymmetricPattern(n, indptr, indices)
        assert _error(broken.validate) == _error(lambda: _validate_by_rows(broken))

    @pytest.mark.parametrize("problem,scale", REGISTRY_CASES)
    def test_registry_patterns_are_valid(self, problem, scale):
        pattern, _spec = load_problem(problem, scale=scale)
        pattern.validate()


class TestPatternProperties:
    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_generated_patterns_are_valid(self, pattern):
        pattern.validate()

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_equals_twice_edges(self, pattern):
        assert int(pattern.degree().sum()) == 2 * pattern.num_edges

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_permute_preserves_edge_count(self, pattern):
        rng = np.random.default_rng(0)
        perm = rng.permutation(pattern.n)
        assert pattern.permute(perm).num_edges == pattern.num_edges

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_edges_are_the_upper_triangle_row_by_row(self, pattern):
        expected = [(i, int(j)) for i in range(pattern.n)
                    for j in pattern.neighbors(i) if i < j]
        assert list(pattern.edges()) == expected
        rows, cols = pattern.edge_arrays()
        assert list(zip(rows.tolist(), cols.tolist())) == expected
        assert SymmetricPattern.from_edge_arrays(pattern.n, rows, cols) == pattern

    @given(small_patterns())
    @settings(max_examples=40, deadline=None)
    def test_double_permutation_roundtrip(self, pattern):
        rng = np.random.default_rng(1)
        perm = rng.permutation(pattern.n)
        # permuting by perm then by its inverse relabelling returns the original
        assert pattern.permute(perm).permute(_inverse_of(perm)) == pattern


def _inverse_of(perm: np.ndarray) -> np.ndarray:
    """The permutation that undoes a new-to-old relabelling when applied after it."""
    perm = np.asarray(perm)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return inverse
