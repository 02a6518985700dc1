"""Unit tests for the Matrix Market reader/writer (repro.sparse.io_mm)."""

import io

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from repro.sparse.io_mm import read_matrix_market, write_matrix_market


def _random_symmetric(n=12, density=0.2, seed=0):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=np.random.RandomState(seed), format="csr")
    a = a + a.T + sp.eye(n)
    return a.tocsr()


class TestRoundTrip:
    def test_symmetric_roundtrip(self, tmp_path):
        a = _random_symmetric()
        path = tmp_path / "sym.mtx"
        write_matrix_market(path, a)
        b = read_matrix_market(path)
        np.testing.assert_allclose(b.toarray(), a.toarray(), atol=1e-14)

    def test_general_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        a = sp.csr_matrix(rng.random((5, 7)) * (rng.random((5, 7)) > 0.5))
        path = tmp_path / "gen.mtx"
        write_matrix_market(path, a, symmetric=False)
        b = read_matrix_market(path)
        np.testing.assert_allclose(b.toarray(), a.toarray(), atol=1e-14)

    def test_pattern_field(self, tmp_path):
        a = _random_symmetric()
        path = tmp_path / "pat.mtx"
        write_matrix_market(path, a, field="pattern")
        b = read_matrix_market(path)
        np.testing.assert_array_equal(b.toarray() != 0, a.toarray() != 0)
        assert set(np.unique(b.data)) <= {1.0}

    def test_stream_roundtrip(self):
        a = _random_symmetric(6)
        stream = io.StringIO()
        write_matrix_market(stream, a)
        b = read_matrix_market(io.StringIO(stream.getvalue()))
        np.testing.assert_allclose(b.toarray(), a.toarray(), atol=1e-14)

    def test_comment_lines_are_written_and_skipped(self):
        a = sp.eye(3, format="csr")
        stream = io.StringIO()
        write_matrix_market(stream, a, comment="generated by tests\nsecond line")
        text = stream.getvalue()
        assert "% generated by tests" in text
        b = read_matrix_market(io.StringIO(text))
        np.testing.assert_allclose(b.toarray(), np.eye(3))


class TestAgainstScipy:
    def test_our_writer_scipy_reader(self, tmp_path):
        a = _random_symmetric(10, seed=3)
        path = tmp_path / "x.mtx"
        write_matrix_market(path, a)
        b = scipy.io.mmread(str(path)).tocsr()
        np.testing.assert_allclose(b.toarray(), a.toarray(), atol=1e-14)

    def test_scipy_writer_our_reader(self, tmp_path):
        a = _random_symmetric(10, seed=4)
        path = tmp_path / "y.mtx"
        scipy.io.mmwrite(str(path), a, symmetry="symmetric")
        b = read_matrix_market(path)
        np.testing.assert_allclose(b.toarray(), a.toarray(), atol=1e-12)

    def test_scipy_general_our_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        a = sp.csr_matrix((rng.random((6, 6)) > 0.6) * rng.random((6, 6)))
        path = tmp_path / "z.mtx"
        scipy.io.mmwrite(str(path), a)
        b = read_matrix_market(path)
        np.testing.assert_allclose(b.toarray(), a.toarray(), atol=1e-12)


class TestErrors:
    def test_missing_header(self):
        with pytest.raises(ValueError, match="MatrixMarket"):
            read_matrix_market(io.StringIO("1 1 1\n1 1 1.0\n"))

    def test_complex_rejected(self):
        text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n"
        with pytest.raises(ValueError, match="complex"):
            read_matrix_market(io.StringIO(text))

    def test_bad_field(self):
        text = "%%MatrixMarket matrix coordinate nonsense general\n1 1 0\n"
        with pytest.raises(ValueError, match="field"):
            read_matrix_market(io.StringIO(text))

    def test_wrong_entry_count(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n"
        with pytest.raises(ValueError, match="expected 2"):
            read_matrix_market(io.StringIO(text))

    def test_invalid_write_field(self):
        with pytest.raises(ValueError):
            write_matrix_market(io.StringIO(), sp.eye(2), field="integer")


class TestArrayFormat:
    def test_dense_general_array(self):
        text = (
            "%%MatrixMarket matrix array real general\n"
            "2 2\n"
            "1.0\n3.0\n2.0\n4.0\n"
        )
        a = read_matrix_market(io.StringIO(text)).toarray()
        np.testing.assert_allclose(a, [[1.0, 2.0], [3.0, 4.0]])

    def test_dense_symmetric_array(self):
        text = (
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "1.0\n5.0\n2.0\n"
        )
        a = read_matrix_market(io.StringIO(text)).toarray()
        np.testing.assert_allclose(a, [[1.0, 5.0], [5.0, 2.0]])
