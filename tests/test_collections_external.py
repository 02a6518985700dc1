"""Offline tests for the external fetch/ingest path.

Everything runs against the checked-in fixtures under
``tests/fixtures/external/`` (a 6x5 grid pattern in four packagings) served
through ``file://`` URLs — no network access anywhere.  The fixtures were
generated by the repo's own writers; the regeneration recipe lives in the
repo history of this file's PR.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.collections.external import (
    fetch_problem,
    fetch_url,
    ingest_file,
    suitesparse_url,
)
from repro.collections.meshes import grid2d_pattern
from repro.sparse.pattern import SymmetricPattern
from repro.store.download import DownloadCache, default_fetch_cache_root

FIXTURE_N = 30
FIXTURE_NNZ = 128


@pytest.fixture()
def fixtures():
    return Path(__file__).parent / "fixtures" / "external"


@pytest.fixture()
def cache(tmp_path):
    return DownloadCache(tmp_path / "fetch-cache")


def _file_url(path) -> str:
    return path.resolve().as_uri()


class TestSuiteSparseUrl:
    def test_mm_layout(self):
        url = suitesparse_url("HB/bcsstk13")
        assert url == "https://sparse.tamu.edu/MM/HB/bcsstk13.tar.gz"

    def test_rb_layout(self):
        url = suitesparse_url("Nasa/barth4", fmt="rb")
        assert url == "https://sparse.tamu.edu/RB/Nasa/barth4.tar.gz"

    def test_custom_base_url(self):
        url = suitesparse_url("G/N", base_url="http://mirror.example/")
        assert url == "http://mirror.example/MM/G/N.tar.gz"

    @pytest.mark.parametrize("bad", ["", "nameonly", "a/b/c", "/leading"])
    def test_malformed_reference_rejected(self, bad):
        with pytest.raises(ValueError):
            suitesparse_url(bad)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            suitesparse_url("G/N", fmt="zip")


class TestDownloadCache:
    def test_roundtrip(self, cache):
        record = cache.store("http://example/x.mtx", b"hello", filename="x.mtx")
        hit = cache.lookup("http://example/x.mtx")
        assert hit is not None
        assert hit["sha256"] == hashlib.sha256(b"hello").hexdigest()
        assert hit["filename"] == "x.mtx"
        assert open(hit["path"], "rb").read() == b"hello"
        assert record["sha256"] == hit["sha256"]

    def test_miss_for_unknown_url(self, cache):
        assert cache.lookup("http://example/unknown") is None

    def test_corrupt_object_is_evicted_and_missed(self, cache):
        record = cache.store("http://example/y", b"payload")
        with open(record["path"], "wb") as handle:
            handle.write(b"tampered")
        assert cache.lookup("http://example/y") is None
        # the corrupt object was evicted, not left to poison later fetches
        assert not Path(record["path"]).exists()

    def test_corrupt_meta_is_a_miss(self, cache):
        cache.store("http://example/z", b"data")
        meta_path = cache._meta_path("http://example/z")
        meta_path.write_text("{not json")
        assert cache.lookup("http://example/z") is None

    def test_identical_bytes_share_one_object(self, cache):
        a = cache.store("http://example/a", b"same-bytes")
        b = cache.store("http://example/b", b"same-bytes")
        assert a["path"] == b["path"]
        assert [e["url"] for e in cache.entries()] == [
            "http://example/a", "http://example/b",
        ]

    def test_evict_drops_the_url(self, cache):
        cache.store("http://example/e", b"bytes")
        assert cache.evict("http://example/e")
        assert cache.lookup("http://example/e") is None
        assert not cache.evict("http://example/e")

    def test_env_var_moves_the_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FETCH_CACHE", str(tmp_path / "elsewhere"))
        assert default_fetch_cache_root() == tmp_path / "elsewhere"
        assert DownloadCache().root == tmp_path / "elsewhere"


class TestFetchUrl:
    def test_fetches_and_caches_file_url(self, cache, fixtures):
        url = _file_url(fixtures / "demo.mtx")
        record = fetch_url(url, cache=cache)
        assert record["size"] > 0
        assert cache.lookup(url) is not None

    def test_second_fetch_is_served_from_cache(self, cache, fixtures):
        url = _file_url(fixtures / "demo.mtx")
        calls = []

        def opener(target):
            calls.append(target)
            import urllib.request

            return urllib.request.urlopen(target)

        first = fetch_url(url, cache=cache, opener=opener)
        second = fetch_url(url, cache=cache, opener=opener)
        assert first["sha256"] == second["sha256"]
        assert calls == [url]  # one real read; the repeat was a cache hit

    def test_force_redownloads(self, cache, fixtures):
        url = _file_url(fixtures / "demo.mtx")
        calls = []

        def opener(target):
            calls.append(target)
            import urllib.request

            return urllib.request.urlopen(target)

        fetch_url(url, cache=cache, opener=opener)
        fetch_url(url, cache=cache, opener=opener, force=True)
        assert calls == [url, url]

    def test_unsupported_scheme_rejected(self, cache):
        with pytest.raises(ValueError):
            fetch_url("ftp://example/x", cache=cache)


class TestIngestFile:
    @pytest.mark.parametrize("name,fmt", [
        ("demo.mtx", "matrix-market"),
        ("demo.mtx.gz", "matrix-market"),
        ("demo.rsa", "harwell-boeing"),
        ("demo.tar.gz", "matrix-market"),
    ])
    def test_every_packaging_yields_the_same_pattern(self, fixtures, name, fmt):
        pattern, meta = ingest_file(fixtures / name)
        assert isinstance(pattern, SymmetricPattern)
        pattern.validate()
        assert pattern.n == FIXTURE_N
        assert pattern.nnz == FIXTURE_NNZ
        assert meta["format"] == fmt
        assert meta["n"] == FIXTURE_N

    def test_all_packagings_agree_exactly(self, fixtures):
        patterns = [
            ingest_file(fixtures / name)[0]
            for name in ("demo.mtx", "demo.mtx.gz", "demo.rsa", "demo.tar.gz")
        ]
        assert all(p == patterns[0] for p in patterns[1:])

    def test_filename_hint_overrides_digest_names(self, fixtures, tmp_path):
        # Cache objects are stored under their bare sha256 — the stored
        # filename must drive format detection.
        blob = tmp_path / "0f1e2d"
        blob.write_bytes((fixtures / "demo.tar.gz").read_bytes())
        pattern, meta = ingest_file(blob, filename="demo.tar.gz")
        assert pattern.n == FIXTURE_N
        assert meta["member"] == "demo/demo.mtx"

    def test_archive_without_matrix_member_rejected(self, tmp_path):
        import io
        import tarfile

        path = tmp_path / "empty.tar.gz"
        with tarfile.open(path, mode="w:gz") as tar:
            data = b"not a matrix"
            info = tarfile.TarInfo("readme.txt")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
        with pytest.raises(ValueError):
            ingest_file(path)


class TestFetchProblem:
    def test_url_end_to_end(self, cache, fixtures):
        url = _file_url(fixtures / "demo.tar.gz")
        pattern, meta = fetch_problem(url, cache=cache)
        assert pattern.n == FIXTURE_N
        assert pattern.nnz == FIXTURE_NNZ
        assert meta["format"] == "matrix-market"
        assert meta["sha256"] == hashlib.sha256(
            (fixtures / "demo.tar.gz").read_bytes()
        ).hexdigest()

    def test_reference_resolves_through_base_url(self, cache, fixtures, tmp_path):
        # Lay out a local mirror shaped like the collection: MM/DEMO/demo.tar.gz
        mirror = tmp_path / "mirror"
        (mirror / "MM" / "DEMO").mkdir(parents=True)
        (mirror / "MM" / "DEMO" / "demo.tar.gz").write_bytes(
            (fixtures / "demo.tar.gz").read_bytes()
        )
        pattern, meta = fetch_problem(
            "DEMO/demo", cache=cache, base_url=_file_url(mirror)
        )
        assert pattern.n == FIXTURE_N
        assert meta["url"].endswith("/MM/DEMO/demo.tar.gz")

    def test_repeat_fetch_is_offline(self, cache, fixtures):
        url = _file_url(fixtures / "demo.mtx")
        fetch_problem(url, cache=cache)

        def refuse(_target):
            raise AssertionError("network touched on a cached fetch")

        pattern, _meta = fetch_problem(url, cache=cache, opener=refuse)
        assert pattern.n == FIXTURE_N


class TestFetchCli:
    def test_fetch_subcommand_end_to_end(self, fixtures, tmp_path, capsys):
        from repro.cli import main

        url = _file_url(fixtures / "demo.tar.gz")
        code = main(["fetch", url, "--cache", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "sha256" in out
        assert f"n={FIXTURE_N} nnz={FIXTURE_NNZ}" in out

    def test_fetch_no_ingest(self, fixtures, tmp_path, capsys):
        from repro.cli import main

        url = _file_url(fixtures / "demo.rsa")
        code = main(["fetch", url, "--cache", str(tmp_path / "cache"),
                     "--no-ingest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "matrix:" not in out

    def test_fetch_output_writes_matrix_market(self, fixtures, tmp_path, capsys):
        from repro.cli import main
        from repro.sparse.io_mm import read_matrix_market
        from repro.sparse.ops import structure_from_matrix

        out_path = tmp_path / "demo-out.mtx"
        code = main(["fetch", _file_url(fixtures / "demo.mtx"),
                     "--cache", str(tmp_path / "cache"),
                     "--output", str(out_path)])
        assert code == 0
        pattern = structure_from_matrix(read_matrix_market(out_path))
        assert pattern.n == FIXTURE_N
        assert pattern.nnz == FIXTURE_NNZ

    def test_bad_reference_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fetch", "not-a-ref"]) == 2
        assert "Group/Name" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["fetch", _file_url(tmp_path / "nope.mtx"),
                     "--cache", str(tmp_path / "cache")])
        assert code == 1
        assert "cannot fetch" in capsys.readouterr().err


class TestExternalRegistration:
    def _register(self, tmp_path, monkeypatch, name="tiny5"):
        from repro.collections.external import register_external

        monkeypatch.setenv("REPRO_EXTERNAL_DIR", str(tmp_path / "ext"))
        pattern = grid2d_pattern(5, 4)
        return register_external(name, pattern, meta={"source": "test"})

    def test_register_and_resolve_as_problem(self, tmp_path, monkeypatch):
        from repro.collections.registry import (
            available_problems,
            expected_problem_size,
            get_problem_spec,
            has_analytic_size,
            load_problem,
        )

        spec = self._register(tmp_path, monkeypatch)
        assert spec.name == "EXT/TINY5"
        assert "EXT/TINY5" in available_problems("external")
        resolved = get_problem_spec("ext/tiny5")
        assert resolved is not None and resolved.n == spec.n
        pattern, loaded = load_problem("EXT/TINY5")
        assert pattern.n == spec.n and loaded.name == "EXT/TINY5"
        # fixed size: scale is ignored, exact n*nnz feeds the cost model
        big, _ = load_problem("EXT/TINY5", scale=0.001)
        assert big.n == pattern.n
        assert expected_problem_size("EXT/TINY5", scale=0.001) == spec.n * spec.nnz
        assert has_analytic_size("EXT/TINY5")

    def test_invalid_names_rejected(self, tmp_path, monkeypatch):
        with pytest.raises(ValueError, match="external problem name"):
            self._register(tmp_path, monkeypatch, name="bad name!")

    def test_suite_runs_external_problem(self, tmp_path, monkeypatch, capsys):
        self._register(tmp_path, monkeypatch)
        code = main(["suite", "EXT/TINY5", "--algorithms", "rcm"])
        assert code == 0
        assert "EXT/TINY5" in capsys.readouterr().out

    def test_fetch_register_via_file_url(self, tmp_path, monkeypatch, capsys):
        from repro.sparse.io_mm import write_matrix_market

        monkeypatch.setenv("REPRO_EXTERNAL_DIR", str(tmp_path / "ext"))
        mtx = tmp_path / "tiny.mtx"
        write_matrix_market(mtx, grid2d_pattern(4, 4).to_scipy(), field="pattern")
        code = main(["fetch", mtx.as_uri(), "--cache", str(tmp_path / "cache"),
                     "--register", "grid44"])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered as EXT/GRID44" in out
        from repro.collections.registry import load_problem

        pattern, _spec = load_problem("EXT/GRID44")
        assert pattern.n == 16

    def test_fetch_register_conflicts_with_no_ingest(self, tmp_path, capsys):
        code = main(["fetch", "HB/bcsstk13", "--cache", str(tmp_path),
                     "--no-ingest", "--register", "x"])
        assert code == 2
        assert "--register needs the ingest step" in capsys.readouterr().err
