"""CertificateCache: rows in the store file, loud damage, enumeration."""

import os
import sqlite3
from contextlib import closing

import pytest

from repro.decision import CertificateCache
from repro.universe import STORE_FILENAME, StoreError


def entry(verdict="open", cert=None):
    return {
        "solvability": verdict,
        "reason": "test",
        "tier": 1,
        "procedure": "closed-form",
        "certificate_id": "cdeadbeef" if cert else None,
        "certificate": cert,
        "evidence": [],
        "budget": {},
    }


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        cache = CertificateCache(tmp_path / "c")
        cache.put((6, 3, 1, 4), entry("trivial"))
        assert cache.get((6, 3, 1, 4))["solvability"] == "trivial"
        assert cache.get((6, 3, 0, 6)) is None

    def test_survives_process_boundary(self, tmp_path):
        CertificateCache(tmp_path / "c").put((6, 3, 1, 4), entry())
        fresh = CertificateCache(tmp_path / "c")
        assert fresh.get((6, 3, 1, 4)) is not None

    def test_put_many_writes_rows_in_key_order(self, tmp_path):
        cache = CertificateCache(tmp_path / "c")
        cache.put_many({
            (7, 2, 1, 6): entry(),
            (6, 3, 1, 4): entry(),
            (6, 3, 0, 6): entry(),
        })
        assert [key for key, _ in cache.iter_entries()] == [
            (6, 3, 0, 6), (6, 3, 1, 4), (7, 2, 1, 6),
        ]
        assert cache.stats()["entries"] == 3

    def test_lives_in_the_store_file(self, tmp_path):
        CertificateCache(tmp_path / "c").put((6, 3, 1, 4), entry())
        assert os.listdir(tmp_path / "c")[0].startswith(STORE_FILENAME)

    def test_stats_counts_hits_and_misses(self, tmp_path):
        cache = CertificateCache(tmp_path / "c")
        cache.put((6, 3, 1, 4), entry())
        cache.get((6, 3, 1, 4))
        cache.get((6, 3, 0, 6))
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_stats_count_writes(self, tmp_path):
        cache = CertificateCache(tmp_path / "c")
        cache.put((6, 3, 1, 4), entry())
        cache.put_many({(6, 3, 0, 6): entry(), (7, 2, 1, 6): entry()})
        assert cache.stats()["writes"] == 3
        cache.clear()
        assert cache.stats()["writes"] == 0

    def test_writes_surface_in_process_cache_stats(self, tmp_path):
        from repro.core.cache_config import cache_stats

        cache = CertificateCache(tmp_path / "c")
        before = cache_stats()["decision.certificates"]["writes"]
        cache.put((6, 3, 1, 4), entry())
        after = cache_stats()["decision.certificates"]
        assert after["writes"] == before + 1
        assert after["instances"] >= 1


class TestDamage:
    def test_torn_row_is_a_loud_error(self, tmp_path):
        cache = CertificateCache(tmp_path / "c")
        cache.put((6, 3, 1, 4), entry())
        path = tmp_path / "c" / STORE_FILENAME
        with closing(sqlite3.connect(path)) as connection, connection:
            connection.execute("UPDATE decisions SET payload = '{ torn'")
        with pytest.raises(StoreError, match="corrupt row"):
            cache.get((6, 3, 1, 4))

    def test_missing_store_reads_empty_and_creates_nothing(self, tmp_path):
        cache = CertificateCache(tmp_path / "missing")
        assert cache.get((6, 3, 1, 4)) is None
        assert cache.stats()["entries"] == 0
        cache.clear()
        assert not (tmp_path / "missing").exists()

    def test_clear_removes_rows_and_counters(self, tmp_path):
        cache = CertificateCache(tmp_path / "c")
        cache.put((6, 3, 1, 4), entry())
        cache.clear()
        assert list(cache.iter_entries()) == []
        assert cache.stats()["hits"] == 0


class TestCertificateEnumeration:
    def test_iter_certificates_dedupes_by_id(self, tmp_path):
        cache = CertificateCache(tmp_path / "c")
        payload = {"kind": "theorem", "rule": "x", "task": [1, 1, 0, 1]}
        cache.put((6, 3, 1, 4), entry("trivial", cert=payload))
        cache.put((6, 3, 0, 6), entry("trivial", cert=payload))
        assert len(list(cache.iter_certificates())) == 1
        assert len(list(cache.iter_entries())) == 2
