"""Tests for the on-disk result cache."""

import os
import shutil
import stat
from unittest import mock

import pytest

from repro.lint.version import LINT_VERSION
from repro.runtime.cache import (
    _READ_SIZE,
    CACHE_VERSION,
    ResultCache,
    canonical_key,
    default_cache_dir,
)
from repro.store.snapshot import encode_result


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCanonicalKey:
    def test_key_order_is_irrelevant(self):
        assert canonical_key("t5", {"a": 1, "b": 2}) == canonical_key(
            "t5", {"b": 2, "a": 1}
        )

    def test_version_is_part_of_key(self):
        assert str(CACHE_VERSION) in canonical_key("t5", {})

    def test_non_json_values_serialise_via_repr(self):
        # Profile objects etc. fall back to repr() rather than failing.
        assert "float" in canonical_key("t5", {"x": float})

    def test_lint_version_is_part_of_key(self):
        # A ruleset upgrade must invalidate the whole cache: results
        # produced under a weaker ruleset can't mask behaviour changes.
        assert LINT_VERSION in canonical_key("t5", {})
        with mock.patch("repro.runtime.cache.LINT_VERSION", "0.0.0-test"):
            changed = canonical_key("t5", {})
        assert changed != canonical_key("t5", {})


class TestResultCache:
    def test_miss_then_roundtrip(self, cache):
        hit, value = cache.get("table5", {"run": 1})
        assert not hit and value is None
        cache.put("table5", {"run": 1}, {"met": 1.25})
        hit, value = cache.get("table5", {"run": 1})
        assert hit and value == {"met": 1.25}

    def test_distinct_keys_distinct_entries(self, cache):
        cache.put("table5", {"run": 1}, "one")
        cache.put("table5", {"run": 2}, "two")
        assert cache.entry_count() == 2
        assert cache.get("table5", {"run": 2}) == (True, "two")

    def test_experiments_are_namespaced(self, cache):
        cache.put("table5", {"run": 1}, "t5")
        assert cache.get("table6", {"run": 1}) == (False, None)

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        cache.put("table5", {"run": 1}, "value")
        (path,) = list(cache.root.rglob("*.pkl"))
        path.write_bytes(b"not a pickle")
        assert cache.get("table5", {"run": 1}) == (False, None)
        assert not path.exists()

    def test_truncated_entry_is_a_miss_not_a_crash(self, cache):
        # A torn write (process killed mid-put without the atomic
        # rename, disk full, ...) leaves a prefix of a valid pickle.
        cache.put("table5", {"run": 1}, {"met": 1.25, "rows": list(range(50))})
        (path,) = list(cache.root.rglob("*.pkl"))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.get("table5", {"run": 1}) == (False, None)
        assert not path.exists()
        # The slot is usable again after the corrupt entry is evicted.
        cache.put("table5", {"run": 1}, "fresh")
        assert cache.get("table5", {"run": 1}) == (True, "fresh")

    def test_garbage_json_entry_is_a_miss(self, cache):
        cache.put("table5", {"run": 1}, "value")
        (path,) = list(cache.root.rglob("*.pkl"))
        path.write_text('{"truncated": [1, 2,')
        assert cache.get("table5", {"run": 1}) == (False, None)

    def test_empty_entry_is_a_miss(self, cache):
        cache.put("table5", {"run": 1}, "value")
        (path,) = list(cache.root.rglob("*.pkl"))
        path.write_bytes(b"")
        assert cache.get("table5", {"run": 1}) == (False, None)

    def test_clear(self, cache):
        for run in range(4):
            cache.put("table5", {"run": run}, run)
        assert cache.clear() == 4
        assert cache.entry_count() == 0
        assert cache.clear() == 0

    @pytest.mark.parametrize(
        "size", [_READ_SIZE - 1, _READ_SIZE, 3 * _READ_SIZE + 5]
    )
    def test_entries_at_and_past_one_read_roundtrip(self, cache, size):
        # A hit reads _READ_SIZE bytes at first; an entry that fills
        # that buffer must be read on to its end, not cut short.
        length = next(
            n for n in range(size - 64, size)
            if len(encode_result(b"\0" * n)) == size
        )
        value = b"\0" * length
        cache.put("table2", {"run": 1}, value)
        (path,) = list(cache.root.rglob("*.pkl"))
        assert path.stat().st_size == size
        assert cache.get("table2", {"run": 1}) == (True, value)

    def test_put_is_atomic_no_temp_residue(self, cache):
        cache.put("table5", {"run": 1}, "value")
        leftovers = list(cache.root.rglob("*.tmp"))
        assert leftovers == []

    def test_entry_bytes_and_mode(self, cache):
        cache.put("table5", {"run": 1}, {"met": 1.32})
        path = cache._path("table5", {"run": 1})
        assert path.read_bytes() == encode_result({"met": 1.32})
        # mkstemp's 0600, which the rename keeps.
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_put_recreates_a_removed_folder(self, cache):
        cache.put("table5", {"run": 1}, "first")
        shutil.rmtree(cache.root / "table5")
        cache.put("table5", {"run": 2}, "second")
        assert cache.get("table5", {"run": 2}) == (True, "second")
        assert cache.get("table5", {"run": 1}) == (False, None)

    def test_failed_put_leaves_no_entry_and_no_temp(self, cache):
        cache.put("table5", {"run": 1}, "first")
        with mock.patch("os.replace", side_effect=OSError("disk gone")):
            with pytest.raises(OSError, match="disk gone"):
                cache.put("table5", {"run": 2}, "second")
        assert list(cache.root.rglob("*.tmp")) == []
        assert cache.get("table5", {"run": 2}) == (False, None)


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_fallback_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro-dsn2004"
        assert str(default_cache_dir()).startswith(os.path.expanduser("~"))
