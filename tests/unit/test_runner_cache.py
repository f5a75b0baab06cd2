"""Unit tests for the cell cache and its content-addressed keys."""

import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.runner import (
    CellCache,
    CellSpec,
    CellSpecError,
    EnvSpec,
    RunnerConfig,
    cache_key,
    canonicalize,
    default_cache_dir,
    run_cells,
)
from repro.runner.cellspec import PACKAGE_ROOT, hash_source_tree, source_fingerprint


@dataclass(frozen=True)
class _DemoConfig:
    region: str = "us-east1"
    instances: int = 10


@dataclass(frozen=True)
class _OtherConfig:
    region: str = "us-east1"
    instances: int = 10


def _count_cell(config: dict, seed: int) -> dict:
    """A trivial module-level cell body (picklable by reference)."""
    return {"n": config["n"] * 2, "seed": seed}


class TestCanonicalize:
    def test_scalars_pass_through(self):
        assert canonicalize(3) == 3
        assert canonicalize(1.5) == 1.5
        assert canonicalize("us-east1") == "us-east1"
        assert canonicalize(None) is None
        assert canonicalize(True) is True

    def test_dict_keys_sorted(self):
        assert canonicalize({"b": 1, "a": 2}) == {"a": 2, "b": 1}

    def test_tuples_and_lists_equivalent(self):
        assert canonicalize((1, 2)) == canonicalize([1, 2])

    def test_sets_sorted(self):
        assert canonicalize({3, 1, 2}) == [1, 2, 3]

    def test_dataclass_tagged_with_type(self):
        out = canonicalize(_DemoConfig())
        assert out["__dataclass__"].endswith("_DemoConfig")
        assert out["fields"] == {"region": "us-east1", "instances": 10}

    def test_same_fields_different_types_do_not_collide(self):
        assert canonicalize(_DemoConfig()) != canonicalize(_OtherConfig())

    def test_uncanonicalizable_raises(self):
        with pytest.raises(CellSpecError):
            canonicalize(object())


class TestCacheKey:
    def test_key_stable_for_equal_inputs(self):
        a = cache_key("fig4", {"region": "us-east1"}, 7)
        b = cache_key("fig4", {"region": "us-east1"}, 7)
        assert a == b

    def test_key_changes_with_config(self):
        a = cache_key("fig4", {"region": "us-east1"}, 7)
        b = cache_key("fig4", {"region": "us-west1"}, 7)
        assert a != b

    def test_key_changes_with_seed(self):
        assert cache_key("fig4", {}, 7) != cache_key("fig4", {}, 8)

    def test_key_changes_with_experiment(self):
        assert cache_key("fig4", {}, 7) != cache_key("fig5", {}, 7)

    def test_key_changes_with_package_version(self, monkeypatch):
        before = cache_key("fig4", {}, 7)
        monkeypatch.setattr("repro._version.__version__", "99.0.0")
        assert cache_key("fig4", {}, 7) != before

    def test_dict_ordering_does_not_change_key(self):
        a = cache_key("fig4", {"x": 1, "y": 2}, 0)
        b = cache_key("fig4", {"y": 2, "x": 1}, 0)
        assert a == b


class TestSourceFingerprint:
    """Cell and world keys follow the package sources, not just its version."""

    @staticmethod
    def copy_package(tmp_path):
        root = tmp_path / "src"
        shutil.copytree(
            PACKAGE_ROOT, root / "repro", ignore=shutil.ignore_patterns("__pycache__")
        )
        return root

    def test_fingerprint_is_the_package_tree_hash(self, tmp_path):
        assert source_fingerprint() == hash_source_tree(PACKAGE_ROOT)
        copy = self.copy_package(tmp_path) / "repro"
        assert hash_source_tree(copy) == source_fingerprint()
        (copy / "units.py").write_text(
            (copy / "units.py").read_text(encoding="utf-8") + "\n# edited\n",
            encoding="utf-8",
        )
        assert hash_source_tree(copy) != source_fingerprint()

    def test_key_changes_when_a_module_is_edited(self, tmp_path):
        root = self.copy_package(tmp_path)
        script = (
            "from repro.runner import EnvSpec, cache_key;"
            "print(cache_key('fig4', {}, 7), EnvSpec(seed=3).content_hash())"
        )

        def keys():
            done = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": str(root)},
                capture_output=True,
                text=True,
                check=True,
            )
            return done.stdout.split()

        before = keys()
        # An unmodified copy keys exactly like the package under test.
        assert before == [cache_key("fig4", {}, 7), EnvSpec(seed=3).content_hash()]
        module = root / "repro" / "cloud" / "orchestrator.py"
        module.write_text(
            module.read_text(encoding="utf-8") + "\n# edited\n", encoding="utf-8"
        )
        after = keys()
        assert after[0] != before[0]
        assert after[1] != before[1]

    def test_keys_hash_the_fingerprint(self, monkeypatch):
        spec = CellSpec("fig4", _count_cell, {"n": 1}, 7)
        cell, world = spec.key(), EnvSpec(seed=3).content_hash()
        identity = spec.identity()
        monkeypatch.setattr("repro.runner.cellspec.source_fingerprint", lambda: "0" * 64)
        monkeypatch.setattr("repro.runner.worldcache.source_fingerprint", lambda: "0" * 64)
        assert spec.key() != cell
        assert EnvSpec(seed=3).content_hash() != world
        # Fault plans key cell failures on the identity, which the sources
        # do not move.
        assert spec.identity() == identity


class TestCellCache:
    def test_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path)
        cache.put("ab" + "0" * 62, {"v": 1}, 2.5)
        hit, value, elapsed, trace = cache.get("ab" + "0" * 62)
        assert hit
        assert value == {"v": 1}
        assert elapsed == 2.5
        assert trace is None

    def test_trace_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path)
        trace = {"spans": [{"id": 0, "name": "cell"}], "metrics": {}}
        cache.put("cc" + "0" * 62, {"v": 2}, 1.0, trace)
        hit, _, _, stored = cache.get("cc" + "0" * 62)
        assert hit
        assert stored == trace

    def test_missing_entry_is_a_miss(self, tmp_path):
        hit, value, _, _ = CellCache(tmp_path).get("cd" + "0" * 62)
        assert not hit
        assert value is None

    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path):
        cache = CellCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, [1, 2, 3], 1.0)
        path = cache.path_for(key)
        path.write_bytes(b"not a pickle at all")
        hit, _, _, _ = cache.get(key)
        assert not hit
        assert not path.exists()

    def test_foreign_format_entry_is_a_miss(self, tmp_path):
        import pickle

        cache = CellCache(tmp_path)
        key = "12" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"format": "something-else", "key": key}))
        hit, _, _, _ = cache.get(key)
        assert not hit

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path)
        key_a = "34" + "0" * 62
        key_b = "34" + "1" * 61 + "0"
        cache.put(key_a, "value", 0.1)
        # Simulate a renamed/misplaced entry.
        cache.path_for(key_a).rename(cache.path_for(key_b))
        hit, _, _, _ = cache.get(key_b)
        assert not hit

    def test_put_failure_is_swallowed(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the directory should go")
        cache = CellCache(blocker / "sub")
        cache.put("aa" + "0" * 62, "value", 0.1)  # must not raise
        hit, _, _, _ = cache.get("aa" + "0" * 62)
        assert not hit

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestRunCellsCaching:
    def _spec(self, n: int = 3, seed: int = 11) -> CellSpec:
        return CellSpec(
            experiment="unit-demo",
            fn=_count_cell,
            config={"n": n},
            seed=seed,
        )

    def test_second_run_hits_cache(self, tmp_path):
        runner = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        first = run_cells([self._spec()], runner)[0]
        assert not first.cached
        second = run_cells([self._spec()], runner)[0]
        assert second.cached
        assert second.value == first.value
        assert runner.stats.cells == 2
        assert runner.stats.cache_hits == 1

    def test_config_change_misses(self, tmp_path):
        runner = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        run_cells([self._spec(n=3)], runner)
        result = run_cells([self._spec(n=4)], runner)[0]
        assert not result.cached

    def test_seed_change_misses(self, tmp_path):
        runner = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        run_cells([self._spec(seed=11)], runner)
        result = run_cells([self._spec(seed=12)], runner)[0]
        assert not result.cached

    def test_version_bump_misses(self, tmp_path, monkeypatch):
        runner = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        run_cells([self._spec()], runner)
        monkeypatch.setattr("repro._version.__version__", "99.0.0")
        result = run_cells([self._spec()], runner)[0]
        assert not result.cached

    def test_corrupted_entry_recomputed_and_rewritten(self, tmp_path):
        runner = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        first = run_cells([self._spec()], runner)[0]
        path = CellCache(tmp_path).path_for(first.key)
        path.write_bytes(b"\x00truncated")
        again = run_cells([self._spec()], runner)[0]
        assert not again.cached
        assert again.value == first.value
        # The recompute restored a readable entry.
        assert run_cells([self._spec()], runner)[0].cached

    def test_no_cache_bypasses_reads_but_still_writes(self, tmp_path):
        warm = RunnerConfig(cache_read=True, cache_write=True, cache_dir=tmp_path)
        run_cells([self._spec()], warm)

        no_cache = RunnerConfig.from_cli(jobs=0, no_cache=True, cache_dir=tmp_path)
        assert no_cache.cache_read is False
        assert no_cache.cache_write is True
        result = run_cells([self._spec()], no_cache)[0]
        assert not result.cached  # read bypassed despite a warm entry

        # ... but the recomputed value was written back.
        assert CellCache(tmp_path).get(result.key)[0]

    def test_default_runner_never_touches_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        result = run_cells([self._spec()])[0]
        assert not result.cached
        assert not (tmp_path / "cache").exists()
