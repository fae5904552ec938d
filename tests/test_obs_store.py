"""Tests for the persistent solution store (the disk cache tier).

Covers the codec roundtrips, the two-tier manager flow, corruption
handling, ``code_version`` invalidation and the maintenance operations
documented in docs/CACHING.md.
"""

import json
import os


from tests.helpers import diamond, do_while_invariant

from repro.analysis.liveness import compute_liveness
from repro.analysis.local import compute_local_properties
from repro.core.lcm import analyze_lcm
from repro.core.pipeline import optimize
from repro.dataflow.problem import DataflowProblem, GenKillTransfer
from repro.dataflow.solver import solve
from repro.obs.fingerprint import COMBINE_VERSION, cfg_fingerprint
from repro.obs.manager import AnalysisManager
from repro.obs.store import (
    STORE_FORMAT_VERSION,
    JSONRecord,
    SolutionStore,
    default_code_version,
)
from repro.obs.trace import tracing


def availability_problem(cfg):
    local = compute_local_properties(cfg)
    return DataflowProblem.forward_intersect(
        "avail",
        local.universe.width,
        GenKillTransfer(gen=local.comp, keep=local.transp),
    )


def entry_files(root):
    return [
        p
        for p in root.rglob("*.json")
        if p.is_file() and not p.name.startswith(".tmp-")
    ]


class TestRoundtrips:
    def test_solution_roundtrip(self, tmp_path):
        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        solution = solve(cfg, availability_problem(cfg))
        store = SolutionStore(tmp_path)
        assert store.save(fp, "solve:avail:w2:round-robin", solution)

        loaded = SolutionStore(tmp_path).load(
            fp, "solve:avail:w2:round-robin", cfg=cfg
        )
        assert loaded is not None and loaded is not solution
        assert loaded.problem == solution.problem
        assert {l: v.bits for l, v in loaded.inof.items()} == {
            l: v.bits for l, v in solution.inof.items()
        }
        assert {l: v.bits for l, v in loaded.outof.items()} == {
            l: v.bits for l, v in solution.outof.items()
        }

    def test_lcm_analysis_roundtrip(self, tmp_path):
        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        analysis = analyze_lcm(cfg)
        store = SolutionStore(tmp_path)
        assert store.save(fp, "lcm.analysis", analysis)

        loaded = SolutionStore(tmp_path).load(fp, "lcm.analysis", cfg=cfg)
        assert loaded is not None
        assert list(loaded.local.universe) == list(analysis.local.universe)
        for name in ("antin", "avout", "laterin", "delete"):
            got, want = getattr(loaded, name), getattr(analysis, name)
            assert {l: v.bits for l, v in got.items()} == {
                l: v.bits for l, v in want.items()
            }, name
        for name in ("earliest", "later", "insert"):
            got, want = getattr(loaded, name), getattr(analysis, name)
            assert {e: v.bits for e, v in got.items()} == {
                e: v.bits for e, v in want.items()
            }, name

    def test_liveness_roundtrip(self, tmp_path):
        cfg = do_while_invariant()
        fp = cfg_fingerprint(cfg)
        liveness = compute_liveness(cfg)
        store = SolutionStore(tmp_path)
        assert store.save(fp, "liveness", liveness)

        loaded = SolutionStore(tmp_path).load(fp, "liveness", cfg=cfg)
        assert loaded is not None
        assert loaded.variables == liveness.variables
        for label in liveness.livein:
            assert loaded.live_in(label) == liveness.live_in(label)
            assert loaded.live_out(label) == liveness.live_out(label)

    def test_unsupported_values_stay_memory_only(self, tmp_path):
        store = SolutionStore(tmp_path)
        assert not store.save("f" * 64, "krs.analysis", {"not": "a codec kind"})
        assert len(store) == 0


class TestTwoTierManager:
    def test_warm_store_does_zero_solver_work(self, tmp_path):
        cold = AnalysisManager(store=SolutionStore(tmp_path))
        first = optimize(diamond(), "lcm", manager=cold)
        assert cold.stats.misses > 0 and cold.stats.disk_writes > 0

        warm = AnalysisManager(store=SolutionStore(tmp_path))
        second = optimize(diamond(), "lcm", manager=warm)
        assert warm.stats.misses == 0
        assert warm.stats.disk_hits > 0 and warm.stats.disk_writes == 0
        assert cfg_fingerprint(second.cfg) == cfg_fingerprint(first.cfg)

    def test_disk_traffic_has_its_own_counters(self, tmp_path):
        with tracing() as tracer:
            manager = AnalysisManager(store=SolutionStore(tmp_path))
            optimize(diamond(), "lcm", manager=manager)
        assert tracer.counters["cache.miss"] == manager.stats.misses
        assert tracer.counters["cache.disk.write"] == manager.stats.disk_writes
        assert tracer.counters["cache.disk.miss"] == manager.stats.disk_misses

        with tracing() as tracer:
            warm = AnalysisManager(store=SolutionStore(tmp_path))
            optimize(diamond(), "lcm", manager=warm)
        assert tracer.counters["cache.disk.hit"] == warm.stats.disk_hits
        assert "cache.miss" not in tracer.counters

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        seed = AnalysisManager(store=SolutionStore(tmp_path))
        optimize(diamond(), "lcm", manager=seed)

        warm = AnalysisManager(store=SolutionStore(tmp_path))
        optimize(diamond(), "lcm", manager=warm)
        after_first = warm.stats.disk_hits
        optimize(diamond(), "lcm", manager=warm)
        assert warm.stats.disk_hits == after_first  # second run is all-memory
        assert warm.stats.misses == 0

    def test_disabled_manager_bypasses_the_store(self, tmp_path):
        manager = AnalysisManager(enabled=False, store=SolutionStore(tmp_path))
        optimize(diamond(), "lcm", manager=manager)
        assert len(SolutionStore(tmp_path)) == 0
        assert manager.stats.disk_writes == 0

    def test_stats_split_by_tier(self, tmp_path):
        manager = AnalysisManager(store=SolutionStore(tmp_path))
        optimize(diamond(), "lcm", manager=manager)
        stats = manager.stats
        assert stats.lookups == stats.hits + stats.disk_hits + stats.misses
        assert 0.0 <= stats.hit_rate <= 1.0


class TestCorruption:
    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        seed = AnalysisManager(store=SolutionStore(tmp_path))
        optimize(diamond(), "lcm", manager=seed)
        files = entry_files(tmp_path)
        assert files
        for path in files:
            path.write_text("{definitely not json")

        with tracing() as tracer:
            manager = AnalysisManager(store=SolutionStore(tmp_path))
            result = optimize(diamond(), "lcm", manager=manager)
        assert result.cfg is not None
        assert tracer.counters.get("cache.disk.corrupt", 0) > 0
        assert manager.stats.disk_hits == 0 and manager.stats.misses > 0
        # The re-solve wrote the entries back: every file decodes again.
        healed = AnalysisManager(store=SolutionStore(tmp_path))
        optimize(diamond(), "lcm", manager=healed)
        assert healed.stats.misses == 0 and healed.stats.disk_hits > 0

    def test_wrong_header_fields_are_misses(self, tmp_path):
        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        store = SolutionStore(tmp_path)
        store.save(fp, "liveness", compute_liveness(cfg))
        (path,) = entry_files(tmp_path)
        doc = json.loads(path.read_text())
        doc["fingerprint"] = "0" * 64
        path.write_text(json.dumps(doc))
        assert SolutionStore(tmp_path).load(fp, "liveness", cfg=cfg) is None


class TestCodeVersion:
    def test_other_version_entries_are_invisible(self, tmp_path):
        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        old = SolutionStore(tmp_path, code_version="0.9.0-f1")
        assert old.save(fp, "liveness", compute_liveness(cfg))

        current = SolutionStore(tmp_path)
        assert current.load(fp, "liveness", cfg=cfg) is None
        assert len(current) == 0
        assert current.stats()["stale_entries"] == 1

    def test_default_code_version_tracks_package(self):
        from repro import __version__

        assert default_code_version().startswith(__version__)

    def test_default_code_version_carries_the_digest_version(self):
        assert default_code_version().endswith(f"-c{COMBINE_VERSION}")

    def test_previous_digest_version_entries_are_misses(self, tmp_path):
        # An entry written under the previous digest version sits in
        # another namespace: a clean miss, never a decode error.
        from repro import __version__

        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        previous = (
            f"{__version__}-f{STORE_FORMAT_VERSION}-c{COMBINE_VERSION - 1}"
        )
        assert previous != default_code_version()
        old = SolutionStore(tmp_path, code_version=previous)
        assert old.save(fp, "liveness", compute_liveness(cfg))

        current = SolutionStore(tmp_path)
        with tracing() as tracer:
            assert current.load(fp, "liveness", cfg=cfg) is None
        assert tracer.counters.get("cache.disk.miss", 0) == 1
        assert tracer.counters.get("cache.disk.corrupt", 0) == 0
        assert current.stats()["stale_entries"] == 1

    def test_gc_reclaims_only_stale_versions(self, tmp_path):
        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        SolutionStore(tmp_path, code_version="0.9.0-f1").save(
            fp, "liveness", compute_liveness(cfg)
        )
        current = SolutionStore(tmp_path)
        current.save(fp, "liveness", compute_liveness(cfg))

        report = current.gc()
        assert report["removed_entries"] == 1
        assert report["reclaimed_bytes"] > 0
        stats = current.stats()
        assert stats["entries"] == 1 and stats["stale_entries"] == 0
        assert current.load(fp, "liveness", cfg=cfg) is not None

    def test_clear_removes_everything(self, tmp_path):
        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        SolutionStore(tmp_path, code_version="0.9.0-f1").save(
            fp, "liveness", compute_liveness(cfg)
        )
        current = SolutionStore(tmp_path)
        current.save(fp, "liveness", compute_liveness(cfg))
        report = current.clear()
        assert report["removed_entries"] == 2
        assert not entry_files(tmp_path)


class TestStoreShape:
    def test_one_entry_per_key(self, tmp_path):
        cfg = diamond()
        fp = cfg_fingerprint(cfg)
        store = SolutionStore(tmp_path)
        for _ in range(3):
            store.save(fp, "liveness", compute_liveness(cfg))
        assert len(store) == 1

    def test_stats_shape(self, tmp_path):
        stats = SolutionStore(tmp_path).stats()
        assert set(stats) == {
            "path",
            "code_version",
            "entries",
            "bytes",
            "stale_entries",
            "stale_bytes",
            "evicted_entries",
            "evicted_bytes",
        }
        assert stats["entries"] == 0


class TestSizeBudget:
    """The LRU sweep behind ``repro cache gc --max-bytes``."""

    def _fill(self, tmp_path, store, n=4):
        """Save *n* entries with deterministic, increasing mtimes."""
        paths = {}
        seen = set()
        for i in range(n):
            record = JSONRecord({"i": i, "pad": "x" * 64})
            assert store.save(f"k{i}", "serve-response", record)
            (path,) = set(entry_files(tmp_path)) - seen
            seen.add(path)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths[f"k{i}"] = path
        return paths

    def test_json_record_roundtrip(self, tmp_path):
        store = SolutionStore(tmp_path)
        assert store.save("k", "serve-response", JSONRecord({"a": [1]}))
        loaded = SolutionStore(tmp_path).load("k", "serve-response")
        assert isinstance(loaded, JSONRecord)
        assert loaded.payload == {"a": [1]}

    def test_evicts_oldest_first_down_to_budget(self, tmp_path):
        store = SolutionStore(tmp_path)
        paths = self._fill(tmp_path, store)
        total = sum(p.stat().st_size for p in paths.values())
        report = store.gc(max_bytes=total - 1)
        # One eviction suffices, and the *oldest* entry went first.
        assert report["evicted_entries"] == 1
        assert report["evicted_bytes"] > 0
        assert not paths["k0"].exists()
        assert paths["k3"].exists()
        assert store.stats()["bytes"] <= total - 1

    def test_load_touch_protects_recent_entries(self, tmp_path):
        store = SolutionStore(tmp_path)
        paths = self._fill(tmp_path, store, n=3)
        # Reading k0 refreshes its mtime: it is now the *newest*.
        assert store.load("k0", "serve-response") is not None
        budget = paths["k0"].stat().st_size
        store.gc(max_bytes=budget)
        assert paths["k0"].exists()
        assert not paths["k1"].exists()
        assert not paths["k2"].exists()

    def test_meta_accumulates_across_sweeps(self, tmp_path):
        store = SolutionStore(tmp_path)
        paths = self._fill(tmp_path, store)
        sizes = sorted(p.stat().st_size for p in paths.values())
        store.gc(max_bytes=sum(sizes[:2]))  # drop two
        store.gc(max_bytes=0)  # drop the rest
        stats = store.stats()
        assert stats["evicted_entries"] == 4
        assert stats["evicted_bytes"] > 0
        assert stats["entries"] == 0
        # Totals persist on disk: a fresh handle still sees them.
        assert SolutionStore(tmp_path).stats()["evicted_entries"] == 4

    def test_gc_without_budget_never_evicts(self, tmp_path):
        store = SolutionStore(tmp_path)
        self._fill(tmp_path, store)
        report = store.gc()
        assert report["evicted_entries"] == 0
        assert report["evicted_bytes"] == 0
        assert len(entry_files(tmp_path)) == 4

    def test_eviction_has_a_counter(self, tmp_path):
        store = SolutionStore(tmp_path)
        self._fill(tmp_path, store)
        with tracing() as tracer:
            store.gc(max_bytes=0)
        assert tracer.counters["cache.disk.evict"] == 4
