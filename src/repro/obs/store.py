"""The persistent tier: a content-addressed on-disk solution store.

The :class:`~repro.obs.manager.AnalysisManager` makes repeat solves
free *within one process*; this module makes them free *across*
processes and invocations.  A :class:`SolutionStore` is a directory of
serialised analysis results addressed by

    (cfg_fingerprint, computation_key, code_version)

so batch workers sharing one ``--cache-dir`` — or entirely separate
``repro`` invocations days apart — reuse each other's dataflow
solutions bit-for-bit.  The manager consults it as a second tier:
in-memory hit first, then disk, then solve-and-write.

Design points:

* **Content addressing.**  The fingerprint is the same BLAKE2b content
  digest the in-memory tier uses
  (:func:`repro.obs.fingerprint.cfg_fingerprint`: a compact tuple
  encoding of each block, folded in block order with entry/exit and
  edge weights behind a ``COMBINE_VERSION`` salt), so a disk entry is
  valid for *any* graph with that content — no path/mtime heuristics,
  no false sharing.
* **Versioned, compact serialisation.**  Entries are JSON documents
  (format ``repro-store-entry``, version 1) holding bit vectors as
  plain integers keyed by block label; the block set is pinned by the
  fingerprint, so decoding against any content-equal graph reproduces
  the facts exactly.  Codecs exist for :class:`~repro.dataflow.solver.Solution`,
  :class:`~repro.core.lcm.LCMAnalysis` and
  :class:`~repro.core.krs.KRSAnalysis` bundles,
  :class:`~repro.analysis.liveness.LivenessResult` and opaque
  :class:`JSONRecord` payloads (the ``repro serve`` response cache);
  values of other types simply stay memory-only.
* **Crash/concurrency safety.**  Writes go to a temporary file in the
  entry's directory followed by an atomic ``os.replace``, under a
  store-level advisory lock (``fcntl.flock`` where available), so
  concurrent batch workers sharing one directory can never observe a
  torn entry and duplicate solves of the same program collapse to one
  file.  A corrupted or unreadable entry is treated as a miss — the
  caller re-solves and the next write heals the file.
* **Upgrade invalidation.**  Entries live under a ``code_version``
  segment derived from the installed package version, the store
  format version and the fingerprint digest version; upgrading the
  package or changing the digest strands old entries (never misreads
  them), and ``SolutionStore.gc()`` / ``repro cache gc``
  reclaims them.
* **Size budgeting.**  ``gc(max_bytes=...)`` (the CLI's ``repro cache
  gc --max-bytes``) additionally evicts *current* entries,
  least-recently-used first, until the store fits the budget.  The
  store maintains its own recency (an explicit touch on every hit, so
  ``relatime``/``noatime`` mounts cannot starve it) and keeps
  cumulative eviction totals in a small meta file that
  :meth:`SolutionStore.stats` reports.

Disk traffic is observable: lookups and writes bump the
``cache.disk.hit`` / ``cache.disk.miss`` / ``cache.disk.write`` (and,
for unusable entries, ``cache.disk.corrupt``; for budget evictions,
``cache.disk.evict``) counters on the installed tracer, mirroring the
in-memory tier's ``cache.hit`` / ``cache.miss``.
See ``docs/CACHING.md`` for the full two-tier story.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import trace
from repro.obs.fingerprint import COMBINE_VERSION

try:  # POSIX advisory locking; the store degrades gracefully without.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Bumped whenever the entry layout or a codec changes shape.
STORE_FORMAT_VERSION = 1

ENTRY_FORMAT = "repro-store-entry"

_SAFE_KEY = re.compile(r"[^A-Za-z0-9._-]")


def default_code_version() -> str:
    """The salt separating incompatible store generations.

    Derived from the installed package version, the store format
    version and the fingerprint digest version
    (:data:`repro.obs.fingerprint.COMBINE_VERSION`), so a package
    upgrade, a serialisation change and a digest change each move new
    entries to a fresh namespace instead of misreading old ones.
    """
    try:
        from repro import __version__
    except ImportError:  # pragma: no cover - partial-import edge case
        __version__ = "unknown"
    return f"{__version__}-f{STORE_FORMAT_VERSION}-c{COMBINE_VERSION}"


# ---------------------------------------------------------------------------
# Codecs.  Each persistable value type encodes to a plain-JSON payload
# and decodes against a content-equal CFG (the store never stores the
# graph itself; the fingerprint pins the block set).  Imports are
# deferred: repro.core imports repro.obs, not the other way around.
# ---------------------------------------------------------------------------


def _encode_stats(stats) -> Dict[str, Any]:
    return {
        "sweeps": stats.sweeps,
        "node_visits": stats.node_visits,
        "bitvec_ops": dict(stats.bitvec_ops),
    }


def _decode_stats(data: Dict[str, Any]):
    from repro.dataflow.stats import SolverStats

    return SolverStats(
        sweeps=int(data["sweeps"]),
        node_visits=int(data["node_visits"]),
        bitvec_ops={str(k): int(v) for k, v in data["bitvec_ops"].items()},
    )


def _encode_vecmap(vecs) -> Dict[str, int]:
    return {label: vec.bits for label, vec in vecs.items()}


def _decode_vecmap(data: Dict[str, Any], width: int):
    from repro.dataflow.bitvec import BitVector

    return {str(label): BitVector(width, int(bits)) for label, bits in data.items()}


def _encode_edgemap(vecs) -> List[List[Any]]:
    return [[m, n, vec.bits] for (m, n), vec in vecs.items()]


def _decode_edgemap(data: List[Any], width: int):
    from repro.dataflow.bitvec import BitVector

    return {
        (str(m), str(n)): BitVector(width, int(bits)) for m, n, bits in data
    }


def _encode_solution(value) -> Dict[str, Any]:
    width = 0
    for vec in value.inof.values():
        width = vec.width
        break
    return {
        "problem": value.problem,
        "width": width,
        "inof": _encode_vecmap(value.inof),
        "outof": _encode_vecmap(value.outof),
        "stats": _encode_stats(value.stats),
    }


def _decode_solution(payload: Dict[str, Any], cfg):
    from repro.dataflow.solver import Solution

    width = int(payload["width"])
    return Solution(
        problem=str(payload["problem"]),
        inof=_decode_vecmap(payload["inof"], width),
        outof=_decode_vecmap(payload["outof"], width),
        stats=_decode_stats(payload["stats"]),
    )


def _encode_lcm_analysis(value) -> Dict[str, Any]:
    from repro.ir.serialize import expr_to_dict

    return {
        "universe": [expr_to_dict(expr) for expr in value.universe],
        "antloc": _encode_vecmap(value.local.antloc),
        "comp": _encode_vecmap(value.local.comp),
        "transp": _encode_vecmap(value.local.transp),
        "antin": _encode_vecmap(value.antin),
        "antout": _encode_vecmap(value.antout),
        "avin": _encode_vecmap(value.avin),
        "avout": _encode_vecmap(value.avout),
        "earliest": _encode_edgemap(value.earliest),
        "laterin": _encode_vecmap(value.laterin),
        "later": _encode_edgemap(value.later),
        "insert": _encode_edgemap(value.insert),
        "delete": _encode_vecmap(value.delete),
        "stats": _encode_stats(value.stats),
    }


def _decode_lcm_analysis(payload: Dict[str, Any], cfg):
    if cfg is None:
        raise StoreDecodeError("lcm-analysis entries decode against a CFG")
    from repro.analysis.local import LocalProperties
    from repro.analysis.universe import ExprUniverse
    from repro.core.lcm import LCMAnalysis
    from repro.ir.serialize import expr_from_dict

    universe = ExprUniverse(
        expr_from_dict(e, f"universe[{i}]")
        for i, e in enumerate(payload["universe"])
    )
    width = universe.width
    local = LocalProperties(
        universe=universe,
        antloc=_decode_vecmap(payload["antloc"], width),
        comp=_decode_vecmap(payload["comp"], width),
        transp=_decode_vecmap(payload["transp"], width),
    )
    return LCMAnalysis(
        cfg=cfg,
        local=local,
        antin=_decode_vecmap(payload["antin"], width),
        antout=_decode_vecmap(payload["antout"], width),
        avin=_decode_vecmap(payload["avin"], width),
        avout=_decode_vecmap(payload["avout"], width),
        earliest=_decode_edgemap(payload["earliest"], width),
        laterin=_decode_vecmap(payload["laterin"], width),
        later=_decode_edgemap(payload["later"], width),
        insert=_decode_edgemap(payload["insert"], width),
        delete=_decode_vecmap(payload["delete"], width),
        stats=_decode_stats(payload["stats"]),
    )


def _encode_krs_analysis(value) -> Dict[str, Any]:
    from repro.ir.serialize import expr_to_dict

    return {
        "universe": [expr_to_dict(expr) for expr in value.universe],
        "antloc": _encode_vecmap(value.local.antloc),
        "comp": _encode_vecmap(value.local.comp),
        "transp": _encode_vecmap(value.local.transp),
        "dsafe": _encode_vecmap(value.dsafe),
        "usafe": _encode_vecmap(value.usafe),
        "earliest": _encode_vecmap(value.earliest),
        "delay": _encode_vecmap(value.delay),
        "latest": _encode_vecmap(value.latest),
        "isolated": _encode_vecmap(value.isolated),
        "stats": _encode_stats(value.stats),
    }


def _decode_krs_analysis(payload: Dict[str, Any], cfg):
    if cfg is None:
        raise StoreDecodeError("krs-analysis entries decode against a CFG")
    from repro.analysis.local import LocalProperties
    from repro.analysis.universe import ExprUniverse
    from repro.core.krs import KRSAnalysis
    from repro.ir.serialize import expr_from_dict

    universe = ExprUniverse(
        expr_from_dict(e, f"universe[{i}]")
        for i, e in enumerate(payload["universe"])
    )
    width = universe.width
    local = LocalProperties(
        universe=universe,
        antloc=_decode_vecmap(payload["antloc"], width),
        comp=_decode_vecmap(payload["comp"], width),
        transp=_decode_vecmap(payload["transp"], width),
    )
    return KRSAnalysis(
        cfg=cfg,
        local=local,
        dsafe=_decode_vecmap(payload["dsafe"], width),
        usafe=_decode_vecmap(payload["usafe"], width),
        earliest=_decode_vecmap(payload["earliest"], width),
        delay=_decode_vecmap(payload["delay"], width),
        latest=_decode_vecmap(payload["latest"], width),
        isolated=_decode_vecmap(payload["isolated"], width),
        stats=_decode_stats(payload["stats"]),
    )


def _encode_liveness(value) -> Dict[str, Any]:
    return {
        "variables": list(value.variables),
        "livein": _encode_vecmap(value.livein),
        "liveout": _encode_vecmap(value.liveout),
        "stats": _encode_stats(value.stats),
    }


def _decode_liveness(payload: Dict[str, Any], cfg):
    from repro.analysis.liveness import LivenessResult

    variables = [str(v) for v in payload["variables"]]
    width = len(variables)
    return LivenessResult(
        variables=variables,
        index={var: i for i, var in enumerate(variables)},
        livein=_decode_vecmap(payload["livein"], width),
        liveout=_decode_vecmap(payload["liveout"], width),
        stats=_decode_stats(payload["stats"]),
    )


class StoreDecodeError(ValueError):
    """An entry exists but cannot be turned back into a value."""


@dataclass(frozen=True)
class JSONRecord:
    """An opaque plain-JSON payload persisted verbatim.

    The escape hatch for callers whose values are already wire-shaped
    dictionaries — the ``repro serve`` daemon stores its response
    cache through this kind, keyed by a request digest instead of a
    CFG fingerprint.  The payload must be JSON-serialisable; decoding
    needs no CFG.
    """

    payload: Dict[str, Any]


def _encode_json_record(value: "JSONRecord") -> Dict[str, Any]:
    return dict(value.payload)


def _decode_json_record(payload: Dict[str, Any], cfg) -> "JSONRecord":
    if not isinstance(payload, dict):
        raise StoreDecodeError("json-record payload must be an object")
    return JSONRecord(payload)


def _kind_of(value) -> Optional[str]:
    """The codec kind for *value*, or None when it is memory-only."""
    from repro.analysis.liveness import LivenessResult
    from repro.core.krs import KRSAnalysis
    from repro.core.lcm import LCMAnalysis
    from repro.dataflow.solver import Solution

    if isinstance(value, Solution):
        return "solution"
    if isinstance(value, LCMAnalysis):
        return "lcm-analysis"
    if isinstance(value, KRSAnalysis):
        return "krs-analysis"
    if isinstance(value, LivenessResult):
        return "liveness"
    if isinstance(value, JSONRecord):
        return "json-record"
    return None


_ENCODERS = {
    "solution": _encode_solution,
    "lcm-analysis": _encode_lcm_analysis,
    "krs-analysis": _encode_krs_analysis,
    "liveness": _encode_liveness,
    "json-record": _encode_json_record,
}

_DECODERS = {
    "solution": _decode_solution,
    "lcm-analysis": _decode_lcm_analysis,
    "krs-analysis": _decode_krs_analysis,
    "liveness": _decode_liveness,
    "json-record": _decode_json_record,
}


# ---------------------------------------------------------------------------
# The store.
# ---------------------------------------------------------------------------


class SolutionStore:
    """A shared, persistent directory of serialised analysis results.

    Args:
        root: the store directory (created on first use).  Many
            processes may share one root concurrently.
        code_version: the namespace segment entries live under;
            defaults to :func:`default_code_version`.  Entries written
            under a different code version are invisible to lookups
            (and reclaimable with :meth:`gc`).
    """

    def __init__(self, root, code_version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.code_version = (
            code_version if code_version is not None else default_code_version()
        )
        self._version_dir = self.root / _SAFE_KEY.sub("_", self.code_version)

    # -- paths and locking ---------------------------------------------

    def _entry_path(self, fingerprint: str, key: str) -> Path:
        safe = _SAFE_KEY.sub("_", key)
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:8]
        shard = self._version_dir / fingerprint[:2]
        return shard / f"{fingerprint}--{safe}.{digest}.json"

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store-level advisory lock for the block.

        Serialises writers (and maintenance) across processes sharing
        the root.  Readers never take it: entries are only ever
        installed by atomic rename, so a reader sees either a complete
        entry or none.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".lock", "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- lookups --------------------------------------------------------

    def load(self, fingerprint: str, key: str, cfg=None) -> Optional[Any]:
        """The stored value for (*fingerprint*, *key*), or None.

        Decoding happens against *cfg* for bundle kinds that carry
        per-graph structure (``lcm-analysis``); the caller guarantees
        *cfg*'s content hashes to *fingerprint*.  Every failure mode —
        missing file, torn/corrupted JSON, unknown kind, stale format —
        is a miss, never an exception: the caller re-solves and the
        subsequent write repairs the entry.
        """
        path = self._entry_path(fingerprint, key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            trace.count("cache.disk.miss")
            return None
        try:
            document = json.loads(raw)
            if (
                not isinstance(document, dict)
                or document.get("format") != ENTRY_FORMAT
                or document.get("version") != STORE_FORMAT_VERSION
                or document.get("code_version") != self.code_version
                or document.get("fingerprint") != fingerprint
                or document.get("key") != key
            ):
                raise StoreDecodeError("entry header mismatch")
            decoder = _DECODERS.get(document.get("kind"))
            if decoder is None:
                raise StoreDecodeError(
                    f"unknown entry kind {document.get('kind')!r}"
                )
            value = decoder(document["payload"], cfg)
        except Exception:
            # Graceful fall-through: a bad entry must never sink the
            # run.  Count it so operators can see corruption happening.
            trace.count("cache.disk.corrupt")
            trace.count("cache.disk.miss")
            return None
        try:
            # Recency for the LRU budget sweep: filesystem atime is
            # unreliable (relatime/noatime), so the store touches
            # entries itself on every hit.
            os.utime(path)
        except OSError:  # pragma: no cover - read-only store
            pass
        trace.count("cache.disk.hit")
        return value

    def save(self, fingerprint: str, key: str, value: Any) -> bool:
        """Persist *value* if a codec exists for it; report success.

        The write is atomic (temp file + ``os.replace``) and serialised
        by the store lock, so concurrent workers racing on the same
        entry leave exactly one complete file.  Values without a codec
        are skipped (False) — they stay in the memory tier only.  I/O
        failures (read-only store, disk full) are swallowed: the cache
        is an optimisation, never a correctness dependency.
        """
        kind = _kind_of(value)
        if kind is None:
            return False
        try:
            document = {
                "format": ENTRY_FORMAT,
                "version": STORE_FORMAT_VERSION,
                "code_version": self.code_version,
                "fingerprint": fingerprint,
                "key": key,
                "kind": kind,
                "payload": _ENCODERS[kind](value),
            }
            body = json.dumps(document, separators=(",", ":")).encode("utf-8")
            path = self._entry_path(fingerprint, key)
            with self._locked():
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    prefix=".tmp-", suffix=".json", dir=str(path.parent)
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(body)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except Exception:
            return False
        trace.count("cache.disk.write")
        return True

    # -- maintenance ----------------------------------------------------

    def _iter_entries(self) -> Iterator[Tuple[Path, bool]]:
        """Yield ``(path, is_current_version)`` for every entry file."""
        if not self.root.is_dir():
            return
        for version_dir in sorted(self.root.iterdir()):
            if not version_dir.is_dir():
                continue
            current = version_dir == self._version_dir
            for path in sorted(version_dir.rglob("*.json")):
                if path.name.startswith(".tmp-"):
                    continue
                yield path, current

    def stats(self) -> Dict[str, Any]:
        """Entry counts and sizes, split current vs. stale code versions,
        plus the cumulative LRU-eviction totals of this store root."""
        entries = stale_entries = 0
        size = stale_size = 0
        for path, current in self._iter_entries():
            try:
                nbytes = path.stat().st_size
            except OSError:
                continue
            if current:
                entries += 1
                size += nbytes
            else:
                stale_entries += 1
                stale_size += nbytes
        meta = self._read_meta()
        return {
            "path": str(self.root),
            "code_version": self.code_version,
            "entries": entries,
            "bytes": size,
            "stale_entries": stale_entries,
            "stale_bytes": stale_size,
            "evicted_entries": meta["evicted_entries"],
            "evicted_bytes": meta["evicted_bytes"],
        }

    # -- eviction bookkeeping -------------------------------------------

    @property
    def _meta_path(self) -> Path:
        return self.root / ".meta.json"

    def _read_meta(self) -> Dict[str, int]:
        """Cumulative eviction totals (zeros for a fresh/corrupt meta)."""
        try:
            with open(self._meta_path) as handle:
                document = json.load(handle)
            return {
                "evicted_entries": int(document["evicted_entries"]),
                "evicted_bytes": int(document["evicted_bytes"]),
            }
        except (OSError, ValueError, KeyError, TypeError):
            return {"evicted_entries": 0, "evicted_bytes": 0}

    def _bump_meta(self, evicted_entries: int, evicted_bytes: int) -> None:
        """Fold an eviction sweep into the totals (caller holds the lock)."""
        meta = self._read_meta()
        meta["evicted_entries"] += evicted_entries
        meta["evicted_bytes"] += evicted_bytes
        try:
            body = json.dumps(meta, separators=(",", ":")).encode("utf-8")
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=str(self.root)
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(body)
            os.replace(tmp, self._meta_path)
        except OSError:  # pragma: no cover - read-only store
            pass

    def _remove(self, stale_only: bool) -> Dict[str, int]:
        removed = reclaimed = 0
        with self._locked():
            for path, current in list(self._iter_entries()):
                if stale_only and current:
                    continue
                try:
                    nbytes = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                reclaimed += nbytes
            # Prune now-empty shard/version directories (best effort).
            if self.root.is_dir():
                for directory in sorted(
                    self.root.rglob("*"), key=lambda p: -len(p.parts)
                ):
                    if directory.is_dir():
                        try:
                            directory.rmdir()
                        except OSError:
                            pass
        return {"removed_entries": removed, "reclaimed_bytes": reclaimed}

    def _evict_lru(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used current entries past *max_bytes*.

        Recency is the entry file's mtime, which :meth:`load` bumps on
        every hit — so the order is true LRU regardless of how the
        filesystem handles atime.  Runs under the store lock; a file
        that vanishes mid-sweep (concurrent gc) is simply skipped.
        """
        evicted = reclaimed = 0
        with self._locked():
            entries: List[Tuple[float, int, Path]] = []
            total = 0
            for path, current in self._iter_entries():
                if not current:
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            entries.sort(key=lambda entry: (entry[0], str(entry[2])))
            for _, nbytes, path in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= nbytes
                evicted += 1
                reclaimed += nbytes
            if evicted:
                self._bump_meta(evicted, reclaimed)
        if evicted:
            trace.count("cache.disk.evict", evicted)
        return {"evicted_entries": evicted, "evicted_bytes": reclaimed}

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Reclaim space: stale code versions always, then (with
        *max_bytes*) evict current entries LRU-first to fit the budget.

        Returns ``removed_entries`` / ``reclaimed_bytes`` for the stale
        sweep plus ``evicted_entries`` / ``evicted_bytes`` for the
        budget sweep (zeros when no budget was given).
        """
        outcome = self._remove(stale_only=True)
        if max_bytes is not None:
            outcome.update(self._evict_lru(max_bytes))
        else:
            outcome.update({"evicted_entries": 0, "evicted_bytes": 0})
        return outcome

    def clear(self) -> Dict[str, int]:
        """Delete every entry, current version included."""
        return self._remove(stale_only=False)

    def __len__(self) -> int:
        """Entry count for the current code version."""
        return sum(1 for _, current in self._iter_entries() if current)
