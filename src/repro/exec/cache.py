"""On-disk scenario result cache, keyed by config hash + package version.

A cache entry is one directory holding the frozen
:class:`~repro.sim.runner.ScenarioResult` bundle:

* ``nta.npz`` / ``ntb.npz`` / ``ntc.npz`` — the telescopes' columnar
  captures (:meth:`PacketRecords.save_npz`),
* ``truth-<telescope>.npz`` — the ground-truth provenance sidecars,
* ``meta.pkl`` — the pickled :class:`~repro.exec.freeze.FrozenScenario`
  (honeyprefix timelines, metadata datasets, dispatch counters),
* ``manifest.json`` — the :class:`~repro.obs.journal.RunManifest` fields
  plus a SHA-256 checksum per file.

The entry key is ``<repro version>-<config hash>``: the config hash covers
*every* :class:`ScenarioConfig` field (seed included), and baking the
package version into the key invalidates all entries on upgrade — a new
release may change simulation semantics, so a stale bundle must never
masquerade as a fresh run.  Loads verify every checksum before
deserializing anything; any mismatch, torn file, or unreadable manifest
counts as a miss and the caller re-simulates (and overwrites the entry).
Stores write into a temporary sibling directory and rename it into place,
so a crashed store can never leave a half-written entry that passes
verification.

Lifecycle management (the scenario service's warm tier builds on it):

* **size accounting** — :meth:`ScenarioCache.entries` lists every entry
  (and nothing else sharing the root) with its on-disk byte size and last-use time; :meth:`total_bytes` walks
  the whole cache root (stray temp dirs and the pin file included) so it
  matches ``du --apparent-size`` of the directory exactly;
* **LRU eviction** — constructing with ``max_bytes`` sets a byte budget;
  :meth:`evict` removes least-recently-used entries until the entries fit
  the budget.  Loads and probes touch the entry directory's mtime, which
  is the recency signal (it survives process restarts);
* **pinning** — :meth:`pin` marks warm-tier entries that :meth:`evict`
  must never remove, whatever the budget; pins live in a root-level
  ``pins.json`` written atomically.  Callers can additionally pass
  ``protect=...`` to shield in-flight entries for one sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro._util import sha256_file
from repro.exec.freeze import freeze_result
from repro.obs import RunManifest, config_hash, get_journal, get_registry, get_tracer

#: Bump when the entry layout changes incompatibly.
CACHE_SCHEMA_VERSION = 1

#: The record columns files inside one entry (fixed names, fixed set).
_RECORD_FILES = ("nta.npz", "ntb.npz", "ntc.npz")


class CacheMiss(Exception):
    """Internal: entry absent, stale, or failed verification."""


def _manifest_digest(manifest: dict) -> str:
    """Canonical digest of the manifest minus its own checksum field."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    payload = json.dumps(body, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


#: Name of the root-level file recording pinned entry keys.
PINS_FILE = "pins.json"

#: An entry directory's name, as :meth:`ScenarioCache.key` builds it:
#: ``<repro version>-<16 hex digit config hash>``.
_ENTRY_NAME = re.compile(r".+-[0-9a-f]{16}")


@dataclass(frozen=True)
class CacheEntryInfo:
    """One entry's lifecycle accounting row."""

    key: str
    path: Path
    bytes: int
    #: Last-use time: the entry directory's mtime, refreshed by every
    #: successful load/probe (and set by the store's rename).
    last_used: float
    pinned: bool


def _tree_bytes(root: Path) -> int:
    """Sum of apparent file sizes under ``root`` (matches ``du -b``
    minus directory-inode overhead; symlinks are not followed)."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue  # racing eviction/rewrite: file vanished
    return total


class ScenarioCache:
    """Content-addressed store of frozen scenario results.

    ``max_bytes`` sets the eviction budget enforced by :meth:`evict`
    (``None`` disables eviction entirely — the PR-5 behavior).
    """

    def __init__(self, cache_dir: str | os.PathLike,
                 max_bytes: int | None = None):
        self.root = Path(cache_dir)
        self.max_bytes = max_bytes

    # -- keys -------------------------------------------------------------

    def key(self, config) -> str:
        from repro import __version__

        return f"{__version__}-{config_hash(config)}"

    def entry_dir(self, config) -> Path:
        return self.root / self.key(config)

    # -- store ------------------------------------------------------------

    def store(self, result) -> Path:
        """Persist ``result``; returns the entry directory."""
        registry = get_registry()
        with get_tracer().span("scenario.cache_store"):
            frozen = freeze_result(result)
            config = frozen.config
            entry = self.entry_dir(config)
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = Path(tempfile.mkdtemp(
                prefix=entry.name + ".tmp-", dir=self.root
            ))
            try:
                frozen.nta.save_npz(tmp / "nta.npz")
                frozen.ntb.save_npz(tmp / "ntb.npz")
                frozen.ntc.save_npz(tmp / "ntc.npz")
                truth_files = {}
                for name, truth in frozen.truth.items():
                    filename = f"truth-{name}.npz"
                    truth.save_npz(tmp / filename)
                    truth_files[filename] = name
                with open(tmp / "meta.pkl", "wb") as stream:
                    pickle.dump(frozen.scenario, stream,
                                protocol=pickle.HIGHEST_PROTOCOL)
                files = sorted(
                    [*_RECORD_FILES, *truth_files, "meta.pkl"]
                )
                manifest = {
                    "cache_schema": CACHE_SCHEMA_VERSION,
                    **RunManifest.from_config(config).to_record_fields(),
                    "truth": truth_files,
                    "files": {f: sha256_file(tmp / f) for f in files},
                }
                # Self-checksum: the per-file digests cover every payload
                # byte, this covers every manifest byte — so a bit flip
                # anywhere in the entry fails verification.
                manifest["manifest_sha256"] = _manifest_digest(manifest)
                with open(tmp / "manifest.json", "w") as stream:
                    json.dump(manifest, stream, sort_keys=True, default=repr)
                    stream.write("\n")
                if entry.exists():
                    shutil.rmtree(entry)
                os.rename(tmp, entry)
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        registry.counter("scenario.cache.stores").inc()
        get_journal().emit("cache_store", config_hash=config_hash(config),
                           path=str(entry))
        return entry

    # -- load -------------------------------------------------------------

    def _verified_manifest(self, config, entry: Path) -> dict:
        """Read the manifest and checksum every file, or raise CacheMiss."""
        manifest_path = entry / "manifest.json"
        if not manifest_path.is_file():
            raise CacheMiss("no manifest")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as error:
            raise CacheMiss(f"unreadable manifest: {error}") from error
        if not isinstance(manifest, dict):
            raise CacheMiss("manifest is not an object")
        declared = manifest.pop("manifest_sha256", None)
        if declared != _manifest_digest(manifest):
            raise CacheMiss("manifest self-checksum mismatch")
        if manifest.get("cache_schema") != CACHE_SCHEMA_VERSION:
            raise CacheMiss("cache schema version mismatch")
        from repro import __version__

        if manifest.get("repro_version") != __version__:
            raise CacheMiss("package version changed")
        if manifest.get("config_hash") != config_hash(config):
            raise CacheMiss("config hash mismatch")
        files = manifest.get("files")
        if not isinstance(files, dict) or not files:
            raise CacheMiss("manifest lists no files")
        for name, expected in files.items():
            path = entry / name
            if not path.is_file():
                raise CacheMiss(f"missing file {name}")
            if sha256_file(path) != expected:
                raise CacheMiss(f"checksum mismatch on {name}")
        return manifest

    def load(self, config):
        """The cached :class:`ScenarioResult` for ``config``, or None.

        Verification runs *before* deserialization: a corrupt or stale
        entry is reported as a miss (with a ``scenario.cache.invalid``
        count when an entry existed but failed), never as a crash.
        """
        from repro.analysis.groundtruth import GroundTruthRecords
        from repro.analysis.records import PacketRecords
        from repro.sim.runner import ScenarioResult

        registry = get_registry()
        entry = self.entry_dir(config)
        with get_tracer().span("scenario.cache_load", key=entry.name) as span:
            try:
                manifest = self._verified_manifest(config, entry)
                records = {
                    name: PacketRecords.load_npz(entry / f"{name}.npz")
                    for name in ("nta", "ntb", "ntc")
                }
                truth = {
                    telescope: GroundTruthRecords.load_npz(entry / filename)
                    for filename, telescope in manifest["truth"].items()
                }
                with open(entry / "meta.pkl", "rb") as stream:
                    scenario = pickle.load(stream)
            except CacheMiss as miss:
                span.set(outcome="miss", reason=str(miss))
                if entry.exists():
                    registry.counter("scenario.cache.invalid").inc()
                registry.counter("scenario.cache.misses").inc()
                return None
            except (OSError, pickle.UnpicklingError, ValueError, KeyError):
                # Verification passed but deserialization still tore —
                # treat exactly like a miss; the caller re-simulates.
                span.set(outcome="miss", reason="deserialization failed")
                registry.counter("scenario.cache.invalid").inc()
                registry.counter("scenario.cache.misses").inc()
                return None
            span.set(outcome="hit")
        self._touch(entry)
        registry.counter("scenario.cache.hits").inc()
        get_journal().emit("cache_hit", config_hash=config_hash(config),
                           path=str(entry))
        return ScenarioResult(
            scenario=scenario,
            nta=records["nta"], ntb=records["ntb"], ntc=records["ntc"],
            telemetry=registry.snapshot() if registry.enabled else {},
            truth=truth,
        )

    def probe(self, config) -> bool:
        """True when a fully verified entry exists for ``config``.

        Runs the same manifest + checksum verification as :meth:`load`
        but deserializes nothing — the scenario service's warm-tier check
        before admitting a request.  A successful probe refreshes the
        entry's recency, exactly like a load.
        """
        entry = self.entry_dir(config)
        try:
            self._verified_manifest(config, entry)
        except CacheMiss:
            return False
        self._touch(entry)
        return True

    # -- lifecycle: size accounting, pinning, eviction ---------------------

    @staticmethod
    def _touch(entry: Path) -> None:
        try:
            os.utime(entry)
        except OSError:
            pass  # entry raced away; the caller already has its data

    def total_bytes(self) -> int:
        """Apparent size of everything under the cache root — entries,
        the pin file, stray temp dirs — so it matches a ``du`` of the
        directory, not just the healthy entries."""
        if not self.root.is_dir():
            return 0
        return _tree_bytes(self.root)

    def entries(self) -> list[CacheEntryInfo]:
        """Accounting rows for every entry directory, LRU first.

        Only directories named like an entry key count: the service's
        ``journals/`` directory and a concurrent store's in-flight
        ``<key>.tmp-*`` directory share the root but are not entries, so
        eviction never removes them.
        """
        if not self.root.is_dir():
            return []
        pinned = self.pinned()
        rows = []
        for child in self.root.iterdir():
            if not (_ENTRY_NAME.fullmatch(child.name) and child.is_dir()):
                continue
            try:
                last_used = child.stat().st_mtime
            except OSError:
                continue
            rows.append(CacheEntryInfo(
                key=child.name, path=child, bytes=_tree_bytes(child),
                last_used=last_used, pinned=child.name in pinned,
            ))
        rows.sort(key=lambda row: (row.last_used, row.key))
        return rows

    def _resolve_key(self, config_or_key) -> str:
        if isinstance(config_or_key, str):
            return config_or_key
        return self.key(config_or_key)

    def pinned(self) -> set[str]:
        """The pinned entry keys (empty when no pin file exists)."""
        path = self.root / PINS_FILE
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return set()
        pins = payload.get("pins", [])
        return {str(key) for key in pins} if isinstance(pins, list) else set()

    def _write_pins(self, pins: set[str]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"pins": sorted(pins)}, indent=2) + "\n"
        fd, tmp = tempfile.mkstemp(prefix=PINS_FILE + ".", dir=self.root)
        try:
            with os.fdopen(fd, "w") as stream:
                stream.write(payload)
            os.replace(tmp, self.root / PINS_FILE)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def pin(self, config_or_key) -> str:
        """Mark an entry as evict-proof; returns the pinned key."""
        key = self._resolve_key(config_or_key)
        self._write_pins(self.pinned() | {key})
        return key

    def unpin(self, config_or_key) -> str:
        """Remove an entry's pin (a no-op when it was not pinned)."""
        key = self._resolve_key(config_or_key)
        self._write_pins(self.pinned() - {key})
        return key

    def evict(self, protect=()) -> list[str]:
        """Remove least-recently-used entries until they fit ``max_bytes``.

        Pinned entries and any key in ``protect`` (the service passes its
        in-flight run ids) are never removed, even when that leaves the
        cache over budget.  Returns the evicted keys, oldest first, and
        keeps the ``scenario.cache.bytes`` gauge current.
        """
        registry = get_registry()
        evicted: list[str] = []
        if self.max_bytes is not None:
            protected = set(protect)
            rows = self.entries()
            entry_bytes = sum(row.bytes for row in rows)
            for row in rows:
                if entry_bytes <= self.max_bytes:
                    break
                if row.pinned or row.key in protected:
                    continue
                shutil.rmtree(row.path, ignore_errors=True)
                entry_bytes -= row.bytes
                evicted.append(row.key)
                registry.counter("scenario.cache.evictions").inc()
        registry.gauge("scenario.cache.bytes").set(self.total_bytes())
        return evicted
