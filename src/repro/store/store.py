"""The content-addressed on-disk artifact store.

Design contract (the pieces resumable sweeps depend on):

* **Keys are hash-derived, never identity-derived.**  A store key is a
  tuple of JSON-able parts — workload kind strings, the spec's
  ``spec_hash``/``section_hash`` digests, registry names, plain numbers
  — canonicalized to JSON and digested.  ``repr()``/``str()`` of live
  objects and ``id()`` are banned (REP107 enforces this): those encode
  process identity, and a resumed process must derive the *same* key
  from the *same* spec.
* **Atomic publication.**  Every write lands in ``staging/`` first and
  is ``os.replace``\\ d into place: the payload blob, then its metadata
  record.  An entry is visible if and only if its record file exists,
  so a reader can never observe a torn entry — a ``SIGTERM`` mid-write
  leaves at worst an orphaned staging file (``gc`` sweeps those).
* **Versioned records.**  Each entry carries a metadata record (format
  version, git stamp, the full key provenance, payload size + content
  digest).  A record whose format version does not match
  :data:`STORE_FORMAT_VERSION` is *refused* — treated as a miss and
  reported by ``ls`` as stale — never misread into a live object.
* **LRU / size-budget GC.**  ``get`` touches the entry's mtime; ``gc``
  evicts least-recently-used entries beyond ``max_bytes`` /
  ``max_entries`` budgets (stale-format entries are always evicted
  first) and purges orphaned staging files.

The store assumes one writer at a time per entry (the resumable-sweep
pattern: one ``repro run`` against one store).  Concurrent writers of
*different* entries are safe — staging names are unique and publication
is atomic — but ``gc`` must not run concurrently with a writer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.obs.tracer import current_tracer

__all__ = [
    "STORE_FORMAT_VERSION",
    "ArtifactStore",
    "StoreError",
    "StoreRecord",
    "canonical_key",
    "store_digest",
]

#: On-disk record format version.  Bump on any incompatible change to
#: the record schema or the payload serialization; old entries are then
#: refused (reported stale by ``ls``, evicted first by ``gc``) instead
#: of being misread.  Format 2: the tracker classes moved into
#: ``repro.api.tracker``, so format 1 payloads name modules that no
#: longer exist.  Format 3: wall time left ``RunResult``, so a format 2
#: ``run_result`` would hand back stale stage timings and serve wall
#: metrics on resume.
STORE_FORMAT_VERSION = 3

#: Staging files carry this prefix so the leak check (and ``gc``) can
#: tell an interrupted write's debris from foreign files.
STAGING_PREFIX = "staging-"


class StoreError(RuntimeError):
    """A store operation failed (bad root, unreadable entry, bad key)."""


def canonical_key(parts: Any) -> list:
    """The canonical (JSON-able) form of a store key.

    Keys are tuples/lists of strings, numbers, bools, ``None`` and
    nested tuples of the same — exactly what the session memo keys are
    made of (workload kinds, section hashes, registry names, scalar
    knobs).  Anything else (a live object, whose only JSON form would be
    an identity-derived ``repr``) is rejected: resumed processes could
    never re-derive its key.
    """
    if isinstance(parts, (tuple, list)):
        return [canonical_key(p) for p in parts]
    if parts is None or isinstance(parts, (str, int, float, bool)):
        return parts
    raise StoreError(
        f"store keys must be built from hashes, names and scalars; got "
        f"a {type(parts).__name__} part (derive a digest for it instead "
        "— spec_hash/section_hash/transport digests, never object "
        "identity)"
    )


def store_digest(parts: Any) -> str:
    """The entry digest of a key: SHA-256 over its canonical JSON."""
    canonical = json.dumps(canonical_key(parts), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


#: The required record fields and their JSON types (``key`` may be any).
_RECORD_TYPES = {
    "digest": str,
    "format": int,
    "kind": str,
    "nbytes": int,
    "payload_digest": str,
}


@dataclass(frozen=True)
class StoreRecord:
    """One entry's metadata record (the ``.json`` half of an entry)."""

    digest: str
    #: Record format version this entry was written with.
    format: int
    #: Human/machine-readable key provenance: the canonical key parts.
    key: list
    #: Entry kind — by convention the key's first part ("pipeline",
    #: "strategy_training", "run_result", ...).
    kind: str
    #: Payload pickle size in bytes.
    nbytes: int
    #: BLAKE2b digest of the payload bytes (integrity check on read).
    payload_digest: str
    #: ``git describe`` of the tree that wrote the entry (provenance
    #: only — never part of the key).
    git: str | None

    @property
    def stale(self) -> bool:
        return self.format != STORE_FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "format": self.format,
            "key": self.key,
            "kind": self.kind,
            "nbytes": self.nbytes,
            "payload_digest": self.payload_digest,
            "git": self.git,
        }


class ArtifactStore:
    """A content-addressed on-disk store of session artifacts.

    Layout::

        root/
          entries/<digest>.json   # metadata record (presence = entry)
          entries/<digest>.pkl    # payload pickle
          staging/staging-*       # in-flight writes (atomically renamed)

    ``put``/``get`` round-trip arbitrary picklable values; every path
    through them is atomic-rename publication, so interrupted processes
    never leave torn entries.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._entries = self.root / "entries"
        self._staging = self.root / "staging"
        for path in (self._entries, self._staging):
            path.mkdir(parents=True, exist_ok=True)
        #: Per-instance counters (observability; surfaced by
        #: ``Session.stats()`` when a store is attached).
        self.counters = {
            "puts": 0,
            "gets": 0,
            "hits": 0,
            "misses": 0,
            "stale_refused": 0,
        }

    # -- key plumbing ---------------------------------------------------------
    @staticmethod
    def digest_for(key: Any) -> str:
        return store_digest(key)

    def _paths(self, digest: str) -> tuple[Path, Path]:
        return (
            self._entries / f"{digest}.json",
            self._entries / f"{digest}.pkl",
        )

    # -- atomic publication ---------------------------------------------------
    def _stage(self, data: bytes, final: Path) -> None:
        """Write ``data`` to a unique staging file, then rename into
        place.  ``os.replace`` is atomic on POSIX, so readers observe
        either the old entry or the new one, never a prefix."""
        tmp = self._staging / f"{STAGING_PREFIX}{secrets.token_hex(8)}"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)

    def put(self, key: Any, value: Any) -> StoreRecord:
        """Persist ``value`` under ``key``; returns the entry record.

        Publication order is payload first, record second: the record's
        arrival is what makes the entry visible, so a reader that sees
        the record always finds a complete payload.
        """
        # Imported lazily: repro.api.session holds a store, so a
        # module-level import here would be circular.
        from repro.api.result import git_describe

        digest = store_digest(key)
        canonical = canonical_key(key)
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        record = StoreRecord(
            digest=digest,
            format=STORE_FORMAT_VERSION,
            key=canonical,
            kind=str(canonical[0]) if canonical else "unknown",
            nbytes=len(blob),
            payload_digest=hashlib.blake2b(blob, digest_size=16).hexdigest(),
            git=git_describe(),
        )
        meta_path, payload_path = self._paths(digest)
        self._stage(blob, payload_path)
        self._stage(
            (json.dumps(record.to_dict(), indent=2) + "\n").encode(),
            meta_path,
        )
        self.counters["puts"] += 1
        tracer = current_tracer()
        if tracer is not None:
            tracer.count("store.puts")
            tracer.count("store.put_bytes", len(blob))
            tracer.point(
                "store.put",
                kind=record.kind,
                digest=digest,
                nbytes=len(blob),
            )
        return record

    # -- lookup ---------------------------------------------------------------
    def _read_record(self, meta_path: Path) -> StoreRecord | None:
        """The entry's record, or ``None`` when the file is unreadable,
        undecodable or not a JSON object (a torn or foreign write —
        the entry reads as a miss)."""
        try:
            data = json.loads(meta_path.read_bytes())
        except (OSError, ValueError):  # JSONDecodeError, UnicodeDecodeError
            return None
        if not isinstance(data, dict):
            return None
        if "key" in data and all(
            type(data.get(name)) is kind for name, kind in _RECORD_TYPES.items()
        ):
            return StoreRecord(
                digest=data["digest"],
                format=data["format"],
                key=data["key"],
                kind=data["kind"],
                nbytes=data["nbytes"],
                payload_digest=data["payload_digest"],
                git=data.get("git"),
            )
        # A record with missing or mistyped fields is by definition not
        # format-current: refuse it like any stale entry.
        nbytes = data.get("nbytes")
        return StoreRecord(
            digest=meta_path.stem,
            format=-1,
            key=data.get("key", []),
            kind=str(data.get("kind", "unknown")),
            nbytes=nbytes if type(nbytes) is int else 0,
            payload_digest=str(data.get("payload_digest", "")),
            git=data.get("git"),
        )

    def contains(self, key: Any) -> bool:
        """Whether a *format-current, intact-looking* entry exists."""
        meta_path, payload_path = self._paths(store_digest(key))
        if not meta_path.exists():
            return False
        record = self._read_record(meta_path)
        return (
            record is not None
            and not record.stale
            and payload_path.exists()
        )

    def get(self, key: Any) -> Any:
        """Load the value stored under ``key``.

        Raises :class:`KeyError` on a miss.  Stale-format records and
        payloads whose content digest does not match their record are
        *refused* (counted, reported as misses) — never misread.
        Touches the entry's mtime, which is the LRU clock ``gc`` evicts
        by.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._get_impl(key)
        tracer.count("store.gets")
        try:
            value = self._get_impl(key)
        except KeyError:
            tracer.count("store.misses")
            raise
        tracer.count("store.hits")
        tracer.point("store.get", digest=store_digest(key))
        return value

    def _get_impl(self, key: Any) -> Any:
        digest = store_digest(key)
        meta_path, payload_path = self._paths(digest)
        self.counters["gets"] += 1
        record = (
            self._read_record(meta_path) if meta_path.exists() else None
        )
        if record is None:
            self.counters["misses"] += 1
            raise KeyError(digest)
        if record.stale:
            self.counters["stale_refused"] += 1
            self.counters["misses"] += 1
            raise KeyError(
                f"{digest}: stored with format {record.format}, this tree "
                f"reads format {STORE_FORMAT_VERSION} — entry refused "
                "(re-run without --resume benefits, or `repro store gc`)"
            )
        try:
            blob = payload_path.read_bytes()
        except OSError:
            self.counters["misses"] += 1
            raise KeyError(digest) from None
        if (
            len(blob) != record.nbytes
            or hashlib.blake2b(blob, digest_size=16).hexdigest()
            != record.payload_digest
        ):
            self.counters["misses"] += 1
            raise KeyError(
                f"{digest}: payload does not match its record "
                "(torn or foreign write) — entry refused"
            )
        value = pickle.loads(blob)
        now = None  # let the OS stamp current time
        os.utime(payload_path, now)
        os.utime(meta_path, now)
        self.counters["hits"] += 1
        return value

    # -- enumeration ----------------------------------------------------------
    def records(self) -> list[tuple[StoreRecord, int]]:
        """All entry records with their LRU stamp, least-recent first.

        The stamp is the record file's ``st_mtime_ns`` (touched on every
        ``get``); ties break on digest so the order is deterministic.
        """
        out = []
        # Sorted glob: REP104 — enumeration order must not depend on
        # directory order.
        for meta_path in sorted(self._entries.glob("*.json")):
            record = self._read_record(meta_path)
            if record is None:
                continue
            out.append((record, meta_path.stat().st_mtime_ns))
        out.sort(key=lambda pair: (pair[1], pair[0].digest))
        return out

    def staging_files(self) -> list[Path]:
        """Orphaned in-flight writes (debris of interrupted processes)."""
        return sorted(self._staging.glob(f"{STAGING_PREFIX}*"))

    def stats(self) -> dict:
        """Occupancy + counters (the ``repro store ls`` footer).

        ``format_version`` documents the record schema this tree reads —
        entries recorded under any other version are ``stale_entries``.
        """
        records = self.records()
        return {
            "format_version": STORE_FORMAT_VERSION,
            "entries": len(records),
            "bytes": sum(r.nbytes for r, _ in records),
            "stale_entries": sum(1 for r, _ in records if r.stale),
            "staging_files": len(self.staging_files()),
            **self.counters,
        }

    # -- removal + GC ---------------------------------------------------------
    def _remove_digest(self, digest: str) -> bool:
        meta_path, payload_path = self._paths(digest)
        removed = False
        for path in (meta_path, payload_path):
            try:
                path.unlink()
                removed = True
            except FileNotFoundError:
                pass
        return removed

    def remove(self, key: Any) -> bool:
        """Remove the entry stored under ``key`` (False = not present)."""
        return self._remove_digest(store_digest(key))

    def remove_prefix(self, digest_prefix: str) -> list[str]:
        """Remove every entry whose digest starts with ``digest_prefix``."""
        removed = []
        for record, _ in self.records():
            if record.digest.startswith(digest_prefix):
                if self._remove_digest(record.digest):
                    removed.append(record.digest)
        return removed

    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> dict:
        """Evict to the budgets; purge staging debris.  Returns a report.

        Eviction policy: stale-format entries always go first (they can
        never be read again), then least-recently-used entries until
        both budgets hold.  ``None`` budgets are unbounded — ``gc()``
        with no arguments only clears stale entries and staging files.
        Must not run concurrently with a writer (see module docstring).
        """
        evicted: list[str] = []
        live: list[tuple[StoreRecord, int]] = []
        for record, stamp in self.records():
            if record.stale:
                self._remove_digest(record.digest)
                evicted.append(record.digest)
            else:
                live.append((record, stamp))
        total_bytes = sum(r.nbytes for r, _ in live)
        # ``live`` is least-recent first; evict from the front.
        index = 0
        while index < len(live) and (
            (max_entries is not None and len(live) - index > max_entries)
            or (max_bytes is not None and total_bytes > max_bytes)
        ):
            record, _ = live[index]
            self._remove_digest(record.digest)
            evicted.append(record.digest)
            total_bytes -= record.nbytes
            index += 1
        purged = []
        for path in self.staging_files():
            try:
                path.unlink()
                purged.append(path.name)
            except FileNotFoundError:  # pragma: no cover - racing unlink
                pass
        tracer = current_tracer()
        if tracer is not None:
            tracer.count("store.gc_evicted", len(evicted))
            tracer.point(
                "store.gc",
                evicted=len(evicted),
                staging_purged=len(purged),
                entries=len(live) - index,
            )
        return {
            "evicted": evicted,
            "staging_purged": purged,
            "entries": len(live) - index,
            "bytes": total_bytes,
        }

    # -- convenience ----------------------------------------------------------
    def find(self, kind: str | None = None) -> Iterable[StoreRecord]:
        """Records filtered by kind, least-recently-used first."""
        for record, _ in self.records():
            if kind is None or record.kind == kind:
                yield record
