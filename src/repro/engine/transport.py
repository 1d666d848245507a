"""Zero-copy shard transport: ship bytes once, hand out handles after.

The sharded execution paths (engine runner, strategy sweep, serve
replicas) historically pickled their whole payload — frame stacks, model
weights, sensor templates — into every worker dispatch.  At CI scale
that serialization *dominated* the kernels: the process pool lost to
single-process execution.  This module attacks the bytes, not the
kernels:

* **Content-addressed shared-memory segments.**  A dispatcher-side
  :class:`TransportChannel` pickles each payload once with an extracting
  pickler that hoists large ndarrays into
  ``multiprocessing.shared_memory`` segments, stores the residual pickle
  blob in a segment of its own, and returns a tiny :class:`ObjectHandle`
  (a content digest plus a segment name).  Re-publishing identical
  content — the common case: the same runner, the same dataset
  sequences, dispatch after dispatch — reuses the existing segments, so
  a steady-state dispatch crosses the process boundary as a few hundred
  bytes of handle instead of megabytes of payload.
* **Worker-resident caches.**  Workers map segments read-only (one
  attach per segment per process) and memoize the *resolved object* by
  its content digest, so repeated dispatches of the same payload skip
  deserialization entirely.
* **Explicit lifecycle.**  Segments are created by the dispatcher and
  live until the channel closes: the channel owned by
  ``repro.api.Session`` (the only one the sharded paths use) unlinks
  every segment on ``Session.close()``.  A full ``/dev/shm`` raises a
  :class:`TransportError` that names the cause.
* **Plain-pickle fallback.**  When shared memory is unavailable (or
  explicitly disabled via ``REPRO_DISABLE_SHM=1``) the blob ships
  inline inside the handle.  Resolution is bit-for-bit the same
  unpickle either way, so results are bitwise-identical in both modes —
  the engine and serve parity suites pin this.

Mutation safety: segments are content-addressed by a BLAKE2 fingerprint
of the array bytes, never by object identity, so mutating an array in
place (a model trained further between runs) and re-publishing
yields a *new* segment beside the old one (both live until ``close()``)
— stale-cache bugs are structurally impossible.  Worker-side views are
read-only; a kernel that tried to write a shipped array would raise
instead of silently diverging from the in-process modes.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import io
import os
import pickle
import secrets
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.tracer import current_tracer

try:  # pragma: no cover - shared_memory ships with CPython >= 3.8
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

__all__ = [
    "TransportChannel",
    "TransportError",
    "ObjectHandle",
    "ArrayRef",
    "resolve_payload",
    "shm_available",
    "MIN_SHM_ARRAY_BYTES",
    "SEGMENT_PREFIX",
]

#: Arrays at or above this many bytes are hoisted out of the pickle
#: stream into their own shared-memory segment; smaller ones ride inline
#: in the blob (a segment per tiny weight matrix would cost more in
#: mmap/fd churn than it saves in bytes).
MIN_SHM_ARRAY_BYTES = 16 * 1024

#: Every segment this module creates carries this name prefix, so leak
#: checks (CI asserts ``/dev/shm`` is clean after a ``Session`` closes)
#: can tell our segments from unrelated ``psm_*`` ones.
SEGMENT_PREFIX = "reproshm_"

#: Kill switch: set ``REPRO_DISABLE_SHM=1`` to force the plain-pickle
#: fallback everywhere (results are bitwise-identical either way).
DISABLE_ENV = "REPRO_DISABLE_SHM"


class TransportError(RuntimeError):
    """A payload could not be shipped or resolved (``/dev/shm`` full,
    segment gone or channel closed)."""


_SHM_PROBE: bool | None = None


def shm_available() -> bool:
    """Whether shared-memory transport is usable in this environment.

    Probes once per process: creates, maps and unlinks a tiny segment.
    Containers without ``/dev/shm`` (or with it mounted noexec/0-sized)
    fail the probe and every channel falls back to inline pickling.
    """
    global _SHM_PROBE
    if os.environ.get(DISABLE_ENV, "").strip() not in ("", "0"):
        return False
    if _SHM_PROBE is None:
        if _shm is None:
            _SHM_PROBE = False
        else:
            try:
                seg = _shm.SharedMemory(
                    name=_new_segment_name(), create=True, size=16
                )
                seg.buf[:2] = b"ok"
                seg.close()
                seg.unlink()
                _SHM_PROBE = True
            except Exception:  # pragma: no cover - degraded environments
                _SHM_PROBE = False
    return _SHM_PROBE


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(6)}"


# -- wire format --------------------------------------------------------------
@dataclass(frozen=True)
class ArrayRef:
    """A picklable pointer to one ndarray living in a segment."""

    segment: str
    dtype: str
    shape: tuple


@dataclass(frozen=True)
class ObjectHandle:
    """What actually crosses the pipe for one published payload.

    ``segment`` names the blob's segment (shared-memory mode) or is
    ``None`` with the blob carried inline (``blob``, fallback mode).
    ``digest`` content-addresses the payload — the worker-side object
    cache key — and ``wire_bytes`` is the handle's own pickled size, the
    number the benchmarks report as per-dispatch transport bytes.
    """

    digest: str
    nbytes: int
    segment: str | None = None
    blob: bytes | None = field(default=None, repr=False)
    wire_bytes: int = 0


# -- process-wide segment + object caches (both sides) ------------------------
#: Mapped segments by name.  On the dispatcher this holds every segment
#: the process created; on a pool worker it accumulates one attach per
#: segment ever resolved.
_SEGMENTS: "OrderedDict[str, Any]" = OrderedDict()
#: Resolved payloads by content digest (worker-side memo: repeated
#: dispatches of an identical payload skip deserialization entirely).
_OBJECTS: "OrderedDict[str, Any]" = OrderedDict()
_OBJECTS_MAX = 32


def _attach(name: str):
    seg = _SEGMENTS.get(name)
    if seg is None:
        if _shm is None:  # pragma: no cover - guarded by shm_available
            raise TransportError("shared memory is unavailable")
        try:
            seg = _shm.SharedMemory(name=name)
        except FileNotFoundError:
            raise TransportError(
                f"shared-memory segment {name!r} is gone — it was released "
                "(channel closed) while a handle to it "
                "was still in flight"
            ) from None
        _SEGMENTS[name] = seg
    return seg


def _load_array(ref: ArrayRef) -> np.ndarray:
    """Reconstruct one hoisted ndarray (the pickle-side of ``ArrayRef``).

    Returns a *read-only* view over the mapped segment: zero copies, and
    any kernel that tried to mutate shipped data raises instead of
    silently diverging from the in-process execution modes.
    """
    seg = _attach(ref.segment)
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
    view.flags.writeable = False
    return view


def resolve_payload(handle: ObjectHandle) -> Any:
    """Materialize a published payload (worker-side entry point).

    Digest-memoized: the unpickle runs once per payload per process,
    every later dispatch of the same content returns the cached object.
    The cache is an LRU — bounded, so long sessions cycling through many
    distinct payloads do not grow without limit.
    """
    obj = _OBJECTS.get(handle.digest)
    if obj is not None or handle.digest in _OBJECTS:
        _OBJECTS.move_to_end(handle.digest)
        return _OBJECTS[handle.digest]
    if handle.blob is not None:
        blob: Any = handle.blob
    else:
        seg = _attach(handle.segment)
        blob = seg.buf[: handle.nbytes]
    obj = pickle.loads(blob)
    _OBJECTS[handle.digest] = obj
    while len(_OBJECTS) > _OBJECTS_MAX:
        _OBJECTS.popitem(last=False)
    return obj


# -- dispatcher side ----------------------------------------------------------
class _ExtractingPickler(pickle.Pickler):
    """Pickler that hoists big plain ndarrays into channel segments."""

    def __init__(self, file, channel: "TransportChannel"):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._channel = channel

    def reducer_override(self, obj):
        if type(obj) is np.ndarray:
            ref = self._channel._put_array(obj)
            if ref is not None:
                return (_load_array, (ref,))
        return NotImplemented


class TransportChannel:
    """Dispatcher-owned transport state: segments, dedup maps, stats.

    ``repro.api.Session.transport()`` owns the one channel the sharded
    paths publish on; its segments live until ``Session.close()``.
    :func:`shm_available` picks the mode; the inline-pickle fallback has
    identical semantics and results.
    """

    def __init__(self):
        self.use_shm = shm_available()
        self._closed = False
        #: Array dedup: content fingerprint -> ArrayRef.
        self._arrays: dict[str, ArrayRef] = {}
        #: Blob dedup: digest -> ObjectHandle.
        self._blobs: dict[str, ObjectHandle] = {}
        #: ``dispatches``/``dispatch_bytes`` count the pool jobs
        #: :meth:`repro.engine.executors.Shards.map` sent with handles on
        #: this channel and the handle bytes they carried.
        self.stats = {
            "dispatches": 0,
            "dispatch_bytes": 0,
            "publish_reuses": 0,
            "arrays_hoisted": 0,
            "segments_created": 0,
            "segment_bytes": 0,
        }

    # -- segments -------------------------------------------------------------
    def _create_segment(self, nbytes: int):
        name = _new_segment_name()
        try:
            seg = _shm.SharedMemory(name=name, create=True, size=max(nbytes, 1))
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            raise TransportError(
                f"/dev/shm has no room for a {nbytes}-byte shared-memory "
                "segment; enlarge /dev/shm (e.g. docker --shm-size) or set "
                f"{DISABLE_ENV}=1 to ship payloads inline"
            ) from exc
        _SEGMENTS[name] = seg
        self.stats["segments_created"] += 1
        self.stats["segment_bytes"] += nbytes
        return seg

    def _release_segment(self, name: str) -> None:
        seg = _SEGMENTS.pop(name, None)
        if seg is not None:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - live local views
                # Something in this process still views the buffer; give
                # the name back and unlink anyway (POSIX keeps existing
                # mappings alive after unlink).
                _SEGMENTS[name] = seg
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # -- arrays ---------------------------------------------------------------
    def _put_array(self, arr: np.ndarray) -> ArrayRef | None:
        """Hoist one ndarray into a segment; ``None`` keeps it inline.

        Content-addressed: the fingerprint covers the actual bytes, so
        in-place mutation (further training between runs) naturally
        produces a fresh segment instead of a stale cache hit.
        """
        if not self.use_shm:
            return None
        if arr.nbytes < MIN_SHM_ARRAY_BYTES or arr.dtype.kind not in "biufc":
            return None
        data = np.ascontiguousarray(arr)
        fingerprint = hashlib.blake2b(
            data.view(np.uint8).reshape(-1).data, digest_size=16
        ).hexdigest()
        ref = self._arrays.get(fingerprint)
        if ref is not None:
            return ref
        seg = self._create_segment(data.nbytes)
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=seg.buf)
        view[...] = data
        ref = ArrayRef(seg.name, data.dtype.str, data.shape)
        self._arrays[fingerprint] = ref
        self.stats["arrays_hoisted"] += 1
        return ref

    # -- publishing -----------------------------------------------------------
    def publish(self, obj: Any) -> ObjectHandle:
        """Ship ``obj`` once; return the handle every dispatch sends.

        Identical content (by digest of the extracted pickle, which in
        turn content-addresses the hoisted arrays) reuses the existing
        segments — the steady-state dispatch cost is the handle itself.
        """
        self._check_open()
        buf = io.BytesIO()
        _ExtractingPickler(buf, self).dump(obj)
        blob = buf.getvalue()
        digest = hashlib.blake2b(blob, digest_size=16).hexdigest()
        handle = self._blobs.get(digest)
        reused = handle is not None
        if reused:
            self.stats["publish_reuses"] += 1
        else:
            if self.use_shm:
                seg = self._create_segment(len(blob))
                seg.buf[: len(blob)] = blob
                place = {"segment": seg.name}
            else:
                place = {"blob": blob}
            handle = ObjectHandle(digest=digest, nbytes=len(blob), **place)
            handle = dataclasses.replace(
                handle,
                wire_bytes=len(pickle.dumps(handle, pickle.HIGHEST_PROTOCOL)),
            )
            self._blobs[digest] = handle
        tracer = current_tracer()
        if tracer is not None:
            tracer.count("transport.publishes")
            tracer.count("transport.publish_bytes", len(blob))
            if reused:
                tracer.count("transport.publish_reuses")
            tracer.point("transport.publish", nbytes=len(blob), reused=reused)
        return handle

    # -- lifecycle ------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise TransportError(
                "transport channel is closed; its segments are unlinked"
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> list[str]:
        """Names of every live segment this channel created (leak checks)."""
        names = [h.segment for h in self._blobs.values() if h.segment is not None]
        names.extend(ref.segment for ref in self._arrays.values())
        return names

    def close(self) -> None:
        """Unlink every segment this channel created.  Idempotent.

        Called by ``Session.close()`` (or on leaving a ``with``
        block).  Workers that already mapped a segment
        keep their mapping — POSIX shared memory outlives its name for
        existing maps — so in-flight results are never corrupted; only
        *new* attaches become impossible, and no names leak in
        ``/dev/shm``.
        """
        if self._closed:
            return
        for name in self.segment_names():
            self._release_segment(name)
        for digest in self._blobs:
            _OBJECTS.pop(digest, None)
        self._blobs.clear()
        self._arrays.clear()
        self._closed = True

    def __enter__(self) -> "TransportChannel":
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort backstop
        try:
            self.close()
        except Exception:
            pass
