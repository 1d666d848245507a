"""The persistent experiment runtime behind ``Session.run(spec)``.

A :class:`Session` owns the expensive, reusable state that the ad-hoc
entry points used to rebuild per call:

* one **persistent process pool** (see :mod:`repro.engine.executors`)
  and one **transport channel**, created on first sharded run and
  reused by every subsequent run — the only way the sharded paths
  dispatch;
* **memoized trained pipelines** keyed by the spec's training-relevant
  section hash, so two specs that differ only in execution mode share
  one joint training (and the sensor templates cached inside it);
* **memoized per-strategy training** for Fig. 15 sweeps, including the
  post-training RNG state so a cache hit replays evaluation
  bitwise-identically;
* optionally, a **persistent artifact store**
  (:class:`~repro.store.ArtifactStore`): ``Session(store=...)`` writes
  every persisted memo entry (and completed ``RunResult``\\ s) to disk
  and hydrates misses from it, so a killed sweep restarts, replays the
  completed strategies bitwise from disk, and only computes what is
  actually missing.  ``resume=True`` additionally reuses whole stored
  ``RunResult``\\ s keyed by the spec hash.

``Session.run`` validates the spec, runs the workload its name indexes
in :data:`~repro.api.workloads.WORKLOADS`, and stamps provenance (spec
hash, seed, workers, git describe, the ``cache_hits`` the run skipped
work for, the full spec) onto the returned
:class:`~repro.api.result.RunResult`.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any, Callable

from dataclasses import replace

from repro.api.result import RunResult, git_describe
from repro.api.spec import ExperimentSpec, SpecError
from repro.api.tracker import BlissCamPipeline, ci, paper
from repro.engine import ProcessPoolBackend, TransportChannel
from repro.obs.tracer import TRACE_FORMAT_VERSION, Tracer, install_tracer
from repro.store import ArtifactStore, StoreError, canonical_key
from repro.synth import GazeDynamicsConfig

__all__ = ["Session", "system_config", "LIVELY_DYNAMICS"]

#: The ``dataset.dynamics == "lively"`` preset: short fixations +
#: pursuits + large saccades, so short sequences still contain motion
#: (and adaptive strategies have events to gate on).  The benchmark
#: harness's ``BENCH_DYNAMICS`` is this same object.
LIVELY_DYNAMICS = GazeDynamicsConfig(
    fixation_mean_s=0.03,
    pursuit_prob=0.3,
    saccade_amplitude=(5.0, 20.0),
)


def system_config(spec: ExperimentSpec):
    """The :class:`~repro.api.tracker.SystemConfig` a spec describes.

    ``None`` dataset fields keep the preset's value — ``preset:
    "paper"`` alone is the faithful Sec. V geometry (32 x 60 at
    640x400), with any explicitly-set field overriding it.
    """
    d = spec.dataset
    base = ci(seed=d.seed) if d.preset == "ci" else paper(seed=d.seed)
    dataset = replace(base.dataset, fps=d.fps)
    if d.num_sequences is not None:
        dataset = replace(dataset, num_sequences=d.num_sequences)
    if d.frames_per_sequence is not None:
        dataset = replace(dataset, frames_per_sequence=d.frames_per_sequence)
    if d.eye_scale is not None:
        dataset = replace(dataset, eye_scale=d.eye_scale)
    if d.dynamics == "lively":
        dataset = replace(dataset, dynamics=LIVELY_DYNAMICS)
    if d.blink_rate_hz is not None:
        dataset = replace(
            dataset,
            dynamics=replace(dataset.dynamics, blink_rate_hz=d.blink_rate_hz),
        )
    noise_overrides = {
        name: value
        for name, value in (
            ("electrons_per_second_full_scale",
             d.noise.electrons_per_second_full_scale),
            ("read_noise_electrons", d.noise.read_noise_electrons),
            ("bit_depth", d.noise.bit_depth),
        )
        if value is not None
    }
    if noise_overrides:
        dataset = replace(
            dataset, noise=replace(dataset.noise, **noise_overrides)
        )
    config = replace(
        base,
        dataset=dataset,
        compression=spec.sensor.compression,
        roi_margin_px=spec.sensor.roi_margin_px,
    )
    # Like every other training field, ``None`` keeps the preset's value
    # — only explicitly-set schedule knobs override the config.
    joint_overrides = {
        name: value
        for name, value in (
            ("epochs", spec.training.epochs),
            ("batch_size", spec.training.batch_size),
        )
        if value is not None
    }
    if joint_overrides:
        config = replace(
            config, joint=replace(config.joint, **joint_overrides)
        )
    return config


class _CountingSink:
    """A write-only sink that measures a pickle without keeping it."""

    def __init__(self):
        self.nbytes = 0

    def write(self, data) -> int:
        # Protocol-5 pickles hand large arrays over as PickleBuffer
        # objects (no len()); the buffer protocol sizes everything.
        n = memoryview(data).nbytes
        self.nbytes += n
        return n


def _pickled_nbytes(value: Any) -> int:
    """Serialized size of ``value`` without materializing the blob.

    Best-effort observability: an unpicklable memo value accounts as 0
    rather than failing the caller (the memo itself never needed
    pickling to work in-process).
    """
    sink = _CountingSink()
    try:
        pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    except Exception:
        return 0
    return sink.nbytes


class Session:
    """A reusable runtime: ``run()`` as many specs as you like, cheaply.

    Usable as a context manager; :meth:`close` shuts the pool down.
    All in-memory caches are per-session — two sessions share nothing —
    but an attached :class:`~repro.store.ArtifactStore` is durable state
    *across* sessions: that is what makes a killed sweep resumable.
    """

    def __init__(
        self,
        store: ArtifactStore | str | Path | None = None,
        resume: bool = False,
        trace: str | Path | Tracer | None = None,
    ):
        """``trace`` is the one tracing switch; it covers every run:

        * ``None`` (default) — no tracing;
        * a path — the session records into one tracer of its own and
          rewrites this JSONL file after each run, so the file holds
          every run so far, in order;
        * a :class:`~repro.obs.Tracer` — record into the caller's tracer;
          the caller owns the export (no file is written).
        """
        if not (trace is None or isinstance(trace, (str, Path, Tracer))):
            raise TypeError(
                f"trace must be None, a path or a Tracer, got {type(trace)!r}"
            )
        #: The live process pool, grow-only (``None`` until sharded).
        self._pool: ProcessPoolBackend | None = None
        self._transport = None
        self._closed = False
        self._memo: dict[Any, Any] = {}
        #: Serialized-size accounting per memo entry (``stats()``).
        self._memo_bytes: dict[Any, int] = {}
        #: Work skipped by the *current* ``run()`` (reset per run,
        #: stamped into ``provenance.cache_hits``).
        self._cache_hits: list[dict] = []
        self.store = (
            store
            if store is None or isinstance(store, ArtifactStore)
            else ArtifactStore(store)
        )
        #: Reuse whole stored ``RunResult``\ s keyed by spec hash.
        self.resume = bool(resume)
        #: The session-lifetime tracer (``None``: tracing off) and the
        #: JSONL file rewritten after each run (``None``: caller exports).
        self._tracer, self._trace_sink = trace, None
        if isinstance(trace, (str, Path)):
            self._tracer, self._trace_sink = Tracer(), Path(trace)
        #: Observability counters: how often the session saved work.
        self._counters = {
            "runs": 0,
            "train_cache_hits": 0,
            "train_cache_misses": 0,
            "pools_created": 0,
            "store_hydrations": 0,
        }

    # -- the persistent process pool -----------------------------------------
    def executor(self, workers: int) -> ProcessPoolBackend | None:
        """The session's live pool, grown to at least ``workers``;
        ``None`` for in-process runs (``workers < 2`` — the serial
        reference path).

        Grow-only: asking for fewer workers than the current pool has
        reuses the bigger one (idle workers are cheap, re-forking is the
        cost this session exists to amortize).  Growing drains the old
        pool first (``shutdown(wait=True)``) so in-flight shard jobs
        complete before their pool goes away.  A pool broken by a dead
        worker is replaced at its size, never handed out again; every
        new pool counts in ``pools_created``."""
        self._check_open()
        if workers < 2:
            return None
        current = self._pool
        if current is None or current.broken or workers > current.max_workers:
            if current is not None:
                workers = max(workers, current.max_workers)
                current.shutdown(wait=True)
            self._pool = current = ProcessPoolBackend(workers)
            self._counters["pools_created"] += 1
        return current

    def transport(self) -> TransportChannel:
        """The session's shared-memory transport channel, created lazily.

        One channel per session: published payloads (runner graphs,
        datasets, model weights) are deduplicated by content across
        *every* run the session executes, and every segment the channel
        created is unlinked by :meth:`close`.  Falls back to plain
        pickle transparently when shared memory is unavailable."""
        self._check_open()
        if self._transport is None:
            self._transport = TransportChannel()
        return self._transport

    @property
    def pool_workers(self) -> int:
        """Live pool size (0 = no pool yet).  May exceed what the last
        run asked for — the pool is grow-only — which matters when
        interpreting timing comparisons."""
        return self._pool.max_workers if self._pool is not None else 0

    # -- observability ---------------------------------------------------------
    def stats(self) -> dict:
        """Counters plus memo occupancy (and store stats when attached).

        ``memo_entries``/``memo_bytes`` account the in-memory cache —
        the long-sweep memory-growth signal the memo itself (unbounded
        by design: evicting a trained pipeline mid-sweep would silently
        retrain) cannot give you.  ``memo_bytes`` is serialized size,
        measured without materializing the pickles.
        """
        out = dict(self._counters)
        out["memo_entries"] = len(self._memo)
        out["memo_bytes"] = sum(sorted(self._memo_bytes.values()))
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def _record_hit(self, key: Any, source: str) -> None:
        """Append a ``provenance.cache_hits`` entry for a skipped
        training (``source``: ``"memory"`` or ``"store"``)."""
        try:
            parts = canonical_key(key)
        except StoreError:
            # A non-canonical (object-bearing) key can still hit the
            # in-memory memo; it just has no serializable provenance.
            return
        self._cache_hits.append(
            {
                "kind": str(parts[0]) if parts else "unknown",
                "key": parts,
                "source": source,
            }
        )

    # -- memoized training ---------------------------------------------------
    def memo(
        self,
        key: Any,
        factory: Callable[[], Any],
        *,
        training: bool = True,
    ) -> Any:
        """Session-lifetime memoization of expensive work.

        ``training=True`` entries count in the
        ``train_cache_hits``/``train_cache_misses`` counters — those
        count *trainings saved*, not every cached object — and persist
        to the attached store: misses are written through to disk and
        lookups hydrate from disk before computing (the resume path).
        Datasets and other cheap-to-rebuild objects pass
        ``training=False``, which keeps them out of both."""
        if key in self._memo:
            if training:
                self._counters["train_cache_hits"] += 1
                self._record_hit(key, "memory")
            return self._memo[key]
        if training and self.store is not None:
            try:
                value = self.store.get(key)
            except KeyError:
                # A miss, or a refused entry (stale format, torn
                # record or payload): fall through and recompute.
                pass
            else:
                if training:
                    self._counters["train_cache_hits"] += 1
                    self._record_hit(key, "store")
                self._counters["store_hydrations"] += 1
                self._memo[key] = value
                self._memo_bytes[key] = _pickled_nbytes(value)
                return value
        if training:
            self._counters["train_cache_misses"] += 1
        value = factory()
        self._memo[key] = value
        self._memo_bytes[key] = _pickled_nbytes(value)
        if training and self.store is not None:
            self.store.put(key, value)
        return value

    def cached(self, key: Any) -> bool:
        """Whether ``key`` is already memoized — in memory or, with a
        store attached, on disk (no counters touched).

        Lets workloads decide *where* to compute a miss — e.g. the
        strategy sweep fans uncached trainings out across the pool while
        cache hits (including store hits: the resume path) replay
        in-process."""
        if key in self._memo:
            return True
        return self.store is not None and self.store.contains(key)

    def pipeline(self, spec: ExperimentSpec) -> BlissCamPipeline:
        """A *trained* pipeline for the spec, memoized by its
        training-relevant inputs: the dataset and training sections plus
        the sensor fields baked into ``SystemConfig`` (compression, ROI
        margin).  The training section hash covers the training
        schedule too (``batch_size``), so overriding it retrains.
        Training runs in-process; eval-time knobs (``sensor_seed``,
        ``reuse_window``, the whole execution section — including
        ``workers``) deliberately stay out of the key — specs differing
        only in those share one joint training and the calibrated sensor
        templates cached inside the pipeline."""
        key = (
            "pipeline",
            spec.section_hash("dataset", "training"),
            spec.sensor.compression,
            spec.sensor.roi_margin_px,
        )

        def _train() -> BlissCamPipeline:
            config = system_config(spec)
            pipeline = BlissCamPipeline(config)
            indices = spec.training.train_indices
            pipeline.train(list(indices) if indices is not None else None)
            return pipeline

        return self.memo(key, _train)

    # -- the front door ------------------------------------------------------
    def run(self, spec: ExperimentSpec | dict) -> RunResult:
        """Validate ``spec``, execute its workload, stamp provenance.

        With a store attached, every completed ``RunResult`` is
        persisted under ``("run_result", spec_hash)``; with
        ``resume=True``, a stored result for an identical spec is
        returned directly (its ``cache_hits`` restamped to say so)
        instead of re-running the workload.

        With the session's ``trace=`` set, its tracer is installed
        around the whole run — including the resume fast path; pool
        workers' spans merge in as their results are consumed — the
        JSONL file (if any) is rewritten, and a ``trace`` block with this
        run's own span counts is stamped into ``provenance``."""
        self._check_open()
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        elif isinstance(spec, ExperimentSpec):
            spec.validate()
        else:
            raise SpecError(
                "<root>", f"expected ExperimentSpec or dict, got {type(spec)!r}"
            )
        tracer = self._tracer
        if tracer is None:
            return self._run_impl(spec)
        # Deltas, not totals: the session's tracer holds every run so
        # far, and provenance reports this run's own counts.
        spans_before = len(tracer.spans)
        dropped_before = tracer.dropped
        with install_tracer(tracer):
            with tracer.span(
                "session.run",
                workload=spec.workload,
                spec_hash=spec.spec_hash(),
            ):
                result = self._run_impl(spec)
            if self._cache_hits:
                tracer.count("session.cache_hits", len(self._cache_hits))
        trace_info = {
            "format": TRACE_FORMAT_VERSION,
            "spans": len(tracer.spans) - spans_before,
            "spans_dropped": tracer.dropped - dropped_before,
        }
        if self._trace_sink is not None:
            trace_info["path"] = str(self._trace_sink)
            trace_info["sink_bytes"] = tracer.write_jsonl(self._trace_sink)
        result.provenance = {**result.provenance, "trace": trace_info}
        return result

    def _run_impl(self, spec: ExperimentSpec) -> RunResult:
        from repro.api.workloads import WORKLOADS

        self._cache_hits = []
        run_key = ("run_result", spec.spec_hash())
        if (
            self.resume
            and self.store is not None
            and self.store.contains(run_key)
        ):
            try:
                result = self.store.get(run_key)
            except KeyError:
                pass  # refused entry: fall through and re-run
            else:
                self._record_hit(run_key, "store")
                result.provenance = {
                    **result.provenance,
                    "cache_hits": list(self._cache_hits),
                }
                self._counters["runs"] += 1
                return result
        result = WORKLOADS[spec.workload](self, spec)
        result.provenance = {
            "spec_hash": spec.spec_hash(),
            "seed": spec.dataset.seed,
            "workers": spec.execution.workers,
            "git": git_describe(),
            "cache_hits": list(self._cache_hits),
            "spec": spec.to_dict(),
            **result.provenance,
        }
        self._counters["runs"] += 1
        if self.store is not None:
            self.store.put(run_key, result)
        return result

    # -- lifecycle -----------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "Session is closed; create a new Session instead of reusing "
                "a closed one (its pool and caches are gone)"
            )

    def close(self) -> None:
        """Shut the pool down and retire the session.  Idempotent; any
        later ``run()``/``executor()``/``with`` use raises cleanly
        instead of silently re-forking a pool the caller thought was
        released."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        self._closed = True

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
