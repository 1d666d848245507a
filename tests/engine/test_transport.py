"""The zero-copy shard transport: handles, segments, lifecycle, parity.

What the transport layer guarantees (``repro.engine.transport``):

* publish/resolve round-trips any picklable payload exactly, whether the
  bytes travel through shared-memory segments or the inline-pickle
  fallback — results are bitwise-identical in both modes;
* identical content is deduplicated (publish again -> same handle, no
  new segments) while in-place mutation — being *content*-addressed —
  naturally produces a fresh segment instead of a stale cache hit;
* segment lifecycle is explicit: ``repro.api.Session``'s channel (the
  one the sharded paths publish on) unlinks on ``close()``, and nothing
  is left behind in ``/dev/shm``.
"""

import glob
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Session
from repro.engine import (
    SequenceRunner,
    Stage,
    TransportChannel,
    TransportError,
    shm_available,
)
from repro.engine.transport import (
    MIN_SHM_ARRAY_BYTES,
    SEGMENT_PREFIX,
    resolve_payload,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable in this environment"
)


def _live_segments() -> set[str]:
    return {
        os.path.basename(p)
        # repro: allow[REP104] builds an order-insensitive set of names
        for p in glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")
    }


class Probe(Stage):
    name = "probe"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))


class Seq:
    frames = np.zeros((3, 4, 4))


class FramesSeq:
    """A sequence of given frames, optionally carrying an array no stage
    reads (like an ``EyeSequence``'s ``clean_frames``)."""

    def __init__(self, frames, clean_frames=None):
        self.frames = frames
        if clean_frames is not None:
            self.clean_frames = clean_frames


class TestRoundTrip:
    def payload(self):
        return {
            "big": np.arange(MIN_SHM_ARRAY_BYTES, dtype=np.float64),
            "small": np.arange(4, dtype=np.int32),
            "meta": ("nested", [1, 2, 3]),
        }

    @needs_shm
    def test_shm_round_trip_is_exact(self):
        with TransportChannel() as channel:
            assert channel.use_shm
            handle = channel.publish(self.payload())
            # The big array left the blob; the handle is tiny either way.
            assert channel.stats["arrays_hoisted"] == 1
            assert handle.wire_bytes < 1024
            resolved = resolve_payload(handle)
            expected = self.payload()
            assert np.array_equal(resolved["big"], expected["big"])
            assert resolved["big"].dtype == expected["big"].dtype
            assert np.array_equal(resolved["small"], expected["small"])
            assert resolved["meta"] == expected["meta"]

    @needs_shm
    def test_resolved_arrays_are_read_only_views(self):
        # A kernel mutating shipped data must raise, not silently diverge
        # from the in-process execution modes.
        with TransportChannel() as channel:
            handle = channel.publish(self.payload())
            resolved = resolve_payload(handle)
            with pytest.raises(ValueError):
                # repro: allow[REP105] deliberately asserts the write raises
                resolved["big"][0] = -1.0

    def test_pickle_fallback_round_trip_is_exact(self):
        with TransportChannel(use_shm=False) as channel:
            assert not channel.use_shm
            handle = channel.publish(self.payload())
            assert handle.segment is None and handle.blob is not None
            resolved = resolve_payload(handle)
            assert np.array_equal(resolved["big"], self.payload()["big"])
            # No segments were ever created in fallback mode.
            assert channel.stats["segments_created"] == 0

    def test_disable_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert not shm_available()
        channel = TransportChannel()
        assert not channel.use_shm
        channel.close()


class TestDedupAndMutation:
    @needs_shm
    def test_identical_content_republish_reuses_segments(self):
        arr = np.ones(MIN_SHM_ARRAY_BYTES, dtype=np.float64)
        with TransportChannel() as channel:
            first = channel.publish({"w": arr})
            created = channel.stats["segments_created"]
            second = channel.publish({"w": arr.copy()})  # equal bytes
            assert second.digest == first.digest
            assert channel.stats["segments_created"] == created
            assert channel.stats["publish_reuses"] == 1

    @needs_shm
    def test_inplace_mutation_yields_fresh_content(self):
        # Content addressing: the optimizer stepping weights in place
        # must produce a new segment, never a stale cache hit.
        arr = np.ones(MIN_SHM_ARRAY_BYTES, dtype=np.float64)
        with TransportChannel() as channel:
            first = channel.publish({"w": arr})
            arr += 1.0
            second = channel.publish({"w": arr})
            assert second.digest != first.digest
            assert np.array_equal(
                resolve_payload(second)["w"], np.full(arr.shape, 2.0)
            )


class TestLifecycle:
    @needs_shm
    def test_close_unlinks_every_segment(self):
        channel = TransportChannel()
        channel.publish({"w": np.zeros(MIN_SHM_ARRAY_BYTES)})
        names = set(channel.segment_names())
        assert names and names <= _live_segments()
        channel.close()
        assert not names & _live_segments()
        channel.close()  # idempotent

    @needs_shm
    def test_publish_after_close_raises(self):
        channel = TransportChannel()
        channel.close()
        with pytest.raises(TransportError):
            channel.publish({"x": 1})


class TestEngineIntegration:
    def test_sharded_run_records_transport(self, sharding):
        run = SequenceRunner([Probe()]).run(
            [(i, Seq()) for i in range(4)], shards=sharding
        )
        info = run.transport
        assert info is not None
        assert info["mode"] in ("shm", "pickle")
        # One shard per worker.
        assert info["dispatches"] == 2
        assert info["payload_bytes_per_dispatch"] > 0

    @needs_shm
    def test_unread_sequence_arrays_do_not_cross(self, sharding):
        """A shard publishes only the fields the frame contexts read: a
        1 MB array no stage reads adds no segment and no segment bytes."""
        rng = np.random.default_rng(0)
        frames = rng.random((3, 64, 64))
        clean = rng.random((16, 128, 64))

        def segments(seq):
            with TransportChannel() as channel:
                run = SequenceRunner([Probe()]).run(
                    [(0, seq), (1, seq)],
                    shards=replace(sharding, channel=channel),
                )
            info = run.transport
            return info["segments_created"], info["segment_bytes_written"]

        lean = segments(FramesSeq(frames))
        assert segments(FramesSeq(frames, clean)) == lean

    def test_in_process_run_has_no_transport(self):
        run = SequenceRunner([Probe()]).run([(0, Seq())])
        assert run.transport is None

    def test_forced_pickle_transport_matches_shm(self, sharding):
        # The channel's inline-pickle fallback (what runs where /dev/shm
        # is missing) on the same injected executor.
        sequences = [(i, Seq()) for i in (7, 3, 9, 5)]
        reference = SequenceRunner([Probe()]).run(sequences)
        shm = SequenceRunner([Probe()]).run(sequences, shards=sharding)
        with TransportChannel(use_shm=False) as channel:
            pickled = SequenceRunner([Probe()]).run(
                sequences,
                shards=replace(sharding, channel=channel),
            )
        assert pickled.transport["mode"] == "pickle"
        assert pickled.transport["segment_bytes_written"] == 0
        for run in (shm, pickled):
            assert [(c.seq_index, c.t, c.gaze_pred) for c in run.contexts] == [
                (c.seq_index, c.t, c.gaze_pred) for c in reference.contexts
            ]

    @needs_shm
    def test_persistent_channel_reuses_payload_bytes(self, sharding):
        sequences = [(i, Seq()) for i in range(4)]
        first = SequenceRunner([Probe()]).run(
            sequences, shards=sharding
        )
        second = SequenceRunner([Probe()]).run(
            sequences, shards=sharding
        )
        # Steady state: every publish is a dedup hit, no new bytes move.
        assert second.transport["publish_reuses"] > 0
        assert second.transport["segment_bytes_written"] == 0
        assert second.transport["payload_bytes_per_dispatch"] <= (
            first.transport["payload_bytes_per_dispatch"]
        )


class TestSessionOwnership:
    @needs_shm
    def test_session_close_unlinks_channel_segments(self):
        session = Session()
        channel = session.transport()
        assert session.transport() is channel  # one channel per session
        channel.publish({"w": np.zeros(MIN_SHM_ARRAY_BYTES)})
        names = set(channel.segment_names())
        assert names <= _live_segments()
        session.close()
        assert not names & _live_segments()
        assert channel.closed

    @needs_shm
    def test_session_context_manager_leaves_no_segments(self):
        before = _live_segments()
        spec = {
            "workload": "evaluate",
            "dataset": {"num_sequences": 4, "frames_per_sequence": 4},
            "training": {"epochs": 1, "train_indices": [0, 1]},
            "execution": {"workers": 2, "eval_indices": [2, 3]},
        }
        with Session() as session:
            sharded = session.run(spec)
        assert _live_segments() <= before
        serial_spec = {**spec, "execution": {"eval_indices": [2, 3]}}
        with Session() as session:
            serial = session.run(serial_spec)
        assert sharded.metrics == serial.metrics
