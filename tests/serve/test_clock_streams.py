"""Client streams: determinism, spawns, arrivals."""

import numpy as np
import pytest

from repro.serve import (
    ClientStream,
    SERVE_STREAM_TAG,
    build_streams,
    materialize_arrivals,
)
from repro.synth import DatasetConfig

CFG = DatasetConfig(height=16, width=16, frames_per_sequence=4)


def _collect(stream, ticks):
    return [stream.poll(t) for t in range(ticks)]


class TestClientStream:
    def test_same_seed_same_frames(self):
        a = _collect(ClientStream(3, CFG, seed=7), 6)
        b = _collect(ClientStream(3, CFG, seed=7), 6)
        for x, y in zip(a, b):
            assert (x is None) == (y is None)
            if x is not None:
                np.testing.assert_array_equal(x.frame, y.frame)
                np.testing.assert_array_equal(x.gaze_true, y.gaze_true)

    def test_clients_are_distinct_subjects(self):
        a = ClientStream(0, CFG).poll(0)
        b = ClientStream(1, CFG).poll(0)
        assert not np.array_equal(a.frame, b.frame)

    def test_stream_independent_of_fleet(self):
        # The per-client spawn keys make a client's frames identical
        # whether it is built alone or inside a fleet.
        alone = _collect(ClientStream(2, CFG, seed=5), 4)
        fleet = build_streams(CFG, [0, 1, 2, 3], seed=5)
        in_fleet = _collect(fleet[2], 4)
        for x, y in zip(alone, in_fleet):
            np.testing.assert_array_equal(x.frame, y.frame)

    def test_namespaced_away_from_dataset_sequences(self):
        from repro.synth import SyntheticEyeDataset

        seq = SyntheticEyeDataset(CFG)[0]
        arrival = ClientStream(0, CFG, seed=CFG.seed).poll(0)
        assert not np.array_equal(arrival.frame, seq.frames[0])
        assert SERVE_STREAM_TAG != 0

    def test_uniform_arrives_every_tick(self):
        arrivals = _collect(ClientStream(0, CFG, arrival="uniform"), 5)
        assert all(a is not None for a in arrivals)
        assert [a.frame_index for a in arrivals] == list(range(5))
        assert [a.tick for a in arrivals] == list(range(5))

    def test_poisson_gaps_at_least_one_tick(self):
        arrivals = _collect(ClientStream(0, CFG, arrival="poisson", seed=3), 40)
        ticks = [a.tick for a in arrivals if a is not None]
        assert ticks, "poisson stream produced nothing in 40 ticks"
        assert all(b - a >= 1 for a, b in zip(ticks, ticks[1:]))
        # Deterministic: the same seed re-produces the arrival pattern.
        again = _collect(ClientStream(0, CFG, arrival="poisson", seed=3), 40)
        assert [a.tick for a in again if a is not None] == ticks

    def test_poisson_eye_trace_matches_uniform(self):
        # The arrival process draws from its own spawn, so the *eye
        # trace* is invariant to it: a frame that does arrive shows the
        # same gaze uniform would have emitted at that tick.  (The noisy
        # pixels differ — the noise stream advances per rendered frame.)
        clean = CFG.__class__(
            height=16, width=16, frames_per_sequence=4, apply_noise=False
        )
        uniform = _collect(ClientStream(0, clean, arrival="uniform", seed=3), 20)
        poisson = _collect(ClientStream(0, clean, arrival="poisson", seed=3), 20)
        for tick, arrival in enumerate(poisson):
            if arrival is not None:
                np.testing.assert_array_equal(
                    arrival.gaze_true, uniform[tick].gaze_true
                )
                np.testing.assert_array_equal(
                    arrival.frame, uniform[tick].frame
                )

    def test_trace_gates_blinks(self):
        blinky = DatasetConfig(
            height=16,
            width=16,
            frames_per_sequence=4,
            dynamics=CFG.dynamics.__class__(blink_rate_hz=30.0),
        )
        found_gap = False
        for seed in range(8):
            arrivals = _collect(
                ClientStream(0, blinky, arrival="trace", seed=seed), 30
            )
            assert all(
                not a.in_blink for a in arrivals if a is not None
            ), "trace stream emitted a mid-blink frame"
            found_gap = found_gap or any(a is None for a in arrivals)
        assert found_gap, "30 Hz blinks never gated a frame in 8 streams"

    def test_polls_must_be_consecutive(self):
        stream = ClientStream(0, CFG)
        stream.poll(0)
        with pytest.raises(ValueError, match="consecutive"):
            stream.poll(5)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError):
            ClientStream(0, CFG, arrival="bursty")


class TestMaterialize:
    def test_groups_by_tick_in_client_order(self):
        streams = build_streams(CFG, [4, 1, 7])
        arrivals = materialize_arrivals(streams, 3)
        assert len(arrivals) == 3
        for row in arrivals:
            assert [a.client_id for a in row] == [4, 1, 7]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            materialize_arrivals([], -1)
