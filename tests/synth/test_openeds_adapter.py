"""Tests for the OpenEDS-format adapter (real-data drop-in path)."""

import numpy as np
import pytest

from repro.synth import DatasetConfig, SyntheticEyeDataset
from repro.synth.openeds_adapter import OpenEDSAdapter, write_sequence_archive


@pytest.fixture()
def archive_dir(tmp_path):
    """A directory of two synthetic recordings in the archive format."""
    ds = SyntheticEyeDataset(
        DatasetConfig(height=32, width=32, frames_per_sequence=5, num_sequences=2)
    )
    for i, seq in enumerate(ds):
        write_sequence_archive(
            tmp_path / f"seq_{i}.npz",
            frames=seq.frames,
            segmentations=seq.segmentations,
            gazes=seq.gazes,
        )
    return tmp_path


class TestWriteArchive:
    def test_rejects_mismatched_stacks(self, tmp_path):
        with pytest.raises(ValueError):
            write_sequence_archive(
                tmp_path / "bad.npz",
                frames=np.zeros((3, 8, 8)),
                segmentations=np.zeros((3, 8, 9), dtype=int),
            )

    def test_rejects_bad_gaze_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_sequence_archive(
                tmp_path / "bad.npz",
                frames=np.zeros((3, 8, 8)),
                segmentations=np.zeros((3, 8, 8), dtype=int),
                gazes=np.zeros((3, 3)),
            )


class TestOpenEDSAdapter:
    def test_loads_sequences(self, archive_dir):
        adapter = OpenEDSAdapter(archive_dir)
        assert len(adapter) == 2
        seq = adapter[0]
        assert seq.frames.shape == (5, 32, 32)
        assert seq.segmentations.shape == (5, 32, 32)
        assert seq.gazes.shape == (5, 2)

    def test_roundtrip_matches_source(self, archive_dir):
        source = SyntheticEyeDataset(
            DatasetConfig(height=32, width=32, frames_per_sequence=5, num_sequences=2)
        )
        adapter = OpenEDSAdapter(archive_dir)
        np.testing.assert_allclose(adapter[0].frames, source[0].frames)
        np.testing.assert_array_equal(
            adapter[0].segmentations, source[0].segmentations
        )
        np.testing.assert_allclose(adapter[0].gazes, source[0].gazes)

    def test_roi_boxes_recomputed(self, archive_dir):
        source = SyntheticEyeDataset(
            DatasetConfig(height=32, width=32, frames_per_sequence=5, num_sequences=2)
        )
        adapter = OpenEDSAdapter(archive_dir)
        assert adapter[0].roi_boxes == source[0].roi_boxes

    def test_uint8_frames_normalized(self, tmp_path):
        frames = np.full((3, 8, 8), 255, dtype=np.uint8)
        write_sequence_archive(
            tmp_path / "u8.npz",
            frames=frames,
            segmentations=np.zeros((3, 8, 8), dtype=int),
        )
        adapter = OpenEDSAdapter(tmp_path)
        assert adapter[0].frames.max() == pytest.approx(1.0)

    def test_missing_gazes_tolerated(self, tmp_path):
        write_sequence_archive(
            tmp_path / "nogaze.npz",
            frames=np.zeros((3, 8, 8)),
            segmentations=np.zeros((3, 8, 8), dtype=int),
        )
        adapter = OpenEDSAdapter(tmp_path)
        assert np.isnan(adapter[0].gazes).all()

    def test_frame_pairs_and_split(self, archive_dir):
        adapter = OpenEDSAdapter(archive_dir)
        train, val = adapter.split()
        assert set(train) | set(val) == {0, 1}
        pairs = list(adapter.frame_pairs())
        assert len(pairs) == 2 * 4

    def test_works_with_strategy_harness(self, archive_dir):
        """Real-data path: the variant harness runs unchanged."""
        from repro.api import STRATEGIES
        from repro.api.tracker import evaluate_strategy
        from repro.segmentation import ViTConfig, ViTSegmenter

        adapter = OpenEDSAdapter(archive_dir)
        rng = np.random.default_rng(0)
        vit = ViTSegmenter(
            ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            rng,
        )
        strategy = STRATEGIES["Ours (ROI+Random)"](8.0)
        result = evaluate_strategy(strategy, vit, adapter, [1], rng)
        assert result.frames == 4

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            OpenEDSAdapter(tmp_path / "nope")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            OpenEDSAdapter(tmp_path)

    def test_bad_labels_raise(self, tmp_path):
        np.savez_compressed(
            tmp_path / "bad.npz",
            frames=np.zeros((2, 8, 8)),
            segmentations=np.full((2, 8, 8), 9, dtype=int),
        )
        adapter = OpenEDSAdapter(tmp_path)
        with pytest.raises(ValueError):
            adapter[0]
