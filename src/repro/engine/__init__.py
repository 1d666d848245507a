"""``repro.engine`` — the staged frame-dataflow execution runtime.

The paper's system is a staged dataflow (eventification -> ROI prediction
-> in-ROI sampling -> RLE/MIPI readout -> packed sparse-ViT segmentation
-> gaze regression).  This package makes that structure executable: a
:class:`Stage` protocol, a :class:`FrameContext` carrying one frame's
intermediate products, a :class:`StageGraph` that starts lanes and
steps ranks through its stages, and a :class:`SequenceRunner` that
executes stage graphs over batches of sequences — as one vectorized
lockstep rank in-process, or sharded over worker processes through one
:class:`Shards` handle, both bitwise-identical.  Lanes get their
sensors from one factory, :class:`SensorSpawnFactory`.

``BlissCamPipeline.evaluate``, ``repro.api.tracker.evaluate_strategy``, the
ablation runners, the CLI, and the figure benchmarks are all thin
configurations over this one runtime, and ``repro.serve``'s scheduler
drives the same ``StageGraph`` calls (see ``docs/architecture.md``).
"""

from repro.engine.context import FrameContext, SequenceState
from repro.engine.graphs import (
    SensorSpawnFactory,
    build_strategy_graph,
    build_tracking_graph,
)
from repro.engine.runner import EngineRun, SequenceRunner, contiguous_shards
from repro.engine.executors import ProcessPoolBackend, Shards
from repro.engine.stage import Stage, StageGraph
from repro.engine.transport import (
    ObjectHandle,
    TransportChannel,
    TransportError,
    resolve_payload,
    shm_available,
)
from repro.engine.stages import (
    EventifyPairStage,
    EventifyStage,
    GazeRegressStage,
    ROIPredictStage,
    ROIReuseStage,
    ReadoutStage,
    SampleStage,
    SegmentOrReuseStage,
    SegmentStage,
    StatsCollectorStage,
    StrategySampleStage,
)

__all__ = [
    "FrameContext",
    "SequenceState",
    "Stage",
    "StageGraph",
    "SequenceRunner",
    "EngineRun",
    "contiguous_shards",
    "ProcessPoolBackend",
    "Shards",
    "TransportChannel",
    "TransportError",
    "ObjectHandle",
    "resolve_payload",
    "shm_available",
    "EventifyStage",
    "ROIPredictStage",
    "ROIReuseStage",
    "SampleStage",
    "ReadoutStage",
    "SegmentStage",
    "GazeRegressStage",
    "StatsCollectorStage",
    "EventifyPairStage",
    "StrategySampleStage",
    "SegmentOrReuseStage",
    "build_tracking_graph",
    "build_strategy_graph",
    "SensorSpawnFactory",
]
