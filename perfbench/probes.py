"""Per-layer measurement for the traced run.

Two sources, both outside the program:

* :class:`LayerProbe` wraps calls into each layer's public methods (the
  NN modules, losses, optimizer, soft ROI mask, transport publish and,
  for ``serve``, the stage graph's kernels) with host timers;
* the spans and counters ``repro.obs`` already emits (``engine.run`` /
  ``engine.stage``, ``train.epoch``, ``serve.tick``, ``executor.job``,
  ``transport.publish``), recorded by a :class:`repro.obs.Tracer`.

Times and counts are per timed pass unless the name says otherwise.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.engine.transport import TransportChannel
from repro.nn import (
    MLP,
    Adam,
    Conv2d,
    CrossEntropyLoss,
    LayerNorm,
    Linear,
    Module,
    MSELoss,
    MultiHeadAttention,
)
from repro.nn.optim import Optimizer
from repro.sampling.roi import ROIPredictor
from repro.segmentation.vit import ViTSegmenter
from repro.training.joint import SoftROIMask

#: The tracking graph's stages, in graph order.
STAGES = ("eventify", "roi", "sample", "readout", "segment", "gaze", "stats")
#: Layers timed as self time: a call's duration minus the time spent in
#: nested calls of the other layers in this table.
LAYERS = {
    "attention": MultiHeadAttention,
    "mlp": MLP,
    "layernorm": LayerNorm,
    "linear": Linear,
    "conv": Conv2d,
}
#: Whole networks, timed inclusively (nested entries of the same network
#: count once).
MODELS = {
    "vit": (ViTSegmenter, ("forward", "forward_packed", "predict_packed_batch"),
            ("backward",)),
    "roi": (ROIPredictor, ("forward", "predict_box_batch"), ("backward",)),
}
#: Plain inclusive timers: metric key -> [(owner, method), ...].
PLAIN = {
    "optim.step": [(Adam, "step")],
    "optim.zero_grad": [(Module, "zero_grad"), (Optimizer, "zero_grad")],
    "train.loss": [
        (CrossEntropyLoss, "forward"),
        (CrossEntropyLoss, "backward"),
        (MSELoss, "forward"),
        (MSELoss, "backward"),
    ],
    "train.softmask": [
        (SoftROIMask, "forward"),
        (SoftROIMask, "backward"),
        (SoftROIMask, "forward_batch"),
        (SoftROIMask, "backward_batch"),
    ],
    "transport.publish": [(TransportChannel, "publish")],
}


class LayerProbe:
    """Host timers around calls into the program's layers."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.frames: dict[str, int] = defaultdict(int)
        self._undo: list = []
        self._layer_stack: list[list[float]] = []
        self._open_models: set[str] = set()

    # -- wrappers --------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, own, original))

    def _plain(self, key: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - start
                self.calls[key] += 1

        return timed

    def _model(self, key: str, fn):
        name = key.split(".")[1]

        def timed(*args, **kwargs):
            if name in self._open_models:
                return fn(*args, **kwargs)
            self._open_models.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - start
                self._open_models.discard(name)

        return timed

    def _layer(self, key: str, fn):
        stack = self._layer_stack

        def timed(*args, **kwargs):
            stack.append([0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()[0]
                self.seconds[key] += elapsed - nested
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def _stage(self, name: str, fn):
        def timed(ctxs, seqs):
            start = time.perf_counter()
            try:
                return fn(ctxs, seqs)
            finally:
                self.seconds[f"stage.{name}"] += time.perf_counter() - start
                self.calls[f"stage.{name}"] += 1
                self.frames[f"stage.{name}"] += len(ctxs)

        return timed

    @contextmanager
    def installed(self, graph=None):
        """Wrap every layer (and ``graph``'s stage kernels) while open."""
        try:
            for key, pairs in PLAIN.items():
                for owner, attr in pairs:
                    self._patch(owner, attr, self._plain(key, getattr(owner, attr)))
            for name, (owner, forwards, backwards) in MODELS.items():
                for direction, attrs in (("fwd", forwards), ("bwd", backwards)):
                    for attr in attrs:
                        key = f"nn.{name}.{direction}"
                        self._patch(owner, attr, self._model(key, getattr(owner, attr)))
            for name, owner in LAYERS.items():
                for direction, attr in (("fwd", "forward"), ("bwd", "backward")):
                    key = f"nn.{name}.{direction}"
                    self._patch(owner, attr, self._layer(key, getattr(owner, attr)))
            for stage in graph or ():
                self._patch(stage, "process_batch", self._stage(stage.name, stage.process_batch))
            yield self
        finally:
            for owner, attr, own, original in reversed(self._undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            self._undo.clear()


def _dur(span) -> float:
    return float(span.wall.get("dur_s", 0.0))


def layer_metrics(workload, passes, probe: LayerProbe, tracer) -> dict:
    """Every per-layer metric of the traced passes, 0 where the workload
    does not exercise the layer in this process."""
    n = len(passes)
    out: dict[str, float] = {}
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span.name].append(span)
    counters = tracer.counters

    # Stages: the engine's own timings where the engine ran (track,
    # track_sharded; summed over workers when sharded), else the
    # wrapped kernels (serve drives the graph directly).
    stage_s, stage_calls, stage_frames = defaultdict(float), defaultdict(int), defaultdict(int)
    if spans["engine.stage"]:
        for span in spans["engine.stage"]:
            name = span.attrs["stage"]
            stage_s[name] += _dur(span)
            stage_calls[name] += span.attrs["calls"]
            stage_frames[name] += span.attrs["frames"]
    else:
        for name in STAGES:
            stage_s[name] = probe.seconds[f"stage.{name}"]
            stage_calls[name] = probe.calls[f"stage.{name}"]
            stage_frames[name] = probe.frames[f"stage.{name}"]
    for name in STAGES:
        out[f"stage.{name}.s"] = stage_s[name] / n
        out[f"stage.{name}.calls"] = stage_calls[name] / n
    out["engine.rank_width"] = (
        stage_frames["eventify"] / stage_calls["eventify"]
        if stage_calls["eventify"]
        else 0.0
    )

    stats = workload.stats
    out["sampling.roi_fraction"] = stats.mean_roi_fraction if stats else 0.0
    out["sampling.sampled_fraction"] = stats.mean_sampled_fraction if stats else 0.0
    out["segment.valid_token_fraction"] = (
        stats.mean_valid_token_fraction if stats else 0.0
    )
    out["sensor.rle_ratio"] = float(np.mean(stats.rle_ratios)) if stats else 0.0

    for name in (*MODELS, *LAYERS):
        for direction in ("fwd", "bwd"):
            key = f"nn.{name}.{direction}"
            out[f"{key}_s"] = probe.seconds[key] / n

    out["optim.step_s"] = probe.seconds["optim.step"] / n
    out["optim.zero_grad_s"] = probe.seconds["optim.zero_grad"] / n
    out["optim.steps"] = probe.calls["optim.step"] / n
    out["train.loss_s"] = probe.seconds["train.loss"] / n
    out["train.softmask_s"] = probe.seconds["train.softmask"] / n
    epochs = spans["train.epoch"]
    out["train.epoch_s"] = (
        sum(_dur(s) for s in epochs) / len(epochs) if epochs else 0.0
    )

    serving = workload.name == "serve"
    kernel_s = sum(stage_s.values()) / n if serving else 0.0
    out["serve.kernel_s"] = kernel_s
    out["serve.sched_s"] = (
        sum(p.seconds for p in passes) / n - kernel_s if serving else 0.0
    )
    out["serve.ticks"] = counters.get("serve.ticks", 0) / n
    out["serve.shed"] = (
        sum(v for k, v in counters.items() if k.startswith("serve.shed.")) / n
    )

    jobs = spans["executor.job"]
    out["executor.jobs"] = counters.get("executor.jobs", 0) / n
    out["executor.job_s"] = sum(_dur(s) for s in jobs) / len(jobs) if jobs else 0.0
    transports = [
        p.info["result"].transport
        for p in passes
        if "result" in p.info and getattr(p.info["result"], "transport", None)
    ]
    for key, field in (
        ("transport.dispatches", "dispatches"),
        ("transport.payload_bytes_per_dispatch", "payload_bytes_per_dispatch"),
        ("transport.segment_bytes_written", "segment_bytes_written"),
    ):
        out[key] = sum(t[field] for t in transports) / n
    out["transport.publish_s"] = probe.seconds["transport.publish"] / n
    workers = max(
        (s.attrs["workers"] for s in spans["engine.run"]), default=1
    )
    out["sharded.overhead_s"] = (
        sum(p.seconds for p in passes) / n - sum(stage_s.values()) / n / workers
        if workers > 1
        else 0.0
    )
    return out
