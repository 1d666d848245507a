"""repro: a full reproduction of BlissCam (ISCA 2024).

BlissCam co-designs an image sensor with an eye-tracking algorithm:
pixels are sparsely sampled *inside* the sensor (eventification -> ROI
prediction -> in-ROI random sampling), and a sparse-robust ViT segments
the ~5 % of pixels that reach the host, cutting energy ~4-8x and tracking
latency ~1.4x with little accuracy loss.

Subpackages
-----------
``repro.api``           declarative front door: ExperimentSpec -> Session.run,
                        and the imperative tracker (``repro.api.tracker``)
``repro.nn``            from-scratch numpy DNN framework (PyTorch substitute)
``repro.synth``         synthetic near-eye dataset (OpenEDS substitute)
``repro.sampling``      eventification, ROI prediction, sampling strategies
``repro.segmentation``  sparse ViT + RITnet/EdGaze baselines
``repro.gaze``          gaze regression + angular-error metrics
``repro.training``      joint ROI+ViT training (Sec. III-C)
``repro.hardware``      DPS sensor, NPUs, MIPI, DRAM, energy/latency/area

Quickstart
----------
>>> from repro.api import ExperimentSpec, Session
>>> with Session() as session:
...     result = session.run(ExperimentSpec())   # evaluate @ CI scale
>>> result.metrics["horizontal"]["mean"]         # degrees

(The imperative surface remains: ``BlissCamPipeline(ci())`` /
``.train()`` / ``.evaluate()`` from ``repro.api.tracker`` — see
``docs/api.md``.)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
