"""The one dispatch contract: sharding needs an executor and a channel.

The engine (``SequenceRunner.run``) and serving (``simulate_serving``)
shard only on a caller-owned executor plus a
:class:`~repro.engine.TransportChannel`.  Every other combination is
refused by the same check, with the same message, before any work
starts.
"""

import numpy as np
import pytest

from repro.engine import SequenceRunner, Stage, TransportChannel
from repro.serve import simulate_serving


class Probe(Stage):
    name = "probe"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (0.0, 0.0)


class Seq:
    frames = np.zeros((2, 4, 4))


def _engine(**kwargs):
    SequenceRunner([Probe()]).run([(i, Seq()) for i in range(3)], **kwargs)


def _serving(**kwargs):
    # The check precedes every use of the scenario arguments.
    simulate_serving(
        graph=None, state_factory=None, dataset_cfg=None, scenario=None,
        **kwargs,
    )


SITES = {"engine": _engine, "serving": _serving}


@pytest.mark.parametrize("site", sorted(SITES))
@pytest.mark.parametrize(
    "case", ["bare", "no_channel", "pickle_flag", "no_executor", "no_workers"]
)
def test_sharding_without_executor_and_channel_is_refused(
    site, case, sharding
):
    kwargs = {
        "bare": {"workers": 2},
        "no_channel": {"workers": 2, "executor": sharding["executor"]},
        "pickle_flag": {
            "workers": 2,
            "executor": sharding["executor"],
            "transport": False,
        },
        "no_executor": {
            "workers": 2,
            "transport": TransportChannel(use_shm=False),
        },
        "no_workers": {"workers": 1, **sharding},
    }[case]
    match = (
        "workers >= 2 to shard"
        if case == "no_workers"
        else "needs an executor and a transport channel"
    )
    with pytest.raises(ValueError, match=match):
        SITES[site](**kwargs)
