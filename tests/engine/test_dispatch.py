"""The one dispatch contract: sharding needs an executor and a channel.

The engine (``SequenceRunner.run``) and serving (``simulate_serving``)
shard only through a :class:`~repro.engine.Shards` handle, whose
construction refuses every combination that could not shard, with the
same message, before any work starts.  The ``repro.core`` shim, the one
place that still takes ``workers``/``executor``/``transport``, turns
them into a ``Shards`` and so refuses the same combinations.
"""

import numpy as np
import pytest

from repro.core import BlissCamPipeline, ci
from repro.engine import SequenceRunner, Shards, Stage, TransportChannel
from repro.serve import simulate_serving


class Probe(Stage):
    name = "probe"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (0.0, 0.0)


class Seq:
    frames = np.zeros((2, 4, 4))


def _engine(executor, channel, workers):
    SequenceRunner([Probe()]).run(
        [(i, Seq()) for i in range(3)],
        shards=Shards(executor, channel, workers),
    )


def _serving(executor, channel, workers):
    # The handle is refused before any scenario argument is used.
    simulate_serving(
        graph=None, state_factory=None, dataset_cfg=None, scenario=None,
        shards=Shards(executor, channel, workers),
    )


SITES = {"engine": _engine, "serving": _serving}

CASES = ["bare", "no_channel", "pickle_flag", "no_executor", "no_workers"]


def _case(case, sharding):
    """``(executor, channel, workers)`` of one refused combination."""
    return {
        "bare": (None, None, 2),
        "no_channel": (sharding.executor, None, 2),
        "pickle_flag": (sharding.executor, False, 2),
        "no_executor": (None, TransportChannel(use_shm=False), 2),
        "no_workers": (sharding.executor, sharding.channel, 1),
    }[case]


def _match(case):
    return (
        "workers >= 2 to shard"
        if case == "no_workers"
        else "needs an executor and a transport channel"
    )


@pytest.mark.parametrize("site", sorted(SITES))
@pytest.mark.parametrize("case", CASES)
def test_sharding_without_executor_and_channel_is_refused(
    site, case, sharding
):
    with pytest.raises(ValueError, match=_match(case)):
        SITES[site](*_case(case, sharding))


@pytest.mark.parametrize("case", CASES)
def test_core_shim_translates_the_triple_into_shards(case, sharding):
    """perfbench's ``evaluate(workers=, executor=, transport=)`` builds
    the handle before anything runs, so an untrained pipeline is enough:
    a refused triple raises, a serial one reaches the training check."""
    executor, channel, workers = _case(case, sharding)
    pipeline = BlissCamPipeline(ci(num_sequences=2, frames_per_sequence=2))
    with pytest.raises(ValueError, match=_match(case)):
        pipeline.evaluate(
            [0], workers=workers, executor=executor, transport=channel
        )
    with pytest.raises(RuntimeError, match="trained"):
        pipeline.evaluate([0], workers=1, transport=channel)
