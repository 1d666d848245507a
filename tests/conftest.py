"""Suite-wide fixtures: one worker pool and channel for every sharded test,
and the traced-run helper that reads per-stage engine measurements.

Sharding takes a caller-owned executor and transport channel (the only
dispatch path), so the sharded tests share one ``Session``'s
``executor(2)`` and ``transport()`` instead of forking pools of their
own.  The session closes when the test run ends, which unlinks the
channel's shared-memory segments.
"""

import pytest

from repro.api import Session
from repro.obs import Tracer, install_tracer, summarize


@pytest.fixture(scope="session")
def sharding():
    """``{"executor": ..., "transport": ...}`` for ``run(workers=2, ...)``."""
    with Session() as session:
        yield {
            "executor": session.executor(2),
            "transport": session.transport(),
        }


@pytest.fixture
def traced_stages():
    """``fn -> (fn(), stages)``: run ``fn`` under a fresh tracer.

    ``stages`` is :func:`repro.obs.summarize`'s roll-up of the run's
    ``engine.stage`` spans by stage name — count, ``wall_s``, ``frames``
    and ``calls``, summed over shards when the run was sharded.
    """

    def run(fn):
        tracer = Tracer()
        with install_tracer(tracer):
            result = fn()
        return result, summarize(tracer.to_records())["stages"]

    return run
