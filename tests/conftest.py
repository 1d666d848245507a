"""Suite-wide fixtures: one worker pool and channel for every sharded test.

Sharding takes a caller-owned executor and transport channel (the only
dispatch path), so the sharded tests share one ``Session``'s
``executor(2)`` and ``transport()`` instead of forking pools of their
own.  The session closes when the test run ends, which unlinks the
channel's shared-memory segments.
"""

import pytest

from repro.api import Session


@pytest.fixture(scope="session")
def sharding():
    """``{"executor": ..., "transport": ...}`` for ``run(workers=2, ...)``."""
    with Session() as session:
        yield {
            "executor": session.executor(2),
            "transport": session.transport(),
        }
