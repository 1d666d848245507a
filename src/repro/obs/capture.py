"""Worker-side span capture: a traced job's spans come home with its result.

Pool workers live in other processes, where the ambient tracer is (by
design — see :func:`repro.obs.tracer.current_tracer`) invisible.
Instead, a traced job runs under :func:`capture_job`: a fresh capture
:class:`~repro.obs.tracer.Tracer` is installed for the job's duration,
and its records travel back to the dispatcher with the job's result.
The dispatcher merges them with
:meth:`~repro.obs.tracer.Tracer.merge_records` under the submit-side
``executor.job`` span as each result is consumed, in submission order —
so a cross-process run still reads as one deterministic tree.

Inside a traced job, :func:`~repro.obs.tracer.current_tracer` returns
the capture tracer, so job code traces the way in-process code does;
:class:`repro.engine.executors.ProcessPoolBackend` wires this in.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.obs.tracer import Tracer, install_tracer

__all__ = ["capture_job"]


def capture_job(
    fn: Callable[..., Any], args: tuple, kwargs: dict
) -> tuple[Any, list[dict]]:
    """Run one traced job under a fresh capture tracer.

    Returns ``(result, records)``.  When the job raises, the exception
    re-raises with the partial capture attached as its
    ``trace_records`` attribute (exception state pickles with it), so a
    failed job's spans still reach the merged trace.
    """
    tracer = Tracer(origin=f"worker-{os.getpid()}")
    try:
        with install_tracer(tracer):
            result = fn(*args, **kwargs)
    except BaseException as exc:
        exc.trace_records = tracer.to_records()
        raise
    return result, tracer.to_records()
