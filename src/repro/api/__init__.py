"""``repro.api`` — the declarative front door to every workload.

One spec, one session, one result type::

    from repro.api import ExperimentSpec, Session

    spec = ExperimentSpec.from_file("examples/specs/quickstart.json")
    with Session() as session:
        result = session.run(spec)            # RunResult
        result.write_json("out.json")         # the one serializer
        again = session.run(spec)             # no retraining, same pool

Everything the repo can run — accuracy evaluation, Fig. 15 strategy
sweeps, streaming serving, the energy/latency/area/power models and
their sweeps — is a *workload kind* named in the spec and resolved
through the :mod:`~repro.api.registry` registries; third parties add
scenarios with ``@register_workload`` (and new strategies with
``@register_strategy``) without touching core.
The CLI, the benchmarks and the examples are all thin layers over this
package (see ``docs/api.md`` and ``docs/architecture.md``).
"""

from repro.api.registry import (
    Registry,
    RegistryError,
    STRATEGIES,
    WORKLOADS,
    register_strategy,
    register_workload,
)
from repro.api.spec import (
    DatasetSection,
    ExecutionSection,
    ExperimentSpec,
    SensorSection,
    SpecError,
    StrategySection,
    TrainingSection,
)
from repro.api.result import RunResult, git_describe
from repro.api.session import Session, system_config
import repro.api.builtin  # noqa: F401  (populates the registries)

__all__ = [
    "ExperimentSpec",
    "DatasetSection",
    "SensorSection",
    "StrategySection",
    "TrainingSection",
    "ExecutionSection",
    "SpecError",
    "Session",
    "system_config",
    "RunResult",
    "git_describe",
    "Registry",
    "RegistryError",
    "STRATEGIES",
    "WORKLOADS",
    "register_strategy",
    "register_workload",
]
