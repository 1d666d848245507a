"""Name-based plugin registries behind the declarative front door.

An :class:`ExperimentSpec` refers to strategies and workload kinds by
*string*; these registries turn those strings into constructors.  Both
ship populated (`repro.api.builtin` registers the paper's strategy zoo
and the ten workload kinds), and the decorators are public so third
parties can plug in new scenarios without touching core::

    from repro.api import register_workload

    @register_workload("my_sweep")
    def my_sweep(session, spec):
        ...
        return RunResult(...)

Registration is strict: a duplicate name raises immediately (silent
shadowing of a built-in would make specs mean different things in
different processes), and unknown-name lookups report the registry kind
and the available choices.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = [
    "Registry",
    "RegistryError",
    "STRATEGIES",
    "WORKLOADS",
    "register_strategy",
    "register_workload",
]


class RegistryError(KeyError, ValueError):
    """Unknown or duplicate name in a registry.

    Subclasses ``KeyError`` (lookup failures behave like mapping misses)
    *and* ``ValueError`` (strategy lookups have always raised
    ``ValueError`` on unknown names); ``str()`` renders the full message
    (``KeyError`` quotes its first argument, which would mangle
    multi-sentence errors).
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


class Registry:
    """A named mapping from spec strings to constructors."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, Any] = {}

    def register(self, name: str, obj: Any = None):
        """Register ``obj`` under ``name``; usable as a decorator.

        ``@registry.register("name")`` registers the decorated callable;
        ``registry.register("name", obj)`` registers directly.
        """
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self.kind} names must be non-empty strings: {name!r}"
            )

        def _add(target: Any) -> Any:
            if name in self._entries:
                raise RegistryError(
                    f"duplicate {self.kind} name {name!r}: already registered "
                    f"as {self._entries[name]!r}"
                )
            self._entries[name] = target
            return target

        return _add if obj is None else _add(obj)

    def get(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; choose from {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: ``name -> factory(compression, dataset=None) -> SamplingStrategy``.
STRATEGIES = Registry("strategy")
#: ``name -> workload(session, spec) -> RunResult``.
WORKLOADS = Registry("workload")


def register_strategy(name: str, obj: Any = None):
    """Register a sampling-strategy factory under a spec string."""
    return STRATEGIES.register(name, obj)


def register_workload(name: str, obj: Any = None):
    """Register a workload kind under a spec string."""
    return WORKLOADS.register(name, obj)
