"""REP101: naked RNG calls outside the keyed-stream convention.

Every random draw in this repository flows from an explicitly-keyed
``numpy.random.default_rng([seed, tag, ...])`` stream (per-sequence
sensor spawns, per-sample training streams, per-client serve streams).
Module-level draws (``np.random.rand``), global seeding
(``np.random.seed``) and the stdlib ``random`` module all read hidden
process-global state — results then depend on call *order*, which every
lockstep rank, shard and serving micro-batch reorders, breaking the
bitwise pins.  An
un-keyed ``default_rng()`` seeds from the OS entropy pool: different
bits every run.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.base import ParsedModule, Rule, resolve_call
from repro.analysis.lint.findings import Finding

__all__ = ["NakedRNGRule"]

#: numpy.random entry points that *construct keyed streams* — sanctioned
#: when (and only when) given an explicit seed/key argument.
_KEYED_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


def _unkeyed(call: ast.Call) -> bool:
    if not call.args and not call.keywords:
        return True
    if (
        len(call.args) == 1
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value is None
    ):
        return True
    return False


class NakedRNGRule(Rule):
    rule_id = "REP101"
    title = "naked RNG call outside the keyed-stream convention"
    rationale = (
        "Hidden global RNG state makes results depend on call order, "
        "which batching/sharding/serving reorder; draws must come from "
        "np.random.default_rng([seed, tag, ...]) streams."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, module.imports)
            if name is None:
                continue
            if name.startswith("numpy.random."):
                leaf = name.rsplit(".", 1)[1]
                if leaf in _KEYED_CONSTRUCTORS:
                    if _unkeyed(node):
                        yield self.finding(
                            module,
                            node,
                            f"un-keyed numpy.random.{leaf}() seeds from OS "
                            "entropy — key the stream explicitly, e.g. "
                            "default_rng([seed, stream_tag, index])",
                        )
                else:
                    yield self.finding(
                        module,
                        node,
                        f"naked numpy.random.{leaf}() uses hidden global RNG "
                        "state — draw from an explicitly keyed "
                        "default_rng([seed, ...]) stream instead",
                    )
            elif name == "random" or name.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"stdlib {name}() uses process-global RNG state outside "
                    "the keyed numpy stream convention — use "
                    "default_rng([seed, ...])",
                )
