"""Process-node scaling of energy, delay, and leakage (DeepScaleTool substitute).

The paper synthesizes at TSMC 16 nm FinFET and scales results to other
nodes with DeepScaleTool (Sarangi & Baas 2021), which fits published
foundry data from 130 nm to 7 nm.  This module provides equivalent
relative scaling factors — only *ratios between nodes* matter for the
experiments (Fig. 13's node annotations, Fig. 17's sweep), so a table of
factors normalized to 16 nm, interpolated geometrically between published
nodes, preserves the behaviour.

Factors follow the classic trajectory: dynamic energy/op shrinks roughly
with the square of feature size in the planar era and more slowly post-22
nm; gate delay improves steadily; leakage power per bit worsens relative
to dynamic as nodes shrink (hence normalized leakage falls more slowly
than dynamic energy).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KNOWN_NODES",
    "energy_factor",
    "delay_factor",
    "leakage_factor",
    "scale_energy",
    "scale_leakage",
]

#: Relative factors normalized to the 16 nm synthesis node:
#: node_nm -> (dynamic energy per op, gate delay, leakage power per cell).
_FACTORS: dict[int, tuple[float, float, float]] = {
    130: (19.0, 5.2, 7.0),
    90: (11.0, 3.8, 5.2),
    65: (6.8, 2.9, 4.0),
    40: (3.5, 2.1, 2.8),
    28: (2.1, 1.55, 2.0),
    22: (1.55, 1.30, 1.65),
    16: (1.00, 1.00, 1.00),
    7: (0.44, 0.72, 0.62),
}

KNOWN_NODES: tuple[int, ...] = tuple(sorted(_FACTORS))


def _interp(node_nm: float, column: int) -> float:
    """Geometric interpolation of a factor column in log-node space."""
    if node_nm <= 0:
        raise ValueError(f"node must be positive: {node_nm}")
    nodes = np.array(KNOWN_NODES, dtype=np.float64)
    values = np.array([_FACTORS[int(n)][column] for n in nodes])
    if node_nm <= nodes[0]:
        lo, hi = 0, 1
    elif node_nm >= nodes[-1]:
        lo, hi = len(nodes) - 2, len(nodes) - 1
    else:
        hi = int(np.searchsorted(nodes, node_nm))
        lo = hi - 1
        if nodes[hi] == node_nm:
            return float(values[hi])
    log_frac = (np.log(node_nm) - np.log(nodes[lo])) / (
        np.log(nodes[hi]) - np.log(nodes[lo])
    )
    return float(np.exp(
        np.log(values[lo]) + log_frac * (np.log(values[hi]) - np.log(values[lo]))
    ))


def energy_factor(node_nm: float) -> float:
    """Dynamic energy per operation relative to 16 nm."""
    return _interp(node_nm, 0)


def delay_factor(node_nm: float) -> float:
    """Gate delay relative to 16 nm."""
    return _interp(node_nm, 1)


def leakage_factor(node_nm: float) -> float:
    """Leakage power per cell relative to 16 nm."""
    return _interp(node_nm, 2)


def scale_energy(value_at_16nm: float, node_nm: float) -> float:
    """Scale an energy synthesized at 16 nm to another node."""
    return value_at_16nm * energy_factor(node_nm)


def scale_leakage(value_at_16nm: float, node_nm: float) -> float:
    """Scale a leakage power synthesized at 16 nm to another node."""
    return value_at_16nm * leakage_factor(node_nm)
