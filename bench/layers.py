"""The per-layer profile ledger: ``repro`` modules grouped into layers.

A traced run wraps the timed section in :mod:`cProfile` (from the
benchmark's own code; nothing inside ``repro`` is instrumented) and
:func:`fold` groups the profile by the layer that defines each function:

* a ``repro`` function's self time and call count go to its layer;
* a stdlib or builtin function's self time goes to the nearest ``repro``
  caller, split by the profiler's per-caller self time and walked up
  through non-``repro`` callers; what reaches no ``repro`` frame (the
  benchmark's own glue, the profiler switch) is charged to ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "OTHER", "SRC", "layer_of", "fold"]

#: The ``src/repro`` directory the benchmark measures.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")

OTHER = "other"

#: Packages that are a layer of their own, under their own name.
_PACKAGES = ("cluster", "datamodel", "api", "engine", "monospark", "spark",
             "metrics", "trace", "clarity", "obs", "xray", "serve",
             "controlplane", "datasvc", "health", "faults", "workloads")

#: Modules grouped under another name: "package/module" or "package".
_GROUPED = {
    "simulator/__init__": "simulator.core",
    "simulator/core": "simulator.core",
    "simulator/rng": "simulator.core",
    "simulator/network": "simulator.network",
    "simulator/cpu": "simulator.devices",
    "simulator/disk": "simulator.devices",
    "simulator/buffercache": "simulator.devices",
    "simulator/memory": "simulator.devices",
    "simulator/resources": "simulator.devices",
    "model": "model",
    "autoconf": "model",
}

#: Every layer, in report order (``other`` is not a layer of ``repro``).
LAYERS = ("simulator.core", "simulator.network", "simulator.devices",
          *_PACKAGES, "model", "util")


def layer_of(path: str, src: str = SRC) -> Optional[str]:
    """The layer of the ``repro`` source file ``path``; None outside it.

    Top-level modules (config, errors, stats, the CLI and package init)
    are ``util``.
    """
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(src))
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if len(parts) == 1:
        return "util"
    if parts[0] in _PACKAGES:
        return parts[0]
    return _GROUPED.get(f"{parts[0]}/{parts[1]}", _GROUPED.get(parts[0]))


Func = Tuple[str, int, str]


def fold(stats: Dict[Func, tuple], src: str = SRC
         ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Group a ``pstats.Stats(...).stats`` dict into per-layer totals.

    Returns ``(self_s, calls)``: self seconds per layer (plus
    ``other``), and calls of the functions each layer defines.
    """
    layers = {func: layer_of(func[0], src) for func in stats}
    self_s = {layer: 0.0 for layer in (*LAYERS, OTHER)}
    calls = {layer: 0 for layer in LAYERS}
    upward: Dict[Func, Dict[str, float]] = {}

    def split(func: Func, edge_index: int,
              stack: frozenset) -> Dict[str, float]:
        """Shares of ``func``'s time per layer, by its callers' edges.

        ``edge_index`` 2 splits by the per-caller self time (exact for
        the function itself); 3 by per-caller cumulative time (the
        share of a non-``repro`` caller's subtree each of its callers
        caused).
        """
        callers = stats[func][4]
        total = sum(edge[edge_index] for edge in callers.values())
        if total <= 0:
            return {OTHER: 1.0}
        shares: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[edge_index] / total
            if weight <= 0:
                continue
            if layers.get(caller) is not None:
                parts = {layers[caller]: 1.0}
            elif caller in stack or caller not in stats:
                parts = {OTHER: 1.0}
            else:
                if caller not in upward:
                    upward[caller] = split(caller, 3, stack | {caller})
                parts = upward[caller]
            for layer, part in parts.items():
                shares[layer] = shares.get(layer, 0.0) + weight * part
        return shares

    for func, (_, ncalls, tottime, _, _) in stats.items():
        layer = layers[func]
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
        elif tottime > 0:
            for target, share in split(func, 2, frozenset((func,))).items():
                self_s[target] += tottime * share
    return self_s, calls
