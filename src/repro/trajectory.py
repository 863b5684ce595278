"""One registry and one checker for the committed ``BENCH_*.json`` files.

Every benchmark trajectory has the same shape.  A seeded scenario set
produces deterministic *invariants* (same seed => same values on any
machine) and, for some benches, a *timing* measured in wall-clock
seconds.  So every check is the same two steps:

* exact-diff everything except ``repeats`` and the bench's timing keys;
* apply the bench's gate (a floor, budget, envelope or ranking
  check), on every run.

A bench is one :class:`Bench` entry, exported as ``BENCH`` by the
module :data:`REGISTRY` names.  ``scripts/bench_trajectory.py`` is the
command line over this module.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Bench", "REGISTRY", "load", "repeat_deterministic", "check"]

#: Bench name -> the module whose ``BENCH`` entry runs it.  The name
#: also names the committed file, ``BENCH_<name>.json``.
REGISTRY = {
    "clarity": "repro.clarity.validate",
    "controlplane": "repro.controlplane.bench",
    "datasvc": "repro.datasvc.bench",
    "kernel": "repro.kernelbench",
    "obs": "repro.obs.bench",
    "xray": "repro.xray.bench",
}


@dataclass(frozen=True)
class Bench:
    """One benchmark trajectory.

    ``run(repeats, committed)`` returns the dict ``BENCH_<name>.json``
    holds; ``committed`` is the committed copy (or ``None``), for the
    fields a run carries forward rather than measures.  ``timing``
    names the top-level keys that hold wall-clock numbers: they are not
    diffed.  ``gate(result)`` returns the gate's failures; any bound it
    reads from ``result`` is an exact-diffed field.
    """

    name: str
    run: Callable[[int, Optional[Dict]], Dict]
    timing: Tuple[str, ...] = ()
    gate: Optional[Callable[[Dict], List[str]]] = None


def load(name: str) -> Bench:
    """The registered bench called ``name``."""
    return importlib.import_module(REGISTRY[name]).BENCH


def repeat_deterministic(once: Callable[[], Tuple[Dict, Any]],
                         repeats: int) -> Tuple[Dict, Any]:
    """Run ``once`` ``repeats`` times (at least once).

    ``once()`` returns ``(invariants, timing)``.  The invariants must
    be equal on every repeat, so every benchmark run doubles as a
    determinism check; drift raises.  ``timing`` is a number or a
    tuple of numbers where smaller is better, or ``None``; the smallest
    is kept, the usual noise-floor statistic on a shared machine.
    """
    invariants, best = once()
    for _ in range(repeats - 1):
        again, timing = once()
        if again != invariants:
            raise AssertionError(
                f"non-deterministic benchmark run: {again} != {invariants}")
        if timing is not None and timing < best:
            best = timing
    return invariants, best


def check(bench: Bench, result: Dict,
          committed: Optional[Dict] = None) -> List[str]:
    """Every way ``result`` fails ``committed`` and ``bench``'s gate.

    Drops ``repeats`` and ``bench.timing`` from both sides, round-trips
    ``result`` through JSON (so a tuple equals a list), then compares
    every leaf -- number, string, bool, null, empty container -- by its
    JSON text.  ``committed=None`` skips the diff; the gate always runs.
    """
    failures = []
    if committed is not None:
        skip = {"repeats", *bench.timing}
        ours = _flatten(json.loads(json.dumps(result)), skip)
        theirs = _flatten(committed, skip)
        for path in sorted(set(ours) | set(theirs)):
            if ours.get(path) != theirs.get(path):
                failures.append(
                    f"{path}: committed {theirs.get(path, '<missing>')} "
                    f"vs current {ours.get(path, '<missing>')}")
    if bench.gate is not None:
        failures.extend(bench.gate(result))
    return failures


def _flatten(document: Dict, skip: set) -> Dict[str, str]:
    """``path -> JSON text`` for every leaf outside the ``skip`` keys."""
    return dict(_leaves({key: value for key, value in document.items()
                         if key not in skip}))


def _leaves(value: Any, path: str = "$") -> Iterator[Tuple[str, str]]:
    """``(path, JSON text)`` for every leaf of a JSON value."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, json.dumps(value)
