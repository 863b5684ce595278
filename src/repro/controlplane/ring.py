"""Deterministic consistent hashing: tenants onto driver replicas.

The control plane shards tenants across driver replicas with a classic
consistent-hash ring: every member contributes :data:`VNODES` virtual
points, a key is owned by the first point clockwise of its hash, and
membership churn therefore moves only the keys whose arcs the joining
or leaving member touches -- the churn-stability property the tests
pin.

Hashes come from :func:`hashlib.sha256`, never the builtin ``hash``
(which is salted per process): the same members and keys produce the
same assignment in every run, on every machine.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.errors import SimulationError

__all__ = ["HashRing"]

#: Virtual points per member: they smooth the load split, and 64 is
#: plenty for the handful of driver replicas a control plane runs.
VNODES = 64


def _point(token: str) -> int:
    """A deterministic 64-bit ring position for ``token``."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over integer member ids, with
    :data:`VNODES` virtual points per member."""

    def __init__(self) -> None:
        self._points: List[Tuple[int, int]] = []  # (position, member)
        self._members: set = set()

    # -- membership ----------------------------------------------------------------

    def members(self) -> List[int]:
        """Current member ids, sorted."""
        return sorted(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: int) -> bool:
        return member in self._members

    def add(self, member: int) -> None:
        """Join ``member``; duplicate joins are an error."""
        if member in self._members:
            raise SimulationError(f"ring member {member} already joined")
        self._members.add(member)
        for v in range(VNODES):
            position = _point(f"member:{member}#{v}")
            bisect.insort(self._points, (position, member))

    def remove(self, member: int) -> None:
        """Leave ``member``; unknown members are an error."""
        if member not in self._members:
            raise SimulationError(f"ring member {member} never joined")
        self._members.discard(member)
        self._points = [(pos, m) for pos, m in self._points if m != member]

    # -- assignment ----------------------------------------------------------------

    def assign(self, key: str) -> int:
        """The member owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise SimulationError("cannot assign on an empty ring")
        position = _point(f"key:{key}")
        index = bisect.bisect_right(self._points, (position, 2 ** 64))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def assignment(self, keys: Iterable[str]) -> Dict[str, int]:
        """Owner per key, in one pass."""
        return {key: self.assign(key) for key in keys}
