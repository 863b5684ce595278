"""Flow-level network fabric with max-min fair bandwidth sharing.

Machines attach to a non-blocking core fabric through full-duplex NICs,
so the only capacity constraints are each machine's uplink and downlink.
Active flows receive their max-min fair rates (computed by water-filling
over the link constraints); whenever a flow starts or finishes, progress
is banked at the old rates and rates are recomputed.

This is the standard flow-level approximation used by cluster
simulators: it captures exactly the effect the paper cares about --
transfers from one machine contending with other flows from the same
sender or to the same receiver (§3.3).

Cost.  The fabric keeps its state incrementally: an ordered dict of
live flows, a ``(src, dst)`` pair -> flows map, and per link an ordered
dict of live flows plus the pairs that cross it.  Every flow of one pair
crosses the same two links, so it always gets the same rate; the
water-filling freezes whole pairs.  One rebalance costs O(links^2 +
pairs) for the water-filling plus one tight O(flows) pass that banks
each flow's progress, which also yields each pair's smallest remaining
byte count and so the next completion deadline.

Bit-identity rules.  The simulation must produce the same floats as the
flow-by-flow water-filling it replaced (the determinism tests, the
``BENCH_*.json`` invariants and the capsule hashes pin them).  Keep:

* links visited in order of their oldest live flow, an uplink before
  the downlink of the same flow -- the first-appearance order a scan
  over the flow list sees, so ties between equal shares (the common
  case with identical NICs) break the same way;
* ``cap -= share`` applied once per frozen flow, never ``share * m``;
* per-flow ``remaining`` banked at every rebalance (a per-pair virtual
  clock would round differently);
* the deadline as each pair's smallest ``remaining`` over its rate,
  which is exact because dividing by a positive rate preserves order;
* finished and failed flows handled in start order;
* no coalescing of same-instant rebalances: each one may interrupt the
  completion waiter, and the kernel's event count depends on it.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.errors import (Interrupted, LinkPartitionError, MachineFailure,
                          SimulationError)
from repro.simulator.core import Environment, Event, Process
from repro.simulator.resources import BusyTracker

__all__ = ["Network", "Flow"]

#: One-way latency charged at flow start (connection + first byte).
FLOW_LATENCY_S = 0.0005

_INF = float("inf")


class Flow:
    """An active transfer of ``nbytes`` from ``src`` to ``dst``."""

    __slots__ = ("src", "dst", "nbytes", "remaining", "done", "label",
                 "started_at", "seq", "pair")

    def __init__(self, env: Environment, src: int, dst: int, nbytes: float,
                 label: str = "", seq: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.started_at = env.now
        #: Succeeds with no value: a value of ``self`` would make the
        #: flow and its event a cycle only the cyclic collector frees.
        self.done: Event = env.event()
        self.label = label
        #: Start order; every per-flow order in the fabric follows it.
        self.seq = seq
        #: The ``_Pair`` this flow shares its rate with while in flight.
        self.pair: Optional[_Pair] = None

    @property
    def rate(self) -> float:
        """Current max-min fair rate (0.0 when not on the fabric)."""
        return self.pair.rate if self.pair is not None else 0.0


class _Pair:
    """The live flows from ``src`` to ``dst``: one rate for all of them."""

    __slots__ = ("src", "down", "flows", "rate", "low")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        #: Downlink key of ``dst`` (see ``Network._links``).
        self.down = ~dst
        #: Live flows in start order.
        self.flows: List[Flow] = []
        self.rate = 0.0
        #: Smallest ``remaining`` among ``flows``.
        self.low = _INF


class _Link:
    """One NIC direction while it carries flows."""

    __slots__ = ("flows", "pairs")

    def __init__(self) -> None:
        #: Live flows by ``seq``, in start order.
        self.flows: Dict[int, Flow] = {}
        self.pairs: Dict[_Pair, None] = {}


class Network:
    """The cluster fabric: per-machine up/down links, max-min fair flows."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._up_bps: Dict[int, float] = {}
        self._down_bps: Dict[int, float] = {}
        #: Live flows by ``seq``, in start order.
        self._flows: Dict[int, Flow] = {}
        self._seq = itertools.count()
        self._pairs: Dict[Tuple[int, int], _Pair] = {}
        #: Links that carry flows.  Keys: uplink = machine_id, downlink =
        #: ~machine_id (bit complement keeps them distinct ints).
        self._links: Dict[int, _Link] = {}
        #: Time every live flow's ``remaining`` was last banked at.
        self._banked_at = env.now
        #: Seconds from the last rate computation until its soonest
        #: flow finishes.
        self._soonest = _INF
        #: One persistent waiter process re-armed on every rebalance, so
        #: flow churn does not leave superseded waiters in the event heap.
        self._waiter: Optional[Process] = None
        self._wake_at: float = float("inf")
        self._machine_up: Dict[int, bool] = {}
        #: Gray-failure state: multiplicative NIC speed factors (1.0 =
        #: healthy, 0.1 = 10% speed) and directed src->dst partitions.
        self._up_factor: Dict[int, float] = {}
        self._down_factor: Dict[int, float] = {}
        self._partitions: Set[Tuple[int, int]] = set()
        self.bytes_transferred = 0.0
        # The completion log -- machine-level observation used by the
        # Spark-based models (§6.6) -- as columns, one entry per
        # delivered flow in delivery (so time) order.
        self._log_times = array("d")
        self._log_bytes = array("d")
        self._log_dsts = array("q")
        self._log_srcs = array("q")
        #: Per-machine receive-side busy trackers (1 unit = link saturated
        #: is approximated as "any flow active"); used for utilization plots.
        self.rx_trackers: Dict[int, BusyTracker] = {}
        self.tx_trackers: Dict[int, BusyTracker] = {}

    def register_machine(self, machine_id: int, up_bps: float,
                         down_bps: float) -> None:
        """Attach a machine's NIC to the fabric."""
        if up_bps <= 0 or down_bps <= 0:
            raise SimulationError("link bandwidth must be positive")
        if machine_id in self._up_bps:
            raise SimulationError(f"machine {machine_id} already registered")
        self._up_bps[machine_id] = up_bps
        self._down_bps[machine_id] = down_bps
        self._machine_up[machine_id] = True
        self._up_factor[machine_id] = 1.0
        self._down_factor[machine_id] = 1.0
        self.rx_trackers[machine_id] = BusyTracker(
            self.env, 1, f"net-rx-{machine_id}")
        self.tx_trackers[machine_id] = BusyTracker(
            self.env, 1, f"net-tx-{machine_id}")

    def down_bps(self, machine_id: int) -> float:
        """A machine's downlink capacity."""
        return self._down_bps[machine_id]

    def up_bps(self, machine_id: int) -> float:
        """A machine's uplink capacity."""
        return self._up_bps[machine_id]

    @property
    def completion_log(self) -> List[Tuple[float, float, int, int]]:
        """``(completion time, bytes, dst, src)`` per delivered flow, in
        delivery order: a list built from the log's columns."""
        return list(zip(self._log_times, self._log_bytes, self._log_dsts,
                        self._log_srcs))

    def delivered_bytes(self, dst: int, start: float,
                        end: float) -> List[float]:
        """Bytes of each flow into ``dst`` delivered in ``[start, end]``,
        in delivery order."""
        if not start <= end:
            return []
        times = self._log_times
        lo, hi = bisect_left(times, start), bisect_right(times, end)
        return [nbytes for nbytes, to in zip(self._log_bytes[lo:hi],
                                             self._log_dsts[lo:hi])
                if to == dst]

    @property
    def active_flows(self) -> int:
        """Flows currently in the air."""
        return len(self._flows)

    def transfer(self, src: int, dst: int, nbytes: float,
                 label: str = "") -> Event:
        """Start a flow; the returned event fires when the last byte lands."""
        if src not in self._up_bps or dst not in self._down_bps:
            raise SimulationError(f"unregistered machine in flow {src}->{dst}")
        flow = Flow(self.env, src, dst, nbytes, label, next(self._seq))
        if not (self._machine_up[src] and self._machine_up[dst]):
            flow.done.fail(MachineFailure(
                f"flow {src}->{dst}: endpoint is down"))
            return flow.done
        if src != dst and (src, dst) in self._partitions:
            flow.done.fail(LinkPartitionError(
                f"flow {src}->{dst}: link partitioned"))
            return flow.done
        self.bytes_transferred += flow.nbytes
        if nbytes <= 0 or src == dst:
            # Local or empty: completes after the fixed latency only.
            self.env.process(self._deliver([flow]))
            return flow.done
        self._bank_progress()
        self._add(flow)
        self._compute_rates()
        self._arm()
        return flow.done

    def _deliver(self, finished: List[Flow]) -> Generator:
        """Charge the one-way latency, then complete the flows.

        Remote flows pay it on top of their bandwidth time (connection
        setup plus propagation of the last byte); local/empty transfers
        pay only the latency.
        """
        yield self.env.timeout(FLOW_LATENCY_S)
        for flow in finished:
            if flow.done.triggered:
                continue  # Failed by a machine crash while in delivery.
            self._log_times.append(self.env.now)
            self._log_bytes.append(flow.nbytes)
            self._log_dsts.append(flow.dst)
            self._log_srcs.append(flow.src)
            flow.done.succeed()

    # -- incremental state ----------------------------------------------------

    def _link(self, link_id: int) -> _Link:
        """The link's state, created (and its tracker marked busy) when it
        takes its first flow."""
        link = self._links.get(link_id)
        if link is None:
            link = self._links[link_id] = _Link()
            if link_id >= 0:
                self.tx_trackers[link_id].set_busy(1)
            else:
                self.rx_trackers[~link_id].set_busy(1)
        return link

    def _add(self, flow: Flow) -> None:
        seq = flow.seq
        self._flows[seq] = flow
        up = self._link(flow.src)
        down = self._link(~flow.dst)
        key = (flow.src, flow.dst)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _Pair(flow.src, flow.dst)
            up.pairs[pair] = None
            down.pairs[pair] = None
        flow.pair = pair
        pair.flows.append(flow)
        if flow.remaining < pair.low:
            pair.low = flow.remaining
        up.flows[seq] = flow
        down.flows[seq] = flow

    def _drop(self, flows: List[Flow]) -> None:
        """Take ``flows`` off the fabric (rates are left to the caller)."""
        links = self._links
        touched: Dict[_Pair, None] = {}
        for flow in flows:
            seq = flow.seq
            del self._flows[seq]
            pair = flow.pair
            flow.pair = None
            pair.flows.remove(flow)
            touched[pair] = None
            for link_id in (flow.src, ~flow.dst):
                link = links[link_id]
                del link.flows[seq]
                if not pair.flows:
                    del link.pairs[pair]
                if not link.flows:
                    del links[link_id]
                    if link_id >= 0:
                        self.tx_trackers[link_id].set_busy(0)
                    else:
                        self.rx_trackers[~link_id].set_busy(0)
        for pair in touched:
            if pair.flows:
                pair.low = min(f.remaining for f in pair.flows)
            else:
                del self._pairs[(pair.src, ~pair.down)]

    # -- max-min fair rate allocation -----------------------------------------

    def _compute_rates(self) -> None:
        """Water-filling: repeatedly freeze the most-constrained link.

        Each round takes the link with the smallest fair share
        (capacity over unfrozen flows), gives that share to every
        unfrozen pair on it, and charges the pairs' flows to their other
        link.  Rounds visit at most every link once and each pair is
        frozen once: O(links^2 + pairs), with the flows entering only
        through the per-flow ``cap -= share`` that bit identity needs.
        The pairs' smallest ``remaining`` over their new rates gives the
        delay to the next completion.
        """
        links = self._links
        up_bps, up_factor = self._up_bps, self._up_factor
        down_bps, down_factor = self._down_bps, self._down_factor
        # Per link, in order of its oldest flow: [unfrozen flows, capacity
        # left for them].
        unfrozen: Dict[int, list] = {}
        for _, link_id in sorted(
                (2 * next(iter(link.flows)) + (link_id < 0), link_id)
                for link_id, link in links.items()):
            if link_id >= 0:
                cap = up_bps[link_id] * up_factor[link_id]
            else:
                cap = down_bps[~link_id] * down_factor[~link_id]
            unfrozen[link_id] = [len(links[link_id].flows), cap]
        for pair in self._pairs.values():
            pair.rate = -1.0  # pending marker
        soonest = _INF
        while unfrozen:
            # The first link with the smallest share, as min() picks.
            share = _INF
            for link_id, state in unfrozen.items():
                fair = state[1] / state[0]
                if fair < share:
                    best_link, share = link_id, fair
            if share < 1e-6:
                share = 1e-6
            uplink = best_link >= 0
            for pair in links[best_link].pairs:
                if pair.rate >= 0.0:
                    continue
                pair.rate = share
                due = pair.low / share
                if due < soonest:
                    soonest = due
                other = pair.down if uplink else pair.src
                state = unfrozen[other]
                m = len(pair.flows)
                n = state[0] - m
                if n:
                    state[0] = n
                    # One rounding per flow, as flow-by-flow freezing did.
                    cap = state[1] - share
                    while m > 1:
                        cap -= share
                        m -= 1
                    state[1] = cap
                else:
                    del unfrozen[other]
            del unfrozen[best_link]
        self._soonest = soonest

    def _bank_progress(self) -> Optional[List[Flow]]:
        """Charge every flow for the bytes it moved since the last bank.

        Also refreshes each pair's smallest ``remaining``.  Returns the
        flows now within 1e-6 bytes of done, in start order, or None
        when no time passed since the last bank.
        """
        now = self.env.now
        elapsed = now - self._banked_at
        self._banked_at = now
        if not elapsed > 0:
            return None
        for pair in self._pairs.values():
            pair.low = _INF
        finished = []
        for flow in self._flows.values():
            pair = flow.pair
            left = flow.remaining - pair.rate * elapsed
            if left <= 1e-6:
                if left <= 0.0:
                    left = 0.0
                finished.append(flow)
            flow.remaining = left
            if left < pair.low:
                pair.low = left
        return finished

    def _rebalance(self) -> None:
        self._bank_progress()
        self._compute_rates()
        self._arm()

    def _next_deadline(self) -> float:
        return self.env.now + self._soonest

    def _arm(self) -> None:
        """(Re)aim the single waiter at the soonest-finishing flow.

        The waiter is only interrupted when the deadline moved *earlier*;
        a later deadline is discovered by the waiter itself when it wakes
        and finds nothing finished.  Either way there is exactly one
        waiter and at most one pending wakeup -- flow churn cannot pile
        superseded events into the heap.
        """
        if not self._flows:
            self._wake_at = float("inf")
            return
        wake_at = self._next_deadline()
        if self._waiter is None or not self._waiter.is_alive:
            self._wake_at = wake_at
            self._waiter = self.env.process(self._completion_loop())
        elif wake_at < self._wake_at:
            self._wake_at = wake_at
            self._waiter.interrupt(cause="rearm")

    def _completion_loop(self) -> Generator:
        while self._flows:
            delay = self._wake_at - self.env.now
            if delay > 0:
                try:
                    yield self.env.timeout(delay)
                except Interrupted:
                    continue  # Re-armed at an earlier deadline.
                if not self._flows:
                    break  # All in-flight flows failed while we slept.
            finished = self._bank_progress()
            if finished is None:
                finished = [flow for flow in self._flows.values()
                            if flow.remaining <= 1e-6]
            if not finished:
                # Banking moved the pairs' smallest remaining.
                self._soonest = min(pair.low / pair.rate
                                    for pair in self._pairs.values())
                soonest = self._next_deadline() - self.env.now
                if soonest >= 1e-9:
                    # Rates dropped since we armed (new flows joined):
                    # this wakeup is early, not late.  Sleep again.
                    self._wake_at = self.env.now + soonest
                    continue
                # Float slack: force the closest flow to completion.
                closest = min(self._flows.values(),
                              key=lambda f: f.remaining)
                closest.remaining = 0.0
                finished = [closest]
            self._drop(finished)
            self._compute_rates()
            if self._flows:
                self._wake_at = self._next_deadline()
            self.env.process(self._deliver(finished))

    # -- fault injection --------------------------------------------------------

    def set_machine_up(self, machine_id: int, up: bool) -> None:
        """Mark a machine up or down; transfers touching a down machine
        fail immediately."""
        if machine_id not in self._machine_up:
            raise SimulationError(f"unregistered machine {machine_id}")
        self._machine_up[machine_id] = up

    def fail_machine(self, machine_id: int) -> int:
        """Fail every in-flight flow from or to ``machine_id``.

        Returns the number of flows killed.  Survivors are re-balanced
        over the freed bandwidth.
        """
        self._bank_progress()
        dead = [f for f in self._flows.values()
                if f.src == machine_id or f.dst == machine_id]
        self._drop(dead)
        self._compute_rates()
        self._arm()
        for flow in dead:
            flow.done.fail(MachineFailure(
                f"flow {flow.src}->{flow.dst}: machine {machine_id} failed"))
        return len(dead)

    def degrade_link(self, machine_id: int, up_factor: float = 1.0,
                     down_factor: float = 1.0) -> None:
        """Scale a machine's NIC to a fraction of nominal speed.

        Factors are relative speeds in (0, 1]; 1.0 restores full speed.
        In-flight flows are re-balanced at the new capacities.
        """
        if machine_id not in self._machine_up:
            raise SimulationError(f"unregistered machine {machine_id}")
        if not (0.0 < up_factor <= 1.0) or not (0.0 < down_factor <= 1.0):
            raise SimulationError(
                f"link factors must be in (0, 1]: {up_factor}, {down_factor}")
        self._up_factor[machine_id] = up_factor
        self._down_factor[machine_id] = down_factor
        if self._flows:
            self._rebalance()

    def restore_link(self, machine_id: int) -> None:
        """Return a degraded NIC to full speed."""
        self.degrade_link(machine_id, up_factor=1.0, down_factor=1.0)

    def partition_link(self, src: int, dst: int) -> int:
        """Block the directed path ``src -> dst``.

        In-flight flows on the path fail with
        :class:`~repro.errors.LinkPartitionError` and new transfers fail
        fast, so callers back off and retry instead of hanging.  Returns
        the number of flows killed.
        """
        for machine_id in (src, dst):
            if machine_id not in self._machine_up:
                raise SimulationError(f"unregistered machine {machine_id}")
        self._partitions.add((src, dst))
        self._bank_progress()
        pair = self._pairs.get((src, dst))
        dead = list(pair.flows) if pair is not None else []
        self._drop(dead)
        self._compute_rates()
        self._arm()
        for flow in dead:
            flow.done.fail(LinkPartitionError(
                f"flow {flow.src}->{flow.dst}: link partitioned"))
        return len(dead)

    def heal_link(self, src: int, dst: int) -> None:
        """Remove a partition; subsequent transfers flow normally."""
        self._partitions.discard((src, dst))

    # -- introspection for the performance model -------------------------------

    def rates_snapshot(self) -> Dict[str, float]:
        """Current per-flow rates, keyed by label (for tests/debugging).

        Rates are recomputed after every change, so this only reads
        them: peeking never moves the simulation.
        """
        return {f.label or f"{f.src}->{f.dst}": f.pair.rate
                for f in self._flows.values()}
