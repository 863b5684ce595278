"""The pair-grouped water-filling against the flow-by-flow original.

``SeedRates._compute_rates`` is the network's earlier rate computation,
kept verbatim as the reference: it freezes flows one by one over links
in first-appearance order.  Random sequences of transfers, clock
advances, NIC degradation, partitions and machine failures drive a
:class:`Network`; after every step its rates and next deadline must
equal the reference's exactly, not approximately.
"""

import random
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.config import MB
from repro.simulator import Environment, Network

MACHINES = 4
#: The paper's NIC speed; decimal, so fair shares round.
BW = 125e6


class _RefFlow:
    __slots__ = ("src", "dst", "rate")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.rate = 0.0


class SeedRates:
    """Holds the state the original ``_compute_rates`` reads."""

    def __init__(self, net: Network) -> None:
        self._flows: List[_RefFlow] = [
            _RefFlow(f.src, f.dst) for f in net._flows.values()]
        self._up_bps = net._up_bps
        self._down_bps = net._down_bps
        self._up_factor = net._up_factor
        self._down_factor = net._down_factor

    def _compute_rates(self) -> None:
        """Water-filling: repeatedly freeze the most-constrained link.

        Incremental bookkeeping (per-link flow lists, counts, and caps
        updated as flows freeze) keeps each recompute at
        O(flows + links^2) rather than O(links * flows).
        """
        flows = self._flows
        if not flows:
            return
        # Link keys: uplink = machine_id, downlink = ~machine_id (bit
        # complement keeps them distinct ints -- cheaper than tuples).
        by_link: Dict[int, List[_RefFlow]] = {}
        count: Dict[int, int] = {}
        cap: Dict[int, float] = {}
        for flow in flows:
            flow.rate = -1.0  # pending marker
            up, down = flow.src, ~flow.dst
            entry = by_link.get(up)
            if entry is None:
                by_link[up] = [flow]
                count[up] = 1
                cap[up] = self._up_bps[flow.src] * self._up_factor[flow.src]
            else:
                entry.append(flow)
                count[up] += 1
            entry = by_link.get(down)
            if entry is None:
                by_link[down] = [flow]
                count[down] = 1
                cap[down] = (self._down_bps[flow.dst]
                             * self._down_factor[flow.dst])
            else:
                entry.append(flow)
                count[down] += 1
        while count:
            best_link = min(count, key=lambda l: cap[l] / count[l])
            share = cap[best_link] / count[best_link]
            if share < 1e-6:
                share = 1e-6
            for flow in by_link[best_link]:
                if flow.rate >= 0.0:
                    continue
                flow.rate = share
                for link in (flow.src, ~flow.dst):
                    if link == best_link:
                        continue
                    remaining = count.get(link)
                    if remaining is None:
                        continue
                    if remaining == 1:
                        del count[link]
                        del cap[link]
                    else:
                        count[link] = remaining - 1
                        cap[link] -= share
            del count[best_link]
            del cap[best_link]


def assert_matches_reference(net: Network) -> None:
    live = list(net._flows.values())
    assert [f.seq for f in live] == sorted(f.seq for f in live)
    ref = SeedRates(net)
    ref._compute_rates()
    assert [f.rate for f in live] == [f.rate for f in ref._flows]
    if live:
        expected = net.env.now + min(
            f.remaining / max(r.rate, 1e-12)
            for f, r in zip(live, ref._flows))
        assert net._next_deadline() == expected


machine = st.integers(0, MACHINES - 1)
#: Few distinct sizes, so equal flows on equal links finish together.
size = st.sampled_from([1 * MB, 2 * MB, 4 * MB, 2.5 * MB])
#: Several flows per pair: rates are frozen per pair.
copies = st.integers(1, 6)
step = st.one_of(
    st.tuples(st.just("transfer"), machine, machine, size, copies),
    st.tuples(st.just("transfer"), machine, machine, size, st.just(1)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.004, 0.01,
                                                   0.02, 0.05])),
    st.tuples(st.just("degrade"), machine,
              st.sampled_from([1.0, 0.5, 0.3]),
              st.sampled_from([1.0, 0.7])),
    st.tuples(st.just("partition"), machine, machine),
    st.tuples(st.just("heal"), machine, machine),
    st.tuples(st.just("fail"), machine),
)


def make_network(env: Environment) -> Network:
    net = Network(env)
    for m in range(MACHINES):
        # Machine 3 is slower: mixes exact ties with real bottlenecks.
        bw = BW / 3 if m == MACHINES - 1 else BW
        net.register_machine(m, up_bps=bw, down_bps=bw)
    return net


@settings(max_examples=150, deadline=None)
@given(st.lists(step, min_size=1, max_size=40))
def test_rates_equal_seed_water_filling(steps):
    env = Environment()
    net = make_network(env)
    for op, *args in steps:
        if op == "transfer":
            src, dst, nbytes, count = args
            for _ in range(count):
                net.transfer(src, dst, nbytes).defused = True
        elif op == "advance":
            env.run(until=env.now + args[0])
        elif op == "degrade":
            net.degrade_link(*args)
        elif op == "partition":
            net.partition_link(*args)
        elif op == "heal":
            net.heal_link(*args)
        else:
            net.fail_machine(args[0])
        assert_matches_reference(net)
    env.run()
    assert net.active_flows == 0


def _peek_run(seed: int, peek: bool):
    rng = random.Random(seed)
    env = Environment()
    net = make_network(env)

    def launch(delay, src, dst, nbytes):
        yield env.timeout(delay)
        yield net.transfer(src, dst, nbytes)

    launches = []
    for _ in range(30):
        src, dst = rng.sample(range(MACHINES), 2)
        launches.append(env.process(launch(
            rng.random() * 0.5, src, dst,
            rng.choice([1, 2, 3, 5]) * MB * rng.random())))

    def peeker():
        while True:
            net.rates_snapshot()
            yield env.timeout(0.137)

    if peek:
        env.process(peeker())
    env.run(until=env.all_of(launches))
    return net.completion_log, env.now


def test_rates_snapshot_does_not_move_the_simulation():
    for seed in range(8):
        assert _peek_run(seed, peek=True) == _peek_run(seed, peek=False)
