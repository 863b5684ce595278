"""Unit tests for the discrete-event kernel."""

import gc

import pytest

from repro.errors import EmptySchedule, Interrupted, SimulationError
from repro.simulator import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = env.timeout(5.0, value="x")
    result = env.run(until=done)
    assert result == "x"
    assert env.now == 5.0


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (3.0, 1.0, 2.0):
        env.timeout(delay, value=delay).add_callback(
            lambda e: order.append(e.value))
    env.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []
    for tag in range(5):
        env.timeout(1.0, value=tag).add_callback(
            lambda e: order.append(e.value))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return 42

    result = env.run(until=env.process(proc()))
    assert result == 42
    assert env.now == 2.0


def test_process_receives_event_values():
    env = Environment()

    def proc():
        value = yield env.timeout(1.0, value="hello")
        return value

    assert env.run(until=env.process(proc())) == "hello"


def test_nested_processes():
    env = Environment()

    def inner(duration):
        yield env.timeout(duration)
        return duration * 10

    def outer():
        a = yield env.process(inner(1.0))
        b = yield env.process(inner(2.0))
        return a + b

    assert env.run(until=env.process(outer())) == 30.0
    assert env.now == 3.0


def test_failed_event_raises_in_process():
    env = Environment()

    def proc():
        event = env.event()
        env.timeout(1.0).add_callback(
            lambda _: event.fail(ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            yield event
        return "recovered"

    assert env.run(until=env.process(proc())) == "recovered"


def test_unhandled_process_failure_propagates_to_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("task exploded")

    env.process(proc())
    with pytest.raises(RuntimeError, match="task exploded"):
        env.run()


def test_run_until_event_propagates_failure():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("bad")

    with pytest.raises(RuntimeError, match="bad"):
        env.run(until=env.process(proc()))


def test_run_until_numeric_deadline():
    env = Environment()
    fired = []
    env.timeout(1.0).add_callback(lambda _: fired.append(1))
    env.timeout(10.0).add_callback(lambda _: fired.append(10))
    env.run(until=5.0)
    assert fired == [1]
    assert env.now == 5.0


def test_run_until_past_deadline_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        values = yield env.all_of(
            [env.timeout(1.0, "a"), env.timeout(3.0, "b"),
             env.timeout(2.0, "c")])
        return values

    assert env.run(until=env.process(proc())) == ["a", "b", "c"]
    assert env.now == 3.0


def test_all_of_empty_list_fires_immediately():
    env = Environment()

    def proc():
        values = yield env.all_of([])
        return values

    assert env.run(until=env.process(proc())) == []


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        value = yield env.any_of(
            [env.timeout(5.0, "slow"), env.timeout(1.0, "fast")])
        return value

    assert env.run(until=env.process(proc())) == "fast"
    assert env.now == 1.0


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_waiting_on_already_processed_event():
    env = Environment()
    early = env.timeout(1.0, value="early")

    def proc():
        yield env.timeout(5.0)
        value = yield early  # already fired at t=1
        return (value, env.now)

    assert env.run(until=env.process(proc())) == ("early", 5.0)


def test_interrupt_wakes_process_early():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupted as exc:
            log.append((env.now, exc.cause))
        yield env.timeout(1.0)
        return "done"

    proc = env.process(victim())

    def attacker():
        yield env.timeout(2.0)
        proc.interrupt(cause="preempted")

    env.process(attacker())
    assert env.run(until=proc) == "done"
    assert log == [(2.0, "preempted")]
    assert env.now == 3.0


def test_interrupting_completed_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == 7.0


# ---------------------------------------------------------------------------
# run() pauses the cyclic collector and leaves it as it found it
# ---------------------------------------------------------------------------

@pytest.fixture
def collector():
    """Restore the collector's state whatever a test leaves behind."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def collector_seen_by_callback(env, at=1.0):
    """Record ``gc.isenabled()`` from a callback at time ``at``."""
    seen = []
    env.timeout(at).add_callback(lambda _: seen.append(gc.isenabled()))
    return seen


def run_to_drain(env):
    env.run()


def run_until_event(env):
    assert env.run(until=env.timeout(2.0, value="x")) == "x"


def run_until_time(env):
    env.timeout(5.0)
    env.run(until=2.0)


def run_into_raising_callback(env):
    def explode(_):
        raise ValueError("boom")

    env.timeout(1.5).add_callback(explode)
    with pytest.raises(ValueError):
        env.run()


@pytest.mark.parametrize("run", [run_to_drain, run_until_event,
                                 run_until_time, run_into_raising_callback])
@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_collector_and_restores_it(collector, enabled, run):
    (gc.enable if enabled else gc.disable)()
    env = Environment()
    seen = collector_seen_by_callback(env)
    run(env)
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_nested_run_keeps_collector_paused(collector):
    gc.enable()
    env = Environment()
    seen = []

    def nested(_):
        env.run(until=2.0)
        seen.append(gc.isenabled())

    env.timeout(1.0).add_callback(nested)
    later = collector_seen_by_callback(env, at=1.5)
    env.timeout(3.0)
    env.run()
    assert later == [False]  # inside the nested run()
    assert seen == [False]  # back in the outer run()
    assert env.now == 3.0
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# Process.cancel and Environment.every
# ---------------------------------------------------------------------------

def test_cancel_parked_process_schedules_nothing():
    env = Environment()
    log = []

    def sleeper():
        yield env.timeout(5.0)
        log.append("woke")

    proc = env.process(sleeper())
    env.run(until=1.0)
    before = env.events_scheduled
    proc.cancel()
    assert env.events_scheduled == before
    assert not proc.is_alive and proc.processed and proc.value is None
    assert proc.target is None
    # The old wakeup stays queued but resumes nothing.
    assert env.queue_size == 1
    env.run()
    assert log == [] and env.now == 5.0
    assert env.events_scheduled == before


def test_cancel_runs_the_generators_finally_now():
    env = Environment()
    log = []

    def guarded():
        try:
            yield env.timeout(5.0)
        finally:
            log.append(env.now)

    proc = env.process(guarded())
    env.run(until=2.0)
    proc.cancel()
    assert log == [2.0]


def test_cancel_before_the_start_hop():
    env = Environment()
    log = []

    def never():
        log.append("started")
        yield env.timeout(1.0)

    proc = env.process(never())
    before = env.events_scheduled
    proc.cancel()
    assert not proc.is_alive
    env.run()
    assert log == [] and env.events_scheduled == before


@pytest.mark.parametrize("ok", [True, False])
def test_cancel_while_its_wakeup_is_delivered(ok):
    # Both wait on one gate; the first woken cancels the second, whose
    # wakeup is already on its way and finds the generator closed.
    env = Environment()
    gate = env.event()
    log = []

    def canceller():
        try:
            yield gate
        finally:
            victim.cancel()

    def waiter():
        yield gate
        log.append("woke")

    env.process(canceller()).defused = True
    victim = env.process(waiter())
    env.run()
    before = env.events_scheduled
    if ok:
        gate.succeed()
    else:
        gate.fail(ValueError("gate"))
    env.run()
    assert log == [] and not victim.is_alive
    assert env.events_scheduled == before + 2  # the gate, the canceller


def test_cancel_awaited_process_rejected():
    env = Environment()

    def child():
        yield env.timeout(5.0)

    proc = env.process(child())

    def parent():
        yield proc

    env.process(parent())
    env.run(until=1.0)
    with pytest.raises(SimulationError, match="awaited"):
        proc.cancel()
    assert proc.is_alive


def test_self_cancel_rejected():
    env = Environment()
    caught = []

    def selfish():
        yield env.timeout(1.0)
        try:
            proc.cancel()
        except SimulationError as exc:
            caught.append(str(exc))
        yield env.timeout(1.0)

    proc = env.process(selfish())
    env.run()
    assert caught and "running" in caught[0]
    assert proc.ok and env.now == 2.0


def test_cancel_finished_process_is_a_noop():
    env = Environment()

    def quick():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(quick())
    env.run()
    before = env.events_scheduled
    proc.cancel()
    assert proc.value == "done" and env.events_scheduled == before


@pytest.mark.parametrize("first", [True, False])
def test_every_matches_the_loop_it_replaces(first):
    # Each service ticks at the same instants as its while loop and
    # consumes the same sequence numbers, so a same-instant rival
    # interleaves with it exactly as before.
    def trace(use_every):
        env = Environment()
        log = []

        def tick():
            log.append(("tick", env.now))

        def loop():
            if first:
                tick()
            while True:
                yield env.timeout(2.0)
                tick()

        def rival():
            while env.now < 6.0:
                log.append(("rival", env.now))
                yield env.timeout(1.0)

        service = (env.every(2.0, tick, first=first) if use_every
                   else env.process(loop()))
        env.process(rival())
        env.run(until=7.0)
        if use_every:
            service.cancel()
        return log, env.events_scheduled

    log, scheduled = trace(use_every=True)
    assert (log, scheduled) == trace(use_every=False)
    ticks = [at for kind, at in log if kind == "tick"]
    assert ticks == ([0.0, 2.0, 4.0, 6.0] if first else [2.0, 4.0, 6.0])
