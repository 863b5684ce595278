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
