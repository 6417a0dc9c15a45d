"""Scheduler ordering, RNG reproducibility, event log shape."""

from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from modbot.sim import EventLog, Rng, Scheduler, US_PER_CS, splitmix64


def test_events_fire_in_time_then_insertion_order():
    scheduler = Scheduler()
    trace = []
    scheduler.call_at(20, lambda: trace.append("late"))
    scheduler.call_at(10, lambda: trace.append("first"))
    scheduler.call_at(10, lambda: trace.append("second"))
    scheduler.run_until(100)
    assert trace == ["first", "second", "late"]
    assert scheduler.now == 100


def test_cancelled_timer_does_not_fire():
    scheduler = Scheduler()
    trace = []
    timer = scheduler.call_at(10, lambda: trace.append("no"))
    scheduler.call_at(20, lambda: trace.append("yes"))
    timer.cancel()
    scheduler.run_until(100)
    assert trace == ["yes"]


def test_nested_scheduling_runs_same_horizon():
    scheduler = Scheduler()
    trace = []
    scheduler.call_at(10, lambda: scheduler.call_after(5, lambda: trace.append(scheduler.now)))
    scheduler.run_until(100)
    assert trace == [15]


def test_past_deadline_clamps_to_now():
    scheduler = Scheduler()
    scheduler.run_until(50)
    trace = []
    scheduler.call_at(10, lambda: trace.append(scheduler.now))
    scheduler.run_until(60)
    assert trace == [50]


def test_batched_calls_fire_with_their_args_and_wait_outside_the_heap():
    scheduler = Scheduler()
    trace = []
    scheduler.call_at(10, lambda: trace.append("before"))
    scheduler.call_batch([(10, trace.append, "b0"), (10, trace.append, "b1"), (30, trace.append, "b2")])
    scheduler.call_at(10, lambda: trace.append("after"))
    assert len(scheduler._queue) == 3  # the batch's next call, not all three
    scheduler.run_until(20)
    assert trace == ["before", "b0", "b1", "after"]
    scheduler.run_until(100)
    assert trace[-1] == "b2"
    assert not scheduler._queue


def test_batch_out_of_time_order_is_refused():
    scheduler = Scheduler()
    with pytest.raises(ValueError):
        scheduler.call_batch([(20, print), (10, print)])
    scheduler.call_batch([])
    assert not scheduler._queue


# What a scripted callback does when it fires: nothing, schedule a call for
# the same time, schedule one later, or cancel a call_at timer.
_ACTIONS = st.one_of(
    st.just(("none", 0)), st.just(("same", 0)),
    st.tuples(st.just("later"), st.integers(0, 40)), st.tuples(st.just("cancel"), st.integers(0, 30)),
)
_SCRIPTED = st.lists(st.tuples(st.integers(0, 150), _ACTIONS), max_size=8)


def _run_script(batched, start, before, batch, after, horizons):
    scheduler = Scheduler()
    fired, timers = [], []

    def fire(label, action):
        fired.append((scheduler.now, label))
        kind, arg = action
        if kind == "same":
            scheduler.call_at(scheduler.now, partial(fire, label + "'", ("none", 0)))
        elif kind == "later":
            timers.append(scheduler.call_after(arg, partial(fire, label + "+", ("none", 0))))
        elif kind == "cancel" and timers:
            timers[arg % len(timers)].cancel()

    scheduler.run_until(start)
    for i, (t_us, action) in enumerate(before):
        timers.append(scheduler.call_at(t_us, partial(fire, f"pre{i}", action)))
    calls = [(t_us, fire, f"b{i}", action) for i, (t_us, action) in enumerate(batch)]
    if batched:
        scheduler.call_batch(calls)
    else:
        for t_us, fn, *args in calls:
            scheduler.call_at(t_us, partial(fn, *args))
    for i, (t_us, action) in enumerate(after):
        timers.append(scheduler.call_at(t_us, partial(fire, f"post{i}", action)))
    for horizon in horizons:
        scheduler.run_until(horizon)
        fired.append((scheduler.now, "horizon"))
    return fired


@settings(max_examples=150, deadline=None)
@given(
    start=st.integers(0, 60), before=_SCRIPTED, after=_SCRIPTED,
    batch=_SCRIPTED.map(lambda calls: sorted(calls, key=lambda call: call[0])),
    horizons=st.lists(st.integers(0, 250), max_size=4).map(lambda hs: sorted(hs) + [400]),
)
@example(start=50, before=[(60, ("same", 0))], after=[(60, ("cancel", 0))],
         batch=[(10, ("none", 0)), (60, ("cancel", 0)), (60, ("later", 0)), (90, ("same", 0))],
         horizons=[60, 400])
def test_batch_fires_like_successive_call_at_calls(start, before, batch, after, horizons):
    # Past times clamp to the start, same-time ties keep their order, and a
    # horizon may fall between two batched calls.
    assert (_run_script(True, start, before, batch, after, horizons)
            == _run_script(False, start, before, batch, after, horizons))


def test_rng_documented_sequence():
    # Frozen outputs of the documented generator (splitmix64 seeding,
    # xorshift64* with multiplier 0x2545F4914F6CDD1D) for seed 1.
    assert splitmix64(1) == 0x910A2DEC89025CC1
    rng = Rng(1)
    assert [rng.next_u64() for _ in range(3)] == [
        0x4B46A55DF3611B9B, 0xD7E1F1410E763EF4, 0x5F14EC66975F9B06,
    ]


def test_rng_uniform_range_and_determinism():
    rng_a, rng_b = Rng(9), Rng(9)
    seq_a = [rng_a.random() for _ in range(1000)]
    seq_b = [rng_b.random() for _ in range(1000)]
    assert seq_a == seq_b
    assert all(0.0 <= x < 1.0 for x in seq_a)
    assert Rng(1).random() != Rng(2).random()


def test_event_log_lines_and_times():
    scheduler = Scheduler()
    log = EventLog(scheduler)
    log.log("m0", "boot", "id=0 v=1")
    scheduler.run_until(25 * US_PER_CS)
    log.log("m1", "sensor", "1 1")
    log.log("m1", "note")
    assert log.lines() == ["0 m0 boot id=0 v=1", "25 m1 sensor 1 1", "25 m1 note"]
    assert log.render().endswith("\n")
    assert log.select("sensor") == [(25, "m1", "sensor", "1 1")]
    times = [r[0] for r in log.records]
    assert times == sorted(times)


def test_random_is_the_top_53_bits_of_next_u64():
    for seed in [0, 1, 2, 42, 2**32, 2**63, 2**64 - 1, -1, *range(100, 120)]:
        rng, twin = Rng(seed), Rng(seed)
        for _ in range(10_000):
            assert rng.random() == (twin.next_u64() >> 11) * 2**-53


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-2**64, 2**64),
    ops=st.lists(st.one_of(st.integers(1, 2_000), st.sampled_from(["random", "next_u64"])),
                 max_size=25),
)
@example(seed=1, ops=[100_000, "random", 1, "next_u64", 3, 7, "random"])
def test_unread_draws_read_like_an_eager_twin(seed, ops):
    # An integer is a run of draws counted unread on one generator and
    # computed, then discarded, on its twin.
    lazy, eager = Rng(seed), Rng(seed)
    for op in ops:
        if isinstance(op, int):
            lazy.unread += op
            for _ in range(op):
                eager.next_u64()
        else:
            assert getattr(lazy, op)() == getattr(eager, op)()
            assert lazy.unread == 0
