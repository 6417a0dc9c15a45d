"""Scheduler ordering, RNG reproducibility, event log shape."""

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
