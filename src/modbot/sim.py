"""Discrete-event core: virtual clock, scheduler, seeded RNG, event log.

Time is an integer count of simulated microseconds. Log records and all
externally visible timestamps are reported in centiseconds. Events fire in
(time, insertion-order) priority, so a run is a pure function of its inputs
and seed. A batch of calls known in advance (a world's scenario) takes the
keys that as many `call_at` calls would, but waits outside the heap: only
its next call due is queued, so the heap holds what the run itself
scheduled plus one entry per batch.

The RNG is xorshift64* (shift triple 12/25/27, multiplier
0x2545F4914F6CDD1D) seeded through one splitmix64 step, chosen so that runs
are reproducible from the documented constants alone. A draw may be
counted without being read; its state step is still taken, before the next
draw that is read, so a value read is the same whether or not the draws
before it were read.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Iterable

US_PER_MS = 1_000
US_PER_CS = 10_000
US_PER_S = 1_000_000

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 output for input x (used to whiten RNG seeds)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """xorshift64* generator; state is never zero.

    `unread` is part of the state: the number of draws a caller counted but
    did not read (a lossless link's, see world.Channel). The next draw that
    is read first steps the state past them, so every value read is the one
    an eager generator gives; only their output multiply is never computed.
    """

    def __init__(self, seed: int):
        self._state = splitmix64(seed & _MASK64)
        if self._state == 0:
            self._state = 0x9E3779B97F4A7C15
        self.unread = 0

    def next_u64(self) -> int:
        s, n = self._state, self.unread
        while n >= 0:  # the unread draws' state steps, then this draw's
            s ^= (s >> 12)
            s ^= (s << 25) & _MASK64
            s ^= (s >> 27)
            n -= 1
        self._state, self.unread = s, 0
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of next_u64()."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


class Timer:
    """Cancellable handle for a scheduled callback; no __init__ to run."""

    cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


_BATCHED = Timer()  # the handle of every batched call; none is ever cancelled


class Scheduler:
    """Virtual-clock event loop with deterministic same-time ordering."""

    def __init__(self):
        self.now = 0  # virtual time in us; only run_until moves it
        self._queue: list[tuple[int, int, Timer, Callable[[], None]]] = []
        self._counter = itertools.count()

    def call_at(self, t_us: int, fn: Callable[[], None]) -> Timer:
        if t_us < self.now:
            t_us = self.now
        timer = Timer()
        heappush(self._queue, (t_us, next(self._counter), timer, fn))
        return timer

    def call_after(self, delay_us: int, fn: Callable[[], None]) -> Timer:
        return self.call_at(self.now + delay_us, fn)

    def call_batch(self, calls: Iterable[tuple]) -> None:
        """Schedule calls `(t_us, fn, *args)`, given in time order, under the
        keys that as many successive `call_at` calls would take now (past
        times clamped to now alike). Only the next call due waits in the
        heap; it queues its successor before it runs, and the batch lets
        go of each call it has run."""
        pending = list(calls)[::-1]  # the next call due last
        times = [call[0] for call in pending]
        if times != sorted(times, reverse=True):
            raise ValueError("batched calls must be in time order")
        if not pending:
            return
        end = next(self._counter) + len(pending)  # one past the batch's last key
        self._counter = itertools.count(end)
        now, queue = self.now, self._queue

        def push_next() -> None:
            heappush(queue, (max(pending[-1][0], now), end - len(pending), _BATCHED, fire))

        def fire() -> None:
            call = pending.pop()
            if pending:
                push_next()
            call[1](*call[2:])

        push_next()

    def run_until(self, t_us: int) -> None:
        """Process every event due at or before t_us, then set the clock."""
        queue, pop = self._queue, heappop
        while queue and queue[0][0] <= t_us:
            when, _, timer, fn = pop(queue)
            if timer.cancelled:
                continue
            self.now = when
            fn()
        self.now = max(self.now, t_us)


class EventLog:
    """Append-only run log; one record per line, time in centiseconds."""

    def __init__(self, scheduler: Scheduler):
        self._scheduler = scheduler
        self.records: list[tuple[int, str, str, str]] = []

    def log(self, module: str, kind: str, payload: str = "") -> None:
        t_cs = self._scheduler.now // US_PER_CS
        if self.records and t_cs < self.records[-1][0]:
            raise AssertionError("log time went backwards")
        self.records.append((t_cs, module, kind, payload))

    def lines(self) -> list[str]:
        return [
            f"{t} {module} {kind} {payload}".rstrip()
            for t, module, kind, payload in self.records
        ]

    def render(self) -> str:
        out = "\n".join(self.lines())
        return out + "\n" if out else ""

    def select(self, kind: str, module: str | None = None) -> list[tuple[int, str, str, str]]:
        return [
            r for r in self.records
            if r[2] == kind and (module is None or r[1] == module)
        ]
