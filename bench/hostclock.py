"""Host time, calibrated against the host's own speed.

The shared 2-core machine this benchmark was built on changes speed by
+-20 % over seconds to tens of seconds, in wall and CPU time alike (other
tenants, not descheduling). So every timed section is scaled by the speed
the host showed around it. The speed is measured as the time of a fixed
amount of interpreter work, `calibration_round`: table-driven CRC, heap,
dict, object and bytes operations, the simulator's own mix.

Calibrations run between timed sections, never inside one, once about
SLICE_S of raw time has accumulated. A long simulation advance is cut into
slices of about that length for this purpose. Cutting a run into
`Scheduler.run_until` calls changes nothing in the simulation. Each raw
second is scaled by CALIBRATION_NOMINAL_S / (mean of the calibrations just
before and after its slice). Host times are thus stated in seconds of a
host that runs the calibration in CALIBRATION_NOMINAL_S.
"""

from __future__ import annotations

import heapq
import statistics
import time

CALIBRATION_NOMINAL_S = 0.025
SLICE_S = 0.3
_CRC_TABLE = [(i * 0x1021) & 0xFFFF for i in range(256)]
_CRC_DATA = bytes(range(256)) * 4


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def bump(self) -> int:
        self.value += 1
        return self.value


def calibration_round() -> None:
    crc = 0xFFFF
    for byte in _CRC_DATA:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC_TABLE[(crc >> 8) ^ byte]
    heap: list = []
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
    while heap:
        heapq.heappop(heap)
    table: dict = {}
    for i in range(400):
        cell = table.get(i & 63)
        if cell is None:
            cell = table[i & 63] = _Cell(i & 63, 0)
        cell.bump()
    blob = b""
    for i in range(200):
        blob = (blob + bytes((i & 255,)))[-64:]


def calibrate(blocks: int = 4, rounds: int = 10) -> float:
    """Seconds this host takes for blocks * rounds calibration rounds,
    estimated from the median block so that a momentary stall is ignored."""
    times = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(rounds):
            calibration_round()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * blocks


class Timing:
    """Accumulated raw and calibrated seconds of one kind of section."""

    def __init__(self):
        self.raw = 0.0
        self.calibrated = 0.0


class HostClock:
    def __init__(self):
        self._before = calibrate()
        self._pending: list[tuple[Timing, float]] = []
        self._pending_s = 0.0
        self._rate = 0.0  # simulated us per raw second in the last slice

    def add(self, timing: Timing, raw_s: float) -> None:
        self._pending.append((timing, raw_s))
        self._pending_s += raw_s
        if self._pending_s >= SLICE_S:
            self.flush()

    def flush(self) -> None:
        """Calibrate now and settle every section timed since the last one."""
        if not self._pending:
            return
        after = calibrate()
        scale = 2 * CALIBRATION_NOMINAL_S / (self._before + after)
        self._before = after
        for timing, raw_s in self._pending:
            timing.raw += raw_s
            timing.calibrated += raw_s * scale
        self._pending.clear()
        self._pending_s = 0.0

    def timed(self, timing: Timing, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.add(timing, time.perf_counter() - start)
        return out

    def advancer(self, scheduler, timing: Timing):
        """An `advance(t_us)` for a workload's drive that times the
        scheduler in slices of about SLICE_S."""

        def advance(t_us: int) -> None:
            while True:
                target = t_us
                if self._rate:
                    budget = max(SLICE_S - self._pending_s, SLICE_S / 4)
                    target = min(t_us, scheduler.now + max(1, int(self._rate * budget)))
                start_us = scheduler.now
                start = time.perf_counter()
                scheduler.run_until(target)
                elapsed = time.perf_counter() - start
                if elapsed > 0 and target > start_us:
                    self._rate = (target - start_us) / elapsed
                self.add(timing, elapsed)
                if target >= t_us:
                    return

        return advance
