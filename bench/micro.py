"""Layer micro-suite: ns per operation on inputs the workloads produce.

The frames come from the traced episode (the first announce, ACK and
full-size chunk frame it encoded), the role program is the one the
roles_swarm generator writes for the same seed, and the state snapshot is
a module of the finished world. The results are reported under per-layer
names and gate nothing.
"""

from __future__ import annotations

import time

from modbot.dynarole import assign_role, parse_program
from modbot.link import FrameDecoder, crc16, decode_frame, encode_frame
from modbot.messages import (
    Kind, LinkReassembler, ModuleId, ServiceMessage, chunk_body, decode_message,
    encode_message, split_for_link,
)
from modbot.node import make_image
from modbot.sim import Scheduler

REPEATS = 5
TARGET_S = 0.02  # per repeat


def _ns_per_op(fn, ops_per_call: int = 1) -> float:
    """Median over REPEATS of the time per call, after sizing the loop so
    one repeat lasts about TARGET_S."""
    loops = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter_ns() - start
        if elapsed >= TARGET_S * 1e9 or loops >= 1 << 20:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter_ns() - start) / loops / ops_per_call)
    samples.sort()
    return samples[len(samples) // 2]


def _scheduler_round(events: int = 256) -> None:
    scheduler = Scheduler()
    noop = _noop
    for t in range(events):
        scheduler.call_at(t, noop)
    scheduler.run_until(events)


def _noop() -> None:
    pass


def run_micro(frames: dict[str, bytes], program_text: str, snapshot) -> dict[str, float]:
    announce, ack, chunk = frames["announce"], frames["ack"], frames["chunk"]
    announce_frame = decode_frame(announce)
    announce_msg = decode_message(announce_frame.payload[4:])
    push_msg = encode_message(ServiceMessage(
        Kind.CODE_CHUNK, ModuleId((0, 1, 2)), None,
        chunk_body(1, 0, 2, "2", make_image(2)[:512])))
    program = parse_program(program_text)
    decoder = FrameDecoder()

    def split_reassemble() -> None:
        reassembler = LinkReassembler()
        for part in split_for_link(push_msg):
            reassembler.feed(part)

    return {
        "link.micro.crc16_announce_ns": _ns_per_op(lambda: crc16(announce[1:-2])),
        "link.micro.crc16_chunk_ns": _ns_per_op(lambda: crc16(chunk[1:-2])),
        "link.micro.encode_frame_announce_ns": _ns_per_op(lambda: encode_frame(announce_frame)),
        "link.micro.decode_frame_announce_ns": _ns_per_op(lambda: decode_frame(announce)),
        "link.micro.feed_ack_ns": _ns_per_op(lambda: decoder.feed(ack)),
        "link.micro.feed_announce_ns": _ns_per_op(lambda: decoder.feed(announce)),
        "link.micro.feed_chunk_ns": _ns_per_op(lambda: decoder.feed(chunk)),
        "messages.micro.encode_announce_ns": _ns_per_op(lambda: encode_message(announce_msg)),
        "messages.micro.decode_announce_ns": _ns_per_op(
            lambda: decode_message(announce_frame.payload[4:])),
        "messages.micro.split_reassemble_push_ns": _ns_per_op(split_reassemble),
        "sim.micro.push_pop_ns": _ns_per_op(_scheduler_round, ops_per_call=256),
        "dynarole.micro.parse_program_ns": _ns_per_op(lambda: parse_program(program_text)),
        "dynarole.micro.assign_role_ns": _ns_per_op(lambda: assign_role(program, snapshot)),
    }
