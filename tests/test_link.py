"""Stop-and-wait protocol behavior over a scripted or seeded lossy pipe."""

import random

import pytest

from modbot.link import (
    EncodingError, Frame, FrameType, LinkConfig, PortProtocol, TicketState, encode_frame,
)
from modbot.sim import Scheduler, US_PER_MS


class Pipe:
    """One direction of a test channel: fixed delay, scriptable loss."""

    def __init__(self, scheduler: Scheduler, delay_us: int = 1000):
        self.scheduler = scheduler
        self.delay_us = delay_us
        self.receive = None
        self.drop_plan: list[bool] = []  # per-transmission; empty = keep all
        self.drop_all = False
        self.loss = 0.0
        self.rng = random.Random(0)
        self.sent = 0

    def transmit(self, data: bytes) -> None:
        self.sent += 1
        drop = self.drop_all
        if self.drop_plan:
            drop = self.drop_plan.pop(0)
        elif self.loss and self.rng.random() < self.loss:
            drop = True
        if not drop:
            self.scheduler.call_after(self.delay_us, lambda: self.receive(data))


def make_pair(config_a=None, config_b=None):
    scheduler = Scheduler()
    ab, ba = Pipe(scheduler), Pipe(scheduler)
    delivered_a, delivered_b = [], []  # payloads, whatever their stream tag
    proto_a = PortProtocol(scheduler, ab.transmit, lambda _tag, p: delivered_a.append(p), config_a)
    proto_b = PortProtocol(scheduler, ba.transmit, lambda _tag, p: delivered_b.append(p), config_b)
    ab.receive = proto_b.on_bytes
    ba.receive = proto_a.on_bytes
    return scheduler, proto_a, proto_b, ab, ba, delivered_a, delivered_b


def test_lossless_delivery_single_transmission():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    ticket = a.send([b"hello"])
    scheduler.run_until(10 * US_PER_MS)
    assert ticket.state is TicketState.DELIVERED
    assert ticket.transmissions == 1
    assert delivered == [b"hello"]


def test_first_data_frame_dropped_delivers_after_two_transmissions():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    ab.drop_plan = [True]
    ticket = a.send([b"retry me"])
    scheduler.run_until(500 * US_PER_MS)
    assert ticket.state is TicketState.DELIVERED
    assert ticket.transmissions == 2
    assert delivered == [b"retry me"]


def test_dead_channel_fails_after_initial_plus_retries():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    ab.drop_all = True
    ticket = a.send([b"doomed"])
    scheduler.run_until(5_000 * US_PER_MS)
    assert ticket.state is TicketState.FAILED
    assert ticket.transmissions == 6  # 1 initial + max_retries(5)
    assert delivered == []
    assert a.stats.give_ups == 1


def test_lost_ack_causes_duplicate_suppression():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    ba.drop_plan = [True]  # first ACK vanishes
    ticket = a.send([b"once only"])
    scheduler.run_until(2_000 * US_PER_MS)
    assert ticket.state is TicketState.DELIVERED
    assert ticket.transmissions == 2
    assert delivered == [b"once only"]  # re-ACKed, not re-delivered
    assert b.stats.rx_duplicates == 1
    assert b.stats.tx_acks == 2


def test_garbage_between_frames_resynchronizes():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    real_receive = ab.receive
    ab.receive = lambda data: (real_receive(b"\xba\xad"), real_receive(data))
    a.send([b"first"])
    a.send([b"second"])
    scheduler.run_until(2_000 * US_PER_MS)
    assert delivered == [b"first", b"second"]


def test_queued_sends_keep_order():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    payloads = [f"msg{i}".encode() for i in range(10)]
    tickets = [a.send([p]) for p in payloads]
    scheduler.run_until(2_000 * US_PER_MS)
    assert delivered == payloads
    assert all(t.state is TicketState.DELIVERED for t in tickets)


def test_stop_and_wait_single_outstanding():
    scheduler, a, b, ab, ba, _, _ = make_pair()
    for i in range(5):
        a.send([bytes([i])])
    # Before anything is acknowledged only one frame can have gone out.
    assert ab.sent == 1


def test_cancel_queued_send():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    a.send([b"keep"])
    ticket = a.send([b"withdraw"])
    assert a.cancel(ticket)
    scheduler.run_until(1_000 * US_PER_MS)
    assert ticket.state is TicketState.FAILED
    assert ticket.transmissions == 0
    assert delivered == [b"keep"]


def test_oversized_payload_rejected():
    _, a, *_ = make_pair()
    with pytest.raises(EncodingError):
        a.send([b"x" * 256])


def test_empty_send_raises_and_leaves_the_port_usable():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    with pytest.raises(EncodingError):
        a.send([])
    ticket = a.send([b"x"])
    scheduler.run_until(10 * US_PER_MS)
    assert ticket.state is TicketState.DELIVERED
    assert delivered == [b"x"]


def test_ack_bytes_on_a_partial_candidate_go_to_the_decoder_which_skips_the_head():
    # The ACK table takes a whole ACK only on an empty decoder buffer. Here
    # the decoder gets the bytes: the ACK is whole behind a head that still
    # waits for 20 payload bytes, so it skips that head as corrupt.
    scheduler, a, b, ab, ba, _, _ = make_pair()
    ticket = a.send([b"waiting"])  # seq 0, outstanding until its ACK
    partial = encode_frame(Frame(FrameType.DATA, 9, bytes(20)))[:5]
    a.on_bytes(partial)
    assert len(a._decoder._buf) == len(partial)
    a.on_bytes(encode_frame(Frame(FrameType.ACK, 0)))
    assert ticket.state is TicketState.DELIVERED and ticket._timer.cancelled
    assert (a.crc_errors, a._decoder.junk_bytes, len(a._decoder._buf)) == (1, 4, 0)
    assert a.stats.stale_acks == 0


def test_send_from_a_delivered_callback_starts_the_queued_head_at_once():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    frames = []
    transmit = ab.transmit
    a._transmit = lambda data: (frames.append(data), transmit(data))
    first = a.send([b"first"])
    a.send([b"second"])
    seen = []

    def resend(ticket):
        a.send([b"third"])
        seen.append(frames[-1])  # what the callback put on the wire

    first.on_done(resend)
    scheduler.run_until(1_000 * US_PER_MS)
    assert seen == [encode_frame(Frame(FrameType.DATA, 1, b"second"))]
    assert delivered == [b"first", b"second", b"third"]


def test_bidirectional_traffic_does_not_interfere():
    scheduler, a, b, ab, ba, delivered_a, delivered_b = make_pair()
    a.send([b"a->b"])
    b.send([b"b->a"])
    scheduler.run_until(1_000 * US_PER_MS)
    assert delivered_b == [b"a->b"]
    assert delivered_a == [b"b->a"]


def test_seeded_random_loss_exactly_once_in_order():
    config = LinkConfig(ack_timeout_ms=50, max_retries=40)
    scheduler, a, b, ab, ba, _, delivered = make_pair(config, config)
    ab.loss = 0.3
    ba.loss = 0.3
    ab.rng = random.Random(77)
    ba.rng = random.Random(78)
    payloads = [f"m{i:03d}".encode() for i in range(200)]
    tickets = [a.send([p]) for p in payloads]
    scheduler.run_until(10 * 60 * 1_000 * US_PER_MS)
    assert [t.state for t in tickets] == [TicketState.DELIVERED] * 200
    assert delivered == payloads  # exactly once, in order


def test_seq_wraps_past_255():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    payloads = [i.to_bytes(2, "big") for i in range(300)]
    for p in payloads:
        a.send([p])
    scheduler.run_until(10 * 60 * 1_000 * US_PER_MS)
    assert delivered == payloads


def test_retransmitted_data_frame_is_byte_identical():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    frames = []
    transmit = ab.transmit
    a._transmit = lambda data: (frames.append(data), transmit(data))
    a.send([b"first"])
    ab.drop_plan = [True, True]  # the second payload goes out three times
    a.send([b"second"])
    scheduler.run_until(1_000 * US_PER_MS)
    assert delivered == [b"first", b"second"]
    second = encode_frame(Frame(FrameType.DATA, 1, b"second"))
    assert frames == [encode_frame(Frame(FrameType.DATA, 0, b"first"))] + [second] * 3


def test_ack_frames_match_their_encoding_for_every_seq():
    scheduler, a, b, ab, ba, _, delivered = make_pair()
    acks = []
    transmit = ba.transmit
    b._transmit = lambda data: (acks.append(data), transmit(data))
    for i in range(260):
        a.send([bytes([i & 0xFF])])
    scheduler.run_until(10 * 60 * 1_000 * US_PER_MS)
    assert len(delivered) == 260
    assert acks == [encode_frame(Frame(FrameType.ACK, i & 0xFF)) for i in range(260)]


def test_give_up_then_heal_delivers_what_tickets_report():
    scheduler, a, b, ab, ba, _, delivered = make_pair(LinkConfig(max_retries=2))
    ab.drop_all = True
    lost = a.send([b"lost"])
    scheduler.run_until(1_000 * US_PER_MS)
    assert lost.state is TicketState.FAILED
    ab.drop_all = False
    sends = [(p, a.send([p])) for p in (f"after{i}".encode() for i in range(5))]
    scheduler.run_until(2_000 * US_PER_MS)
    assert delivered == [p for p, t in sends if t.state is TicketState.DELIVERED]


@pytest.mark.parametrize("give_ups", [
    254,
    pytest.param(255, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP 17: 255 give-ups bring the sender back to the last delivered seq")),
    256,
])
def test_fresh_frame_after_a_run_of_give_ups_is_delivered(give_ups):
    # One frame is delivered, then give_ups frames are lost with no retry.
    # The receiver keys duplicates on the last delivered seq, so only a run
    # of exactly 255 lands the next fresh frame on that seq: it is ACKed
    # and dropped as a duplicate while its ticket reads DELIVERED.
    scheduler, a, b, ab, ba, _, delivered = make_pair(LinkConfig(max_retries=0))
    a.send([b"first"])
    scheduler.run_until(10 * US_PER_MS)
    assert delivered == [b"first"]
    ab.drop_all = True
    lost = [a.send([bytes([i & 0xFF])]) for i in range(give_ups)]
    scheduler.run_until(scheduler.now + (give_ups + 1) * 100 * US_PER_MS)
    assert all(t.state is TicketState.FAILED for t in lost)
    assert a.stats.give_ups == give_ups
    ab.drop_all = False
    fresh = a.send([b"fresh"])
    scheduler.run_until(scheduler.now + 10 * US_PER_MS)
    assert fresh.state is TicketState.DELIVERED
    assert delivered == [b"first", b"fresh"]


def _tagged_pair():
    """make_pair, with b's deliveries kept as (tag, payload) and a's frames kept."""
    scheduler, a, b, ab, ba, _, _ = make_pair()
    streams, frames = [], []
    b._deliver = lambda tag, payload: streams.append((tag, payload))
    transmit = ab.transmit
    a._transmit = lambda data: (frames.append(data), transmit(data))
    return scheduler, a, streams, frames


def test_a_one_frame_send_overtakes_a_multi_frame_message_under_the_next_tag():
    scheduler, a, streams, frames = _tagged_pair()
    long = a.send([b"l0", b"l1", b"l2"])
    short = a.send([b"s"])
    scheduler.run_until(1_000 * US_PER_MS)
    assert streams == [(0, b"l0"), (1, b"s"), (0, b"l1"), (0, b"l2")]
    assert frames == [encode_frame(Frame(FrameType.DATA, 0, b"l0")),
                      encode_frame(Frame(FrameType.DATA, 1, b"s", tag=1)),
                      encode_frame(Frame(FrameType.DATA, 2, b"l1")),
                      encode_frame(Frame(FrameType.DATA, 3, b"l2"))]
    assert [frame[1] for frame in frames] == [0x01, 0x11, 0x01, 0x01]
    assert long.state is short.state is TicketState.DELIVERED
    assert a._tags == 0


def test_multi_frame_messages_take_turns_frame_by_frame():
    scheduler, a, streams, _ = _tagged_pair()
    a.send([b"a0", b"a1", b"a2"])
    a.send([b"b0", b"b1"])
    a.send([b"c0"])
    scheduler.run_until(1_000 * US_PER_MS)
    assert streams == [(0, b"a0"), (1, b"b0"), (2, b"c0"), (0, b"a1"), (1, b"b1"), (0, b"a2")]


def test_past_sixteen_open_tickets_the_one_on_the_wire_keeps_going():
    scheduler, a, streams, _ = _tagged_pair()
    tickets = [a.send([bytes([i, 0]), bytes([i, 1])]) for i in range(17)]
    scheduler.run_until(1_000 * US_PER_MS)
    # Tickets 0-15 open under tags 0-15. Ticket 16 then finds no tag free,
    # so ticket 15 keeps the wire for its second frame, and on its
    # resolution ticket 16 opens under the tag it freed.
    assert streams[:18] == [(i, bytes([i, 0])) for i in range(16)] + [
        (15, bytes([15, 1])), (15, bytes([16, 0]))]
    assert streams[18:] == [(i, bytes([i, 1])) for i in range(15)] + [(15, bytes([16, 1]))]
    assert all(t.state is TicketState.DELIVERED for t in tickets)
    assert a._tags == 0


def test_a_give_up_frees_the_tag_of_a_part_sent_message():
    scheduler, a, b, ab, ba, _, _ = make_pair(LinkConfig(max_retries=1))
    streams = []
    b._deliver = lambda tag, payload: streams.append((tag, payload))
    long = a.send([b"l0", b"l1"])
    a.send([b"s"])
    ab.drop_plan = [False, True, True]  # after l0: s passes, l1 is lost twice
    scheduler.run_until(1_000 * US_PER_MS)
    assert long.state is TicketState.FAILED
    assert a._tags == 0
    again = a.send([b"x0", b"x1"])
    scheduler.run_until(2_000 * US_PER_MS)
    assert again.state is TicketState.DELIVERED
    assert streams == [(0, b"l0"), (1, b"s"), (0, b"x0"), (0, b"x1")]
