"""Stateful property test of a PortProtocol pair carrying whole messages.

Both ports send messages of 1-4 link chunks through `send_message` while
frames are dropped in either direction and time advances. The drops in
one run never exceed `max_retries`, so no frame can run out of retries:
every message must arrive, reassembled, in order and exactly once, and
the DELIVERED tickets must be exactly the messages that arrived (the last
one may still wait for its ACK).

A second property feeds random streams of DATA frames, ACKs and junk,
cut at random points, to one port and to a reference port that hands
every decoded frame to the receive handler the link used before ACKs
were taken by table, given the last-delivered duplicate rule; both must
count, transmit and deliver the same.
"""

import itertools

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from modbot import messages as m
from modbot.link import (
    _ACK, _ACKS, _DELIVERED, Frame, FrameType, LinkConfig, PortProtocol, TicketState, encode_frame,
)
from modbot.sim import Scheduler, US_PER_MS

MAX_RETRIES = 3
HEADER = len(m.encode_message(m.ServiceMessage(m.Kind.BCAST, m.ROOT_ID, None)))
DIRECTIONS = ("ab", "ba")


class _Pipe:
    """One direction of the link: 1 ms delay, drops the next `drop_next` frames."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.receiver = None
        self.drop_next = 0

    def transmit(self, data: bytes) -> None:
        if self.drop_next:
            self.drop_next -= 1
        else:
            self.scheduler.call_after(US_PER_MS, lambda: self.receiver.on_bytes(data))


class LinkPairMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.scheduler = Scheduler()
        self.drops_left = MAX_RETRIES
        self.counter = 0
        self.pipes = {d: _Pipe(self.scheduler) for d in DIRECTIONS}
        self.sent = {d: [] for d in DIRECTIONS}  # (body, ticket) per send
        self.received = {d: [] for d in DIRECTIONS}  # reassembled bodies
        config = LinkConfig(ack_timeout_ms=10, max_retries=MAX_RETRIES)
        # Port "a" sends on pipe "ab" and receives from "ba"; "b" the reverse.
        self.ports = {
            name: PortProtocol(self.scheduler, self.pipes[out].transmit, self._receiver(into), config)
            for name, out, into in (("a", "ab", "ba"), ("b", "ba", "ab"))
        }
        self.pipes["ab"].receiver = self.ports["b"]
        self.pipes["ba"].receiver = self.ports["a"]

    def _receiver(self, d: str):
        reassembler = m.LinkReassembler()

        def deliver(payload: bytes) -> None:
            whole = reassembler.feed(payload)
            if whole is not None:
                self.received[d].append(m.decode_message(whole).body)

        return deliver

    @rule(d=st.sampled_from(DIRECTIONS), chunks=st.integers(1, 4), extra=st.integers(0, m.CHUNK_DATA_MAX - 1))
    def send(self, d, chunks, extra):
        self.counter += 1
        size = max(4, (chunks - 1) * m.CHUNK_DATA_MAX + 1 + extra - HEADER)
        body = self.counter.to_bytes(4, "big") + bytes(size - 4)
        msg = m.ServiceMessage(m.Kind.BCAST, m.ROOT_ID, None, body)
        assert len(msg.link_chunks) == chunks
        self.sent[d].append((body, m.send_message(self.ports[d[0]], msg)))

    @precondition(lambda self: self.drops_left > 0)
    @rule(d=st.sampled_from(DIRECTIONS), k=st.integers(1, MAX_RETRIES))
    def drop(self, d, k):
        k = min(k, self.drops_left)
        self.drops_left -= k
        self.pipes[d].drop_next += k

    @rule(ms=st.integers(1, 100))
    def advance(self, ms):
        self.scheduler.run_until(self.scheduler.now + ms * US_PER_MS)

    @invariant()
    def delivered_tickets_match_arrivals(self):
        for d in DIRECTIONS:
            bodies = [body for body, _ in self.sent[d]]
            states = [ticket.state for _, ticket in self.sent[d]]
            arrived = self.received[d]
            assert arrived == bodies[:len(arrived)]  # in order, exactly once
            done = states.count(TicketState.DELIVERED)
            assert states[:done] == [TicketState.DELIVERED] * done
            assert TicketState.FAILED not in states
            assert done <= len(arrived) <= done + 1

    def teardown(self):
        self.scheduler.run_until(self.scheduler.now + 60_000 * US_PER_MS)
        for d in DIRECTIONS:
            assert self.received[d] == [body for body, _ in self.sent[d]]
            assert all(t.state is TicketState.DELIVERED for _, t in self.sent[d])


LinkPairMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
test_link_pair_delivers_every_message_once_in_order = LinkPairMachine.TestCase


# The receive path against the one it replaced: a port whose on_bytes
# hands every frame of FrameDecoder.feed to `_handle_frame` as it stood
# before ACKs were taken by table and DATA handled in on_bytes, with the
# duplicate rule keyed on the last delivered seq.


class _ReferencePort(PortProtocol):
    def on_bytes(self, data: bytes) -> None:
        for frame in self._decoder.feed(data):
            self._handle_frame(frame)

    def _handle_frame(self, frame: Frame) -> None:
        if frame.frame_type is _ACK:
            ticket = self._outstanding
            if ticket is not None and ticket._seq == frame.seq:
                if ticket._timer is not None:
                    ticket._timer.cancel()
                if ticket._index + 1 < len(ticket._payloads):
                    self._start_next(ticket)
                    return
                self._outstanding = None
                ticket._resolve(_DELIVERED)
                if self._queue:
                    self._pump()
            else:
                self.stats.stale_acks += 1
            return
        # DATA: always acknowledge, deliver unless it repeats the last delivered seq.
        self._transmit(encode_frame(_ACKS[frame.seq]))
        self.stats.tx_acks += 1
        if frame.seq != self._last_seq:
            self._last_seq = frame.seq
            self.stats.rx_delivered += 1
            self._deliver(frame.payload)
        else:
            self.stats.rx_duplicates += 1


# Seqs 0-5 cover the six DATA frames each port sends below, so most ACKs
# match or repeat an outstanding seq and most DATA frames are expected or
# duplicates.
_wire_frames = st.builds(
    lambda data, seq, payload: encode_frame(
        Frame(FrameType.DATA, seq, payload) if data else Frame(FrameType.ACK, seq)),
    st.booleans(), st.integers(0, 5), st.binary(max_size=12),
)
_wire_junk = st.lists(st.one_of(st.just(0x7E), st.integers(0, 255)), min_size=1, max_size=8).map(bytes)


@st.composite
def _received_streams(draw):
    parts = draw(st.lists(st.one_of(_wire_frames, _wire_frames, _wire_junk), max_size=14))
    stream = b"".join(parts)
    boundaries = itertools.accumulate(len(p) for p in parts)
    cuts = {b for b in boundaries if draw(st.booleans())}
    cuts |= set(draw(st.lists(st.integers(0, len(stream)), max_size=5)))
    edges = [0, *sorted(cuts), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if a < b]


def _port(cls):
    """A port with three two-payload messages queued, and one list of what
    it transmitted and delivered, in order."""
    out = []
    port = cls(Scheduler(), lambda data: out.append(("tx", data)), lambda p: out.append(("rx", p)))
    tickets = [port.send([bytes([i, 0]), bytes([i, 1])]) for i in range(3)]
    return port, out, tickets


@settings(max_examples=200, deadline=None)
@given(_received_streams())
def test_receive_path_matches_the_reference_handler(pieces):
    ref, ref_out, ref_tickets = _port(_ReferencePort)
    port, out, tickets = _port(PortProtocol)
    for piece in pieces:
        ref.on_bytes(piece)
        port.on_bytes(piece)
        assert port.stats == ref.stats
        assert out == ref_out
        assert [t.state for t in tickets] == [t.state for t in ref_tickets]
        assert (port.crc_errors, port._decoder.junk_bytes) == (ref.crc_errors, ref._decoder.junk_bytes)
