"""Stateful property test of a PortProtocol pair carrying whole messages.

Both ports send messages of 1-4 link chunks through `send_message`, now
and then more than 16 multi-chunk ones at once, while frames are dropped
in either direction and time advances; the receivers reassemble each
stream tag on its own. The drops in one run never exceed `max_retries`,
so no frame can run out of retries. Every message must arrive exactly once
and whole; the DELIVERED tickets must be exactly the messages that arrived
(the last one may still wait for its ACK); one-chunk messages must arrive
in submission order; and at every frame sent, no two open tickets of a
port may share a tag.

A second property feeds random streams of DATA frames of any tag, ACKs
and junk, cut at random points, to one port and to a reference port that
hands every decoded frame to the receive handler the link used before ACKs
were taken by table, given the last-delivered duplicate rule; both must
count, transmit and deliver the same.
"""

import itertools
from collections import defaultdict

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from modbot import messages as m
from modbot.link import (
    _ACK, _ACKS, TAGS, Frame, FrameType, LinkConfig, PortProtocol, TicketState, encode_frame,
)
from modbot.sim import Scheduler, US_PER_MS

from conftest import LINK

MAX_RETRIES = 3
HEADER = len(m.encode_message(m.ServiceMessage(m.Kind.BCAST, m.ROOT_ID, None)))
DIRECTIONS = ("ab", "ba")


class _Pipe:
    """One direction of the link: 1 ms delay, drops the next `drop_next`
    frames, and runs `check` on each frame sent."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self.receiver = None
        self.drop_next = 0
        self.check = lambda: None

    def transmit(self, data: bytes) -> None:
        self.check()
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
        self.sending = None
        self.pipes = {d: _Pipe(self.scheduler) for d in DIRECTIONS}
        self.sent = {d: [] for d in DIRECTIONS}  # (body, ticket, chunks) per send
        self.received = {d: [] for d in DIRECTIONS}  # reassembled bodies
        config = LinkConfig(ack_timeout_ms=10, max_retries=MAX_RETRIES)
        # Port "a" sends on pipe "ab" and receives from "ba"; "b" the reverse.
        self.ports = {
            name: PortProtocol(self.scheduler, self.pipes[out].transmit, self._receiver(into), config)
            for name, out, into in (("a", "ab", "ba"), ("b", "ba", "ab"))
        }
        for d in DIRECTIONS:
            self.pipes[d].receiver = self.ports[d[1]]
            self.pipes[d].check = lambda d=d: self._open_tags_differ(d)

    def _receiver(self, d: str):
        reassemblers = defaultdict(m.LinkReassembler)  # one per stream tag

        def deliver(tag: int, payload: bytes) -> None:
            whole = reassemblers[tag].feed(payload)
            if whole is not None:
                self.received[d].append(m.decode_message(whole).body)

        return deliver

    def _send(self, d: str, chunks: int, extra: int) -> None:
        self.counter += 1
        size = max(4, (chunks - 1) * m.CHUNK_DATA_MAX + 1 + extra - HEADER)
        body = self.counter.to_bytes(4, "big") + bytes(size - 4)
        msg = m.ServiceMessage(m.Kind.BCAST, m.ROOT_ID, None, body)
        assert len(msg.link_chunks) == chunks
        self.sending = d  # the new ticket is not in self.sent until send returns
        self.sent[d].append((body, m.send_message(self.ports[d[0]], msg), chunks))
        self.sending = None

    def _open_tags_differ(self, d: str) -> None:
        """No two open tickets of the port hold one tag, and the port's tag
        mask is exactly theirs."""
        if self.sending == d:
            return
        tags = [ticket._tag for _, ticket, _ in self.sent[d]
                if ticket._index >= 0 and not ticket.done]
        assert len(set(tags)) == len(tags) <= TAGS
        assert self.ports[d[0]]._tags == sum(1 << tag for tag in tags)

    @rule(d=st.sampled_from(DIRECTIONS), chunks=st.integers(1, 4), extra=st.integers(0, m.CHUNK_DATA_MAX - 1))
    def send(self, d, chunks, extra):
        self._send(d, chunks, extra)

    @rule(d=st.sampled_from(DIRECTIONS), count=st.integers(TAGS + 1, TAGS + 4),
          chunks=st.integers(2, 4), extra=st.integers(0, m.CHUNK_DATA_MAX - 1))
    def flood(self, d, count, chunks, extra):
        """Queue more multi-chunk messages on one port than there are tags."""
        for _ in range(count):
            self._send(d, chunks, extra)

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
            bodies = {body for body, _, _ in self.sent[d]}
            arrived = self.received[d]
            assert len(set(arrived)) == len(arrived)  # exactly once
            assert set(arrived) <= bodies  # whole: each is a sent body, byte for byte
            states = [ticket.state for _, ticket, _ in self.sent[d]]
            assert TicketState.FAILED not in states
            done = {body for body, ticket, _ in self.sent[d] if ticket.state is TicketState.DELIVERED}
            assert done <= set(arrived) and len(arrived) <= len(done) + 1
            one_chunk = [body for body, _, chunks in self.sent[d] if chunks == 1]
            arrived_one_chunk = [body for body in arrived if body in set(one_chunk)]
            assert arrived_one_chunk == one_chunk[:len(arrived_one_chunk)]  # in order
            self._open_tags_differ(d)

    def teardown(self):
        self.scheduler.run_until(self.scheduler.now + 60_000 * US_PER_MS)
        for d in DIRECTIONS:
            assert sorted(self.received[d]) == sorted(body for body, _, _ in self.sent[d])
            assert all(t.state is TicketState.DELIVERED for _, t, _ in self.sent[d])
            assert self.ports[d[0]]._tags == 0


LinkPairMachine.TestCase.settings = LINK
test_link_pair_delivers_every_message_once_and_whole = LinkPairMachine.TestCase


# The receive path against the one it replaced: a port whose on_bytes
# hands every frame of FrameDecoder.feed to `_handle_frame` as it stood
# before ACKs were taken by table and DATA handled in on_bytes, with the
# duplicate rule keyed on the last delivered seq. What the sender does with
# a matching ACK is `_on_ack`'s queue discipline, so both ports run it.


class _ReferencePort(PortProtocol):
    def on_bytes(self, data: bytes) -> None:
        for frame in self._decoder.feed(data):
            self._handle_frame(frame)

    def _handle_frame(self, frame: Frame) -> None:
        if frame.frame_type is _ACK:
            ticket = self._outstanding
            if ticket is not None and ticket._seq == frame.seq:
                self._on_ack(frame.seq)
            else:
                self.stats.stale_acks += 1
            return
        # DATA: always acknowledge, deliver unless it repeats the last delivered seq.
        self._transmit(encode_frame(_ACKS[frame.seq]))
        self.stats.tx_acks += 1
        if frame.seq != self._last_seq:
            self._last_seq = frame.seq
            self.stats.rx_delivered += 1
            self._deliver(frame.tag, frame.payload)
        else:
            self.stats.rx_duplicates += 1


# Seqs 0-5 cover the six DATA frames each port sends below, so most ACKs
# match or repeat an outstanding seq and most DATA frames are expected or
# duplicates.
_wire_frames = st.builds(
    lambda data, seq, payload, tag: encode_frame(
        Frame(FrameType.DATA, seq, payload, tag) if data else Frame(FrameType.ACK, seq)),
    st.booleans(), st.integers(0, 5), st.binary(max_size=12), st.integers(0, TAGS - 1),
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
    port = cls(Scheduler(), lambda data: out.append(("tx", data)),
               lambda tag, p: out.append(("rx", tag, p)))
    tickets = [port.send([bytes([i, 0]), bytes([i, 1])]) for i in range(3)]
    return port, out, tickets


@settings(LINK, max_examples=5 * LINK.max_examples)
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
