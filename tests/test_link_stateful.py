"""Stateful property test of a PortProtocol pair carrying whole messages.

Both ports send messages of 1-4 link chunks through `send_message` while
frames are dropped in either direction and time advances. The drops in
one run never exceed `max_retries`, so no frame can run out of retries:
every message must arrive, reassembled, in order and exactly once, and
the DELIVERED tickets must be exactly the messages that arrived (the last
one may still wait for its ACK).
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from modbot import messages as m
from modbot.link import LinkConfig, PortProtocol, TicketState
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
