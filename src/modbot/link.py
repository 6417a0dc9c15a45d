"""Reliable point-to-point link: framing, CRC, and stop-and-wait ARQ.

Wire frame, bit exact:

    +------+------+-----+-------------+---------+--------+
    | 0x7E | type | seq | len (2, BE) | payload | crc    |
    | 1 B  | 1 B  | 1 B | 2 B         | 0-255 B | 2 B BE |
    +------+------+-----+-------------+---------+--------+

type: 0x01 | tag << 4 = DATA of stream tag 0-15, 0x02 = ACK. crc:
CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no final xor)
over type..payload. There is no byte stuffing; a receiver resynchronizes by
scanning for 0x7E and validating length and CRC, and skips a start whose
length reaches past a whole valid frame behind it.

One PortProtocol instance runs per module port. The sender keeps at most
one unacknowledged DATA frame outstanding, retransmits it on timeout, and
gives up after max_retries, reporting the failure on the send ticket. Its
queued messages take turns frame by frame, each under the stream tag it
opened with (see PortProtocol). The receiver acknowledges every valid DATA
frame and delivers a payload upward, with its tag, only when its seq
differs from that of the last frame it delivered: with one frame in flight
and no reordering, a duplicate from a lost ACK repeats that seq (the
alternating-bit rule). After exactly 255 give-ups in a row a fresh frame
repeats it too, and is dropped while its ticket reads DELIVERED.

The 256 ACK frames are encoded once, at import. A port takes bytes equal
to one of them, met on an empty decoder buffer, by table lookup; the
decoder parses bytes that are exactly one DATA frame in place.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional, Sequence

from .sim import Scheduler, Timer, US_PER_MS

START_BYTE = 0x7E
MAX_PAYLOAD = 255
TAGS = 16  # stream tags, the high nibble of a DATA frame's type byte
_ALL_TAGS = (1 << TAGS) - 1
_MIN_FRAME = 7  # start + type + seq + len16 + crc16
_START = bytes([START_BYTE])
_HEADER = struct.Struct(">BBH")  # type, seq, len
_CRC = struct.Struct(">H")


class LinkError(Exception):
    pass


class EncodingError(LinkError):
    pass


class FrameError(LinkError):
    """A byte buffer did not yield the frame it was asked for."""


class ChecksumError(FrameError):
    pass


class NeedMoreData(FrameError):
    pass


class FrameType(IntEnum):
    DATA = 0x01
    ACK = 0x02


class TicketState(IntEnum):
    PENDING = 0
    DELIVERED = 1
    FAILED = 2


# Module globals load faster than enum members such as FrameType.DATA.
_DATA, _ACK = FrameType
_PENDING, _DELIVERED, _FAILED = TicketState


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE via binascii.crc_hqx; crc16(b"123456789") == 0x29B1."""
    return crc_hqx(data, 0xFFFF)


@dataclass(slots=True)
class Frame:
    frame_type: FrameType
    seq: int
    payload: bytes = b""
    tag: int = 0  # a DATA frame's stream

    def __post_init__(self):
        if not 0 <= self.seq <= 0xFF:
            raise EncodingError(f"seq out of range: {self.seq}")
        if not 0 <= self.tag < TAGS:
            raise EncodingError(f"tag out of range: {self.tag}")
        if self.frame_type is _ACK and (self.payload or self.tag):
            raise EncodingError("ACK frames carry no payload and no tag")


# Every ACK there can be, encoded, and its inverse: bytes equal to one of
# these frames are that ACK, CRC included.
_ACKS = tuple(Frame(_ACK, seq) for seq in range(256))
_ACK_BYTES = tuple(_START + body + _CRC.pack(crc16(body))
                   for body in (_HEADER.pack(_ACK, seq, 0) for seq in range(256)))
_ACK_SEQ = {frame: seq for seq, frame in enumerate(_ACK_BYTES)}


def encode_frame(frame: Frame) -> bytes:
    if frame.frame_type is _ACK:
        return _ACK_BYTES[frame.seq]
    payload = frame.payload
    if len(payload) > MAX_PAYLOAD:
        raise EncodingError(f"payload too long: {len(payload)} > {MAX_PAYLOAD}")
    body = _HEADER.pack(frame.frame_type | frame.tag << 4, frame.seq, len(payload)) + payload
    return _START + body + _CRC.pack(crc16(body))


def _parse_at(data: bytes, pos: int):
    """Try to read one frame starting at data[pos] (which must be 0x7E).

    Returns ("frame", Frame, end) | ("need", None, pos) | ("bad", None, pos).
    A frame that passes its CRC is still "bad" unless it is DATA (of any
    tag) or an ACK without payload or tag. Those are Frame.__post_init__'s
    checks (seq is one byte), so the decoded Frame is built without
    re-running it.
    """
    if len(data) - pos < _MIN_FRAME:
        return "need", None, pos
    length = (data[pos + 3] << 8) | data[pos + 4]
    end = pos + _MIN_FRAME + length
    if length > MAX_PAYLOAD:
        return "bad", None, pos
    if len(data) < end:
        return "need", None, pos
    if crc16(data[pos + 1:end - 2]) != (data[end - 2] << 8) | data[end - 1]:
        return "bad", None, pos
    ftype = data[pos + 1]
    if ftype & 0x0F == 0x01:
        frame_type = _DATA
    elif ftype == 0x02 and not length:
        frame_type = _ACK
    else:
        return "bad", None, pos
    frame = object.__new__(Frame)
    frame.frame_type = frame_type
    frame.seq = data[pos + 2]
    frame.payload = bytes(data[pos + 5:end - 2])
    frame.tag = ftype >> 4
    return "frame", frame, end


def decode_frame(data: bytes) -> Frame:
    """Decode the first valid frame found in data.

    Leading garbage is skipped by scanning for the start byte. Raises
    ChecksumError if a framed candidate failed its CRC (or was otherwise
    malformed) and no valid frame followed; NeedMoreData if the buffer
    holds no complete frame candidate at all.
    """
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    if frames:
        return frames[0]
    if decoder.crc_errors:
        raise ChecksumError("corrupt frame")
    raise NeedMoreData("no complete frame")


class FrameDecoder:
    """Streaming decoder with resynchronization; feeds the port handler."""

    __slots__ = ("_buf", "crc_errors", "junk_bytes")

    def __init__(self):
        self._buf = bytearray()
        self.crc_errors = 0
        self.junk_bytes = 0

    def feed(self, data: bytes) -> list[Frame]:
        """The frames data completes, in order. A port feeds only bytes that
        meet a non-empty buffer or are not one whole ACK frame."""
        buf = self._buf
        n = len(data)
        if (not buf and _MIN_FRAME <= n <= _MIN_FRAME + MAX_PAYLOAD and data[0] == START_BYTE
                and data[1] & 0x0F == 0x01 and n == _MIN_FRAME + ((data[3] << 8) | data[4])
                and crc16(data[1:-2]) == (data[-2] << 8) | data[-1]):
            # Fast path: nothing buffered and data is exactly one DATA frame;
            # built the way _parse_at builds one.
            frame = object.__new__(Frame)
            frame.frame_type, frame.seq, frame.payload = _DATA, data[2], bytes(data[5:-2])
            frame.tag = data[1] >> 4
            return [frame]
        buf.extend(data)
        frames: list[Frame] = []
        pos = 0
        while True:
            start = buf.find(START_BYTE, pos)
            if start < 0:
                self.junk_bytes += len(buf) - pos
                pos = len(buf)
                break
            self.junk_bytes += start - pos
            status, frame, end = _parse_at(buf, start)
            if status == "frame":
                frames.append(frame)
                pos = end
            elif status == "need" and not any(  # and no whole frame behind it
                    buf[i] == START_BYTE and _parse_at(buf, i)[0] == "frame"
                    for i in range(start + 1, len(buf) - _MIN_FRAME + 1)):
                pos = start
                break
            else:
                # A false or corrupt start, or one whose length reaches past a
                # whole frame: count once, rescan one byte later.
                self.crc_errors += 1
                pos = start + 1
        del buf[:pos]
        return frames


@dataclass
class LinkConfig:
    """Per-port protocol parameters (times in simulated units)."""

    ack_timeout_ms: int = 100
    max_retries: int = 5

    def __post_init__(self):
        if self.ack_timeout_ms <= 0:
            raise ValueError("ack_timeout_ms must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


class Ticket:
    """One send (one message's payloads, see PortProtocol.send) and the
    sender's queue entry for it. Resolves once: DELIVERED when its last
    frame was acknowledged and FAILED when one frame ran out of retries or
    the send was cancelled. `transmissions` is 1 once the first frame left,
    plus 1 per retransmission of any of its frames. The underscored fields
    belong to the sending PortProtocol; `_tag` is the stream tag that the
    ticket's frames carry, chosen when its first frame leaves. `_callbacks`
    is None until the first `on_done` (beacons and INVOKEs never call it)
    and again once the ticket resolves, so it keeps none alive."""

    __slots__ = ("state", "transmissions", "_callbacks",
                 "_payloads", "_index", "_frame", "_seq", "_retries_used", "_timer", "_tag")

    def __init__(self, payloads: Sequence[bytes]):
        self.state = _PENDING
        self.transmissions = 0
        self._callbacks: Optional[tuple[Callable[["Ticket"], None], ...]] = None
        self._payloads = payloads
        self._index = -1  # of the payload on the wire
        self._frame = b""  # encoded once its seq is known; retransmissions resend it
        self._seq = 0
        self._retries_used = 0
        self._timer: Optional[Timer] = None
        self._tag = 0

    @property
    def done(self) -> bool:
        return self.state is not _PENDING

    def on_done(self, fn: Callable[["Ticket"], None]) -> None:
        if self.state is not _PENDING:
            fn(self)
        else:
            self._callbacks = (fn,) if self._callbacks is None else (*self._callbacks, fn)

    def _resolve(self, state: TicketState) -> None:
        if self.state is not _PENDING:
            return
        self.state = state
        callbacks, self._callbacks = self._callbacks, None
        for fn in callbacks or ():
            fn(self)


@dataclass(slots=True)
class LinkStats:
    tx_data: int = 0
    tx_acks: int = 0
    rx_delivered: int = 0
    rx_duplicates: int = 0
    stale_acks: int = 0
    give_ups: int = 0


class PortProtocol:
    """Stop-and-wait protocol instance for one module port.

    Outgoing messages queue, one ticket each, behind the single outstanding
    frame, and take turns frame by frame: after the ACK of a ticket's
    non-final frame the ticket moves to the back of the queue if another
    one waits there. A ticket opens when its first frame leaves, under the
    lowest stream tag that no other open ticket holds (tag 0 when none is
    open), and holds it until it resolves. At most TAGS tickets are open at
    once: when every tag is held and the queue's head has not opened, the
    ticket on the wire keeps going instead of yielding. Tickets open in
    submission order, so one-frame messages arrive in submission order on
    a healthy link, and while a tag is free a message waits at most one
    frame per ticket ahead of it.

    `on_bytes` takes a whole ACK met on an empty decoder buffer from the
    ACK table and feeds all other bytes to `FrameDecoder.feed`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        transmit: Callable[[bytes], None],
        deliver: Callable[[int, bytes], None],  # (tag, payload)
        config: LinkConfig | None = None,
    ):
        self._scheduler = scheduler
        self._transmit = transmit
        self._deliver = deliver
        self.config = config or LinkConfig()
        self.stats = LinkStats()
        self._decoder = FrameDecoder()
        self._queue: deque[Ticket] = deque()
        self._outstanding: Ticket | None = None
        self._tags = 0  # bit t set while an open ticket holds tag t
        self._next_seq = 0
        self._last_seq = 0xFF  # seq of the last DATA frame delivered
        self._on_timeout = self._on_timeout  # bound once: armed for every DATA frame

    @property
    def crc_errors(self) -> int:
        return self._decoder.crc_errors

    def send(self, payloads: Sequence[bytes]) -> Ticket:
        """Queue one message's payloads (one or more) as one ticket. They
        leave in order, taking turns with other tickets' frames, each with
        the next seq, the ticket's tag and a fresh retry budget; the first
        give-up fails the ticket and drops the payloads not yet sent. The
        sequence is kept, not copied, so it must not change afterwards."""
        if not payloads:
            raise EncodingError("empty message")
        for payload in payloads:
            if len(payload) > MAX_PAYLOAD:
                raise EncodingError(f"payload too long: {len(payload)}")
        ticket = Ticket(payloads)
        if self._outstanding is None and not self._queue:  # idle: on the wire at once
            self._outstanding = ticket
            self._start_next(ticket)
        else:
            self._queue.append(ticket)
            if self._outstanding is None:  # sent from a callback of the ticket just done
                self._pump()
        return ticket

    def cancel(self, ticket: Ticket) -> bool:
        """Withdraw a queued message; fails its ticket and sends none of its
        frames that have not left."""
        if ticket not in self._queue:
            return False
        self._queue.remove(ticket)
        if ticket._index >= 0:  # it had opened
            self._tags &= ~(1 << ticket._tag)
        ticket._resolve(_FAILED)
        return True

    def on_bytes(self, data: bytes) -> None:
        if not self._decoder._buf and len(data) == _MIN_FRAME and data in _ACK_SEQ:
            self._on_ack(_ACK_SEQ[data])
            return
        for frame in self._decoder.feed(data):
            seq = frame.seq
            if frame.frame_type is _ACK:
                self._on_ack(seq)
                continue
            # DATA: always acknowledge, deliver unless it repeats the last delivered seq.
            self._transmit(encode_frame(_ACKS[seq]))
            self.stats.tx_acks += 1
            if seq != self._last_seq:
                self._last_seq = seq
                self.stats.rx_delivered += 1
                self._deliver(frame.tag, frame.payload)
            else:
                self.stats.rx_duplicates += 1

    # internal

    def _pump(self) -> None:
        if self._outstanding is not None or not self._queue:
            return
        ticket = self._outstanding = self._queue.popleft()
        self._start_next(ticket)

    def _start_next(self, ticket: Ticket) -> None:
        """Put the ticket's next payload on the wire under the next seq; the
        first one opens the ticket under the lowest free tag."""
        index = ticket._index = ticket._index + 1
        if not index:
            tags = self._tags
            free = ~tags & (tags + 1)  # the lowest clear bit
            self._tags = tags | free
            ticket._tag = free.bit_length() - 1
            ticket.transmissions = 1
        seq = ticket._seq = self._next_seq
        self._next_seq = (seq + 1) & 0xFF
        ticket._retries_used = 0
        frame = object.__new__(Frame)  # valid as built, like the decoder's frames
        frame.frame_type, frame.seq, frame.payload = _DATA, seq, ticket._payloads[index]
        frame.tag = ticket._tag
        ticket._frame = encode_frame(frame)
        self._transmit(ticket._frame)
        self.stats.tx_data += 1
        ticket._timer = self._scheduler.call_at(
            self._scheduler.now + self.config.ack_timeout_ms * US_PER_MS, self._on_timeout)

    def _on_timeout(self) -> None:
        ticket = self._outstanding
        if ticket is None:
            return
        if ticket._retries_used >= self.config.max_retries:
            self._outstanding = None
            self._tags &= ~(1 << ticket._tag)
            self.stats.give_ups += 1
            ticket._resolve(_FAILED)
            self._pump()
        else:
            ticket._retries_used += 1
            ticket.transmissions += 1
            self._transmit(ticket._frame)
            self.stats.tx_data += 1
            ticket._timer = self._scheduler.call_at(
                self._scheduler.now + self.config.ack_timeout_ms * US_PER_MS, self._on_timeout)

    def _on_ack(self, seq: int) -> None:
        ticket = self._outstanding
        if ticket is None or ticket._seq != seq:
            self.stats.stale_acks += 1
            return
        ticket._timer.cancel()  # an outstanding ticket always has its timer armed
        if ticket._index + 1 < len(ticket._payloads):
            queue = self._queue
            # Yield to the queue's head, unless it would need a tag and none is free.
            if queue and (queue[0]._index >= 0 or self._tags != _ALL_TAGS):
                queue.append(ticket)
                ticket = self._outstanding = queue.popleft()
            self._start_next(ticket)
            return
        self._outstanding = None
        self._tags &= ~(1 << ticket._tag)
        ticket._resolve(_DELIVERED)
        if self._queue:
            self._pump()
