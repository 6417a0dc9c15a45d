"""Message codec, chunking, and reassembly."""

import dataclasses
import random
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from modbot import messages as m
from modbot.link import LinkConfig, MAX_PAYLOAD, PortProtocol, TicketState, decode_frame
from modbot.sim import Scheduler, US_PER_MS

from conftest import CODEC


def test_module_id_basics():
    assert str(m.ROOT_ID) == "0"
    assert str(m.ModuleId((0, 3, 1))) == "0.3.1"
    assert str(m.ModuleId((0,)).child(3)) == "0.3"
    assert str(m.ModuleId((0, 3)).child(1)) == "0.3.1"
    assert m.ModuleId(()).unassigned and str(m.ModuleId(())) == ""


def test_decoded_ids_are_shared_without_changing_identity_semantics():
    wire = m.encode_message(m.ServiceMessage(m.Kind.HELLO, m.ModuleId((0, 2)), None))
    assert wire == bytes([1, 2, 0, 2])  # kind, 2 hops, ports 0 and 2; a HELLO has no dst_app
    first, second = m.decode_message(wire), m.decode_message(wire)
    assert first.src is second.src  # one immutable instance per id's port bytes
    assert str(first.src) == "0.2"
    fresh = m.ModuleId((0, 2))  # its text is not cached yet; first.src's is
    assert first.src == fresh and hash(first.src) == hash(fresh)
    assert len({first.src, fresh, m.ModuleId((0, 2))}) == 1
    assert first.src != m.ModuleId((0, 2, 0))
    for _ in range(2):  # bad ids are not memoised as good
        with pytest.raises(m.ProtocolError):
            m.decode_message(bytes([1, 0x80, 0x00]))


def id_bytes(module_id: m.ModuleId) -> bytes:
    """The id codec's reference: hop count as a little-endian base-128
    varint of one or two bytes, then one byte per port index."""
    hops = len(module_id.path)
    length = bytes([hops]) if hops < 0x80 else bytes([0x80 | hops % 0x80, hops // 0x80])
    return length + bytes(module_id.path)


# The header fields each kind carries, the reference for the codec's table:
# src where the receiver reads the sender's id, dst_app where the kind
# addresses an app (docs/protocol.md).
HEADER = {
    m.Kind.HELLO: ("src",), m.Kind.VERSION_ANNOUNCE: ("src",), m.Kind.BCAST: ("src",),
    m.Kind.CODE_PUSH: ("src",), m.Kind.APPDATA: ("src", "dst_app"), m.Kind.INVOKE: ("dst_app",),
    m.Kind.REPLY: (), m.Kind.FILE: (), m.Kind.EXEC: (), m.Kind.START: (),
}


def carried(msg: m.ServiceMessage) -> m.ServiceMessage:
    """msg as decoding its encoding gives it back: None in each header
    field that its kind does not carry."""
    return dataclasses.replace(msg, **{name: None for name in ("src", "dst_app")
                                       if name not in HEADER[msg.kind]})


# Paths of 0-20 hops, and paths at the varint's boundary lengths made by
# repeating a short byte pattern.
_paths = st.one_of(
    st.lists(st.integers(0, m.MAX_PORT), max_size=20),
    st.tuples(st.sampled_from([127, 128, 16_383]), st.binary(min_size=1, max_size=8)).map(
        lambda case: list((case[1] * case[0])[:case[0]])))


@settings(CODEC, max_examples=2 * CODEC.max_examples)
@given(_paths, st.binary(max_size=4), st.binary(max_size=4))
def test_id_codec_round_trips_every_path_up_to_the_hop_limit(path, before, after):
    module_id = m.ModuleId(tuple(path))
    raw = m._put_id(module_id)
    assert raw == id_bytes(module_id)
    assert m._get_id(before + raw + after, len(before)) == (module_id, len(before) + len(raw))
    for cut in {0, 1, 2, len(raw) // 2, len(raw) - 1} & set(range(len(raw))):
        with pytest.raises(m.ProtocolError, match="truncated module id"):
            m._get_id(raw[:cut], 0)


@pytest.mark.parametrize("path, error", [
    ((0,) * 16_384, "16384 hops is too long"),
    ((0, 256), "port index outside 0-255"),
    ((0, -1), "port index outside 0-255"),
], ids=["16384-hops", "port-256", "port-negative"])
def test_id_codec_refuses_an_id_it_cannot_carry(path, error):
    with pytest.raises(m.ProtocolError, match=error):
        m._put_id(m.ModuleId(path))
    with pytest.raises(m.ProtocolError, match=error):
        m.encode_message(m.ServiceMessage(m.Kind.HELLO, m.ModuleId(path), None))


@pytest.mark.parametrize("raw", [
    b"", b"\x02\x00", b"\x81", b"\x80\x01" + bytes(127),  # truncated
    b"\x80\x00", b"\xff\x00\x00",  # non-minimal: 0 and 127 in two bytes
    b"\x80\x80\x01",  # a third varint byte (16,384 hops)
])
def test_id_codec_refuses_truncated_and_non_minimal_fields(raw):
    with pytest.raises(m.ProtocolError, match="module id"):
        m._get_id(raw, 0)
    with pytest.raises(m.ProtocolError, match="module id"):
        m.decode_message(bytes([m.Kind.HELLO]) + raw)


# The body builders the layouts replaced, kept as the byte-level reference.

def _pstr(text: str) -> bytes:
    raw = text.encode("utf-8")
    return bytes([len(raw)]) + raw


def version_body(version: int) -> bytes:
    return struct.pack(">I", version)


def appdata_body(req_id: int, src_app: str, data: bytes) -> bytes:
    return struct.pack(">I", req_id) + _pstr(src_app) + data


def bcast_body(src_app: str, data: bytes) -> bytes:
    return _pstr(src_app) + data


def invoke_body(role: str, command: str) -> bytes:
    return _pstr(role) + command.encode("utf-8")


def file_body(req_id: int, name: str, data: bytes) -> bytes:
    return struct.pack(">I", req_id) + _pstr(name) + data


def request_body(req_id: int, text: str) -> bytes:
    return struct.pack(">I", req_id) + text.encode("utf-8")


def code_push_body(version: int, new_id: m.ModuleId, image: bytes) -> bytes:
    return struct.pack(">I", version) + id_bytes(new_id) + image


def test_message_roundtrip_every_kind():
    # Each sample holds exactly the header fields its kind carries, as
    # (message, its header bytes).
    samples = [
        (m.ServiceMessage(m.Kind.HELLO, m.ROOT_ID, None, m.VERSION.pack(3)), b"\x01\x01\x00"),
        (m.ServiceMessage(m.Kind.APPDATA, m.ModuleId((0, 1)), "ctl",
                          m.APPDATA.pack(7, "src", b"\x00\x01payload")), b"\x02\x02\x00\x01\x03ctl"),
        (m.ServiceMessage(m.Kind.BCAST, m.ROOT_ID, None, m.BCAST.pack("app", b"data")),
         b"\x03\x01\x00"),
        (m.ServiceMessage(m.Kind.INVOKE, None, "car.role", m.INVOKE.pack("Wheel", "evade")),
         b"\x04\x08car.role"),
        (m.ServiceMessage(m.Kind.REPLY, None, None, m.REQUEST.pack(1, "OK center=EAST_WEST")),
         b"\x05"),
        (m.ServiceMessage(m.Kind.VERSION_ANNOUNCE, m.ModuleId(()), None, m.VERSION.pack(0)),
         b"\x06\x00"),
        (m.ServiceMessage(m.Kind.CODE_PUSH, m.ROOT_ID, None,
                          m.CODE_PUSH.pack(2, m.ModuleId((0, 3)), b"image")), b"\x07\x01\x00"),
        (m.ServiceMessage(m.Kind.FILE, None, None, m.FILE.pack(8, "a.role", b"text")), b"\x08"),
        (m.ServiceMessage(m.Kind.EXEC, None, None, m.REQUEST.pack(4, "STATE")), b"\x09"),
        (m.ServiceMessage(m.Kind.START, None, None, m.REQUEST.pack(4, "a.role")), b"\x0a"),
    ]
    assert sorted(msg.kind for msg, _ in samples) == sorted(m.Kind)
    for msg, header in samples:
        wire = m.encode_message(msg)
        assert wire == header + msg.body
        assert m.decode_message(wire) == msg


def test_body_parsers():
    assert m.VERSION.unpack(version_body(9)) == (9,)
    assert m.APPDATA.unpack(appdata_body(3, "a", b"xy")) == (3, "a", b"xy")
    assert m.BCAST.unpack(bcast_body("a", b"zz")) == ("a", b"zz")
    assert m.INVOKE.unpack(invoke_body("Wheel", "evade")) == ("Wheel", "evade")
    assert m.FILE.unpack(file_body(5, "f", b"d")) == (5, "f", b"d")
    assert m.REQUEST.unpack(request_body(2, "line")) == (2, "line")
    assert m.CODE_PUSH.unpack(code_push_body(2, m.ModuleId((0, 1)), b"img")) == (
        2, m.ModuleId((0, 1)), b"img")


_u32 = st.integers(0, 2**32 - 1)
_text = st.text(max_size=16)  # at most 64 UTF-8 bytes, so it fits a pstr
_ids = st.lists(st.integers(0, 255), max_size=6).map(lambda path: m.ModuleId(tuple(path)))

# layout name: (kinds that carry it, values strategy, reference builder of the values)
_LAYOUTS = {
    "VERSION": ((m.Kind.HELLO, m.Kind.VERSION_ANNOUNCE), st.tuples(_u32), version_body),
    "APPDATA": ((m.Kind.APPDATA,), st.tuples(_u32, _text, st.binary(max_size=64)), appdata_body),
    "BCAST": ((m.Kind.BCAST,), st.tuples(_text, st.binary(max_size=64)), bcast_body),
    "INVOKE": ((m.Kind.INVOKE,), st.tuples(_text, st.text(max_size=64)), invoke_body),
    "FILE": ((m.Kind.FILE,), st.tuples(_u32, _text, st.binary(max_size=64)), file_body),
    "REQUEST": ((m.Kind.EXEC, m.Kind.START, m.Kind.REPLY), st.tuples(_u32, st.text(max_size=64)),
                request_body),
    "CODE_PUSH": ((m.Kind.CODE_PUSH,), st.tuples(_u32, _ids, st.binary(max_size=64)),
                  code_push_body),
}


@st.composite
def _messages(draw):
    """(layout name, values, message whose body the layout packs)."""
    name = draw(st.sampled_from(sorted(_LAYOUTS)))
    kinds, values, _ = _LAYOUTS[name]
    values = draw(values)
    msg = m.ServiceMessage(draw(st.sampled_from(kinds)), draw(_ids),
                           draw(st.none() | st.text(min_size=1, max_size=16)),
                           getattr(m, name).pack(*values))
    return name, values, msg


@CODEC
@given(_messages())
def test_layouts_pack_the_reference_bytes_and_round_trip(case):
    name, values, msg = case
    assert msg.body == _LAYOUTS[name][2](*values)
    assert getattr(m, name).unpack(msg.body) == values
    assert m.decode_message(m.encode_message(msg)) == carried(msg)


@CODEC
@given(_messages())
def test_a_header_holds_the_kind_and_only_the_fields_the_kind_carries(case):
    msg = case[2]
    fields = HEADER[msg.kind]
    src = id_bytes(msg.src) if "src" in fields else b""
    dst_app = _pstr(msg.dst_app or "") if "dst_app" in fields else b""
    wire = m.encode_message(msg)
    assert len(wire) == 1 + len(src) + len(dst_app) + len(msg.body)
    assert wire == bytes([msg.kind]) + src + dst_app + msg.body
    back = m.decode_message(wire)
    for name in ("src", "dst_app"):
        if name not in fields:
            assert getattr(back, name) is None, name


@CODEC
@given(_messages())
def test_decoder_refuses_a_message_cut_inside_its_header(case):
    # Every cut short of the body, each field boundary among them: before
    # the kind byte, before src and before dst_app.
    msg = case[2]
    wire = m.encode_message(msg)
    for cut in range(len(wire) - len(msg.body)):
        with pytest.raises(m.ProtocolError):
            m.decode_message(wire[:cut])


@settings(CODEC, max_examples=2 * CODEC.max_examples)
@given(st.sampled_from(sorted(_LAYOUTS)), st.one_of(
    st.binary(max_size=64),
    _messages().flatmap(lambda case: st.integers(0, len(case[2].body)).map(
        lambda n: case[2].body[:n])),
))
def test_layouts_unpack_any_bytes_to_a_tuple_or_protocol_error(name, body):
    try:
        values = getattr(m, name).unpack(body)
    except m.ProtocolError:
        return
    assert isinstance(values, tuple)


def test_decode_rejects_malformed():
    with pytest.raises(m.ProtocolError):
        m.decode_message(b"")
    with pytest.raises(m.ProtocolError):
        m.decode_message(bytes([99, 0, 0]))  # unknown kind
    with pytest.raises(m.ProtocolError):
        m.decode_message(bytes([1, 200]))  # truncated pstr
    with pytest.raises(m.ProtocolError):
        m.FILE.unpack(m.FILE.pack(1, "file", b"")[:7])  # truncated name
    with pytest.raises(m.ProtocolError, match="truncated body"):
        m.APPDATA.unpack(m.APPDATA.pack(1, "a", b"")[:3])  # truncated req_id


def test_protocol_doc_layout_table_matches_the_code():
    """docs/protocol.md's layout table names every Layout in messages.py
    once, each with the kinds that carry it and the header fields those
    kinds carry, and every Kind with its value."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()
    rows = re.findall(r"^\| ([A-Z_]+) *\| ([^|]+)\| ([^|]+)\|", doc, re.MULTILINE)
    layouts = [name for name, value in vars(m).items() if isinstance(value, m.Layout)]
    assert sorted(name for name, _, _ in rows) == sorted(layouts) == sorted(_LAYOUTS)
    values: dict[str, set[int]] = {}
    for name, kinds, header in rows:
        named = re.findall(r"([A-Z_]+) \((\d+)\)", kinds)
        assert {kind for kind, _ in named} == {kind.name for kind in _LAYOUTS[name][0]}, name
        fields = tuple(re.findall(r"`(src|dst_app)`", header))
        assert fields or header.strip() == "none", name
        for kind, value in named:
            values.setdefault(kind, set()).add(int(value))
            assert fields == HEADER[m.Kind[kind]], kind
            assert m._KINDS[int(value)][1:] == ("src" in fields, "dst_app" in fields), kind
    assert values == {kind.name: {kind.value} for kind in m.Kind}


@CODEC
@given(st.binary(min_size=0, max_size=4096))
def test_split_concat_identity(data):
    parts = m.split_for_link(data)
    assert all(len(p) <= MAX_PAYLOAD for p in parts)
    reasm = m.LinkReassembler()
    whole = None
    for part in parts:
        whole = reasm.feed(part)
    assert whole == data


def test_split_matches_the_slicing_reference_at_every_length_to_600():
    # One chunk up to CHUNK_DATA_MAX (250) bytes, two from 251, three from 501.
    source = bytes(range(256)) * 3
    for length in range(601):
        data = source[:length]
        slices = [data[i:i + m.CHUNK_DATA_MAX]
                  for i in range(0, length, m.CHUNK_DATA_MAX)] or [b""]
        expected = [struct.pack(">HH", i, len(slices)) + part for i, part in enumerate(slices)]
        assert m.split_for_link(data) == expected, length


def test_small_appdata_fits_one_link_frame():
    msg = m.ServiceMessage(m.Kind.APPDATA, m.ModuleId((0, 1)), "ctl",
                           m.APPDATA.pack(1, "app", b"x" * 100))
    assert len(m.split_for_link(m.encode_message(msg))) == 1


def test_600_byte_chunk_body_takes_three_link_frames():
    body = m.FILE.pack(1, "big.role", b"t" * 587)
    assert len(body) == 600
    msg = m.ServiceMessage(m.Kind.FILE, m.ModuleId((0,)), None, body)
    parts = m.split_for_link(m.encode_message(msg))
    assert len(parts) == 3
    reasm = m.LinkReassembler()
    outcome = [reasm.feed(p) for p in parts]
    assert outcome[:2] == [None, None]
    assert m.decode_message(outcome[2]).body == body


def test_reassembler_resets_on_gap():
    parts = m.split_for_link(bytes(600))
    reasm = m.LinkReassembler()
    assert reasm.feed(parts[0]) is None
    assert reasm.feed(parts[2]) is None  # gap: chunk 1 missing
    assert reasm.resets == 1
    # A fresh message still reassembles after the reset.
    whole = None
    for part in m.split_for_link(b"recovered"):
        whole = reasm.feed(part)
    assert whole == b"recovered"


class _DeadPipe:
    def __init__(self):
        self.sent = 0

    def transmit(self, data: bytes) -> None:
        self.sent += 1


class _DyingPipe:
    """Carries the first `alive` frames to `peer` after 1 ms, then drops
    every frame; records each frame as (seq, payload)."""

    def __init__(self, scheduler: Scheduler, alive: int):
        self.scheduler = scheduler
        self.alive = alive
        self.peer = None
        self.frames: list[tuple[int, bytes]] = []

    def transmit(self, data: bytes) -> None:
        frame = decode_frame(data)
        self.frames.append((frame.seq, frame.payload))
        if len(self.frames) <= self.alive:
            self.scheduler.call_after(1000, lambda: self.peer.on_bytes(data))


@pytest.mark.parametrize("dies", [0, 2, 4], ids=["first", "middle", "last"])
def test_message_ticket_fails_whole_message_and_cancels_siblings(dies):
    scheduler = Scheduler()
    pipe = _DyingPipe(scheduler, alive=dies)
    port = PortProtocol(scheduler, pipe.transmit, lambda tag, data: None,
                        LinkConfig(ack_timeout_ms=10, max_retries=1))
    pipe.peer = PortProtocol(
        scheduler, lambda data: scheduler.call_after(1000, lambda: port.on_bytes(data)),
        lambda tag, data: None)
    msg = m.ServiceMessage(m.Kind.FILE, m.ROOT_ID, None, m.FILE.pack(1, "f", bytes(1000)))
    chunks = msg.link_chunks
    assert len(chunks) == 5
    ticket = m.send_message(port, msg)
    outcomes = []
    ticket.on_done(lambda t: outcomes.append((t.state, len(pipe.frames))))
    scheduler.run_until(10_000 * US_PER_MS)
    assert ticket.state is TicketState.FAILED
    # It failed once, after the chunks before the dying one went out once
    # each and the dying one went out twice (initial + 1 retry); the
    # remaining chunks were dropped unsent.
    assert outcomes == [(TicketState.FAILED, dies + 2)]
    assert pipe.frames[:dies + 2] == list(enumerate(chunks[:dies])) + [(dies, chunks[dies])] * 2
    # The next message starts at the next seq (and dies too). Sent while
    # the long one was open, it would have taken its turn after one frame.
    behind = _announce()
    m.send_message(port, behind)
    scheduler.run_until(20_000 * US_PER_MS)
    assert pipe.frames[dies + 2:] == [(dies + 1, behind.link_chunks[0])] * 2
    assert ticket.transmissions == 1 + 1  # the first frame, plus one retransmission


def test_message_ticket_delivers_over_pipe():
    scheduler = Scheduler()
    delivered = []

    class _Loop:
        def __init__(self):
            self.peer = None

        def transmit(self, data: bytes) -> None:
            scheduler.call_after(1000, lambda: self.peer.on_bytes(data))

    down, up = _Loop(), _Loop()
    port_a = PortProtocol(scheduler, down.transmit, lambda tag, d: None)
    port_b = PortProtocol(scheduler, up.transmit, lambda tag, d: delivered.append(d))
    down.peer = port_b
    up.peer = port_a
    payload = random.Random(5).randbytes(5000)
    msg = m.ServiceMessage(m.Kind.FILE, m.ROOT_ID, None, m.FILE.pack(1, "f", payload))
    ticket = m.send_message(port_a, msg)
    scheduler.run_until(60_000 * US_PER_MS)
    assert ticket.state is TicketState.DELIVERED
    reasm = m.LinkReassembler()
    whole = None
    for part in delivered:
        whole = reasm.feed(part) or whole
    assert m.decode_message(whole).body == msg.body


def _announce(version: int = 3) -> m.ServiceMessage:
    return m.ServiceMessage(m.Kind.VERSION_ANNOUNCE, m.ModuleId((0, 1)), None,
                            m.VERSION.pack(version))


def test_one_chunk_message_fails_after_every_retry_over_dead_pipe():
    scheduler = Scheduler()
    pipe = _DeadPipe()
    port = PortProtocol(scheduler, pipe.transmit, lambda tag, data: None,
                        LinkConfig(ack_timeout_ms=10, max_retries=3))
    ticket = m.send_message(port, _announce())
    scheduler.run_until(10_000 * US_PER_MS)
    assert ticket.state is TicketState.FAILED
    assert pipe.sent == ticket.transmissions == 4  # initial + max_retries
    assert port.stats.give_ups == 1


def test_one_chunk_message_delivers_over_loopback_pipe():
    scheduler = Scheduler()
    delivered = []
    ports = {}

    def pipe_to(name: str):
        return lambda data: scheduler.call_after(1000, lambda: ports[name].on_bytes(data))

    ports["a"] = PortProtocol(scheduler, pipe_to("b"), lambda tag, data: None)
    ports["b"] = PortProtocol(scheduler, pipe_to("a"), lambda tag, data: delivered.append(data))
    msg = _announce()
    ticket = m.send_message(ports["a"], msg)
    scheduler.run_until(1_000 * US_PER_MS)
    assert ticket.state is TicketState.DELIVERED
    assert ticket.transmissions == 1
    assert len(delivered) == 1
    assert m.decode_message(m.LinkReassembler().feed(delivered[0])) == msg


def test_message_link_chunks_are_built_once_and_reused():
    msg = _announce()
    assert msg.link_chunks == tuple(m.split_for_link(m.encode_message(msg)))
    assert msg.link_chunks is msg.link_chunks


class _ParentReassembler:
    """LinkReassembler.feed as it was before its one-chunk fast path."""

    def __init__(self):
        self._parts: list[bytes] = []
        self._total = 0
        self.resets = 0

    def feed(self, payload: bytes):
        if len(payload) < 4:
            self.resets += 1
            self._parts, self._total = [], 0
            return None
        index, total = struct.unpack_from(">HH", payload)
        data = payload[4:]
        if index == 0:
            if self._parts:
                self.resets += 1
            self._parts, self._total = [data], total
        elif total != self._total or index != len(self._parts):
            self.resets += 1
            self._parts, self._total = [], 0
            return None
        else:
            self._parts.append(data)
        if self._total and len(self._parts) == self._total:
            whole = b"".join(self._parts)
            self._parts, self._total = [], 0
            return whole
        return None


_header = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda h: struct.pack(">HH", *h))
_payloads = st.one_of(
    st.binary(max_size=600).map(m.split_for_link),  # a whole message
    st.binary(max_size=600).map(lambda d: m.split_for_link(d)[:-1]),  # cut short
    st.binary(max_size=3).map(lambda d: [d]),  # shorter than a header
    st.tuples(_header, st.binary(max_size=8)).map(lambda t: [t[0] + t[1]]),  # out of step
)


@CODEC
@given(st.lists(_payloads, max_size=12).map(lambda runs: [p for run in runs for p in run]))
def test_reassembler_matches_reference_feed(payloads):
    fast, reference = m.LinkReassembler(), _ParentReassembler()
    assert [fast.feed(p) for p in payloads] == [reference.feed(p) for p in payloads]
    assert fast.resets == reference.resets
