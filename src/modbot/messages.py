"""Typed module-to-module messages and link-payload chunking.

Binary layouts are documented in docs/protocol.md. Every message is

    kind(1) | [src_id] | [dst_app pstr] | body

where src_id is in the id codec below and pstr is a 1-byte length followed
by that many UTF-8 bytes (length 0 in the dst_app slot means "none"). The
kind alone says which of the two fields are there (`_KINDS`): the encoder
leaves out the others, whatever their values, and the decoder gives None. Each
body shape is declared once, as a `Layout`. A serialized message larger
than one link payload is split into link chunks, each prefixed with a
4-byte (index, count) header. The link sends one message's chunks under
one stream tag and keeps each stream in order, so with one reassembler per
(port, tag), reassembly is a straight concatenation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Optional

from .link import PortProtocol, Ticket

CHUNK_DATA_MAX = 250
_CHUNK_HEADER = struct.Struct(">HH")  # index, count
_ONE_CHUNK = _CHUNK_HEADER.pack(0, 1)


class ProtocolError(Exception):
    pass


class Kind(IntEnum):
    APPDATA = 2
    BCAST = 3
    INVOKE = 4
    REPLY = 5
    VERSION_ANNOUNCE = 6
    CODE_PUSH = 7
    FILE = 8
    EXEC = 9
    START = 10
    CODE_CHUNK = 7  # an alias of CODE_PUSH: the name bench/micro.py uses


# Kind byte (or Kind) -> (kind, carries src, carries dst_app): a header holds src
# where the receiver reads the sender's id and dst_app where the kind addresses an app.
_CARRY_SRC = {Kind.VERSION_ANNOUNCE, Kind.BCAST, Kind.CODE_PUSH, Kind.APPDATA}
_CARRY_APP = {Kind.APPDATA, Kind.INVOKE}
_KINDS = {kind.value: (kind, kind in _CARRY_SRC, kind in _CARRY_APP) for kind in Kind}

MAX_PORT = 255  # an id carries one byte per port index
MAX_HOPS = 0x3FFF  # the longest id whose hop count fits a 2-byte varint


class _memo:
    """cached_property without its lock (taken before Python 3.12): the first
    read stores the value in the instance dict, which later reads find first."""

    def __init__(self, fn):
        self._fn, self._name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._fn(obj)
        return value


@dataclass(frozen=True)
class ModuleId:
    """Dotted path of port indices; the diffusion root is "0"."""

    path: tuple[int, ...] = ()

    def child(self, port: int) -> "ModuleId":
        return ModuleId(self.path + (port,))

    @property
    def unassigned(self) -> bool:
        return not self.path

    def __str__(self) -> str:
        return self._text

    @_memo
    def _text(self) -> str:
        # Kept in the instance dict, outside the fields that eq and hash use.
        return ".".join(map(str, self.path))


ROOT_ID = ModuleId((0,))


@dataclass
class ServiceMessage:
    """One typed message. It is never mutated after construction, so a
    node may send the same instance many times (its beacons do)."""

    kind: Kind
    src: Optional[ModuleId]  # None, like dst_app, once decoded from a kind that does not carry it
    dst_app: Optional[str]
    body: bytes = b""

    @_memo
    def link_chunks(self) -> tuple[bytes, ...]:
        """The message encoded and split for the link, built on first send."""
        return tuple(split_for_link(encode_message(self)))


def _put_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 255:
        raise ProtocolError("string field too long")
    return bytes([len(raw)]) + raw


def _get_text(data: bytes, pos: int) -> tuple[str, int]:
    end = pos + 1 + (data[pos] if pos < len(data) else 0)
    if end > len(data):
        raise ProtocolError("truncated string field")
    try:
        return data[pos + 1:end].decode("utf-8"), end
    except UnicodeDecodeError:
        raise ProtocolError("bad string encoding") from None


# The module-id codec, for the message header's src and CODE_PUSH's new id:
# the hop count as a minimal little-endian base-128 varint of 1 or 2 bytes,
# then one byte per port index. The decoder refuses any other spelling, so
# a decoded message encodes back to the same bytes. A ModuleId is immutable,
# so one decoded instance serves every message with the same port bytes.

def _put_id(module_id: ModuleId) -> bytes:
    hops = len(module_id.path)
    if hops > MAX_HOPS:
        raise ProtocolError(f"module id of {hops} hops is too long")
    length = (hops,) if hops < 0x80 else (0x80 | hops & 0x7F, hops >> 7)
    try:
        return bytes(length) + bytes(module_id.path)
    except ValueError:
        raise ProtocolError(f"module id {module_id} has a port index outside 0-{MAX_PORT}") from None


_id_of_ports = lru_cache(maxsize=1024)(lambda ports: ModuleId(tuple(ports)))


def _get_id(data: bytes, pos: int) -> tuple[ModuleId, int]:
    try:
        hops = data[pos]
        if hops & 0x80:  # a second byte, neither 0 (not minimal) nor continued (a third)
            high = data[pos + 1]
            if not 0 < high < 0x80:
                raise ProtocolError("non-minimal or over-long module id length")
            hops, pos = hops & 0x7F | high << 7, pos + 1
    except IndexError:
        raise ProtocolError("truncated module id") from None
    end = pos + 1 + hops
    if end > len(data):
        raise ProtocolError("truncated module id")
    return _id_of_ports(data[pos + 1:end]), end


_FIELDS = {str: (_put_text, _get_text), ModuleId: (_put_id, _get_id)}


def encode_message(msg: ServiceMessage) -> bytes:
    kind, has_src, has_app = _KINDS[msg.kind]
    return (
        bytes([kind])
        + (_put_id(msg.src) if has_src else b"")
        + (_put_text(msg.dst_app or "") if has_app else b"")
        + msg.body
    )


def decode_message(data: bytes) -> ServiceMessage:
    if not data:
        raise ProtocolError("empty message")
    try:
        kind, has_src, has_app = _KINDS[data[0]]
    except KeyError:
        raise ProtocolError(f"unknown message kind {data[0]}") from None
    src, pos = _get_id(data, 1) if has_src else (None, 1)
    dst_app, pos = _get_text(data, pos) if has_app else (None, pos)
    return ServiceMessage(kind, src, dst_app or None, bytes(data[pos:]))


class Layout:
    """One message body shape: a fixed big-endian `struct` prefix (one
    format letter per value), then at most one `field`: `str` as a pstr or
    a `ModuleId` as an id, then at most a `tail` that runs to the end of
    the body, as `bytes` or as UTF-8 `str`. `pack(*values)` takes the
    values in that order and `unpack(body)` returns them as a tuple or
    raises ProtocolError; bytes after a body with no tail are ignored."""

    def __init__(self, prefix: str, field: Optional[type], tail: Optional[type]):
        self._prefix = struct.Struct(">" + prefix)
        self._count = len(prefix)
        self._put, self._get = _FIELDS.get(field, (None, None))
        self._tail = tail

    def pack(self, *values) -> bytes:
        body = self._prefix.pack(*values[:self._count])
        if self._put is not None:
            body += self._put(values[self._count])
        if self._tail is not None:  # always the last value
            body += values[-1].encode("utf-8") if self._tail is str else values[-1]
        return body

    def unpack(self, body: bytes) -> tuple:
        prefix = self._prefix
        if len(body) < prefix.size:
            raise ProtocolError("truncated body")
        values = prefix.unpack_from(body)
        pos = prefix.size
        if self._get is not None:
            value, pos = self._get(body, pos)
            values += (value,)
        if self._tail is bytes:
            values += (bytes(body[pos:]),)
        elif self._tail is str:
            try:
                values += (body[pos:].decode("utf-8"),)
            except UnicodeDecodeError:
                raise ProtocolError("bad string encoding") from None
        return values


# Every body shape on the wire, with the values in order (docs/protocol.md).
# A request body (APPDATA, FILE, EXEC, START) starts with the req_id its REPLY repeats.
VERSION = Layout("I", None, None)  # VERSION_ANNOUNCE: version
APPDATA = Layout("I", str, bytes)  # req_id, src_app, data
BCAST = Layout("", str, bytes)  # src_app, data
INVOKE = Layout("", str, str)  # role, command
FILE = Layout("I", str, bytes)  # req_id, name, data
REQUEST = Layout("I", None, str)  # EXEC, START, REPLY: req_id, text
CODE_PUSH = Layout("I", ModuleId, bytes)  # version, the receiver's new id, code image

# The retired FILE_CHUNK body (transfer_id, index, total, name, data); only
# bench/micro.py uses it.
chunk_body = Layout("IHH", str, bytes).pack


# Link-payload chunking.

def split_for_link(data: bytes) -> list[bytes]:
    if len(data) <= CHUNK_DATA_MAX:
        return [_ONE_CHUNK + data]
    slices = [data[i:i + CHUNK_DATA_MAX] for i in range(0, len(data), CHUNK_DATA_MAX)] or [b""]
    total = len(slices)
    if total > 0xFFFF:
        raise ProtocolError("message too large for link chunking")
    return [_CHUNK_HEADER.pack(i, total) + part for i, part in enumerate(slices)]


class LinkReassembler:
    """Rebuilds serialized messages from the in-order link chunks of one
    stream (one port's tag).

    The link keeps a stream in order, so anything out of step means the
    sender aborted mid-message; the partial buffer is dropped and
    reassembly restarts at the next index-0 chunk.
    """

    def __init__(self):
        self._parts: list[bytes] = []
        self._total = 0
        self.resets = 0

    def feed(self, payload: bytes) -> Optional[bytes]:
        if not self._parts and payload[:4] == _ONE_CHUNK:
            return payload[4:]  # a whole one-chunk message, nothing buffered
        if len(payload) < _CHUNK_HEADER.size:
            self.resets += 1
            self._parts, self._total = [], 0
            return None
        index, total = _CHUNK_HEADER.unpack_from(payload)
        data = payload[_CHUNK_HEADER.size:]
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


def send_message(port: PortProtocol, msg: ServiceMessage) -> Ticket:
    """Send one message's link chunks as one port entry, all under one
    stream tag: the ticket is DELIVERED when every chunk was acknowledged
    and FAILED at the first chunk the link gave up on, whose later chunks
    are never sent."""
    return port.send(msg.link_chunks)
