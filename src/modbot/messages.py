"""Typed module-to-module messages and link-payload chunking.

Binary layouts are documented in docs/protocol.md. Every message is

    kind(1) | src_id pstr | dst_app pstr | body

where pstr is a 1-byte length followed by that many UTF-8 bytes (length 0
in the dst_app slot means "none"). Each body shape is declared once, as a
`Layout`. A serialized message larger than one link payload is split into
link chunks, each prefixed with a 4-byte (index, count) header; the
reliable link keeps chunks in order, so reassembly is a straight
concatenation.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Callable, Optional

from .link import PortProtocol, Ticket

CHUNK_DATA_MAX = 250
_CHUNK_HEADER = struct.Struct(">HH")  # index, count
_ONE_CHUNK = _CHUNK_HEADER.pack(0, 1)


class ProtocolError(Exception):
    pass


class Kind(IntEnum):
    HELLO = 1
    APPDATA = 2
    BCAST = 3
    INVOKE = 4
    REPLY = 5
    VERSION_ANNOUNCE = 6
    CODE_PUSH = 7
    FILE_CHUNK = 8
    EXEC = 9
    START = 10
    CODE_CHUNK = 7  # an alias of CODE_PUSH: the name bench/micro.py uses


_KINDS = {kind.value: kind for kind in Kind}  # a dict lookup is cheaper than Kind(n)

# The numbers in an id travel as text. Only ASCII digits without a leading
# zero are accepted, so each id has one text and a decoded message encodes
# back to the same bytes.
_NUMERAL = "(?:0|[1-9][0-9]*)"
_ID_TEXT = re.compile(rf"{_NUMERAL}(?:\.{_NUMERAL})*")


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

    @classmethod
    def parse(cls, text: str) -> "ModuleId":
        """The id whose text this is; no other text names the same id."""
        if text == "":
            return cls(())
        if _ID_TEXT.fullmatch(text) is None:
            raise ProtocolError(f"bad module id {text!r}")
        return cls(tuple(map(int, text.split("."))))

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


# ModuleId is immutable, so one parsed instance can serve every message
# that carries the same id text.
_parse_id = lru_cache(maxsize=1024)(ModuleId.parse)


ROOT_ID = ModuleId((0,))


@dataclass
class ServiceMessage:
    """One typed message. It is never mutated after construction, so a
    node may send the same instance many times (its beacons do)."""

    kind: Kind
    src: ModuleId
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


# The module-id codec, for the message header's src and CODE_PUSH's new id.

def _put_id(module_id: ModuleId) -> bytes:
    return _put_text(str(module_id))


def _get_id(data: bytes, pos: int) -> tuple[ModuleId, int]:
    text, pos = _get_text(data, pos)
    return _parse_id(text), pos


_FIELDS = {str: (_put_text, _get_text), ModuleId: (_put_id, _get_id)}


def encode_message(msg: ServiceMessage) -> bytes:
    return (
        bytes([msg.kind])
        + _put_id(msg.src)
        + _put_text(msg.dst_app or "")
        + msg.body
    )


def decode_message(data: bytes) -> ServiceMessage:
    if not data:
        raise ProtocolError("empty message")
    try:
        kind = _KINDS[data[0]]
    except KeyError:
        raise ProtocolError(f"unknown message kind {data[0]}") from None
    src, pos = _get_id(data, 1)
    dst_app, pos = _get_text(data, pos)
    return ServiceMessage(kind, src, dst_app or None, bytes(data[pos:]))


class Layout:
    """One message body shape: a fixed big-endian `struct` prefix (one
    format letter per value), then at most one pstr `field` holding `str`
    text or a `ModuleId`, then at most a `tail` that runs to the end of
    the body, as `bytes` or as UTF-8 `str`. `pack(*values)` takes the
    values in that order and `unpack(body)` returns them as a tuple or
    raises ProtocolError; bytes after a body with no tail are ignored.
    `check` is None or (rule, error): unpack raises ProtocolError(error)
    unless rule(*values) holds for the prefix and field values."""

    def __init__(self, prefix: str, field: Optional[type], tail: Optional[type],
                 check: Optional[tuple[Callable[..., bool], str]]):
        self._prefix = struct.Struct(">" + prefix)
        self._count = len(prefix)
        self._put, self._get = _FIELDS.get(field, (None, None))
        self._tail = tail
        self._check = check

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
        if self._check is not None and not self._check[0](*values):
            raise ProtocolError(self._check[1])
        if self._tail is bytes:
            values += (bytes(body[pos:]),)
        elif self._tail is str:
            try:
                values += (body[pos:].decode("utf-8"),)
            except UnicodeDecodeError:
                raise ProtocolError("bad string encoding") from None
        return values


# Every body shape on the wire, with the values in order (docs/protocol.md).
VERSION = Layout("I", None, None, None)  # HELLO, VERSION_ANNOUNCE: version
APPDATA = Layout("BI", str, bytes, (  # subtype 0, req_id, src_app, data
    lambda subtype, _req_id, _src_app: subtype == 0, "bad appdata subtype"))
APPDATA_STATUS = Layout("BIB", None, None, None)  # subtype 1, req_id, code (0 = accepted)
BCAST = Layout("", str, bytes, None)  # src_app, data
INVOKE = Layout("", str, str, None)  # role, command
CHUNK = Layout("IHH", str, bytes, (  # FILE_CHUNK: transfer_id, index, total, name, data
    lambda _transfer_id, index, total, _name: index < total, "bad chunk position"))  # no total 0
REQUEST = Layout("I", None, str, None)  # EXEC, START, REPLY: req_id, text
CODE_PUSH = Layout("I", ModuleId, bytes, None)  # version, the receiver's new id, code image

chunk_body = CHUNK.pack  # the name bench/micro.py imports


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
    """Rebuilds serialized messages from in-order link chunks.

    The link guarantees order, so anything out of step means the sender
    aborted mid-message; the partial buffer is dropped and reassembly
    restarts at the next index-0 chunk.
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
    """Send one message's link chunks as one port entry: the ticket is
    DELIVERED when every chunk was acknowledged and FAILED at the first
    chunk the link gave up on, whose later chunks are never sent."""
    return port.send(msg.link_chunks)
