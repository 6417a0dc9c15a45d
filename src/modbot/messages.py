"""Typed module-to-module messages and link-payload chunking.

Binary layouts are documented in docs/protocol.md. Every message is

    kind(1) | src_id pstr | dst_app pstr | body

where pstr is a 1-byte length followed by that many UTF-8 bytes (length 0
in the dst_app slot means "none"). A serialized message larger than one
link payload is split into link chunks, each prefixed with a 4-byte
(index, count) header; the reliable link keeps chunks in order, so
reassembly is a straight concatenation.
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
    HELLO = 1
    APPDATA = 2
    BCAST = 3
    STATE_REQ = 4
    STATE_REP = 5
    VERSION_ANNOUNCE = 6
    CODE_CHUNK = 7
    FILE_CHUNK = 8
    EXEC = 9
    START = 10
    ID_ASSIGN = 11


_KINDS = {kind.value: kind for kind in Kind}  # a dict lookup is cheaper than Kind(n)


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
        if text == "":
            return cls(())
        try:
            parts = tuple(int(p) for p in text.split("."))
        except ValueError:
            raise ProtocolError(f"bad module id {text!r}") from None
        if any(p < 0 for p in parts):
            raise ProtocolError(f"bad module id {text!r}")
        return cls(parts)

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
        return ".".join(str(p) for p in self.path)


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


def _pstr(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 255:
        raise ProtocolError("string field too long")
    return bytes([len(raw)]) + raw


def _read_pstr(data: bytes, pos: int) -> tuple[str, int]:
    if pos >= len(data):
        raise ProtocolError("truncated string field")
    n = data[pos]
    end = pos + 1 + n
    if end > len(data):
        raise ProtocolError("truncated string field")
    try:
        return data[pos + 1:end].decode("utf-8"), end
    except UnicodeDecodeError:
        raise ProtocolError("bad string encoding") from None


def encode_message(msg: ServiceMessage) -> bytes:
    return (
        bytes([msg.kind])
        + _pstr(str(msg.src))
        + _pstr(msg.dst_app or "")
        + msg.body
    )


def decode_message(data: bytes) -> ServiceMessage:
    if not data:
        raise ProtocolError("empty message")
    try:
        kind = _KINDS[data[0]]
    except KeyError:
        raise ProtocolError(f"unknown message kind {data[0]}") from None
    src_text, pos = _read_pstr(data, 1)
    dst_app, pos = _read_pstr(data, pos)
    return ServiceMessage(kind, _parse_id(src_text), dst_app or None, bytes(data[pos:]))


# Body codecs. Each *_body builder has a matching parse_* that raises
# ProtocolError on malformed input.

def _need(data: bytes, n: int) -> None:
    if len(data) < n:
        raise ProtocolError("truncated body")


def version_body(version: int) -> bytes:
    return struct.pack(">I", version)


def parse_version(body: bytes) -> int:
    _need(body, 4)
    return struct.unpack_from(">I", body)[0]


def appdata_body(src_app: str, req_id: int, data: bytes) -> bytes:
    return b"\x00" + struct.pack(">I", req_id) + _pstr(src_app) + data


def appdata_status_body(req_id: int, ok: bool) -> bytes:
    return b"\x01" + struct.pack(">IB", req_id, 0 if ok else 1)


def parse_appdata(body: bytes):
    """Returns ("data", src_app, req_id, payload) or ("status", req_id, ok)."""
    _need(body, 1)
    if body[0] == 0:
        _need(body, 5)
        req_id = struct.unpack_from(">I", body, 1)[0]
        src_app, pos = _read_pstr(body, 5)
        return "data", src_app, req_id, bytes(body[pos:])
    if body[0] == 1:
        _need(body, 6)
        req_id, code = struct.unpack_from(">IB", body, 1)
        return "status", req_id, code == 0
    raise ProtocolError("bad appdata subtype")


def bcast_body(src_app: str, data: bytes) -> bytes:
    return _pstr(src_app) + data


def parse_bcast(body: bytes) -> tuple[str, bytes]:
    src_app, pos = _read_pstr(body, 0)
    return src_app, bytes(body[pos:])


def state_req_body(req_id: int) -> bytes:
    return struct.pack(">I", req_id)


def parse_state_req(body: bytes) -> int:
    _need(body, 4)
    return struct.unpack_from(">I", body)[0]


def state_rep_body(req_id: int, text: str) -> bytes:
    return struct.pack(">I", req_id) + text.encode("utf-8")


def parse_state_rep(body: bytes) -> tuple[int, str]:
    _need(body, 4)
    req_id = struct.unpack_from(">I", body)[0]
    try:
        return req_id, body[4:].decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("bad state text") from None


def chunk_body(transfer_id: int, index: int, total: int, name: str, data: bytes) -> bytes:
    """Shared CODE_CHUNK/FILE_CHUNK body: transfer id, position, label, data.

    CODE_CHUNK uses the label slot for the pushed version number (decimal
    text); FILE_CHUNK uses it for the destination file name.
    """
    return struct.pack(">IHH", transfer_id, index, total) + _pstr(name) + data


def parse_chunk(body: bytes) -> tuple[int, int, int, str, bytes]:
    _need(body, 8)
    transfer_id, index, total = struct.unpack_from(">IHH", body)
    name, pos = _read_pstr(body, 8)
    if total == 0 or index >= total:
        raise ProtocolError("bad chunk position")
    return transfer_id, index, total, name, bytes(body[pos:])


def request_body(req_id: int, text: str, reply: bool = False) -> bytes:
    """EXEC/START body: request carries a line of text, reply carries one back."""
    return bytes([1 if reply else 0]) + struct.pack(">I", req_id) + text.encode("utf-8")


def parse_request(body: bytes) -> tuple[bool, int, str]:
    _need(body, 5)
    if body[0] not in (0, 1):
        raise ProtocolError("bad request subtype")
    req_id = struct.unpack_from(">I", body, 1)[0]
    try:
        return body[0] == 1, req_id, body[5:].decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("bad request text") from None


def id_assign_body(version: int, new_id: ModuleId) -> bytes:
    return struct.pack(">I", version) + _pstr(str(new_id))


def parse_id_assign(body: bytes) -> tuple[int, ModuleId]:
    _need(body, 4)
    version = struct.unpack_from(">I", body)[0]
    text, _ = _read_pstr(body, 4)
    return version, ModuleId.parse(text)


# Link-payload chunking.

def split_for_link(data: bytes) -> list[bytes]:
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
