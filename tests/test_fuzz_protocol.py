"""Malformed command lines and message bytes end in an answer or a
ProtocolError, never a traceback or a session that stays busy."""

import base64

from hypothesis import example, given, settings, strategies as st

from modbot import messages as m
from modbot.world import World

from conftest import pair_topology


def _b64(text: str) -> str:
    return base64.b64encode(text.encode("utf-8")).decode("ascii")


_VERBS = ["REGISTER", "STATE", "NEIGHBORS", "SEND", "BCAST", "PUTFILE", "EXEC", "START",
          "VERSION", "ID", "BOGUS", "é"]
_ARGS = [
    "0", "0.1", "9.9", "sink", "f", "é", "ü²", "=", "!!", "AAAA", "AA==", "QQ", "",
    _b64("VERSION"), _b64("BCAST é"), _b64("SEND 0 sink é"), _b64("STATE"), _b64("hé"),
    _b64("EXEC 0 " + _b64("ID")), _b64("START 0 f"), base64.b64encode(b"\xff\xfe").decode(),
    "n" * 300,  # longer than any 255-byte wire field
]
_LINES = st.tuples(st.sampled_from(_VERBS), st.lists(st.sampled_from(_ARGS), max_size=4)).map(
    lambda t: " ".join((t[0], *t[1])))


def _is_response(line: str) -> bool:
    return line.startswith(("OK", "ERR "))


@settings(max_examples=40, deadline=None)
@given(st.lists(_LINES, min_size=1, max_size=6))
@example(["BCAST é", "SEND 0.1 sink é", "PUTFILE 0.1 f é", "EXEC 0.1 é"])
@example([f"EXEC 0.1 {_b64('BCAST é')}"])
@example(["SEND 0.1 " + "a" * 300 + " AAAA", "PUTFILE 0.1 " + "b" * 300 + " AAAA"])
@example([f"EXEC 0.1 {_b64('SEND 0 ' + 'a' * 300 + ' AAAA')}"])
def test_every_command_line_is_answered_once(lines):
    world = World(pair_topology(), seed=1)
    world.run_until_cs(200)
    sink = world.open_session("m1")
    sink.submit("REGISTER sink")
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    for line in lines:
        session.submit(line)
    world.run_until_cs(200 + 300 * len(lines))
    answers = [line for line in session.take_lines() if _is_response(line)]
    assert len(answers) == len(lines)
    # Every message a command sends is well formed, so a remote EXEC is
    # answered by the line its command gave, never dropped on arrival.
    assert not world.log.select("protocol-error")


def _pstr(raw: bytes) -> bytes:
    return bytes([len(raw)]) + raw


# Id texts close to canonical: other digits, signs, separators and spaces,
# and a non-ASCII digit.
_near_ids = st.text(alphabet="0123456789.+-_ \u0661", max_size=8).map(lambda t: t.encode("utf-8"))


@settings(max_examples=400)
@given(st.one_of(
    st.binary(max_size=64),
    st.tuples(st.integers(0, 12), st.binary(max_size=40)).map(lambda t: bytes([t[0]]) + t[1]),
    st.tuples(st.integers(1, 11), _near_ids, st.binary(max_size=4), st.binary(max_size=8)).map(
        lambda t: bytes([t[0]]) + _pstr(t[1]) + _pstr(t[2]) + t[3]),
))
@example(bytes([1, 2]) + b"01\x00")  # src "01" once decoded as id 1, which encodes as "1"
def test_decode_message_raises_only_protocol_error(data):
    """Any bytes decode or raise ProtocolError, and what decodes encodes
    back to the same bytes."""
    try:
        msg = m.decode_message(data)
    except m.ProtocolError:
        return
    assert m.encode_message(msg) == data
