"""Malformed world files and role programs end in a diagnostic, never a
traceback: the parsers may raise only their own error type."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from modbot import dynarole as dr
from modbot.world import LoadError, load_scenario, load_topology, parse_scenario, parse_topology

_TOPOLOGY_RECORDS = ["config", "module a", "module b", "link", "file a", "root", "#", "a"]
_TOPOLOGY_TOKENS = [
    "=", "a", "b", "a.0", "b.0", "a.1",
    "a.x", "a.", ".0", "a.²", "center=EAST_WEST", "center=BAD", "ports=0:EAST",
    "ports=0:EAST,1:WEST", "ports=²:EAST", "ports=0", "ports=255:UP,256:DOWN", "a.255", "a.256",
    "sensors=1:0", "sensors=x:1",
    "loss=0.5", "loss=2", "loss=nan", "loss=", "prop_ms=-1", "prop_ms=3", "byte_us=x",
    "max_retries=abc", "max_retries=2", "ack_timeout_ms=0", "ack_timeout_ms=50", "k=v",
]
_SCENARIO_TOKENS = [
    "at", "0", "5", "-1", "x", "sensor", "sever", "restore", "upgrade", "start",
    "a", "a.0", "b.0", "1", "²", "#",
]
_ROLE_TOKENS = [
    "role", "abstract", "extends", "require", "constant", "startup", "behavior",
    "command", "handle", "sizeof", "self", "Module", "A", "B", "x", "center",
    "connected", "sleepcs", "enable", "$TURN_CONTINUOUSLY", "$EVENT_HANDLER_1",
    "$EVENT_HANDLER_x", "$EAST", "0", "-3", "{", "}", "(", ")", ";", ",", "=",
    ".", "==", "!=", "<", "<=", ">", ">=", "#", "\n", "@",
]


def _soup(tokens, first=("",)):
    """Lines of grammar tokens, each line led by one of `first`."""
    line = st.tuples(st.sampled_from(first), st.lists(st.sampled_from(tokens), max_size=6))
    return st.lists(line.map(lambda t: " ".join((t[0], *t[1]))), max_size=8).map("\n".join)


@settings(max_examples=80)
@given(st.one_of(_soup(_TOPOLOGY_TOKENS, _TOPOLOGY_RECORDS), st.text(max_size=200)))
def test_parse_topology_raises_only_load_error(text):
    try:
        parse_topology(text, base_dir=os.devnull)
    except LoadError as exc:
        assert exc.diagnostics


@settings(max_examples=50)
@given(st.integers(0, 2**70))
def test_a_port_index_that_a_module_id_cannot_carry_is_a_line_diagnostic(index):
    text = f"module a center=EAST_WEST ports={index}:EAST\n"
    if index <= 255:  # one byte per port in a module id
        assert list(parse_topology(text).modules[0].ports) == [index]
        return
    try:
        parse_topology(text)
    except LoadError as exc:
        assert exc.diagnostics == [f"line 1: module 'a': port index {index} is outside 0-255"]
    else:
        raise AssertionError(f"port {index} accepted")


@settings(max_examples=60)
@given(st.one_of(_soup(_SCENARIO_TOKENS, ("at", "at 5", "at 0 sever", "")), st.text(max_size=200)))
def test_parse_scenario_raises_only_load_error(text):
    try:
        parse_scenario(text)
    except LoadError as exc:
        assert exc.diagnostics


@settings(max_examples=30)
@given(st.binary(max_size=200))
def test_loading_arbitrary_bytes_raises_only_load_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as out:
            out.write(data)
        for loader in (load_topology, load_scenario):
            try:
                loader(path)
            except LoadError as exc:
                assert exc.diagnostics


@settings(max_examples=80)
@given(_soup(_ROLE_TOKENS))
def test_parse_program_raises_only_role_syntax_error(text):
    try:
        dr.parse_program(text)
    except dr.RoleSyntaxError as exc:
        assert exc.diagnostics
