"""Command protocol and node behavior over small worlds."""

import base64
import functools
import gc
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from modbot import node as node_module
from modbot.link import FrameType, Ticket, TicketState, decode_frame
from modbot.messages import (
    APPDATA, BCAST, CODE_PUSH, FILE, INVOKE, REQUEST, VERSION, Kind, ModuleId,
    ProtocolError, ServiceMessage, decode_message, encode_message, split_for_link,
)
from modbot.world import LinkSpec, ModuleSpec, Topology, World, load_scenario, load_topology

from conftest import REQUESTS, chain_topology, pair_topology, upgrade_scenario


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def settled_pair(seed: int = 0, **kwargs):
    """2-module world after initial diffusion: ids m0='0', m1='0.1'."""
    world = World(pair_topology(**kwargs), seed=seed)
    world.run_until_cs(200)
    return world


def test_register_and_gate():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("STATE")
    assert session.take_lines() == ["ERR 401 register first"]
    session.submit("REGISTER controller")
    assert session.take_lines() == ["OK registered controller"]
    session.submit("REGISTER controller")
    assert session.take_lines() == ["ERR 409 already registered"]
    other = world.open_session("m0")
    other.submit("REGISTER controller")
    assert other.take_lines() == ["ERR 409 app name in use"]


def test_unknown_verb_and_empty_line():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit("BOGUS 1 2 3")
    assert session.take_lines() == ["ERR 400 unknown command BOGUS"]
    session.submit("   ")
    assert session.take_lines() == ["ERR 400 empty command"]


def test_bad_app_name_rejected():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER " + "x" * 65)
    assert session.take_lines()[0].startswith("ERR 400")


def test_app_name_must_fit_its_255_byte_wire_field():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER " + "\U0001F600" * 64)  # 64 characters, 256 UTF-8 bytes
    session.submit("REGISTER " + "é" * 64)  # 128 bytes
    session.submit(f"BCAST {b64(b'hi')}")
    world.run_until_cs(400)
    assert session.take_lines() == [
        "ERR 400 bad app name", "OK registered " + "é" * 64, "OK delivered=1"]


def test_state_self_matches_ground_truth():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit("STATE")
    line = session.take_lines()[0]
    assert line == "OK " + world.modules["m0"].state_text()
    assert line.startswith("OK center=EAST_WEST")


def test_state_neighbor_equals_neighbor_self_query():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit("STATE 0.1")
    world.run_until_cs(400)
    lines = session.take_lines()
    assert lines[-1] == "OK " + world.modules["m1"].state_text()


def test_state_unknown_module_404():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit("STATE 9.9")
    assert session.take_lines()[-1] == "ERR 404 unknown module"


# Each request verb: (command, answer when the link gives up on the
# request, answer when the request arrived but the reply never comes).
_REQUESTS = {
    "STATE": ("STATE 0.1", "ERR 409 delivery failed", "ERR 504 state timeout"),
    "SEND": (f"SEND 0.1 sink {b64(b'hi')}", "ERR 409 delivery failed", "ERR 504 send timeout"),
    "PUTFILE": (f"PUTFILE 0.1 f {b64(b'hi')}", "ERR 409 delivery failed",
                "ERR 504 putfile timeout"),
    "EXEC": (f"EXEC 0.1 {b64(b'VERSION')}", "ERR 409 delivery failed", "ERR 504 exec timeout"),
    "START": ("START 0.1 missing.role", "ERR 409 delivery failed", "ERR 504 start timeout"),
}


@pytest.mark.parametrize("case", ["give-up", "reply-timeout"])
@pytest.mark.parametrize("verb", sorted(_REQUESTS))
def test_request_severed_answers_once(verb, case):
    command, give_up_line, timeout_line = _REQUESTS[verb]
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    m0 = world.modules["m0"]
    assert m0.node.neighbor_table[1][0] == ModuleId((0, 1))
    if case == "give-up":
        world.links[0].severed = True
        session.submit(command)
        expected = give_up_line
    else:
        # Sever in the gap between the request's ACK reaching m0 and the
        # reply arriving; the ACK and the reply share m1's channel, so the
        # reply is at least one frame time (>2 ms) behind the ACK.
        sent = []
        send_port = m0.send_port

        def capture(port, msg):
            sent.append(send_port(port, msg))
            return sent[-1]

        m0.send_port = capture
        session.submit(command)
        del m0.send_port
        request = sent[0]
        now = world.scheduler.now
        while not request.done:
            now += 100
            world.scheduler.run_until(now)
        assert request.state is TicketState.DELIVERED
        assert session.take_lines() == []
        world.links[0].severed = True
        expected = timeout_line
    world.run_until_cs(2000)
    assert session.take_lines() == [expected]


# 6,000 bytes take 2 s on the wire, longer than the pair's 1.5 s reply timeout.
_LONG = "".join(f"{i:05d}\n" for i in range(1000)).encode()


@pytest.mark.parametrize("line, answer", [
    (f"SEND 0.1 sink {b64(_LONG)}", "OK delivered"),
    (f"PUTFILE 0.1 f {b64(_LONG)}", "OK transferred f"),
], ids=["SEND", "PUTFILE"])
def test_a_request_longer_on_the_wire_than_the_reply_timeout_is_answered_by_its_reply(
        line, answer):
    # Lossless: the reply timer starts when the link has delivered the request.
    world = settled_pair()
    sink = world.open_session("m1")
    sink.submit("REGISTER sink")
    session = world.open_session("m0")
    session.submit("REGISTER src")
    session.submit(line)
    world.run_until_cs(1000)
    assert session.take_lines() == ["OK registered src", answer]
    send = line.startswith("SEND")
    [(arrived_cs, *_)] = world.log.select("appmsg" if send else "file", "m1")
    assert (arrived_cs - 200) * 10_000 > world.modules["m0"].node._reply_timeout_us()
    if send:
        assert [l for l in sink.take_lines() if l.startswith("MSG")] == [f"MSG 0 src {b64(_LONG)}"]
    else:
        assert world.modules["m1"].node.file_store["f"] == _LONG.decode()


@pytest.mark.parametrize("verb", ["SEND", "PUTFILE"])
def test_a_request_answered_504_was_delivered(verb):
    # The link is cut the moment m0 learns that m1 has the request, so
    # m1's REPLY is lost past its retries.
    world = settled_pair()
    sink = world.open_session("m1")
    sink.submit("REGISTER sink")
    session = world.open_session("m0")
    session.submit("REGISTER src")
    m0 = world.modules["m0"]
    send_port = m0.send_port

    def cut(ticket):
        assert ticket.state is TicketState.DELIVERED
        world.links[0].severed = True

    def cut_at_delivery(port, msg):
        ticket = send_port(port, msg)
        ticket.on_done(cut)
        return ticket

    m0.send_port = cut_at_delivery
    session.submit(f"SEND 0.1 sink {b64(b'data')}" if verb == "SEND" else
                   f"PUTFILE 0.1 f {b64(b'data')}")
    del m0.send_port
    world.run_until_cs(2000)
    assert session.take_lines() == ["OK registered src", f"ERR 504 {verb.lower()} timeout"]
    if verb == "SEND":
        assert [l for l in sink.take_lines() if l.startswith("MSG")] == [
            f"MSG 0 src {b64(b'data')}"]
    else:
        assert world.modules["m1"].node.file_store["f"] == "data"
    assert world.links[0].drops > 0  # the REPLY and its retransmissions


@REQUESTS
@given(st.integers(2, 4), st.sampled_from([0.0, 0.1, 0.2, 0.3]), st.integers(1, 5),
       st.integers(0, 2**16),
       st.lists(st.tuples(st.integers(0, 3), st.booleans(), st.booleans(), st.integers(1, 1500)),
                min_size=1, max_size=8),
       st.none() | st.tuples(st.integers(0, 3), st.integers(0, 1500)))
def test_every_answer_to_a_request_holds_at_its_receiver(n, loss, max_retries, seed, ops, upgrade):
    """On a lossy chain of 2-4 modules, with SENDs and PUTFILEs to
    neighbours and maybe an upgrade under way: every `OK delivered` payload
    reached its sink exactly once (and no payload twice), every `OK
    transferred` file is stored whole (and none in part), every `ERR 504`
    request reached its receiver, and a session that no adoption reset
    answers every command."""
    scenario = upgrade and upgrade_scenario(f"m{upgrade[0] % n}", 2, 400 + upgrade[1])
    world = World(chain_topology(n, loss=loss, max_retries=max_retries), scenario, seed=seed)
    arrived = {name: [] for name in world.modules}  # the bodies of the messages each node got
    for name, module in world.modules.items():
        def dispatch(port, msg, dispatch=module.node._dispatch, bodies=arrived[name]):
            bodies.append(msg.body)
            dispatch(port, msg)
        module.node._dispatch = dispatch
    world.run_until_cs(400)
    for name in world.modules:
        world.open_session(name).submit("REGISTER sink")
    sessions, asked = {}, defaultdict(list)
    for k, (i, up, send, size) in enumerate(ops):
        i %= n
        j = i - 1 if up and i > 0 or i == n - 1 else i + 1
        if i not in sessions:
            sessions[i] = world.open_session(f"m{i}")
            sessions[i].submit(f"REGISTER a{i}")
        data = (f"op {k} " + "x" * size).encode()
        target = ".".join(["0"] + ["1"] * j)
        sessions[i].submit(f"SEND {target} sink {b64(data)}" if send else
                           f"PUTFILE {target} f{k} {b64(data)}")
        asked[i].append((f"m{j}", f"f{k}" if not send else None, data))
    world.run_until_cs(20_000)
    for i, session in sessions.items():
        lines = session.take_lines()
        answers = [line for line in lines if line.startswith(("OK", "ERR"))][1:]
        assert len(answers) == len(asked[i]) or "EVENT reset 2" in lines
        for (target, name, data), answer in zip(asked[i], answers):
            receiver = world.modules[target].node
            if name is None:
                copies = [r for r in world.log.select("appmsg", target)
                          if r[3].endswith(b64(data))]
                assert len(copies) <= 1
                if answer == "OK delivered":
                    assert len(copies) == 1
            else:
                assert receiver.file_store.get(name) in (None, data.decode())
                if answer == f"OK transferred {name}":
                    assert receiver.file_store[name] == data.decode()
            if answer.startswith("ERR 504"):
                assert any(data in body for body in arrived[target]), answer


def test_neighbors_listing():
    world = World(chain_topology(3))
    world.run_until_cs(300)
    session = world.open_session("m1")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit("NEIGHBORS")
    assert session.take_lines() == ["OK 0:0:1 1:0.1.1:1"]


def test_send_roundtrip_and_log():
    world = settled_pair()
    sink = world.open_session("m1")
    sink.submit("REGISTER sink")
    src = world.open_session("m0")
    src.submit("REGISTER src")
    world.run_until_cs(210)
    payload = bytes(range(64))
    src.submit(f"SEND 0.1 sink {b64(payload)}")
    world.run_until_cs(400)
    assert src.take_lines()[-1] == "OK delivered"
    msg_lines = [l for l in sink.take_lines() if l.startswith("MSG")]
    assert msg_lines == [f"MSG 0 src {b64(payload)}"]
    assert world.log.select("appmsg", "m1")


def test_send_to_unknown_module_is_local_404():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit("SEND 0.3 controller aGVsbG8=")
    assert session.take_lines()[-1] == "ERR 404 unknown module"


def test_send_to_unregistered_app_nacks():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit(f"SEND 0.1 ghost {b64(b'hi')}")
    world.run_until_cs(400)
    assert session.take_lines()[-1] == "ERR 404 unknown app"
    assert any("unknown app ghost" in r[3] for r in world.log.select("drop", "m1"))


def test_send_after_deregistration_nacks_and_never_delivers():
    world = settled_pair()
    sink = world.open_session("m1")
    sink.submit("REGISTER sink")
    src = world.open_session("m0")
    src.submit("REGISTER src")
    world.run_until_cs(210)
    sink.close()
    src.submit(f"SEND 0.1 sink {b64(b'late')}")
    world.run_until_cs(400)
    assert src.take_lines()[-1] == "ERR 404 unknown app"
    assert not [l for l in sink.take_lines() if l.startswith("MSG")]


def test_closed_session_starts_no_queued_command():
    # The SEND waits behind the STATE's round trip; the session closes first.
    world = World(chain_topology(3))
    world.run_until_cs(300)
    session = world.open_session("m0")
    session.submit("REGISTER a")
    session.submit("STATE 0.1")
    session.submit(f"SEND 0.1 nobody {b64(b'hi')}")
    session.close()
    world.run_until_cs(400)
    assert [line.split()[0] for line in session.take_lines()] == ["OK", "OK"]
    assert [r[2] for r in world.log.records if r[0] >= 300] == ["register", "deregister"]


def test_session_reset_by_adoption_starts_no_queued_command():
    # m0's v2 push reaches m1 while m1's PUTFILE to m2 is in flight, so m1
    # holds the push until m2 answers the PUTFILE, and adopts it before the
    # session starts the SEND queued behind: the reset closes the session.
    world = World(chain_topology(3), upgrade_scenario("m0", 2, 300))
    world.run_until_cs(299)
    session = world.open_session("m1")
    session.submit("REGISTER a")
    session.submit(f"PUTFILE 0.1.1 f {b64(b'x' * 3000)}")
    session.submit(f"SEND 0.1.1 nobody {b64(b'hi')}")
    world.run_until_cs(600)
    assert session.take_lines() == ["OK registered a", "OK transferred f", "EVENT reset 2"]
    assert not world.log.select("drop")
    assert [r[1] for r in world.log.select("push-accept")][-2:] == ["m1", "m2"]


def test_finished_pushes_and_file_transfers_leave_no_cyclic_garbage():
    # A file is one FILE message and a push one CODE_PUSH message, each
    # answered through callbacks that refer to nothing that refers back:
    # once either ends, reference counting frees it, and the cyclic GC
    # finds none of it.
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        world = World(chain_topology(3), upgrade_scenario("m0", 2, 300))
        world.run_until_cs(200)
        session = world.open_session("m0")
        session.submit("REGISTER a")
        session.submit(f"PUTFILE 0.1 f {b64(b'x' * 3000)}")
        world.run_until_cs(700)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert session.take_lines() == ["OK registered a", "OK transferred f"]
    assert len(world.log.select("push")) == 4 and not world.log.select("push-fail")
    assert [o for o in garbage if isinstance(o, (ServiceMessage, Ticket, functools.partial))] == []
    functions = {o.__qualname__ for o in garbage if callable(o) and hasattr(o, "__qualname__")}
    # The scenario batch's own pair of closures is the only cycle left.
    assert functions <= {"Scheduler.call_batch.<locals>.fire", "Scheduler.call_batch.<locals>.push_next"}


def test_send_bad_base64_rejected():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit("SEND 0.1 sink not-base64!")
    assert session.take_lines()[-1] == "ERR 400 bad base64"


@pytest.mark.parametrize("line", ["BCAST é", "SEND 0.1 sink é", "PUTFILE 0.1 f é", "EXEC 0.1 é"])
def test_non_ascii_base64_argument_answers_400(line):
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit(line)
    session.submit("VERSION")  # the session is free again
    assert session.take_lines() == ["OK registered app", "ERR 400 bad base64", "OK version=1"]


def test_remote_exec_of_non_ascii_bcast_answers_400():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit(f"EXEC 0.1 {b64('BCAST é'.encode())}")
    world.run_until_cs(400)
    assert session.take_lines() == ["ERR 400 bad base64"]


@pytest.mark.parametrize("line", [
    "SEND 0.1 " + "a" * 300 + " AAAA",
    "PUTFILE 0.1 " + "b" * 300 + " AAAA",
    f"EXEC 0.1 {b64(('SEND 0 ' + 'a' * 300 + ' AAAA').encode())}",  # answered by m1, relayed
], ids=["SEND", "PUTFILE", "remote-EXEC"])
def test_field_too_long_for_the_wire_answers_400(line):
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit(line)
    session.submit("VERSION")  # the session is free again
    world.run_until_cs(400)
    assert session.take_lines() == [
        "OK registered app", "ERR 400 string field too long", "OK version=1"]
    assert not world.log.select("protocol-error")


def test_bcast_zero_neighbors():
    topo = Topology(
        modules=[ModuleSpec("solo", "EAST_WEST", {})], links=[], root="solo")
    world = World(topo)
    world.run_until_cs(10)
    session = world.open_session("solo")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit(f"BCAST {b64(b'x')}")
    assert session.take_lines() == ["OK delivered=0"]


def test_bcast_reaches_all_apps_on_each_neighbor_once():
    # hub with three leaves; two apps on one leaf.
    modules = [
        ModuleSpec("hub", "EAST_WEST", {0: "EAST", 1: "WEST", 2: "UP"}),
        ModuleSpec("a", "EAST_WEST", {0: "WEST"}),
        ModuleSpec("b", "EAST_WEST", {0: "EAST"}),
        ModuleSpec("c", "EAST_WEST", {0: "DOWN"}),
    ]
    links = [
        LinkSpec("hub", 0, "a", 0),
        LinkSpec("hub", 1, "b", 0),
        LinkSpec("hub", 2, "c", 0),
    ]
    world = World(Topology(modules=modules, links=links, root="hub"))
    world.run_until_cs(300)
    leaf_sessions = {}
    for leaf in ("a", "b", "c"):
        session = world.open_session(leaf)
        session.submit(f"REGISTER app_{leaf}")
        leaf_sessions[leaf] = session
    second = world.open_session("a")
    second.submit("REGISTER second")
    hub = world.open_session("hub")
    hub.submit("REGISTER hubapp")
    world.run_until_cs(310)
    for s in (*leaf_sessions.values(), second, hub):
        s.take_lines()
    hub.submit(f"BCAST {b64(b'announce')}")
    world.run_until_cs(600)
    assert hub.take_lines()[-1] == "OK delivered=3"
    for leaf, session in leaf_sessions.items():
        msgs = [l for l in session.take_lines() if l.startswith("MSG")]
        assert msgs == [f"MSG 0 hubapp {b64(b'announce')}"]
    # both apps on leaf "a" received the same payload once each
    assert [l for l in second.take_lines() if l.startswith("MSG")] == \
        [f"MSG 0 hubapp {b64(b'announce')}"]


def test_sender_without_id_shows_as_dash():
    # At 2 cs m1 has no id yet; its BCAST and SEND name the sender "-".
    world = World(chain_topology(2))
    world.run_until_cs(2)
    sink = world.open_session("m0")
    sink.submit("REGISTER sink")
    sender = world.open_session("m1")
    sender.submit("REGISTER a")
    sender.submit(f"BCAST {b64(b'hi')}")
    sender.submit(f"SEND 0 sink {b64(b'hi')}")
    world.run_until_cs(60)
    assert sender.take_lines()[1:3] == ["OK delivered=1", "OK delivered"]
    assert [l for l in sink.take_lines() if l.startswith("MSG")] == [f"MSG - a {b64(b'hi')}"] * 2
    assert [(r[2], r[3]) for r in world.log.records if r[2] in ("appmsg", "bcastmsg")] == \
        [("bcastmsg", f"- a {b64(b'hi')}"), ("appmsg", f"- a {b64(b'hi')}")]


def test_a_push_that_finds_a_request_pending_is_held_until_it_is_answered():
    # m1's SEND of 900 B (4 frames) is still on the link when m0's push
    # (3 frames, taking turns with the reply) arrives; m1 adopts only
    # after the reply has answered its session.
    world = World(chain_topology(2))
    m1 = world.modules["m1"].node
    pending_at_push = []
    on_code_push = m1._on_code_push
    m1._on_code_push = lambda port, msg: (
        pending_at_push.append(sorted(m1._pending)), on_code_push(port, msg))
    world.run_until_cs(2)
    world.open_session("m0").submit("REGISTER sink")
    sender = world.open_session("m1")
    sender.submit("REGISTER a")
    sender.submit(f"SEND 0 sink {b64(b'h' * 900)}")
    world.run_until_cs(60)
    assert pending_at_push == [[1]]
    assert sender.take_lines() == ["OK registered a", "OK delivered", "EVENT reset 1"]
    assert world.log.select("drop", "m1") == []
    assert [r[3] for r in world.log.select("push-accept", "m1")] == ["v=1 id=0.1 from=0"]


def _push_held_behind_an_unanswered_send():
    """A settled pair whose m1 holds a v2 push behind a SEND that m0 never
    answers; returns (world, m1's node, the SEND's session)."""
    world = settled_pair()
    m1 = world.modules["m1"].node
    world.modules["m0"].node._on_appdata = lambda port, msg: None
    session = world.open_session("m1")
    session.submit("REGISTER a")
    session.submit(f"SEND 0 sink {b64(b'hi')}")
    world.run_until_cs(210)
    push = ServiceMessage(Kind.CODE_PUSH, ModuleId((0,)), None,
                          CODE_PUSH.pack(2, ModuleId((0, 1)), b"v2 image"))
    for part in push.link_chunks:
        m1.on_link_payload(0, 0, part)
    assert m1.version == 1  # held behind request 1
    return world, m1, session


def test_a_held_push_is_adopted_when_the_request_it_waits_for_times_out():
    world, m1, session = _push_held_behind_an_unanswered_send()
    world.run_until_cs(210 + m1._reply_timeout_us() // 10_000)
    assert session.take_lines() == ["OK registered a", "ERR 504 send timeout", "EVENT reset 2"]
    assert (m1.version, m1.code_image) == (2, b"v2 image")
    assert [r[3] for r in world.log.select("push-accept", "m1")][1:] == ["v=2 id=0.1 from=0"]


def test_a_push_no_newer_than_the_held_one_or_than_a_local_upgrade_is_rejected():
    world, m1, session = _push_held_behind_an_unanswered_send()
    again = ServiceMessage(Kind.CODE_PUSH, ModuleId((0,)), None,
                           CODE_PUSH.pack(2, ModuleId((0, 1)), b"v2 image"))
    for part in again.link_chunks:
        m1.on_link_payload(0, 0, part)
    m1.upgrade_local(3)  # overtakes the held v2 push
    world.run_until_cs(210 + m1._reply_timeout_us() // 10_000)
    assert session.take_lines() == ["OK registered a", "ERR 504 send timeout"]
    assert [r[3] for r in world.log.select("push-reject", "m1")] == ["v=2 from=0"] * 2
    assert m1.version == 3 and world.log.select("push-accept", "m1")[1:] == []


def test_putfile_one_byte_and_large_are_stored_identically():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit(f"PUTFILE 0.1 tiny.txt {b64(b'x')}")
    world.run_until_cs(400)
    assert session.take_lines()[-1] == "OK transferred tiny.txt"
    assert world.modules["m1"].node.file_store["tiny.txt"] == "x"

    content = ("line %d\n" * 200) % tuple(range(200))
    session.submit(f"PUTFILE 0.1 big.txt {b64(content.encode())}")
    world.run_until_cs(1500)
    assert session.take_lines()[-1] == "OK transferred big.txt"
    assert world.modules["m1"].node.file_store["big.txt"] == content
    stored = world.log.select("file", "m1")
    assert stored[-1][3] == f"big.txt bytes={len(content.encode())}"


def test_putfile_interrupted_leaves_store_unchanged():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    big = "z" * 4096
    session.submit(f"PUTFILE 0.1 part.txt {b64(big.encode())}")
    world.run_until_cs(210)  # a few chunks under way
    world.links[0].severed = True
    world.run_until_cs(2000)
    assert session.take_lines()[-1] == "ERR 409 delivery failed"
    assert "part.txt" not in world.modules["m1"].node.file_store


def test_exec_relays_remote_responses():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit(f"EXEC 0.1 {b64(b'STATE')}")
    world.run_until_cs(400)
    assert session.take_lines() == ["OK " + world.modules["m1"].state_text()]
    session.submit(f"EXEC 0.1 {b64(b'BOGUS')}")
    world.run_until_cs(600)
    assert session.take_lines() == ["ERR 400 unknown command BOGUS"]
    session.submit(f"EXEC 9.9 {b64(b'STATE')}")
    assert session.take_lines() == ["ERR 404 unknown module"]


def test_exec_composes_with_send():
    world = settled_pair()
    sink = world.open_session("m0")
    sink.submit("REGISTER sink")
    src = world.open_session("m0")
    src.submit("REGISTER src")
    world.run_until_cs(210)
    sink.take_lines()
    # Ask m1 to send data back to m0's sink app.
    inner = f"SEND 0 sink {b64(b'boomerang')}"
    src.submit(f"EXEC 0.1 {b64(inner.encode())}")
    world.run_until_cs(800)
    assert src.take_lines()[-1] == "OK delivered"
    assert [l for l in sink.take_lines() if l.startswith("MSG")] == \
        [f"MSG 0.1 _exec {b64(b'boomerang')}"]


def test_start_remote_missing_and_invalid_and_ok():
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit("START 0.1 nothing.role")
    world.run_until_cs(400)
    assert session.take_lines() == ["ERR 404 no such file"]

    bad = "role A extends B { }\n"
    session.submit(f"PUTFILE 0.1 bad.role {b64(bad.encode())}")
    world.run_until_cs(700)
    session.take_lines()
    session.submit("START 0.1 bad.role")
    world.run_until_cs(1000)
    lines = session.take_lines()
    assert lines[-1].startswith("ERR 422")
    assert "unknown parent" in lines[-1]

    good = (
        "role Spin extends Module {\n"
        " require (self.center == $EAST_WEST);\n"
        " behavior go(_) { self.$TURN_CONTINUOUSLY(7); }\n"
        "}\n"
    )
    session.submit(f"PUTFILE 0.1 spin.role {b64(good.encode())}")
    world.run_until_cs(1300)
    session.take_lines()
    session.submit("START 0.1 spin.role")
    world.run_until_cs(1600)
    assert session.take_lines() == ["OK started spin.role"]
    assert world.log.select("role", "m1")[-1][3] == "Spin"
    assert world.log.select("TURN_CONTINUOUSLY", "m1")[-1][3] == "7"
    assert "spin.role" in world.modules["m1"].node.engines


def test_broken_program_answers_422_on_every_start():
    world = settled_pair()
    world.modules["m1"].node.file_store["bad.role"] = "role A extends B { }\n"
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    for until_cs in (400, 600):
        session.submit("START 0.1 bad.role")
        world.run_until_cs(until_cs)
        lines = session.take_lines()
        assert len(lines) == 1 and lines[0].startswith("ERR 422"), lines
        assert "unknown parent" in lines[0]


def test_car_engines_share_one_parsed_program():
    from conftest import CORPUS
    world = World(load_topology(CORPUS / "car.topo"), load_scenario(CORPUS / "car.scen"), seed=1)
    world.run_until_cs(600)
    programs = [module.node.engines["car.role"].program
                for module in world.modules.values()]
    assert len(programs) == 3
    assert all(program is programs[0] for program in programs)


def test_version_and_id_commands():
    world = settled_pair()
    session = world.open_session("m1")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit("VERSION")
    session.submit("ID")
    assert session.take_lines() == ["OK version=1", "OK id=0.1"]


@pytest.mark.parametrize("line", ["NEIGHBORS junk", "VERSION 7", "ID x y"])
def test_commands_without_arguments_refuse_stray_ones(line):
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.submit(line)
    session.submit("VERSION")  # the session is free again
    verb = line.split()[0]
    assert session.take_lines() == ["OK registered app", f"ERR 400 usage: {verb}", "OK version=1"]


def test_malformed_message_body_logged_and_dropped():
    world = settled_pair()
    node = world.modules["m0"].node
    bad = ServiceMessage(Kind.EXEC, ModuleId((0, 1)), None, b"\x01")
    for part in split_for_link(encode_message(bad)):
        node.on_link_payload(1, 0, part)
    assert any("EXEC" in r[3] for r in world.log.select("protocol-error", "m0"))


def test_malformed_beacon_logged_again_when_repeated():
    world = settled_pair()
    node = world.modules["m0"].node
    before = dict(node.neighbor_table)
    bad = ServiceMessage(Kind.VERSION_ANNOUNCE, ModuleId((0, 1)), None, b"\x01")
    for _ in range(2):
        for part in split_for_link(encode_message(bad)):
            node.on_link_payload(1, 0, part)
    errors = [r[3] for r in world.log.select("protocol-error", "m0")]
    assert len(errors) == 2 and errors[0] == errors[1]
    assert errors[0].startswith("VERSION_ANNOUNCE: ")
    assert node.neighbor_table == before


def test_unknown_kind_byte_logged_and_dropped():
    world = settled_pair()
    node = world.modules["m0"].node
    for part in split_for_link(bytes([99, 0, 0])):
        node.on_link_payload(1, 0, part)
    assert any("unknown message kind" in r[3]
               for r in world.log.select("protocol-error", "m0"))


_BODY_LAYOUTS = {
    Kind.HELLO: VERSION, Kind.VERSION_ANNOUNCE: VERSION, Kind.APPDATA: APPDATA, Kind.BCAST: BCAST,
    Kind.REPLY: REQUEST, Kind.CODE_PUSH: CODE_PUSH, Kind.FILE: FILE, Kind.EXEC: REQUEST,
    Kind.START: REQUEST, Kind.INVOKE: INVOKE,
}


def _rejects(kind: Kind, body: bytes) -> bool:
    """Whether the node must log this body as a protocol error."""
    try:
        _BODY_LAYOUTS[kind].unpack(body)
    except ProtocolError:
        return True
    return False


# Small byte values make plausible lengths and chunk positions.
_bodies = st.binary(max_size=24) | st.lists(
    st.sampled_from(b"\x00\x01\x02\x03\x050129.\xff"), max_size=24).map(bytes)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(Kind), _bodies, st.sampled_from([None, "app", "x"])),
                min_size=1, max_size=4))
@example([(Kind.CODE_PUSH, CODE_PUSH.pack(version, ModuleId((0, 1)), b"image"), None)
          for version in (1, 0, 2)])  # an equal, an older and a newer push
@example([(Kind.CODE_PUSH, VERSION.pack(2) + b"\x02" + b"01", None)])  # a non-canonical new id
def test_every_kind_with_any_body_is_handled_or_logged_as_protocol_error(messages):
    world = settled_pair()
    node = world.modules["m0"].node
    world.open_session("m0").submit("REGISTER app")
    for kind, body, dst_app in messages:
        before = len(world.log.select("protocol-error", "m0"))
        for part in ServiceMessage(kind, ModuleId((0, 1)), dst_app, body).link_chunks:
            node.on_link_payload(1, 0, part)
        errors = world.log.select("protocol-error", "m0")[before:]
        assert [r[3].split(":")[0] for r in errors] == [kind.name] * _rejects(kind, body)
    world.run_until_cs(600)


def test_64kib_transfer_under_20_percent_loss_byte_identical():
    # Large chunked transfer across a lossy link reassembles exactly.
    world = World(pair_topology(loss=0.2, max_retries=20), seed=31)
    world.run_until_cs(300)
    session = world.open_session("m0")
    session.submit("REGISTER loader")
    world.run_until_cs(320)
    rng = __import__("random").Random(8)
    content = "".join(rng.choice("abcdefghij\n") for _ in range(64 * 1024))
    session.submit(f"PUTFILE 0.1 big.blob {b64(content.encode())}")
    world.run_until_cs(30_000)
    assert session.take_lines()[-1] == "OK transferred big.blob"
    assert world.modules["m1"].node.file_store["big.blob"] == content
    assert sum(l.drops for l in world.links) > 0


def test_role_program_file_transfers_byte_identical_over_lossy_link():
    import hashlib

    from conftest import CORPUS
    world = World(pair_topology(loss=0.2, max_retries=20), seed=17)
    world.run_until_cs(300)
    session = world.open_session("m0")
    session.submit("REGISTER loader")
    world.run_until_cs(320)
    program = (CORPUS / "car.role").read_text()
    session.submit(f"PUTFILE 0.1 car.role {b64(program.encode())}")
    world.run_until_cs(5000)
    assert session.take_lines()[-1] == "OK transferred car.role"
    stored = world.modules["m1"].node.file_store["car.role"]
    assert hashlib.sha256(stored.encode()).hexdigest() == \
        hashlib.sha256(program.encode()).hexdigest()


def test_transfer_then_remote_start_runs_wheel_behavior():
    from conftest import CORPUS
    world = settled_pair()
    session = world.open_session("m0")
    session.submit("REGISTER deployer")
    session.take_lines()
    program = (CORPUS / "car.role").read_text()
    session.submit(f"PUTFILE 0.1 car.role {b64(program.encode())}")
    world.run_until_cs(900)
    assert session.take_lines()[-1] == "OK transferred car.role"
    session.submit("START 0.1 car.role")
    world.run_until_cs(1200)
    assert session.take_lines() == ["OK started car.role"]
    # m1's only connection sits on its WEST-labelled port: LeftWheel moves.
    assert world.log.select("role", "m1")[-1][3] == "LeftWheel"
    assert world.log.select("TURN_CONTINUOUSLY", "m1")[-1][3] == "-150"


def test_bcast_reports_failed_neighbors_individually():
    modules = [
        ModuleSpec("hub", "EAST_WEST", {0: "EAST", 1: "WEST"}),
        ModuleSpec("ok", "EAST_WEST", {0: "WEST"}),
        ModuleSpec("gone", "EAST_WEST", {0: "EAST"}),
    ]
    links = [
        LinkSpec("hub", 0, "ok", 0),
        LinkSpec("hub", 1, "gone", 0),
    ]
    world = World(Topology(modules=modules, links=links, root="hub"))
    world.run_until_cs(300)
    session = world.open_session("hub")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit(f"BCAST {b64(b'ping')}")
    world.links[1].severed = True  # cut one arm while the frames fly
    world.run_until_cs(3000)
    lines = session.take_lines()
    assert lines == ["OK delivered=1 failed=0.1"]


def test_bcast_answers_once_when_its_last_ticket_resolves():
    # hub - a, b, c. The hub never hears from c, so port 2 has no
    # neighbour entry. Ports 1 and 2 are cut with the BCAST in flight;
    # port 1 also has a SEND queued ahead of it, so port 2 fails first.
    modules = [
        ModuleSpec("hub", "EAST_WEST", {0: "EAST", 1: "WEST", 2: "UP"}),
        ModuleSpec("a", "EAST_WEST", {0: "WEST"}),
        ModuleSpec("b", "EAST_WEST", {0: "EAST"}),
        ModuleSpec("c", "EAST_WEST", {0: "DOWN"}),
    ]
    links = [LinkSpec("hub", 0, "a", 0), LinkSpec("hub", 1, "b", 0), LinkSpec("hub", 2, "c", 0)]
    world = World(Topology(modules=modules, links=links, root="hub"))
    world.links[2].severed = True
    world.run_until_cs(370)  # the hub's give-ups toward c are over
    world.links[2].severed = False
    hub = world.modules["hub"]
    assert sorted(hub.node.neighbor_table) == [0, 1]
    sender = world.open_session("hub")
    sender.submit("REGISTER sender")
    session = world.open_session("hub")
    session.submit("REGISTER app")
    resolved = []
    send_port = hub.send_port

    def capture(port, msg):
        ticket = send_port(port, msg)
        ticket.on_done(lambda t: resolved.append((port, msg.kind)))
        return ticket

    hub.send_port = capture
    sender.submit(f"SEND 0.1 sink {b64(bytes(2000))}")
    session.take_lines()
    session.submit(f"BCAST {b64(b'ping')}")
    del hub.send_port
    world.links[1].severed = world.links[2].severed = True
    world.run_until_cs(1000)
    assert resolved == [(0, Kind.BCAST), (1, Kind.APPDATA), (2, Kind.BCAST), (1, Kind.BCAST)]
    assert session.take_lines() == ["OK delivered=1 failed=0.1,port:2"]


def test_deeply_nested_program_answers_422():
    world = settled_pair()
    world.modules["m1"].node.file_store["deep.role"] = (
        "role A extends Module {\n " + "handle $EVENT_HANDLER_1 { " * 2000 + "}" * 2000 + "\n}\n")
    session = world.open_session("m0")
    session.submit("REGISTER app")
    session.take_lines()
    session.submit("START 0.1 deep.role")
    world.run_until_cs(400)
    assert session.take_lines() == ["ERR 422 line 2: expression nested too deeply"]


def test_repeated_beacons_are_decoded_once_and_changed_ones_again(monkeypatch):
    world = settled_pair()
    decoded = []
    decode = node_module.decode_message
    monkeypatch.setattr(node_module, "decode_message",
                        lambda data: decoded.append(data[0]) or decode(data))
    parsed = []
    unpack = VERSION.unpack
    monkeypatch.setattr(VERSION, "unpack", lambda body: parsed.append(body) or unpack(body))
    world.run_until_cs(800)  # six more announce rounds, byte for byte the same
    assert decoded == [] and parsed == []
    m1 = world.modules["m1"].node
    assert m1.neighbor_table[0] == (ModuleId((0,)), 1)
    world.modules["m0"].node.upgrade_local(2)
    world.run_until_cs(1200)  # a push, then one new announce each way and no HELLO
    assert decoded.count(Kind.VERSION_ANNOUNCE) == 2
    assert decoded.count(Kind.CODE_PUSH) == 1
    assert m1.neighbor_table[0] == (ModuleId((0,)), 2)
    assert world.modules["m0"].node.neighbor_table[1] == (ModuleId((0, 1)), 2)
    assert len(parsed) == decoded.count(Kind.HELLO) + decoded.count(Kind.VERSION_ANNOUNCE) == 2
    decoded.clear()
    parsed.clear()
    world.run_until_cs(2000)
    assert decoded == [] and parsed == []


def _sent(world, name: str, kind: Kind) -> list[ServiceMessage]:
    """Tap a module's sends: every message of this kind it sends."""
    sent = []
    module = world.modules[name]
    send_port = module.send_port

    def capture(port, msg):
        if msg.kind is kind:
            sent.append(msg)
        return send_port(port, msg)

    module.send_port = capture
    return sent


def test_invoke_wants_no_status_and_send_still_gets_one():
    world = settled_pair()
    world.open_session("m1").submit("REGISTER sink")
    m1 = world.modules["m1"].node
    m1.file_store["leaf.role"] = "role Leaf extends Module { command wave(_) { } }\n"
    assert m1.start_program("leaf.role") == "OK started leaf.role"
    invoked = _sent(world, "m0", Kind.INVOKE)
    sent, answered = _sent(world, "m0", Kind.APPDATA), _sent(world, "m1", Kind.REPLY)
    world.modules["m0"].node.invoke_neighbors("leaf.role", "Leaf", "wave")
    world.run_until_cs(300)
    # One INVOKE message and no APPDATA leave m0; m1 runs the command,
    # logs no appmsg and answers nothing.
    assert [(msg.dst_app, msg.body) for msg in invoked] == [("leaf.role", INVOKE.pack("Leaf", "wave"))]
    assert sent == []
    assert world.log.select("run-begin", "m1")[-1][3] == "command wave"
    assert world.log.select("appmsg") == []
    assert answered == []
    session = world.open_session("m0")
    session.submit("REGISTER src")
    session.submit(f"SEND 0.1 sink {b64(b'hi')}")
    world.run_until_cs(400)
    assert session.take_lines() == ["OK registered src", "OK delivered"]
    req_id = APPDATA.unpack(sent[0].body)[0]
    assert [REQUEST.unpack(msg.body) for msg in answered] == [(req_id, "OK delivered")]
    assert world.log.select("drop") == []


def test_invoke_for_a_name_with_no_engine_is_logged_as_drop():
    world = settled_pair()
    world.open_session("m1").submit("REGISTER sink")  # an app, not an engine
    world.modules["m0"].node.invoke_neighbors("sink", "Leaf", "wave")
    world.run_until_cs(300)
    assert [r[3] for r in world.log.select("drop", "m1")] == ["invoke for unknown app sink"]
    assert world.log.select("appmsg") == []


def test_status_for_a_request_no_longer_pending_is_logged_as_drop():
    world = settled_pair()
    world.open_session("m1").submit("REGISTER sink")
    sent = _sent(world, "m0", Kind.APPDATA)
    session = world.open_session("m0")
    session.submit("REGISTER src")
    session.submit(f"SEND 0.1 sink {b64(b'hi')}")
    world.run_until_cs(300)
    assert session.take_lines() == ["OK registered src", "OK delivered"]
    req_id = APPDATA.unpack(sent[0].body)[0]
    late = ServiceMessage(Kind.REPLY, ModuleId((0, 1)), None, REQUEST.pack(req_id, "OK delivered"))
    for part in late.link_chunks:
        world.modules["m0"].node.on_link_payload(1, 0, part)
    assert [r[3] for r in world.log.select("drop", "m0")] == [f"reply for unknown request {req_id}"]
    assert session.take_lines() == []


def test_a_stale_beacon_after_a_delivered_push_starts_no_second_push():
    # m1 adopted v1 from m0's push; a VERSION_ANNOUNCE that m1 sent before it
    # adopted (a retransmission on a lossy link) arrives only now.
    world = World(pair_topology(), seed=1)
    world.run_until_cs(300)
    m0 = world.modules["m0"].node
    assert m0.neighbor_table[1] == (ModuleId((0, 1)), 1)
    stale = ServiceMessage(Kind.VERSION_ANNOUNCE, ModuleId(), None, VERSION.pack(0))
    for part in stale.link_chunks:
        m0.on_link_payload(1, 0, part)
    world.run_until_cs(600)
    assert [r[3] for r in world.log.select("push", "m0")] == ["v=1 port=1 id=0.1"]
    assert world.log.select("push-reject", "m1") == []


def test_a_push_is_one_code_push_message_of_three_link_frames():
    world = World(pair_topology(), seed=1)
    m0 = world.modules["m0"]
    pushed = _sent(world, "m0", Kind.CODE_PUSH)
    protocol = m0.ports[1].protocol
    transmit = protocol._transmit
    chunked = []  # payloads of DATA frames that carry part of a longer message

    def tap(data: bytes) -> None:
        frame = decode_frame(data)
        if frame.frame_type is FrameType.DATA and frame.payload[:4] != b"\x00\x00\x00\x01":
            chunked.append(frame.payload)
        transmit(data)

    protocol._transmit = tap
    world.run_until_cs(300)
    assert [CODE_PUSH.unpack(msg.body) for msg in pushed] == [
        (1, ModuleId((0, 1)), node_module.make_image(1))]
    assert len(pushed[0].link_chunks) == 3
    assert chunked == list(pushed[0].link_chunks)  # one frame each, none sent again
    assert world.modules["m1"].node.version == 1
    assert m0.node.neighbor_table[1] == (ModuleId((0, 1)), 1)


@pytest.mark.parametrize("version", [1, 0])
def test_an_equal_or_older_code_push_is_rejected_and_changes_nothing(version):
    world = settled_pair()
    m1 = world.modules["m1"].node
    image = m1.code_image
    push = ServiceMessage(Kind.CODE_PUSH, ModuleId((0,)), None,
                          CODE_PUSH.pack(version, ModuleId((0, 7)), b"other image"))
    for part in push.link_chunks:
        m1.on_link_payload(0, 0, part)
    assert [r[3] for r in world.log.select("push-reject", "m1")] == [f"v={version} from=0"]
    assert (str(m1.module_id), m1.version, m1.code_image) == ("0.1", 1, image)
    assert m1.neighbor_table[0] == (ModuleId((0,)), 1)  # an older push does not lower it


def test_the_retired_id_assign_kind_byte_is_a_protocol_error():
    world = settled_pair()
    m1 = world.modules["m1"].node
    # Kind 11 with the body an ID_ASSIGN carried: version 2, new id 0.7.
    for part in split_for_link(bytes([11, 1]) + b"0" + b"\x00" + VERSION.pack(2) + b"\x030.7"):
        m1.on_link_payload(0, 0, part)
    assert [r[3] for r in world.log.select("protocol-error", "m1")] == ["unknown message kind 11"]
    assert (str(m1.module_id), m1.version) == ("0.1", 1)


_names = st.text(max_size=255).map(lambda text: text.encode()[:255].decode("utf-8", "ignore"))
_deep_ids = st.lists(st.integers(0, 255), max_size=60).map(lambda path: ModuleId(tuple(path)))


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=2000), _names, _deep_ids)
@example("x" * 5000, "n" * 255, ModuleId((255,) * 60))
@example("", "", ModuleId())
def test_a_file_is_one_message_stored_whole_from_its_link_chunks(text, name, module_id):
    world = settled_pair()
    m1 = world.modules["m1"].node
    data = text.encode()
    msg = ServiceMessage(Kind.FILE, module_id, None, FILE.pack(1, name, data))
    for part in msg.link_chunks:  # under a tag other than 0, as an interleaved file would be
        m1.on_link_payload(0, 3, part)
    assert m1.file_store[name] == text
    assert world.log.select("file", "m1")[-1][3] == f"{name} bytes={len(data)}"


def test_a_send_submitted_behind_a_file_arrives_before_it():
    world = settled_pair()
    files, sends, sink = world.open_session("m0"), world.open_session("m0"), world.open_session("m1")
    for session, name in ((files, "files"), (sends, "sends"), (sink, "sink")):
        session.submit(f"REGISTER {name}")
    world.run_until_cs(210)
    files.submit(f"PUTFILE 0.1 f {b64(b'x' * 3000)}")
    sends.submit(f"SEND 0.1 sink {b64(b'hi')}")
    world.run_until_cs(600)
    assert [r[2] for r in world.log.records if r[2] in ("appmsg", "file")] == ["appmsg", "file"]
    assert files.take_lines()[-1] == "OK transferred f"
    assert sends.take_lines()[-1] == "OK delivered"


def test_a_file_answered_transferred_across_an_adoption_is_stored_whole():
    # Defect 1e's repro: m1 adopts v2 while its PUTFILE to m2 is on the wire,
    # then pushes v2 to m2, which adopts it while the file is still arriving.
    world = World(chain_topology(3), upgrade_scenario("m0", 2, 300))
    world.run_until_cs(299)
    session = world.open_session("m1")
    session.submit("REGISTER a")
    text = "".join(f"line {i:04d}\n" for i in range(300))
    assert len(text) == 3000
    session.submit(f"PUTFILE 0.1.1 f {b64(text.encode())}")
    world.run_until_cs(600)
    lines = session.take_lines()
    assert [line for line in lines if "transfer" in line] != []  # the PUTFILE was answered
    assert world.modules["m2"].node.version == 2
    if "OK transferred f" in lines:
        assert world.modules["m2"].node.file_store.get("f") == text


def test_a_push_whose_child_id_does_not_fit_the_wire_is_a_protocol_error():
    # A module 16,383 hops deep cannot name a child: 16,384 hops do not fit
    # the id's 2-byte hop count.
    world = settled_pair()
    m0 = world.modules["m0"].node
    m0.module_id = ModuleId((0,) * 16_383)
    pushes = len(world.log.select("push", "m0"))
    m0.upgrade_local(5)
    assert [r[3] for r in world.log.select("protocol-error", "m0")] == [
        "CODE_PUSH: module id of 16384 hops is too long"]
    assert len(world.log.select("push", "m0")) == pushes
    assert m0._push_inflight == set()
