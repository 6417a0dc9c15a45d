"""Versioned code diffusion: convergence, push accounting, id uniqueness."""

import base64
import re

from hypothesis import given, settings, strategies as st

from modbot import link
from modbot.link import FrameType, Ticket, TicketState, decode_frame
from modbot.messages import VERSION, Kind, ModuleId, decode_message
from modbot.world import Scenario, ScenarioEvent, World

from conftest import (
    CONVERGENCE, build, chain_topology, diamond_topology, tree_topology, upgrade_scenario,
)


def _accepts(world: World, version: int) -> dict[str, int]:
    """push-accept records for one version, counted per module."""
    counts: dict[str, int] = {}
    for _, module, _, payload in world.log.select("push-accept"):
        if f"v={version} " in payload + " " or payload.startswith(f"v={version} "):
            counts[module] = counts.get(module, 0) + 1
    return counts


def _versions(world: World) -> list[int]:
    return [m.node.version for m in world.modules.values()]


def _ids(world: World) -> list[str]:
    return [str(m.node.module_id) for m in world.modules.values()]


def test_chain_of_ten_reaches_v2_with_nine_pushes():
    world = build(chain_topology(10), upgrade_scenario("m0", 2, at_cs=1000), seed=3)
    world.run_until_cs(3000)
    assert _versions(world) == [2] * 10
    accepts = _accepts(world, 2)
    assert sum(accepts.values()) == 9  # one hop per chain edge
    assert all(count == 1 for count in accepts.values())
    ids = _ids(world)
    assert len(set(ids)) == 10
    # The chain wiring makes the dotted paths fully predictable.
    assert ids == ["0" + ".1" * k for k in range(10)]


def test_equal_versions_never_transfer():
    world = build(chain_topology(2), upgrade_scenario("m0", 2, at_cs=500), seed=1)
    world.run_until_cs(1500)
    assert _versions(world) == [2, 2]
    pushes_before = len(world.log.select("push"))
    world.run_until_cs(4000)  # many announce periods later
    assert len(world.log.select("push")) == pushes_before


def test_diamond_each_module_accepts_exactly_one_push():
    world = build(diamond_topology(), upgrade_scenario("t", 2, at_cs=1000), seed=9)
    world.run_until_cs(4000)
    assert _versions(world) == [2, 2, 2, 2]
    for version in (1, 2):
        accepts = _accepts(world, version)
        assert accepts == {"l": 1, "r": 1, "b": 1}
    # The second push over the other diamond arm completed and was refused.
    rejects = [r for r in world.log.select("push-reject", "b") if "v=2" in r[3]]
    assert len(rejects) == 1
    assert len(set(_ids(world))) == 4


def test_random_tree_converges_with_distinct_ids():
    topo = tree_topology(20, seed=42)
    world = build(topo, upgrade_scenario("n0", 2, at_cs=1500), seed=6)
    world.run_until_cs(6000)
    assert _versions(world) == [2] * 20
    accepts = _accepts(world, 2)
    assert sum(accepts.values()) == 19
    assert all(count == 1 for count in accepts.values())
    ids = _ids(world)
    assert len(set(ids)) == 20
    assert all(re.fullmatch(r"0(\.\d+)*", mid) for mid in ids)


def test_version_monotonic_per_module_across_seeds():
    for seed in (1, 2, 3):
        topo = chain_topology(5, loss=0.25, max_retries=12)
        world = build(topo, upgrade_scenario("m0", 3, at_cs=1500), seed=seed)
        world.run_until_cs(6000)
        for name in world.modules:
            seen = [int(r[3]) for r in world.log.select("version", name)]
            assert seen == sorted(seen)
            boots = world.log.select("boot", name)
            assert boots  # every module booted exactly once
        assert _versions(world) == [3] * 5


def test_convergence_under_loss_within_sixty_seconds():
    topo = tree_topology(20, seed=11, loss=0.2, max_retries=8)
    world = build(topo, upgrade_scenario("n0", 2, at_cs=500), seed=13)
    world.run_until_cs(6000)  # 60 simulated seconds
    assert _versions(world) == [2] * 20
    assert len(set(_ids(world))) == 20


def test_upgrade_to_older_version_ignored():
    world = build(chain_topology(2), upgrade_scenario("m0", 1, at_cs=500), seed=1)
    world.run_until_cs(1000)
    assert world.modules["m0"].node.version == 1
    assert world.log.select("upgrade-ignored", "m0")


def test_sessions_reset_on_adoption():
    world = build(chain_topology(2), upgrade_scenario("m0", 2, at_cs=1000), seed=1)
    world.run_until_cs(500)
    session = world.open_session("m1")
    session.submit("REGISTER observer")
    assert session.take_lines() == ["OK registered observer"]
    world.run_until_cs(3000)
    lines = session.take_lines()
    assert any(l.startswith("EVENT reset 2") for l in lines)
    assert session.closed
    assert "observer" not in world.modules["m1"].node.apps


def test_ids_distinct_over_many_random_trees():
    for tree_seed in (1, 2, 3, 4):
        topo = tree_topology(12, seed=tree_seed)
        world = build(topo, upgrade_scenario("n0", 2, at_cs=1000), seed=tree_seed)
        world.run_until_cs(4000)
        assert _versions(world) == [2] * 12
        ids = _ids(world)
        assert len(set(ids)) == 12, f"collision in tree seed {tree_seed}: {ids}"


def _beacons_on_wire(port) -> list[tuple[str, str, int]]:
    """Tap a port's transmissions: (kind, src id, version) of every
    HELLO/VERSION_ANNOUNCE frame it puts on the wire, in order."""
    seen = []
    transmit = port._transmit

    def tap(data: bytes) -> None:
        frame = decode_frame(data)
        if frame.frame_type is FrameType.DATA and frame.payload[:4] == b"\x00\x00\x00\x01":
            msg = decode_message(frame.payload[4:])
            if msg.kind in (Kind.HELLO, Kind.VERSION_ANNOUNCE):
                seen.append((msg.kind.name, str(msg.src), VERSION.unpack(msg.body)[0]))
        transmit(data)

    port._transmit = tap
    return seen


def test_beacons_carry_the_new_id_and_version():
    # A module sends one HELLO on each port at bootstrap. A push names the
    # pusher's id and version and the receiver's new ones, so after a change
    # of version neither end of a push sends a HELLO over it: the next
    # beacon there is the tick's announce, with the new id and version.
    world = build(chain_topology(2), seed=1)
    root = _beacons_on_wire(world.modules["m0"].ports[1].protocol)
    leaf = _beacons_on_wire(world.modules["m1"].ports[0].protocol)
    world.run_until_cs(1)
    assert (root, leaf) == ([("HELLO", "0", 1)], [("HELLO", "", 0)])
    world.run_until_cs(250)  # m1 adopted v1 and its id before its first tick
    assert leaf[1:] == [("VERSION_ANNOUNCE", "0.1", 1)] * 2
    sent_root, sent_leaf = len(root), len(leaf)
    world.modules["m0"].node.upgrade_local(2)
    world.run_until_cs(600)  # m1 adopted v2
    assert set(root[sent_root:]) == {("VERSION_ANNOUNCE", "0", 2)}
    assert set(leaf[sent_leaf:]) == {("VERSION_ANNOUNCE", "0.1", 2)}


def _tap_adoptions(world: World) -> list[tuple[str, int, list, list]]:
    """Record every adoption as (module, pusher's port, [(port, kind name)]
    of each message it sent, the sends the rule expects): nothing to the
    pusher or to a port with a push in flight, a push and no HELLO to each
    neighbour known to be older, and a HELLO to each other neighbour."""
    adoptions = []
    for name, module in world.modules.items():
        _tap_adoption(name, module, adoptions)
    return adoptions


def _tap_adoption(name, module, adoptions) -> None:
    node, send_port, adopt = module.node, module.send_port, module.node._adopt
    sent = []

    def send(port, msg):
        sent.append((port, msg.kind.name))
        return send_port(port, msg)

    def tapped(version, new_id, blob, src, pusher):
        expected = []
        for port in module.connected_ports():
            entry = node.neighbor_table.get(port)
            if port != pusher and port not in node._push_inflight:
                older = entry is not None and entry[1] < version
                expected.append((port, "CODE_PUSH" if older else "HELLO"))
        sent.clear()
        adopt(version, new_id, blob, src, pusher)
        adoptions.append((name, pusher, list(sent), expected))

    module.send_port = send
    node._adopt = tapped


def _check_adoption_sends(adoptions) -> int:
    """Check that each adoption sent what the rule expects; returns the
    number of HELLOs the adoptions sent."""
    for name, pusher, sent, expected in adoptions:
        assert sorted(sent) == sorted(expected), (name, pusher, sent, expected)
    return sum(kind == "HELLO" for _name, _pusher, sent, _ in adoptions for _port, kind in sent)


def test_an_adoption_greets_only_the_neighbours_no_push_told():
    for topology, root in ((chain_topology(8), "m0"), (tree_topology(20, seed=42), "n0")):
        world = build(topology, upgrade_scenario(root, 2, at_cs=500), seed=6)
        adoptions = _tap_adoptions(world)
        world.run_until_cs(1500)
        assert _versions(world) == [2] * len(world.modules)
        assert len(adoptions) == 2 * (len(world.modules) - 1)  # v1 at boot, then v2
        # Lossless: every neighbour but the pusher is older, so none is greeted.
        assert _check_adoption_sends(adoptions) == 0


def test_an_adoption_greets_a_neighbour_at_its_new_version():
    # The diamond's b holds l's v2 push behind a SEND that l never answers,
    # and rejects r's; when the SEND times out b adopts l's push, greets r,
    # which runs v2 already but does not know b's new id, and sends l nothing.
    world = build(diamond_topology(), upgrade_scenario("t", 2, at_cs=1000), seed=9)
    world.run_until_cs(990)
    world.modules["l"].node._on_appdata = lambda port, msg: None
    session = world.open_session("b")
    session.submit("REGISTER a")
    session.submit(f"SEND 0.1 sink {base64.b64encode(b'hi').decode()}")
    adoptions = _tap_adoptions(world)
    b = world.modules["b"].node
    world.run_until_cs(1100)
    assert b.version == 1
    assert b.neighbor_table == {0: (ModuleId((0, 1)), 2), 1: (ModuleId((0, 2)), 2)}
    world.run_until_cs(3000)
    assert session.take_lines() == ["OK registered a", "ERR 504 send timeout", "EVENT reset 2"]
    assert [(name, pusher, sent) for name, pusher, sent, _expected in adoptions][2:] == [
        ("b", 0, [(1, "HELLO")])]
    assert _check_adoption_sends(adoptions) == 1
    assert world.modules["r"].node.neighbor_table[1] == (ModuleId((0, 1, 1)), 2)


def test_the_receiver_of_a_push_holds_the_pushers_id_and_version():
    # Neither m1 nor m2 gets a HELLO after m0's upgrade; each learns its
    # pusher's new version from the push. (The diamond test above shows the
    # same for a push that is held or rejected.)
    world = build(chain_topology(3), seed=1)
    world.run_until_cs(500)
    m1, m2 = world.modules["m1"].node, world.modules["m2"].node
    assert m1.neighbor_table[0] == (ModuleId((0,)), 1)
    assert m2.neighbor_table[0] == (ModuleId((0, 1)), 1)
    seen = []
    on_code_push = m2._on_code_push
    m2._on_code_push = lambda port, msg: (
        on_code_push(port, msg), seen.append(m2.neighbor_table[port]))
    world.modules["m0"].node.upgrade_local(2)
    world.run_until_cs(560)  # before any module's next tick
    assert seen == [(ModuleId((0, 1)), 2)]
    assert m1.neighbor_table[0] == (ModuleId((0,)), 2)


def test_a_pusher_that_adopted_again_while_its_push_was_in_flight_pushes_at_delivery():
    # m0 reaches v3 while its v2 push to m1 is in flight. m1 greets no
    # pusher, so m0 pushes v3 the moment the v2 push is delivered (521 cs:
    # the 500 cs tick's announce took its turn after the push's first
    # frame), not on its next tick (600 cs).
    scenario = Scenario(events=[
        ScenarioEvent(500, "upgrade", ("m0", 2)), ScenarioEvent(505, "upgrade", ("m0", 3))])
    world = build(chain_topology(3), scenario, seed=1)
    beacons = _beacons_on_wire(world.modules["m0"].ports[1].protocol)
    world.run_until_cs(504)
    sent = len(beacons)
    world.run_until_cs(599)
    # The v3 push names the id and version that a HELLO queued at 505 cs
    # behind the v2 push would, so none goes on the wire.
    assert [beacon for beacon in beacons[sent:] if beacon[0] == "HELLO"] == []
    assert _versions(world) == [3, 3, 3]
    assert "521 m0 push v=3 port=1 id=0.1" in world.log.lines()


def test_diffusion_reaches_past_depth_127():
    # A module id carries its hop count and one byte per hop, so a chain
    # of 130 converges; with ids as dotted text, a pstr of over 255 bytes
    # stopped diffusion at m127.
    world = build(chain_topology(130), upgrade_scenario("m0", 2, at_cs=100), seed=1)
    world.run_until_cs(4000)
    assert _accepts(world, 2) == {f"m{i}": 1 for i in range(1, 130)}
    assert world.log.select("protocol-error") == []
    assert str(world.modules["m129"].node.module_id) == ".".join(["0"] + ["1"] * 129)


def test_a_delivered_push_updates_the_pushers_table_before_the_childs_beacon():
    # The moment a push's CODE_PUSH is acknowledged the pusher knows the
    # child's new id and version, so a tick then pushes nothing again.
    world = build(chain_topology(2), seed=1)
    module = world.modules["m0"]
    node = module.node
    seen = []

    def finished(ticket: Ticket) -> None:
        pushes = len(world.log.select("push", "m0"))
        node._tick()
        seen.append((ticket.state is TicketState.DELIVERED, node.neighbor_table[1],
                     len(world.log.select("push", "m0")) - pushes))

    class _Tap:
        """The CODE_PUSH ticket, running `finished` after the node's own callback."""

        def __init__(self, ticket: Ticket):
            self._ticket = ticket

        def on_done(self, fn) -> None:
            self._ticket.on_done(fn)
            self._ticket.on_done(finished)

    send_port = module.send_port
    module.send_port = lambda port, msg: (
        _Tap(send_port(port, msg)) if msg.kind is Kind.CODE_PUSH else send_port(port, msg))
    world.run_until_cs(200)
    assert seen == [(True, (ModuleId((0, 1)), 1), 0)]
    assert world.log.select("push-reject") == []


@st.composite
def _lossy_worlds(draw):
    """A chain or tree of 2-6 modules at loss 0-0.3 and 1-3 retries, whose
    topology root is upgraded one to three times; returns (world, newest
    version, time of the last upgrade in cs)."""
    n = draw(st.integers(2, 6))
    loss = draw(st.floats(0.0, 0.3))
    retries = draw(st.integers(1, 3))
    if draw(st.booleans()):
        topology = chain_topology(n, loss=loss, max_retries=retries)
    else:
        topology = tree_topology(n, draw(st.integers(0, 99)), loss=loss, max_retries=retries)
    times = sorted(draw(st.lists(st.integers(0, 2000), min_size=1, max_size=3)))
    events = [ScenarioEvent(t, "upgrade", (topology.root, version))
              for version, t in enumerate(times, start=2)]
    world = World(topology, Scenario(events=events), seed=draw(st.integers(0, 2**32 - 1)))
    return world, len(times) + 1, times[-1]


@settings(CONVERGENCE)
@given(_lossy_worlds())
def test_lossy_diffusion_converges_to_the_newest_version_with_distinct_ids(case):
    # Quiescence: every module at the newest version, with no push in
    # flight or held. Each tick retries what loss broke, so it comes.
    world, newest, last_cs = case
    nodes = [module.node for module in world.modules.values()]
    t_cs = last_cs
    while t_cs < last_cs + 30_000 and not all(
            node.version == newest and not node._push_inflight and node._held_push is None
            for node in nodes):
        t_cs += 200
        world.run_until_cs(t_cs)
    assert _versions(world) == [newest] * len(nodes)
    assert len(set(_ids(world))) == len(nodes)
    for name in world.modules:
        seen = [int(r[3]) for r in world.log.select("version", name)]
        assert seen == sorted(seen)


def test_a_failed_push_whose_child_adopted_is_healed_by_the_childs_next_announce():
    # m1 adopts v2 at 980 cs, but every ACK it sends for the push's last
    # frame is lost, so m0 logs push-fail at 1016 cs. m1's 1000 cs announce
    # already told m0 that m1 runs v2 under id 0.1, so no push follows.
    world = build(chain_topology(2, max_retries=3), upgrade_scenario("m0", 2, at_cs=960), seed=1)
    m0 = world.modules["m0"].node
    protocol = world.modules["m1"].ports[0].protocol
    transmit = protocol._transmit

    def lose_acks(data: bytes) -> None:
        if not (data in link._ACK_SEQ and world.scheduler.now >= 977 * 10_000
                and 1 in m0._push_inflight):
            transmit(data)

    protocol._transmit = lose_acks
    world.run_until_cs(3000)
    assert world.log.lines()[5:] == [
        "960 m0 version 2", "960 m0 push v=2 port=1 id=0.1",
        "980 m1 version 2", "980 m1 push-accept v=2 id=0.1 from=0",
        "1016 m0 push-fail v=2 port=1"]
    assert m0.neighbor_table[1] == (ModuleId((0, 1)), 2)
