"""Versioned code diffusion: convergence, push accounting, id uniqueness."""

import re

from modbot.link import FrameType, Ticket, TicketState, decode_frame
from modbot.messages import VERSION, Kind, ModuleId, decode_message
from modbot.world import World

from conftest import (
    build, chain_topology, diamond_topology, tree_topology, upgrade_scenario,
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
    # A module sends one HELLO on each port at bootstrap and after each
    # change of version; its next beacon there is the tick's announce, with
    # the same id and version.
    world = build(chain_topology(2), seed=1)
    root = _beacons_on_wire(world.modules["m0"].ports[1].protocol)
    leaf = _beacons_on_wire(world.modules["m1"].ports[0].protocol)
    world.run_until_cs(1)
    assert leaf == [("HELLO", "", 0)]
    world.run_until_cs(250)  # m1 adopted v1 and its id before its first tick
    assert leaf[1:3] == [("HELLO", "0.1", 1), ("VERSION_ANNOUNCE", "0.1", 1)]
    sent_root, sent_leaf = len(root), len(leaf)
    world.modules["m0"].node.upgrade_local(2)
    world.run_until_cs(600)  # m1 adopted v2
    assert root[sent_root:sent_root + 2] == [("HELLO", "0", 2), ("VERSION_ANNOUNCE", "0", 2)]
    assert leaf[sent_leaf:sent_leaf + 2] == [("HELLO", "0.1", 2), ("VERSION_ANNOUNCE", "0.1", 2)]


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
