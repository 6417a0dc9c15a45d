"""Pinned sha256 digests of the rendered event log for small worlds.

The event log is the simulator's contract: the same (topology, scenario,
seed, horizon) must give a byte-identical log. A change that moves one of
these digests on purpose re-pins it and says why in CHANGES.md.
"""

import base64
import hashlib
import sys
from pathlib import Path

import pytest

from modbot.world import (
    LinkSpec, ModuleSpec, Scenario, ScenarioEvent, Topology, World, load_scenario, load_topology,
)

from conftest import CORPUS, chain_topology, pair_topology, upgrade_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

CAR_DIGEST = "fed1c825ec0227f3d689fec2dcd742eb940e76e88382d55c9f90c16078343d21"
CHAIN10_DIGEST = "13343a026a0b86dde76821e302feab0c389effc565d4a9762b3f3a6f88cbcf41"
PAIR_SEND_DIGEST = "787918978f001cd7c425f88333888fc6be61fc7c96ecf36c36dd58d5e74aa055"
CAR_UPGRADE_DIGEST = "bd4d6cc0f8fa8b36dfbb847b68aaf8ca6a1d458c6c191ccc58e8909c19735c73"
CHAIN6_TWO_UPGRADES_DIGEST = "0e8177e6fa6e149cae0d98f0fb0d5ebde3e5c428d3a78b6b2284c7f6499acbc2"
CHAIN12_MIXED_LOSS_DIGEST = "fb51a964f6c26a3bdc25ed9f8f8f31463448cb549c151068da0f264bd750757c"
CAR_INVOKE_PROBE_DIGEST = "6f01b7489c2318f69d68c37ffef5c1e6c4250466683acd81930e754ac92fed32"
CHAIN4_UNSORTED_SCENARIO_DIGEST = "1d439cdd8a61cc2195653f7adc96951114603abaca7e14af3edaf3f2275849a3"
LOSSY_CHAIN_PUTFILE_DIGEST = "b02bc53580475fa0edc5f818fea4320ea933ec3394c6bb5c3824c7bb335f9cde"

# Seed 1 of each benchmark workload: (log sha256, records, attempted, failed).
BENCH_SEED1 = {
    "diffuse_tree": (
        "d5729c0673677da1c7820235405241997e5883393cb2d9cad2a79d55e8fa9794", 4385, 1393, 0),
    "apps_lossy": (
        "327e66d5310844ddcf20184c3f1881c1d45694ce64e87674a09c00f392f13dcd", 2933, 2831, 15),
    "roles_swarm": (
        "68785ffe648658b91f3df8535816e15b514fe921d27dbd9e9f4bf501992ef058", 9581, 819, 0),
}


def _digest(world: World) -> str:
    return hashlib.sha256(world.log.render().encode("utf-8")).hexdigest()


def test_car_corpus_digest():
    world = World(load_topology(CORPUS / "car.topo"), load_scenario(CORPUS / "car.scen"), seed=1)
    world.run_until_cs(6000)
    assert _digest(world) == CAR_DIGEST


def test_car_corpus_upgraded_head_digest():
    # The wheels adopt v2, so their engines are stopped and restarted.
    scenario = load_scenario(CORPUS / "car.scen")
    scenario.events.append(ScenarioEvent(2000, "upgrade", ("head", 2)))
    world = World(load_topology(CORPUS / "car.topo"), scenario, seed=1)
    world.run_until_cs(6000)
    assert _digest(world) == CAR_UPGRADE_DIGEST


def test_car_corpus_invoke_probe_digest():
    # Apps invoke the engines with the text form of the head engine's call:
    # a SEND and a BCAST of `INVOKE Wheel evade` to car.role from the head, the same
    # SEND from the left wheel to the head (whose Head role skips it), and
    # a re-START of the right wheel's engine while its evade runs.
    world = World(load_topology(CORPUS / "car.topo"), load_scenario(CORPUS / "car.scen"), seed=1)
    world.run_until_cs(600)
    evade = base64.b64encode(b"INVOKE Wheel evade").decode()
    head, wheel = world.open_session("head"), world.open_session("wl")
    head.submit("REGISTER probe")
    wheel.submit("REGISTER probe")
    head.submit(f"SEND 0.2 car.role {evade}")
    wheel.submit(f"SEND 0 car.role {evade}")
    world.run_until_cs(700)
    head.submit(f"BCAST {evade}")
    world.run_until_cs(710)
    head.submit("START 0.2 car.role")
    world.run_until_cs(6000)
    assert head.take_lines()[:4] == [
        "OK registered probe", "OK delivered", "OK delivered=2", "OK started car.role"]
    assert wheel.take_lines()[:2] == ["OK registered probe", "OK delivered"]
    assert _digest(world) == CAR_INVOKE_PROBE_DIGEST


def test_chain10_lossy_upgrade_digest():
    world = World(chain_topology(10, loss=0.1), upgrade_scenario("m0", 2, 500), seed=3)
    world.run_until_cs(6000)
    assert _digest(world) == CHAIN10_DIGEST


def test_chain12_mixed_loss_upgrade_digest():
    # Every third link is lossy and the rest are lossless, all drawing from
    # the one world generator.
    topology = chain_topology(12)
    for i, link in enumerate(topology.links):
        if i % 3 == 1:
            link.loss = 0.25
    world = World(topology, upgrade_scenario("m0", 2, 500), seed=3)
    world.run_until_cs(6000)
    assert len(world.log.records) == 79
    assert _digest(world) == CHAIN12_MIXED_LOSS_DIGEST


@pytest.mark.parametrize("name", sorted(BENCH_SEED1))
def test_bench_workload_seed1_digest(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.generate(1)
    world = workloads.build_world(inputs, 1)
    observed = workload.drive(world, inputs, world.scheduler.run_until)
    outcome = workload.evaluate(world, inputs, observed)
    assert (outcome.digest, outcome.records, outcome.attempted, outcome.failed) == BENCH_SEED1[name]


def test_chain6_upgraded_twice_across_sever_restore_digest():
    # Every module's beacons change id or version three times; the idle
    # link m2-m3 is cut and healed between the upgrades, and comes back up
    # with a HELLO from each side.
    scenario = Scenario(events=[
        ScenarioEvent(300, "upgrade", ("m0", 2)),
        ScenarioEvent(900, "sever", ("m2.1", "m3.0")),
        ScenarioEvent(1400, "restore", ("m2.1", "m3.0")),
        ScenarioEvent(2000, "upgrade", ("m0", 3)),
    ])
    world = World(chain_topology(6, loss=0.1), scenario, seed=5)
    world.run_until_cs(5000)
    assert _digest(world) == CHAIN6_TWO_UPGRADES_DIGEST


def test_chain4_unsorted_programmatic_scenario_digest():
    # Events fire in (time, list index) order: the two t=0 sensor events
    # after the boots, and at t=600 sever, sensor, restore, sever as listed.
    scenario = Scenario(events=[
        ScenarioEvent(900, "restore", ("m1.1", "m2.0")),
        ScenarioEvent(300, "upgrade", ("m0", 2)),
        ScenarioEvent(600, "sever", ("m2.0", "m1.1")),
        ScenarioEvent(600, "sensor", ("m3", 1, 1)),
        ScenarioEvent(0, "sensor", ("m2", 2, 5)),
        ScenarioEvent(600, "restore", ("m1.1", "m2.0")),
        ScenarioEvent(600, "sever", ("m1.1", "m2.0")),
        ScenarioEvent(300, "sensor", ("m1", 1, 1)),
        ScenarioEvent(1500, "upgrade", ("m3", 3)),
        ScenarioEvent(0, "sensor", ("m2", 2, 6)),
    ])
    world = World(chain_topology(4, loss=0.1), scenario, seed=2)
    world.run_until_cs(3000)
    assert [line for line in world.log.lines() if " sever " in line or " restore " in line] == [
        "600 m1 sever m2.0 m1.1", "600 m1 restore m1.1 m2.0", "600 m1 sever m1.1 m2.0",
        "900 m1 restore m1.1 m2.0"]
    assert _digest(world) == CHAIN4_UNSORTED_SCENARIO_DIGEST


def test_lossy_pair_send_series_digest():
    world = World(pair_topology(loss=0.3), seed=7)
    world.run_until_cs(100)
    world.open_session("m1").submit("REGISTER sink")
    src = world.open_session("m0")
    src.submit("REGISTER src")
    world.run_until_cs(150)
    for i in range(30):
        payload = f"msg{i:02d}".encode() * (i + 1)
        src.submit("SEND 0.1 sink " + base64.b64encode(payload).decode())
        world.run_until_cs(170 + 20 * i)
    world.run_until_cs(2000)
    assert _digest(world) == PAIR_SEND_DIGEST


def test_lossy_chain_putfile_digest():
    # Files of several sizes go both ways from the middle of a lossy chain,
    # with a SEND queued behind each, so chunks, retransmissions and give-ups
    # interleave with the status replies.
    world = World(chain_topology(4, loss=0.2, max_retries=3), seed=11)
    world.run_until_cs(300)
    for name in ("m0", "m2"):
        world.open_session(name).submit("REGISTER sink")
    session = world.open_session("m1")
    session.submit("REGISTER loader")
    for i, size in enumerate((700, 2600, 5000)):
        for target in ("0", "0.1.1"):
            text = "".join(chr(97 + (i + j * 7) % 26) for j in range(size))
            session.submit(f"PUTFILE {target} f{i} {base64.b64encode(text.encode()).decode()}")
            session.submit(f"SEND {target} sink {base64.b64encode(b'after f%d' % i).decode()}")
    world.run_until_cs(9000)
    assert session.take_lines() == [
        "OK registered loader", "OK transferred f0", "OK delivered", "OK transferred f0",
        "OK delivered", "OK transferred f1", "OK delivered", "ERR 409 transfer failed",
        "OK delivered", "ERR 409 transfer failed", "OK delivered", "OK transferred f2",
        "OK delivered"]
    assert _digest(world) == LOSSY_CHAIN_PUTFILE_DIGEST


# Every module starts this four-level program. Severs and restores move
# modules between shapes (Hub/Relay/Leaf <-> Cut or unassigned), and the
# NORTH_SOUTH leaves b1 and b2 tie Leaf with Twin, so each logs one
# role-ambiguous record when its engine starts.
TREE_ROLES = """
abstract role Unit extends Module {
  startup arm(_) { self.enable($EVENT_HANDLER_1); }
  handle $EVENT_HANDLER_1 { Unit.evade(0); self.sleepcs(10); };
  command evade(_) { self.$TURN_CONTINUOUSLY(-50); self.sleepcs(20); }
}
abstract role Linked extends Unit {
  abstract constant speed;
  require (sizeof(self.connected($WEST)) == 1);
  behavior cruise(_) { self.$TURN_CONTINUOUSLY(speed); }
}
role Hub extends Linked { speed = 30; require (sizeof(self.connected($EAST)) >= 2); }
role Relay extends Linked { speed = 20; require (sizeof(self.connected($EAST)) == 1); }
role Leaf extends Linked { speed = 10; require (sizeof(self.connected($EAST)) == 0); }
role Twin extends Leaf { require (self.center == $NORTH_SOUTH); }
role Root extends Unit {
  require (self.center == $UP_DOWN);
  require (sizeof(self.connected($WEST)) == 0);
}
role Cut extends Unit {
  require (self.center != $UP_DOWN);
  require (sizeof(self.connected($WEST)) == 0);
  require (sizeof(self.connected($EAST)) >= 1);
}
"""

TREE_ROLES_DIGEST = "e01143153ccdd35a55181be0d2e0f6ddddadf6379acb762df95b01226e50dc0b"


def _role_tree_world() -> World:
    """r; a, b, c under r; two leaves under each of a, b, c."""
    inner = {0: "WEST", 1: "EAST", 2: "EAST"}
    modules = [ModuleSpec("r", "UP_DOWN", {1: "EAST", 2: "EAST", 3: "SOUTH"})]
    modules += [ModuleSpec(m, "EAST_WEST", dict(inner), {1: 0}) for m in "abc"]
    for parent, center in (("a", "EAST_WEST"), ("b", "NORTH_SOUTH"), ("c", "EAST_WEST")):
        modules += [ModuleSpec(f"{parent}{i}", center, {0: "WEST"}, {1: 0}) for i in (1, 2)]
    links = [LinkSpec("r", 1, "a", 0), LinkSpec("r", 2, "b", 0), LinkSpec("r", 3, "c", 0)]
    links += [LinkSpec(p, i, f"{p}{i}", 0) for p in "abc" for i in (1, 2)]
    for spec in modules:
        spec.files["tree.role"] = TREE_ROLES
    events = [ScenarioEvent(300, "start", (m.name, "tree.role")) for m in modules]
    events += [
        ScenarioEvent(600, "sensor", ("a1", 1, 1)),
        ScenarioEvent(650, "sensor", ("a1", 1, 0)),
        ScenarioEvent(800, "sever", ("r.2", "b.0")),
        ScenarioEvent(1000, "sever", ("a.1", "a1.0")),
        ScenarioEvent(1100, "sensor", ("b", 1, 1)),
        ScenarioEvent(1150, "sensor", ("b", 1, 0)),
        ScenarioEvent(1300, "restore", ("r.2", "b.0")),
        ScenarioEvent(1400, "sever", ("c.1", "c1.0")),
        ScenarioEvent(1450, "sever", ("c.2", "c2.0")),
        ScenarioEvent(1500, "sensor", ("c", 1, 1)),
        ScenarioEvent(1550, "sensor", ("c", 1, 0)),
        ScenarioEvent(1600, "restore", ("a.1", "a1.0")),
        ScenarioEvent(1700, "restore", ("c.1", "c1.0")),
        ScenarioEvent(1750, "sensor", ("b2", 1, 1)),
    ]
    return World(Topology(modules=modules, links=links, root="r"), Scenario(events=events), seed=1)


def test_role_tree_sever_restore_digest():
    world = _role_tree_world()
    world.run_until_cs(2000)
    assert _digest(world) == TREE_ROLES_DIGEST
