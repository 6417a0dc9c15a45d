"""Pinned sha256 digests of the rendered event log for three small worlds.

The event log is the simulator's contract: the same (topology, scenario,
seed, horizon) must give a byte-identical log. A change that moves one of
these digests on purpose re-pins it and says why in CHANGES.md.
"""

import base64
import hashlib

from modbot.world import Scenario, ScenarioEvent, World, load_scenario, load_topology

from conftest import CORPUS, chain_topology, pair_topology, upgrade_scenario

CAR_DIGEST = "22299e71bb51742900ec9684bddfa4edf5fe69c47269df0a790573883fa90b7f"
CHAIN10_DIGEST = "47470b3c3d8d1d031d6d3e8118c4af09d84fbe88a3d185b000cd2f3ccc548a09"
PAIR_SEND_DIGEST = "bf74022fabf40484db2c103e0aa11f0232710c401d756af74b9e5cc62da533bf"
CAR_UPGRADE_DIGEST = "88422f1546c4af82ab65a7dfbd591fb93f002f8cdfc192cd5eac14e36e483f2c"
CHAIN6_TWO_UPGRADES_DIGEST = "0e15098b74ebe0e7488afae5e522a2eee40535663d20ffdea36466388c3b646f"


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


def test_chain10_lossy_upgrade_digest():
    world = World(chain_topology(10, loss=0.1), upgrade_scenario("m0", 2, 500), seed=3)
    world.run_until_cs(6000)
    assert _digest(world) == CHAIN10_DIGEST


def test_chain6_upgraded_twice_across_sever_restore_digest():
    # Every module's beacons change id or version three times; the idle
    # link m2-m3 is cut and healed between the upgrades, and comes back up
    # with a HELLO and an announce from each side.
    scenario = Scenario(events=[
        ScenarioEvent(300, "upgrade", ("m0", 2)),
        ScenarioEvent(900, "sever", ("m2.1", "m3.0")),
        ScenarioEvent(1400, "restore", ("m2.1", "m3.0")),
        ScenarioEvent(2000, "upgrade", ("m0", 3)),
    ])
    world = World(chain_topology(6, loss=0.1), scenario, seed=5)
    world.run_until_cs(5000)
    assert _digest(world) == CHAIN6_TWO_UPGRADES_DIGEST


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
