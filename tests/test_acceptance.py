"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not calibrated elsewhere.
"""

import base64
import random
import subprocess
import sys
import time

from modbot import dynarole as dr
from modbot.link import Frame, FrameError, FrameType, crc16, decode_frame, encode_frame
from modbot.world import Scenario, ScenarioEvent, World, load_scenario, load_topology

from conftest import (
    CORPUS, build, chain_topology, diamond_topology, pair_topology,
    tree_topology, upgrade_scenario,
)


def _verdict(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_gzip_size_reproduction():
    started = time.perf_counter()
    data = (CORPUS / "evade_proposal.py").read_bytes()
    raw, gz = dr.measure_text(data)
    elapsed = time.perf_counter() - started
    assert 280 <= gz <= 420, f"gzip size {gz} outside [280, 420]"
    assert elapsed < 1.0
    _verdict("criterion 1",
             f"corpus program raw={raw}B gzip={gz}B within [280,420] "
             f"(350B reference) in {elapsed:.3f}s")


def test_criterion_2_car_scenario_golden():
    started = time.perf_counter()
    topology = load_topology(CORPUS / "car.topo")
    scenario = load_scenario(CORPUS / "car.scen")
    world = World(topology, scenario, seed=1)
    world.run_until_cs(6000)
    log = world.log

    roles = {}
    for t, module, kind, payload in log.records:
        if kind == "role":
            roles[module] = payload
    assert roles == {"head": "Head", "wr": "RightWheel", "wl": "LeftWheel"}

    sensor_time = log.select("sensor", "head")[0][0]
    assert sensor_time == 1000
    for module, forward, evade in (("wr", 150, -100), ("wl", -150, 100)):
        seq = [(t, int(v)) for t, _, _, v in log.select("TURN_CONTINUOUSLY", module)]
        assert [v for _, v in seq] == [forward, evade, forward], seq
        _, (evade_t, _), (resume_t, _) = seq
        assert 0 <= evade_t - sensor_time <= 50, f"evade started at {evade_t}"
        assert resume_t - evade_t == 25, f"evade lasted {resume_t - evade_t}cs"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _verdict("criterion 2",
             f"roles Head/RightWheel/LeftWheel, +150/-150 cruise, "
             f"-100/+100 evade for exactly 25cs in {elapsed:.2f}s")


def test_criterion_3_link_reliability_1000_messages():
    started = time.perf_counter()
    topo = pair_topology(loss=0.3, max_retries=40)
    world = World(topo, seed=2024)
    world.run_until_cs(300)
    sink = world.open_session("m1")
    sink.submit("REGISTER sink")
    source = world.open_session("m0")
    source.submit("REGISTER source")
    world.run_until_cs(310)
    sink.take_lines()

    expected = [base64.b64encode(f"p{i:04d}".encode()).decode() for i in range(1000)]
    for b64 in expected:
        source.submit(f"SEND 0.1 sink {b64}")
    world.run_until_cs(120_000)

    received = [line.split()[3] for line in sink.take_lines() if line.startswith("MSG")]
    assert received == expected, (
        f"{len(received)} of 1000 delivered; "
        f"dupes={len(received) - len(set(received))}")
    logged = [r for r in world.log.select("appmsg", "m1")]
    assert len(logged) == 1000
    drops = sum(link.drops for link in world.links)
    assert drops > 0  # the channel really was lossy
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict("criterion 3",
             f"1000/1000 exactly-once in-order at loss 0.3 "
             f"({drops} frames dropped) in {elapsed:.2f}s")


def _accepts_for(world: World, version: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _, module, _, payload in world.log.select("push-accept"):
        if payload.startswith(f"v={version} "):
            counts[module] = counts.get(module, 0) + 1
    return counts


def test_criterion_4_diffusion_convergence_and_id_uniqueness():
    # chain of 10
    started = time.perf_counter()
    world = build(chain_topology(10), upgrade_scenario("m0", 2, at_cs=1000), seed=3)
    world.run_until_cs(4000)
    versions = [m.node.version for m in world.modules.values()]
    assert versions == [2] * 10
    accepts = _accepts_for(world, 2)
    assert sum(accepts.values()) == 9  # satisfies the <=9 hop bound exactly
    ids = [str(m.node.module_id) for m in world.modules.values()]
    assert len(set(ids)) == 10
    chain_elapsed = time.perf_counter() - started
    assert chain_elapsed < 10.0

    # random 20-node tree
    started = time.perf_counter()
    world = build(tree_topology(20, seed=42), upgrade_scenario("n0", 2, at_cs=1500), seed=6)
    world.run_until_cs(6000)
    assert [m.node.version for m in world.modules.values()] == [2] * 20
    accepts = _accepts_for(world, 2)
    assert sum(accepts.values()) == 19 and all(v == 1 for v in accepts.values())
    ids = [str(m.node.module_id) for m in world.modules.values()]
    assert len(set(ids)) == 20
    tree_elapsed = time.perf_counter() - started
    assert tree_elapsed < 10.0

    # diamond: both arms push, exactly one push accepted per node
    started = time.perf_counter()
    world = build(diamond_topology(), upgrade_scenario("t", 2, at_cs=1000), seed=9)
    world.run_until_cs(4000)
    assert [m.node.version for m in world.modules.values()] == [2] * 4
    accepts = _accepts_for(world, 2)
    assert accepts == {"l": 1, "r": 1, "b": 1}
    assert len({str(m.node.module_id) for m in world.modules.values()}) == 4
    diamond_elapsed = time.perf_counter() - started
    assert diamond_elapsed < 10.0
    _verdict("criterion 4",
             f"chain 9 pushes / tree 19 pushes / diamond one-accept-per-node; "
             f"all ids distinct ({chain_elapsed:.2f}s, {tree_elapsed:.2f}s, "
             f"{diamond_elapsed:.2f}s)")


def test_criterion_5a_roundtrip_ten_thousand_random_frames():
    rng = random.Random(99)
    for _ in range(10_000):
        if rng.random() < 0.2:
            frame = Frame(FrameType.ACK, rng.randrange(256))
        else:
            frame = Frame(FrameType.DATA, rng.randrange(256),
                          rng.randbytes(rng.randrange(256)))
        assert decode_frame(encode_frame(frame)) == frame
    _verdict("criterion 5a", "10000 random frames encode/decode roundtrip")


def test_criterion_5b_exhaustive_single_bit_flip_rejection():
    frame = Frame(FrameType.DATA, 42, bytes(range(0x10, 0x20)))
    wire = encode_frame(frame)
    flips = 0
    for bit in range(len(wire) * 8):
        corrupted = bytearray(wire)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        try:
            decode_frame(bytes(corrupted))
        except FrameError:
            flips += 1
        else:
            raise AssertionError(f"bit flip {bit} went undetected")
    _verdict("criterion 5b", f"all {flips} single-bit corruptions rejected")


def test_criterion_5c_crc_check_value():
    assert crc16(b"123456789") == 0x29B1
    _verdict("criterion 5c", "CRC-16/CCITT-FALSE('123456789') == 0x29B1")


def test_criterion_5d_monotonic_versions_and_atomic_files_under_loss():
    content = ("payload line %03d\n" * 120) % tuple(range(120))
    for seed in (11, 21):
        topo = chain_topology(4, loss=0.25, max_retries=14)
        scenario = Scenario(events=[
            ScenarioEvent(1000, "upgrade", ("m0", 2)),
            ScenarioEvent(4000, "sever", ("m0.1", "m1.0")),
        ])
        world = World(topo, scenario, seed=seed)
        world.run_until_cs(300)
        session = world.open_session("m0")
        session.submit("REGISTER loader")
        world.run_until_cs(320)
        b64 = base64.b64encode(content.encode()).decode()
        session.submit(f"PUTFILE 0.1 alpha.txt {b64}")
        world.run_until_cs(3900)
        assert session.take_lines()[-1] == "OK transferred alpha.txt"
        assert world.modules["m1"].node.file_store["alpha.txt"] == content
        # a transfer cut off by the sever must leave no partial file
        session.submit(f"PUTFILE 0.1 beta.txt {b64}")
        world.run_until_cs(12_000)
        assert session.take_lines()[-1] == "ERR 409 delivery failed"
        store = world.modules["m1"].node.file_store
        assert "beta.txt" not in store
        assert all(value == content for name, value in store.items() if name == "alpha.txt")
        for name in world.modules:
            seen = [int(r[3]) for r in world.log.select("version", name)]
            assert seen == sorted(seen), f"version regressed on {name}"
    _verdict("criterion 5d",
             "versions monotonic and file store never partial over lossy seeds 11/21")


def test_criterion_5e_assignment_determinism_under_permutation():
    text = (CORPUS / "car.role").read_text()
    blocks, depth, current = [], 0, []
    for line in text.splitlines():
        current.append(line)
        depth += line.count("{") - line.count("}")
        if depth == 0 and "{" in "\n".join(current):
            blocks.append("\n".join(current))
            current = []
    states = [
        dr.PhysSnapshot("NORTH_SOUTH", frozenset({("EAST", 1), ("WEST", 1)})),
        dr.PhysSnapshot("EAST_WEST", frozenset({("EAST", 1)})),
        dr.PhysSnapshot("EAST_WEST", frozenset({("WEST", 1)})),
    ]
    baseline = [dr.assign_role(dr.parse_program(text), s) for s in states]
    assert [r.role for r in baseline] == ["Head", "RightWheel", "LeftWheel"]
    assert all(len(r.candidates) == 1 for r in baseline)
    rng = random.Random(5)
    for _ in range(10):
        order = blocks[:]
        rng.shuffle(order)
        program = dr.parse_program("\n".join(order))
        for state, expected in zip(states, baseline):
            result = dr.assign_role(program, state)
            assert result.role == expected.role
            assert result.candidates == expected.candidates
    _verdict("criterion 5e",
             "car assignment invariant under 10 role-declaration permutations")


def test_criterion_6_cli_determinism_two_runs_diff(tmp_path):
    logs = []
    for name in ("first.log", "second.log"):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "modbot.cli", "run",
            str(CORPUS / "car.topo"), str(CORPUS / "car.scen"),
            "--seed", "7", "--until", "6000", "--log", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        logs.append(out.read_bytes())
    assert logs[0] == logs[1], "two identical invocations diverged"
    assert logs[0]  # non-empty
    _verdict("criterion 6", f"two CLI runs byte-identical ({len(logs[0])} bytes)")
