"""The benchmark's hooks into the package still resolve.

bench/tracer.py patches functions and methods by name, where their
callers look them up, and bench/micro.py imports codec names and runs on
frames the tracer samples. A refactor that renames one of them, or stops
calling it, would break the benchmark without failing any other test.
"""

import hashlib
import sys
from pathlib import Path

from modbot import sim
from modbot.world import World, load_scenario, load_topology

from conftest import CORPUS

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import micro  # noqa: E402  (imported for its names; fails if one is gone)
import tracer  # noqa: E402


def _car_digest() -> str:
    world = World(load_topology(CORPUS / "car.topo"), load_scenario(CORPUS / "car.scen"), seed=1)
    world.run_until_cs(6000)
    return hashlib.sha256(world.log.render().encode("utf-8")).hexdigest()


def _hooks() -> list:
    return [getattr(owner, attr) for _, owner, attr in tracer.TARGETS] + [sim.Timer.cancel]


def test_every_tracer_target_resolves():
    for name, owner, attr in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), name
    assert callable(micro.run_micro)


def test_tracer_uninstall_restores_every_patch():
    before = _hooks()
    t = tracer.Tracer()
    t.install()
    try:
        patched = _hooks()
    finally:
        t.uninstall()
    assert all(a is not b for a, b in zip(before, patched))
    assert all(a is b for a, b in zip(before, _hooks()))


def test_traced_car_run_matches_untraced():
    untraced = _car_digest()
    t = tracer.Tracer()
    t.install()
    try:
        traced = _car_digest()
    finally:
        t.uninstall()
    assert traced == untraced
    for name in ("link.encode_frame", "link.decoder_feed", "messages.decode",
                 "node.on_link_payload", "node.start_program", "engine.evaluate",
                 "dynarole.parse_program", "dynarole.assign_role", "dynarole.chain"):
        assert t.stat(name)[0] > 0, name
    # Three modules start the same program text; the world parses it once.
    assert t.stat("dynarole.parse_program")[0] == 1
    assert set(t.sample_frames) == {"announce", "ack", "chunk"}
