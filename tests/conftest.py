import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from modbot.world import LinkSpec, ModuleSpec, Scenario, ScenarioEvent, Topology, World

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = CORPUS.parent / "src"

# pyproject's pythonpath puts src/ on sys.path for the tests themselves;
# the CLI tests' subprocesses find the package through PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

_DIRS = ("NORTH", "SOUTH", "EAST", "WEST", "UP", "DOWN")

# The world-level diffusion properties (tests/test_diffusion.py), the link
# properties (tests/test_link_stateful.py), the end-to-end request
# property (tests/test_node.py) and the frame and message codec properties
# (tests/test_crc_frames.py, tests/test_messages.py) each run under a
# profile, "convergence", "link", "requests" and "codec", or under its
# "-10x" variant (10x the examples) when HYPOTHESIS_PROFILE names that; CI
# runs each once more, untimed, so. Other tests keep their own settings.
settings.register_profile("convergence", max_examples=100, deadline=None)
settings.register_profile("convergence-10x", settings.get_profile("convergence"), max_examples=1000)
settings.register_profile("link", max_examples=40, stateful_step_count=25, deadline=None)
settings.register_profile("link-10x", settings.get_profile("link"), max_examples=400)
settings.register_profile("requests", max_examples=60, deadline=None)
settings.register_profile("requests-10x", settings.get_profile("requests"), max_examples=600)
settings.register_profile("codec", max_examples=100, deadline=None)
settings.register_profile("codec-10x", settings.get_profile("codec"), max_examples=1000)


def _profile(name: str) -> settings:
    chosen = os.environ.get("HYPOTHESIS_PROFILE")
    return settings.get_profile(chosen if chosen in (name, f"{name}-10x") else name)


CONVERGENCE = _profile("convergence")
LINK = _profile("link")
REQUESTS = _profile("requests")
CODEC = _profile("codec")


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS


def chain_topology(n: int, *, loss: float = 0.0, max_retries: int = 5,
                   ack_timeout_ms: int = 100) -> Topology:
    """m0 - m1 - ... - m(n-1); port 1 points down the chain, port 0 up."""
    modules = []
    links = []
    for i in range(n):
        ports = {}
        if i > 0:
            ports[0] = "WEST"
        if i < n - 1:
            ports[1] = "EAST"
        modules.append(ModuleSpec(name=f"m{i}", center="EAST_WEST", ports=ports))
        if i > 0:
            links.append(LinkSpec(f"m{i-1}", 1, f"m{i}", 0, loss=loss))
    topo = Topology(modules=modules, links=links, root="m0")
    topo.link_config.max_retries = max_retries
    topo.link_config.ack_timeout_ms = ack_timeout_ms
    return topo


def tree_topology(n: int, seed: int, *, loss: float = 0.0, max_retries: int = 5) -> Topology:
    """Random tree over n modules; node i>0 hangs off a uniform parent < i."""
    rng = random.Random(seed)
    parents = [rng.randrange(i) for i in range(1, n)]
    ports: list[dict[int, str]] = [{} for _ in range(n)]
    links = []
    next_port = [1] * n  # port 0 is reserved for the uplink
    for child in range(1, n):
        parent = parents[child - 1]
        p_port = next_port[parent]
        next_port[parent] += 1
        ports[parent][p_port] = _DIRS[p_port % len(_DIRS)]
        ports[child][0] = _DIRS[0]
        links.append(LinkSpec(f"n{parent}", p_port, f"n{child}", 0, loss=loss))
    modules = [
        ModuleSpec(name=f"n{i}", center="EAST_WEST", ports=ports[i]) for i in range(n)
    ]
    topo = Topology(modules=modules, links=links, root="n0")
    topo.link_config.max_retries = max_retries
    return topo


def diamond_topology() -> Topology:
    modules = [
        ModuleSpec("t", "EAST_WEST", {1: "EAST", 2: "WEST"}),
        ModuleSpec("l", "EAST_WEST", {0: "WEST", 1: "EAST"}),
        ModuleSpec("r", "EAST_WEST", {0: "EAST", 1: "WEST"}),
        ModuleSpec("b", "EAST_WEST", {0: "WEST", 1: "EAST"}),
    ]
    links = [
        LinkSpec("t", 1, "l", 0),
        LinkSpec("t", 2, "r", 0),
        LinkSpec("l", 1, "b", 0),
        LinkSpec("r", 1, "b", 1),
    ]
    return Topology(modules=modules, links=links, root="t")


def pair_topology(*, loss: float = 0.0, max_retries: int = 5,
                  ack_timeout_ms: int = 100) -> Topology:
    topo = chain_topology(2, loss=loss, max_retries=max_retries,
                          ack_timeout_ms=ack_timeout_ms)
    return topo


def upgrade_scenario(module: str, version: int, at_cs: int) -> Scenario:
    return Scenario(events=[ScenarioEvent(at_cs, "upgrade", (module, version))])


def build(topology: Topology, scenario: Scenario | None = None, seed: int = 0) -> World:
    return World(topology, scenario, seed=seed)
