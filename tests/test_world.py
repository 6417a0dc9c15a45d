"""Topology/scenario loading, channels, isolation, determinism."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from modbot.link import LinkConfig
from modbot.sim import Rng, Scheduler
from modbot.world import (
    DEFAULT_PROP_US, Channel, LinkSpec, LoadError, ModuleSpec, Scenario, ScenarioEvent, SimLink,
    Topology, World, load_scenario, load_topology, parse_scenario, parse_topology, run,
)

from conftest import chain_topology, pair_topology

CAR_TOPO = """
config ack_timeout_ms=100 max_retries=5
module head center=NORTH_SOUTH ports=1:WEST,2:EAST sensors=1:0,3:0
module wr center=EAST_WEST ports=0:EAST
module wl center=EAST_WEST ports=0:WEST
link head.2 wr.0
link head.1 wl.0
root head
"""


def test_parse_topology_happy_path():
    topo = parse_topology(CAR_TOPO)
    assert [m.name for m in topo.modules] == ["head", "wr", "wl"]
    assert topo.root == "head"
    assert topo.modules[0].ports == {1: "WEST", 2: "EAST"}
    assert topo.modules[0].sensors == {1: 0, 3: 0}
    assert len(topo.links) == 2


@pytest.mark.parametrize("text,needle", [
    ("module a center=BAD ports=0:EAST", "bad center axis"),
    ("module a center=EAST_WEST ports=0:SIDEWAYS", "bad port entry"),
    ("module a center=EAST_WEST ports=0:EAST\nmodule a center=EAST_WEST ports=0:EAST", "duplicate"),
    ("module a center=EAST_WEST ports=0:EAST\nlink a.0 b.0", "unknown link endpoint"),
    ("module a center=EAST_WEST ports=0:EAST\nlink a.1 a.0", "no port 1"),
    ("module a center=EAST_WEST ports=0:EAST\nmodule b center=EAST_WEST ports=0:WEST\n"
     "link a.0 b.0 loss=1.5", "loss"),
    ("module a center=EAST_WEST ports=0:EAST\nroot zz", "root"),
    ("bogus record here", "unknown record"),
    ("module", "line 1: module needs a name"),
    ("module a center=EAST_WEST ports=0:EAST sensors=x:1", "bad sensor entry 'x:1'"),
    ("module a center=EAST_WEST ports=0:EAST\nfile ghost f f", "line 2: unknown module 'ghost'"),
])
def test_parse_topology_diagnostics(text, needle):
    with pytest.raises(LoadError) as exc:
        parse_topology(text)
    assert any(needle in d for d in exc.value.diagnostics)


_PAIR = "module a center=EAST_WEST ports=0:EAST\nmodule b center=EAST_WEST ports=0:WEST\n"


@pytest.mark.parametrize("text,needle", [
    pytest.param(_PAIR + "link a.0 b.0 byte_us=-5", "line 3: byte_us must be non-negative",
                 id="link-byte_us"),
    pytest.param(_PAIR + "link a.0 b.0 prop_ms=-3", "line 3: prop_ms must be non-negative",
                 id="link-prop_ms"),
    pytest.param("config byte_us=-5\n" + _PAIR, "line 1: byte_us must be non-negative",
                 id="config-byte_us"),
    pytest.param("config prop_ms=-3\n" + _PAIR, "line 1: prop_ms must be non-negative",
                 id="config-prop_ms"),
    pytest.param(_PAIR + "link a.0 b.0 prop_us=5", "line 3: unknown key 'prop_us'",
                 id="prop_us-key"),
])
def test_timing_values_must_be_non_negative(text, needle):
    with pytest.raises(LoadError) as exc:
        parse_topology(text)
    assert needle in exc.value.diagnostics


def test_port_reused_across_links_rejected():
    text = (
        "module a center=EAST_WEST ports=0:EAST\n"
        "module b center=EAST_WEST ports=0:WEST\n"
        "module c center=EAST_WEST ports=0:WEST\n"
        "link a.0 b.0\nlink a.0 c.0\n"
    )
    with pytest.raises(LoadError) as exc:
        parse_topology(text)
    assert any("more than one link" in d for d in exc.value.diagnostics)


def test_parse_scenario_happy_and_diagnostics():
    scen = parse_scenario("at 5 sensor head 1 1\nat 10 upgrade head 2\n")
    assert [(e.time_cs, e.kind) for e in scen.events] == [(5, "sensor"), (10, "upgrade")]
    for text, needle in [
        ("at -5 sensor a 1 1", "non-negative"),
        ("at 10 sensor a 1 1\nat 5 sensor a 1 1", "sorted"),
        ("at 5 explode a", "unknown event"),
        ("sensor a 1 1", "expected 'at"),
        ("at 5 sensor a one 1", "integers"),
        ("at 5 upgrade m0 two", "version must be an integer"),
    ]:
        with pytest.raises(LoadError) as exc:
            parse_scenario(text)
        assert any(needle in d for d in exc.value.diagnostics)


def test_empty_topology_and_scenario_run_to_empty_log():
    log = run(parse_topology(""), parse_scenario(""), seed=1, until_cs=1000)
    assert log.records == []
    assert log.render() == ""


def test_scenario_referencing_unknown_module_refuses_to_run():
    topo = pair_topology()
    scen = Scenario(events=[ScenarioEvent(5, "upgrade", ("ghost", 2))])
    with pytest.raises(LoadError):
        World(topo, scen)


def test_a_programmatic_port_index_a_module_id_cannot_carry_refuses_to_run():
    modules = [ModuleSpec("a", "EAST_WEST", {255: "EAST"}),
               ModuleSpec("b", "EAST_WEST", {0: "WEST"})]
    World(Topology(modules=modules, links=[LinkSpec("a", 255, "b", 0)], root="a"))
    modules += [ModuleSpec("c", "EAST_WEST", {1: "EAST", 256: "WEST", -1: "UP"})]
    with pytest.raises(LoadError) as exc:
        World(Topology(modules=modules, links=[], root="a"))
    assert exc.value.diagnostics == ["module 'c': port index -1 is outside 0-255",
                                     "module 'c': port index 256 is outside 0-255"]


class _Counter:
    def __init__(self):
        self.count = 0
        self.times = []

    def __call__(self, data):
        self.count += 1


def _bare_channel(world: World, loss: float) -> tuple[Channel, _Counter]:
    link = SimLink(spec=LinkSpec("x", 0, "y", 0))
    channel = Channel(world, link, loss=loss, prop_us=1000, byte_us=300)
    link.forward = channel
    link.backward = channel
    counter = _Counter()
    channel.receive = counter
    return channel, counter


def test_channel_delay_formula_exact():
    world = World(pair_topology())
    channel, counter = _bare_channel(world, loss=0.0)
    arrival_times = []
    channel.receive = lambda data: arrival_times.append(world.scheduler.now)
    channel.transmit(b"x" * 10)  # 10 bytes * 300us + 1000us prop
    world.scheduler.run_until(1_000_000)
    assert arrival_times == [10 * 300 + 1000]


def test_channel_loss_one_never_arrives():
    world = World(pair_topology())
    channel, counter = _bare_channel(world, loss=1.0)
    for _ in range(100):
        channel.transmit(b"data")
    world.scheduler.run_until(10_000_000)
    assert counter.count == 0
    assert channel.drops == 100


def test_frame_lost_in_flight_to_a_sever_counts_as_a_drop():
    world = World(pair_topology())
    link = SimLink(spec=LinkSpec("x", 0, "y", 0))
    channel = Channel(world, link, loss=0.0, prop_us=1000, byte_us=300)
    received = []
    channel.receive = received.append
    channel.transmit(b"x" * 10)  # arrives at 4_000us
    world.scheduler.run_until(2_000)
    link.severed = True
    world.scheduler.run_until(1_000_000)
    assert received == []
    assert (channel.transmissions, channel.drops) == (1, 1)


def test_channel_serializes_back_to_back_transmissions():
    world = World(pair_topology())
    channel, _ = _bare_channel(world, loss=0.0)
    arrivals = []
    channel.receive = lambda data: arrivals.append((world.scheduler.now, data))
    channel.transmit(b"A" * 100)  # occupies the line until 30_000us
    channel.transmit(b"B")        # starts at 30_000, ends 30_300
    world.scheduler.run_until(1_000_000)
    assert arrivals == [(31_000, b"A" * 100), (31_300, b"B")]


def test_channel_drop_count_within_three_sigma():
    world = World(pair_topology(), seed=123)
    channel, counter = _bare_channel(world, loss=0.5)
    n = 10_000
    for _ in range(n):
        channel.transmit(b"f")
    world.scheduler.run_until(10 * n * 300 + 10_000)
    sigma = math.sqrt(n * 0.25)
    assert abs(channel.drops - n / 2) <= 3 * sigma
    assert counter.count == n - channel.drops


# Losses on either side of a draw's value k * 2**-53, and at the ends.
_K = 2**52 + 12345
_EDGE_LOSSES = [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 2.0**-53, *(
    math.nextafter(k * 2.0**-53, toward) for k in (1, 3, _K) for toward in (0.0, 1.0))]


@settings(max_examples=200, deadline=None)
@given(k=st.one_of(st.integers(0, 2**53 - 1), st.sampled_from([0, 1, 3, _K, 2**53 - 1])),
       loss=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EDGE_LOSSES)))
def test_integer_loss_compare_agrees_with_random(k, loss):
    # Channel.transmit compares the draw's top 53 bits with loss * 2**53,
    # where Rng.random() scales them by 2**-53; scaling by 2**53 is exact.
    assert (k * 2.0**-53 < loss) == (k < loss * 2.0**53)
    for near in (k - 1, k + 1):
        if 0 <= near < 2**53:
            assert (near * 2.0**-53 < loss) == (near < loss * 2.0**53)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(-2**64, 2**64), loss=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_EDGE_LOSSES)))
def test_lossy_channel_drops_where_random_falls_below_loss(seed, loss):
    world = SimpleNamespace(scheduler=Scheduler(), rng=Rng(seed))
    channel = Channel(world, SimLink(spec=LinkSpec("x", 0, "y", 0)), loss, prop_us=0, byte_us=0)
    twin = Rng(seed)
    for _ in range(64):
        drops = channel.drops
        channel.transmit(b"f")
        assert channel.drops - drops == (twin.random() < loss)


class _ClosureChannel:
    """Reference channel: one closure per frame, each carrying its own copy,
    and a loss draw computed for every transmission, whatever its loss."""

    def __init__(self, world, link, loss, prop_us, byte_us):
        self._world, self._link = world, link
        self.loss, self.prop_us, self.byte_us = loss, prop_us, byte_us
        self.receive = lambda data: None
        self._busy_until = 0

    def transmit(self, data):
        if self._link.severed:
            return
        scheduler = self._world.scheduler
        start = max(scheduler.now, self._busy_until)
        finish = start + len(data) * self.byte_us
        self._busy_until = finish
        if self._world.rng.random() < self.loss:
            return
        scheduler.call_at(finish + self.prop_us, lambda: self._arrive(bytes(data)))

    def _arrive(self, data):
        if not self._link.severed:
            self.receive(data)


def _delivered(channel_class, seed, prop_us, byte_us, steps):
    """Arrivals on a lossless and a lossy (0.3) channel of one link, both
    drawing from the world generator."""
    world = SimpleNamespace(scheduler=Scheduler(), rng=Rng(seed))
    link = SimLink(spec=LinkSpec("x", 0, "y", 0))
    channels = [channel_class(world, link, loss, prop_us, byte_us) for loss in (0.0, 0.3)]
    arrivals = []
    for lane, channel in enumerate(channels):
        channel.receive = lambda data, lane=lane: arrivals.append(
            (world.scheduler.now, lane, data))
    for index, (gap_us, action, lane, length) in enumerate(steps):
        world.scheduler.run_until(world.scheduler.now + gap_us)
        if action == "send":
            channels[lane].transmit(bytes([index & 0xFF]) * length)
        else:
            link.severed = action == "sever"
    world.scheduler.run_until(world.scheduler.now + 10**9)
    return arrivals


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    prop_us=st.integers(0, 5_000),
    byte_us=st.sampled_from([0, 1, 300]),
    steps=st.lists(st.tuples(st.integers(0, 6_000),
                             st.sampled_from(["send", "send", "sever", "restore"]),
                             st.integers(0, 1), st.integers(0, 40)), max_size=30),
)
# A frame lost to a sever while in flight, then one sent after the restore.
@example(seed=1, prop_us=1_000, byte_us=300,
         steps=[(0, "send", 0, 10), (1_000, "sever", 0, 0), (4_000, "restore", 0, 0),
                (0, "send", 0, 10)])
# Lossless draws between lossy ones: each lossy frame must read its own draw.
@example(seed=1, prop_us=1_000, byte_us=300,
         steps=[(0, "send", lane, 5) for lane in (0, 0, 1, 0, 1, 1, 0, 0, 0, 1)])
def test_fifo_channel_delivers_like_one_closure_per_frame(seed, prop_us, byte_us, steps):
    args = (seed, prop_us, byte_us, steps)
    assert _delivered(Channel, *args) == _delivered(_ClosureChannel, *args)


def test_snapshot_is_shared_until_a_link_event():
    topo = chain_topology(3)
    topo.modules[1].sensors = {1: 0}
    scen = Scenario(events=[
        ScenarioEvent(100, "sensor", ("m1", 1, 7)),
        ScenarioEvent(200, "sever", ("m0.1", "m1.0")),
        ScenarioEvent(300, "restore", ("m0.1", "m1.0")),
    ])
    world = World(topo, scen)
    m0, m1 = world.modules["m0"], world.modules["m1"]
    first = m1.snapshot()
    assert first == ("EAST_WEST", frozenset({("WEST", 1), ("EAST", 1)}))
    world.run_until_cs(150)
    assert m1.sensors == {1: 7}
    assert m1.snapshot() == first  # sensors are not part of the snapshot
    world.run_until_cs(250)
    assert m1.snapshot().counts == {("EAST", 1)}
    assert m0.snapshot().counts == frozenset()
    world.run_until_cs(350)
    assert m1.snapshot() == first
    assert m0.snapshot().counts == {("EAST", 1)}


def test_snapshot_counts_linked_ports_per_direction():
    modules = [ModuleSpec("hub", "UP_DOWN", {0: "EAST", 1: "EAST", 2: "WEST"}),
               ModuleSpec("a", "EAST_WEST", {0: "WEST"}),
               ModuleSpec("b", "EAST_WEST", {0: "WEST"})]
    links = [LinkSpec("hub", 0, "a", 0), LinkSpec("hub", 1, "b", 0)]
    hub = World(Topology(modules, links, root="hub")).modules["hub"]
    assert hub.snapshot() == ("UP_DOWN", frozenset({("EAST", 2)}))  # port 2 has no link


def test_neighbor_tables_match_adjacency_after_hello():
    world = World(chain_topology(3))
    world.run_until_cs(200)
    m0, m1, m2 = (world.modules[f"m{i}"].node for i in range(3))
    assert set(m0.neighbor_table) == {1}
    assert set(m1.neighbor_table) == {0, 1}
    assert set(m2.neighbor_table) == {0}
    assert str(m0.neighbor_table[1][0]) == "0.1"
    assert str(m1.neighbor_table[0][0]) == "0"
    assert str(m1.neighbor_table[1][0]) == "0.1.1"


def test_initial_diffusion_assigns_ids_and_versions():
    world = World(chain_topology(4))
    world.run_until_cs(500)
    nodes = [world.modules[f"m{i}"].node for i in range(4)]
    assert [n.version for n in nodes] == [1, 1, 1, 1]
    assert [str(n.module_id) for n in nodes] == ["0", "0.1", "0.1.1", "0.1.1.1"]


@pytest.mark.xfail(strict=True, reason="ROADMAP 1b: a reflashed module with no id takes the root id")
def test_two_reflashed_modules_end_with_distinct_ids():
    scen = Scenario(events=[ScenarioEvent(0, "upgrade", ("m0", 2)),
                            ScenarioEvent(0, "upgrade", ("m4", 2))])
    world = World(chain_topology(5), scen)
    world.run_until_cs(3000)
    ids = [str(m.node.module_id) for m in world.modules.values()]
    assert len(set(ids)) == len(ids), ids


def test_sever_stops_future_deliveries_but_not_other_links():
    topo = chain_topology(3)
    scen = Scenario(events=[ScenarioEvent(300, "sever", ("m0.1", "m1.0"))])
    world = World(topo, scen)
    world.run_until_cs(250)
    session = world.open_session("m1")
    session.submit("REGISTER probe")
    world.run_until_cs(300)
    # After the sever, m0 cannot reach m1 but m2 still can.
    sess0 = world.open_session("m0")
    sess0.submit("REGISTER left")
    sess2 = world.open_session("m2")
    sess2.submit("REGISTER right")
    sess0.submit("SEND 0.1 probe aGk=")
    sess2.submit("SEND 0.1 probe aG8=")
    world.run_until_cs(3000)
    lines = session.take_lines()
    payloads = [l.split()[3] for l in lines if l.startswith("MSG")]
    assert payloads == ["aG8="]  # only the right-hand message arrived
    assert any(l.startswith("ERR") for l in sess0.take_lines())
    assert "OK delivered" in sess2.take_lines()


def test_per_port_independence_loss_on_one_port_only():
    import base64

    modules = [
        ModuleSpec("hub", "EAST_WEST", {0: "EAST", 1: "WEST"}),
        ModuleSpec("clean", "EAST_WEST", {0: "WEST"}),
        ModuleSpec("noisy", "EAST_WEST", {0: "EAST"}),
    ]
    links = [
        LinkSpec("hub", 0, "clean", 0, loss=0.0),
        LinkSpec("hub", 1, "noisy", 0, loss=1.0),  # drops every frame
    ]
    world = World(Topology(modules=modules, links=links, root="hub"), seed=5)
    world.run_until_cs(100)
    hub_session = world.open_session("hub")
    hub_session.submit("REGISTER driver")
    clean_session = world.open_session("clean")
    clean_session.submit("REGISTER sink")
    world.run_until_cs(150)
    payloads = [base64.b64encode(f"msg{i:02d}".encode()).decode() for i in range(20)]
    for b64 in payloads:
        hub_session.submit(f"SEND 0.0 sink {b64}")
    world.run_until_cs(3000)
    got = [l.split()[3] for l in clean_session.take_lines() if l.startswith("MSG")]
    assert got == payloads  # the dead port never disturbed the clean one
    noisy_link = world.links[1]
    assert noisy_link.drops > 0
    assert world.modules["noisy"].node.version == 0  # never reached


def test_run_is_deterministic_in_process():
    topo_text = CAR_TOPO + "\n"
    scen = parse_scenario("at 100 sensor head 1 1\n")
    log_a = run(parse_topology(topo_text), scen, seed=42, until_cs=2000)
    log_b = run(parse_topology(topo_text), scen, seed=42, until_cs=2000)
    assert log_a.render() == log_b.render()


def test_different_seeds_diverge_under_loss():
    topo = pair_topology(loss=0.4, max_retries=30)
    world_a = World(topo, seed=1)
    world_b = World(topo, seed=2)
    for world in (world_a, world_b):
        world.run_until_cs(2000)
    drops_a = sum(l.drops for l in world_a.links)
    drops_b = sum(l.drops for l in world_b.links)
    assert (drops_a, world_a.log.render()) != (drops_b, world_b.log.render())


def test_restore_brings_link_back():
    topo = pair_topology()
    scen = Scenario(events=[
        ScenarioEvent(200, "sever", ("m0.1", "m1.0")),
        ScenarioEvent(400, "restore", ("m0.1", "m1.0")),
    ])
    world = World(topo, scen)
    world.run_until_cs(600)
    sink = world.open_session("m1")
    sink.submit("REGISTER sink")
    src = world.open_session("m0")
    src.submit("REGISTER src")
    src.submit("SEND 0.1 sink cGluZw==")
    world.run_until_cs(1200)
    assert any(l.startswith("MSG") for l in sink.take_lines())
    # Connector states reflect the restore.
    assert "CLOSED" in world.modules["m0"].state_text()


def test_unknown_record_keys_are_diagnosed():
    with pytest.raises(LoadError) as exc:
        parse_topology("module a center=EAST_WEST ports=0:EAST sensor=1:0")
    assert any("unknown key 'sensor'" in d for d in exc.value.diagnostics)
    with pytest.raises(LoadError) as exc:
        parse_topology(
            "module a center=EAST_WEST ports=0:EAST\n"
            "module b center=EAST_WEST ports=0:WEST\n"
            "link a.0 b.0 lossy=0.5\n"
        )
    assert any("unknown key 'lossy'" in d for d in exc.value.diagnostics)


def test_pipelined_synchronous_commands_do_not_recurse():
    world = World(pair_topology())
    world.run_until_cs(200)
    session = world.open_session("m0")
    session.submit("REGISTER burst")
    for _ in range(2000):
        session.submit("VERSION")
    lines = session.take_lines()
    assert lines[0] == "OK registered burst"
    assert lines[1:] == ["OK version=1"] * 2000


@pytest.mark.parametrize("ends", [("m0.1", "m1.1"), ("m0.x", "m1.0"), ("m0", "m1.0")])
def test_sever_of_unknown_link_refuses_to_run(ends):
    scen = Scenario(events=[ScenarioEvent(5, "sever", ends)])
    with pytest.raises(LoadError) as exc:
        World(pair_topology(), scen)
    assert exc.value.diagnostics == [f"scenario references unknown link {ends[0]} {ends[1]}"]


def test_sever_naming_its_endpoints_in_reverse_order_applies():
    scen = Scenario(events=[ScenarioEvent(300, "sever", ("m1.0", "m0.1"))])
    world = World(pair_topology(), scen)
    world.run_until_cs(400)
    assert world.links[0].severed
    assert world.log.select("sever") == [(300, "m0", "sever", "m1.0 m0.1")]
    assert "1:EAST:OPEN" in world.modules["m0"].state_text()


def test_of_two_links_between_the_same_ends_the_first_is_severed():
    topology = pair_topology()
    topology.links.append(LinkSpec("m1", 0, "m0", 1))
    world = World(topology, Scenario(events=[ScenarioEvent(300, "sever", ("m0.1", "m1.0"))]))
    world.run_until_cs(400)
    assert [link.severed for link in world.links] == [True, False]


def test_file_record_with_missing_path_is_a_line_diagnostic(tmp_path):
    text = "module a center=EAST_WEST ports=0:EAST\nfile a prog.role missing.role\n"
    with pytest.raises(LoadError) as exc:
        parse_topology(text, base_dir=tmp_path)
    [diag] = exc.value.diagnostics
    assert diag.startswith(f"line 2: cannot read {tmp_path / 'missing.role'}")


def test_later_config_line_overrides_earlier():
    topo = parse_topology("config loss=0.5 max_retries=3 byte_us=7\nconfig loss=0.25 byte_us=9\n")
    assert topo.default_loss == 0.25
    assert topo.default_byte_us == 9
    assert topo.link_config.max_retries == 3
    assert topo.link_config.ack_timeout_ms == 100
    assert topo.default_prop_us == DEFAULT_PROP_US
    bare = parse_topology("module a center=EAST_WEST ports=0:EAST\n")
    assert bare.link_config == LinkConfig()
    assert bare.default_prop_us == DEFAULT_PROP_US


@pytest.mark.parametrize("text,expected", [
    pytest.param("config max_retries=abc\nbogus x\n",
                 ["line 1: bad max_retries value 'abc'", "line 2: unknown record 'bogus'"],
                 id="bad-config-value-then-bad-record"),
    pytest.param("config loss=2\n", ["line 1: loss must be in [0,1]"], id="config-loss"),
    pytest.param("config ack_timeout_ms=0\n", ["line 1: ack_timeout_ms must be positive"],
                 id="config-ack_timeout_ms"),
    pytest.param("config max_retries=-1\n", ["line 1: max_retries must be non-negative"],
                 id="config-max_retries"),
    pytest.param(_PAIR + "link a.0 b.0 loss=x byte_us=1.5\n",
                 ["line 3: bad loss value 'x'", "line 3: bad byte_us value '1.5'"],
                 id="link-values"),
    pytest.param("module a center=EAST_WEST ports=²:EAST\n",
                 ["line 1: bad port entry '²:EAST'"], id="superscript-port"),
    pytest.param(_PAIR + "link a.² b.0\n", ["line 3: unknown link endpoint 'a.²'"],
                 id="superscript-endpoint"),
    pytest.param("module a center=EAST_WEST ports=" + "1" * 5000 + ":EAST\n",
                 ["line 1: bad port entry '" + "1" * 5000 + ":EAST'"], id="huge-port"),
    pytest.param("module a center=EAST_WEST ports=255:EAST,256:WEST\n",
                 ["line 1: module 'a': port index 256 is outside 0-255"], id="port-256"),
])
def test_every_value_is_diagnosed_on_its_own_line(text, expected):
    with pytest.raises(LoadError) as exc:
        parse_topology(text)
    assert exc.value.diagnostics == expected


_NOT_UTF8 = b"module a center=EAST_WEST ports=0:EAST \xff\xfe\n"


def test_non_utf8_files_raise_load_error(tmp_path):
    (tmp_path / "bad.bin").write_bytes(_NOT_UTF8)
    for loader in (load_topology, load_scenario):
        with pytest.raises(LoadError) as exc:
            loader(tmp_path / "bad.bin")
        [diag] = exc.value.diagnostics
        assert diag.startswith(f"cannot read {tmp_path / 'bad.bin'}")
    (tmp_path / "world.topo").write_text(
        "module a center=EAST_WEST ports=0:EAST\nfile a prog.role bad.bin\n")
    with pytest.raises(LoadError) as exc:
        load_topology(tmp_path / "world.topo")
    [diag] = exc.value.diagnostics
    assert diag.startswith(f"line 2: cannot read {tmp_path / 'bad.bin'}")
