"""Role engine semantics exercised through small simulated worlds."""

import base64

import pytest
from hypothesis import given, settings, strategies as st

from modbot import dynarole as dr
from modbot.engine import RoleEngine
from modbot.link import FrameType, decode_frame, encode_frame
from modbot.messages import Kind, decode_message
from modbot.node import Session
from modbot.sim import Scheduler, US_PER_CS
from modbot.world import (
    LinkSpec, ModuleSpec, Scenario, ScenarioEvent, Topology, World,
    load_scenario, load_topology,
)

from conftest import CORPUS, chain_topology


def car_world(extra_events=(), seed: int = 1) -> World:
    topology = load_topology(CORPUS / "car.topo")
    scenario = load_scenario(CORPUS / "car.scen")
    scenario.events.extend(extra_events)
    return World(topology, scenario, seed=seed)


def turns(world: World, module: str) -> list[tuple[int, int]]:
    return [(t, int(v)) for t, _, _, v in world.log.select("TURN_CONTINUOUSLY", module)]


def test_car_roles_and_steady_actuation():
    world = car_world()
    world.run_until_cs(900)
    roles = {m: recs[-1][3] for m, recs in
             ((name, world.log.select("role", name)) for name in world.modules)
             if recs}
    assert roles == {"head": "Head", "wr": "RightWheel", "wl": "LeftWheel"}
    assert turns(world, "wr") == [(500, 150)]
    assert turns(world, "wl") == [(500, -150)]
    assert turns(world, "head") == []


def test_car_evade_episode_timing():
    world = car_world()
    world.run_until_cs(6000)
    for module, forward, evade in (("wr", 150, -100), ("wl", -150, 100)):
        seq = turns(world, module)
        assert [v for _, v in seq] == [forward, evade, forward]
        start, reversal, resume = (t for t, _ in seq)
        assert start == 500
        assert 1000 <= reversal <= 1050  # within 50 cs of the sensor event
        assert resume - reversal == 25   # sleepcs(25), exact


def test_the_heads_invocation_travels_in_one_32_byte_frame_per_wheel():
    # 7 B of framing, the 4 B chunk header and a 21 B message: kind, dst_app
    # "car.role", then the body, role "Wheel" and command "evade". An INVOKE
    # carries no src id: at the parent the head's "0" took 2 B more.
    # The links are lossless, so the frames the head transmits are the
    # frames that arrive at the wheels.
    world = car_world()
    sent = []
    for link in world.links:
        channel = link.forward if link.spec.module_a == "head" else link.backward
        receive = channel.receive

        def tap(data, receive=receive):
            sent.append((world.scheduler.now, data))
            receive(data)

        channel.receive = tap
    world.run_until_cs(1100)
    (invoked_at, _, _, invoke), = world.log.select("invoke", "head")
    assert (invoked_at, invoke) == (1000, "Wheel.evade")
    frames = [decode_frame(data) for now, data in sent if now >= invoked_at * US_PER_CS]
    invocations = [
        (decode_message(frame.payload[4:]).kind, len(encode_frame(frame)))  # one chunk each
        for frame in frames if frame.frame_type is FrameType.DATA
        and frame.payload[4] != Kind.VERSION_ANNOUNCE]
    assert invocations == [(Kind.INVOKE, 32)] * 2


def test_overlapping_evades_coalesce_and_extend():
    world = car_world(extra_events=[ScenarioEvent(1010, "sensor", ("head", 3, 1))])
    world.run_until_cs(6000)
    for module, forward, evade in (("wr", 150, -100), ("wl", -150, 100)):
        seq = turns(world, module)
        # one reversal only: the second invoke restarted the running evade
        assert [v for _, v in seq] == [forward, evade, forward]
        reversal_t = seq[1][0]
        resume_t = seq[2][0]
        assert 1000 <= reversal_t <= 1005
        # the restart arrived ~1011-1012, so the reversal outlives 25cs
        # from the first invoke and ends 25cs after the second
        assert resume_t >= 1035
        assert resume_t - reversal_t > 25
    # The second trip restarts the head's handler, whose invocation restarts
    # each wheel's evade; the log says so where the runs would be silent.
    assert [(t, module, payload) for t, module, kind, payload in world.log.records
            if kind == "run-restart"] == [
        (1010, "head", "handler h0"), (1011, "wl", "command evade"),
        (1011, "wr", "command evade")]


def test_mutual_exclusion_no_overlapping_runs():
    world = car_world(extra_events=[
        ScenarioEvent(1010, "sensor", ("head", 3, 1)),
        ScenarioEvent(1200, "sensor", ("head", 1, 1)),
    ])
    world.run_until_cs(6000)
    for module in world.modules:
        depth = 0
        for _, _, kind, _ in [r for r in world.log.records if r[1] == module]:
            if kind == "run-begin":
                depth += 1
                assert depth == 1, f"overlapping runs on {module}"
            elif kind == "run-end":
                depth -= 1
        assert depth == 0


def test_event_for_unhandled_sensor_does_nothing():
    world = car_world(extra_events=[ScenarioEvent(900, "sensor", ("head", 2, 1))])
    world.run_until_cs(990)
    assert not world.log.select("invoke")


def test_invoke_skip_logged_when_role_not_assigned():
    program = (CORPUS / "car.role").read_text()
    modules = [
        ModuleSpec("head", "NORTH_SOUTH", {1: "EAST"}, sensors={1: 0},
                   files={"car.role": program}),
        ModuleSpec("misfit", "UP_DOWN", {0: "WEST"},
                   files={"car.role": program}),
    ]
    links = [LinkSpec("head", 1, "misfit", 0)]
    scenario = Scenario(events=[
        ScenarioEvent(100, "start", ("head", "car.role")),
        ScenarioEvent(100, "start", ("misfit", "car.role")),
        ScenarioEvent(200, "sensor", ("head", 1, 1)),
    ])
    world = World(Topology(modules=modules, links=links, root="head"), scenario)
    world.run_until_cs(1000)
    assert world.log.select("role", "misfit")[-1][3] == "none"
    assert any(r[3] == "Wheel.evade" for r in world.log.select("invoke-skip", "misfit"))


def test_role_reassigned_on_connection_change():
    world = car_world(extra_events=[ScenarioEvent(2000, "sever", ("head.2", "wr.0"))])
    world.run_until_cs(3000)
    roles = [r[3] for r in world.log.select("role", "wr")]
    assert roles == ["RightWheel", "none"]


def test_behavior_with_sleep_loops():
    program = (
        "role Blinker extends Module {\n"
        " require (self.center == $UP_DOWN);\n"
        " behavior blink(_) {\n"
        "  self.$TURN_CONTINUOUSLY(1);\n"
        "  (self.sleepcs(5));\n"
        "  self.$TURN_CONTINUOUSLY(0);\n"
        "  (self.sleepcs(5));\n"
        " }\n"
        "}\n"
    )
    modules = [ModuleSpec("solo", "UP_DOWN", {}, files={"blink.role": program})]
    scenario = Scenario(events=[ScenarioEvent(10, "start", ("solo", "blink.role"))])
    world = World(Topology(modules=modules, links=[], root="solo"), scenario)
    world.run_until_cs(60)
    seq = turns(world, "solo")
    assert seq[:6] == [(10, 1), (15, 0), (20, 1), (25, 0), (30, 1), (35, 0)]


def test_ambiguous_assignment_logged():
    program = (
        "role Zeta extends Module { require (self.center == $UP_DOWN); }\n"
        "role Alpha extends Module { require (self.center == $UP_DOWN); }\n"
    )
    modules = [ModuleSpec("solo", "UP_DOWN", {}, files={"amb.role": program})]
    scenario = Scenario(events=[ScenarioEvent(10, "start", ("solo", "amb.role"))])
    world = World(Topology(modules=modules, links=[], root="solo"), scenario)
    world.run_until_cs(50)
    assert world.log.select("role", "solo")[-1][3] == "Alpha"
    assert world.log.select("role-ambiguous", "solo")[0][3] == "Alpha,Zeta"


def test_scenario_start_of_missing_or_broken_file():
    modules = [ModuleSpec("solo", "UP_DOWN", {}, files={"bad.role": "role X extends Y { }"})]
    scenario = Scenario(events=[
        ScenarioEvent(10, "start", ("solo", "ghost.role")),
        ScenarioEvent(20, "start", ("solo", "bad.role")),
    ])
    world = World(Topology(modules=modules, links=[], root="solo"), scenario)
    world.run_until_cs(50)
    starts = world.log.select("start", "solo")
    assert "ERR 404" in starts[0][3]
    assert "ERR 422" in starts[1][3]


def test_state_command_on_car_head():
    world = car_world()
    world.run_until_cs(900)
    session = world.open_session("head")
    session.submit("REGISTER probe")
    session.take_lines()
    session.submit("STATE")
    line = session.take_lines()[0]
    assert line.startswith("OK center=NORTH_SOUTH")
    assert "1:WEST:CLOSED:wl" in line and "2:EAST:CLOSED:wr" in line


def test_engines_survive_version_adoption():
    world = car_world(extra_events=[ScenarioEvent(2000, "upgrade", ("head", 2))])
    world.run_until_cs(6000)
    # wheels adopted v2, their engines restarted and reassigned the same roles
    for module, role in (("wr", "RightWheel"), ("wl", "LeftWheel")):
        assert world.modules[module].node.version == 2
        roles = [r[3] for r in world.log.select("role", module)]
        assert roles[0] == role and roles[-1] == role
        assert "car.role" in world.modules[module].node.engines
    # actuators kept spinning: no spurious stop, same setpoint throughout
    assert [v for _, v in turns(world, "wr")][-1] in (150, -100)


def test_sensor_events_pushed_to_plain_sessions():
    world = car_world()
    world.run_until_cs(900)
    probe = world.open_session("head")
    probe.submit("REGISTER probe")
    world.run_until_cs(950)
    probe.take_lines()
    world.run_until_cs(1100)  # scenario fires sensor 1 at t=1000
    assert "EVENT sensor 1 1" in probe.take_lines()


# Cross-role invocation as a plain app can send it: APPDATA or BCAST data
# `INVOKE <role> <command>` addressed to the program's file name.

_EVADE = base64.b64encode(b"INVOKE Wheel evade").decode()


def car_probe() -> tuple[World, Session]:
    """The car after its engines started, with app `probe` on the head;
    the wheels are wl = 0.1 and wr = 0.2."""
    world = car_world()
    world.run_until_cs(600)
    probe = world.open_session("head")
    probe.submit("REGISTER probe")
    assert probe.take_lines() == ["OK registered probe"]
    return world, probe


def engine_log(world: World, since_cs: int) -> list[tuple[int, str, str, str]]:
    kinds = ("appmsg", "bcastmsg", "run-begin", "invoke-skip")
    return [r for r in world.log.records if r[0] >= since_cs and r[2] in kinds]


def test_app_send_of_invoke_runs_the_command_on_that_wheel():
    world, probe = car_probe()
    probe.submit(f"SEND 0.2 car.role {_EVADE}")
    world.run_until_cs(700)
    assert probe.take_lines() == ["OK delivered"]
    assert engine_log(world, 600) == [
        (602, "wr", "appmsg", f"0 probe {_EVADE}"),
        (602, "wr", "run-begin", "command evade"),
        (627, "wr", "run-begin", "behavior move"),
    ]


def test_bcast_of_invoke_runs_the_command_on_every_neighbouring_engine():
    world, probe = car_probe()
    probe.submit(f"BCAST {_EVADE}")
    world.run_until_cs(700)
    assert probe.take_lines() == ["OK delivered=2"]
    assert [r for r in engine_log(world, 600) if r[3] != "behavior move"] == [
        (602, "wl", "bcastmsg", f"0 probe {_EVADE}"),
        (602, "wl", "run-begin", "command evade"),
        (602, "wr", "bcastmsg", f"0 probe {_EVADE}"),
        (602, "wr", "run-begin", "command evade"),
    ]


def test_non_utf8_data_to_an_engine_is_logged_and_ignored():
    world, probe = car_probe()
    data = base64.b64encode(b"INVOKE Wheel \xff").decode()
    probe.submit(f"SEND 0.1 car.role {data}")
    world.run_until_cs(700)
    assert probe.take_lines() == ["OK delivered"]
    assert engine_log(world, 600) == [(602, "wl", "appmsg", f"0 probe {data}")]


def test_register_of_a_running_engines_name_is_refused():
    world, _probe = car_probe()
    session = world.open_session("wr")
    session.submit("REGISTER car.role")
    assert session.take_lines() == ["ERR 409 app name in use"]


def test_start_of_a_registered_apps_name_is_refused():
    world = car_world()
    world.run_until_cs(100)
    holder = world.open_session("wr")
    holder.submit("REGISTER car.role")
    world.run_until_cs(600)
    assert [r[3] for r in world.log.select("start", "wr")] == [
        "car.role ERR 409 app name in use"]
    probe = world.open_session("head")
    probe.submit("REGISTER probe")
    probe.submit("START 0.2 car.role")
    world.run_until_cs(700)
    assert probe.take_lines() == ["OK registered probe", "ERR 409 app name in use"]
    assert not world.log.select("start-program", "wr")


# The run queue: one run at a time, commands and handlers pre-empt the
# behavior, later arrivals queue behind the current run.

_WORKER = (
    "role Worker extends Module {\n"
    " require (self.center == $UP_DOWN);\n"
    " require (sizeof(self.connected($EAST)) == 1);\n"
    " startup init(_) { (self.enable($EVENT_HANDLER_1)); }\n"
    " handle $EVENT_HANDLER_1 { self.$TURN_CONTINUOUSLY(7); (self.sleepcs(5)); }\n"
    " behavior roam(_) { self.$TURN_CONTINUOUSLY(1); (self.sleepcs(50)); }\n"
    " command halt(_) { self.$TURN_CONTINUOUSLY(0); (self.sleepcs(10)); }\n"
    "}\n"
)
_RUN_KINDS = ("run-begin", "run-end", "run-restart", "run-coalesce", "TURN_CONTINUOUSLY",
              "role")


def worker_world(program: str = _WORKER, events=()) -> World:
    """Worker module w, the root so no code push restarts its engine, with a
    peer to its east; the program starts at 10 cs."""
    modules = [
        ModuleSpec("w", "UP_DOWN", {0: "EAST"}, sensors={1: 0}, files={"w.role": program}),
        ModuleSpec("p", "UP_DOWN", {0: "WEST"}),
    ]
    scenario = Scenario(events=[ScenarioEvent(10, "start", ("w", "w.role")), *events])
    return World(Topology(modules, [LinkSpec("w", 0, "p", 0)], root="w"), scenario)


def run_log(world: World, since_cs: int) -> list[tuple[int, str, str]]:
    return [(t, kind, payload) for t, module, kind, payload in world.log.records
            if module == "w" and t >= since_cs and kind in _RUN_KINDS]


def test_command_preempts_a_sleeping_behavior():
    world = worker_world()
    world.run_until_cs(20)
    engine = world.modules["w"].node.engines["w.role"]
    behavior = engine._current
    engine.on_invoke("Worker", "halt")
    world.run_until_cs(45)
    assert behavior.timer.cancelled
    assert run_log(world, 20) == [
        (20, "run-end", "behavior roam"),
        (20, "run-begin", "command halt"),
        (20, "TURN_CONTINUOUSLY", "0"),
        (30, "run-end", "command halt"),
        (30, "run-begin", "behavior roam"),
        (30, "TURN_CONTINUOUSLY", "1"),
    ]


def test_handler_during_a_command_begins_when_the_command_ends():
    world = worker_world(events=[ScenarioEvent(25, "sensor", ("w", 1, 1))])
    world.run_until_cs(20)
    world.modules["w"].node.engines["w.role"].on_invoke("Worker", "halt")
    world.run_until_cs(45)
    assert run_log(world, 21) == [
        (30, "run-end", "command halt"),
        (30, "run-begin", "handler h0"),
        (30, "TURN_CONTINUOUSLY", "7"),
        (35, "run-end", "handler h0"),
        (35, "run-begin", "behavior roam"),
        (35, "TURN_CONTINUOUSLY", "1"),
    ]


def test_duplicate_queued_run_coalesces():
    world = worker_world(events=[ScenarioEvent(25, "sensor", ("w", 1, 1)),
                                 ScenarioEvent(26, "sensor", ("w", 1, 2))])
    world.run_until_cs(20)
    world.modules["w"].node.engines["w.role"].on_invoke("Worker", "halt")
    world.run_until_cs(100)
    assert [r for r in run_log(world, 21) if r[1] in ("run-begin", "run-coalesce")] == [
        (26, "run-coalesce", "handler h0"),
        (30, "run-begin", "handler h0"),
        (35, "run-begin", "behavior roam"),
        (85, "run-begin", "behavior roam"),
    ]


def test_reassignment_mid_sleep_cancels_the_sleeping_run():
    world = worker_world(events=[ScenarioEvent(30, "sever", ("w.0", "p.0"))])
    world.run_until_cs(20)
    behavior = world.modules["w"].node.engines["w.role"]._current
    assert behavior is not None and behavior.name == "roam"
    world.run_until_cs(200)
    assert behavior.timer.cancelled
    assert run_log(world, 20) == [
        (30, "run-end", "behavior roam"),
        (30, "role", "none"),
    ]


def test_restarted_engine_takes_events_after_the_engines_started_since():
    # Two engines on one module take a sensor event in start order, and a
    # restart counts as a new start: x.role's handler turns to 8 first.
    events = [ScenarioEvent(10, "start", ("w", "x.role")),
              ScenarioEvent(20, "start", ("w", "w.role")),
              ScenarioEvent(25, "sensor", ("w", 1, 1))]
    world = worker_world(events=events)
    world.modules["w"].node.file_store["x.role"] = _WORKER.replace("(7)", "(8)")
    world.run_until_cs(26)
    assert [r[3] for r in world.log.select("TURN_CONTINUOUSLY", "w") if r[0] == 25] == ["8", "7"]


def assert_refused(world: World, message: str) -> None:
    """START refused w.role with `message` at the role's line, and no engine runs it."""
    assert [r[3] for r in world.log.select("start", "w")] == [
        f"w.role ERR 422 line 1: {message} in role 'Worker'"]
    assert not world.modules["w"].node.engines and run_log(world, 0) == []


def test_bad_sleep_amount_and_undefined_constant_refuse_the_program():
    for statement, message in (
        ("self.$TURN_CONTINUOUSLY(nope);", "undefined constant 'nope'"),
        ("(self.sleepcs(later));", "undefined constant 'later'"),
        ("(self.sleepcs(-5));", "sleepcs needs an integer >= 0"),
        ("(self.sleepcs($EAST));", "sleepcs needs an integer >= 0"),
    ):
        world = worker_world(_WORKER.replace("(self.sleepcs(50));", statement))
        world.run_until_cs(50)
        assert_refused(world, message)


@pytest.mark.parametrize("operand, logged", [
    ("$EAST", ("start", "$TURN_CONTINUOUSLY needs an integer")),
    ("heading", ("start", "$TURN_CONTINUOUSLY needs an integer")),
    ("self.center", ("start", "$TURN_CONTINUOUSLY needs an integer")),
    ("sizeof(self.connected($EAST))", ("TURN_CONTINUOUSLY", "1")),
    ("3", ("TURN_CONTINUOUSLY", "3")),
])
def test_turn_speed_must_be_an_integer(operand, logged):
    program = (
        "role Worker extends Module {\n"
        " require (self.center == $UP_DOWN);\n"
        " heading = $EAST;\n"
        f" behavior roam(_) {{ self.$TURN_CONTINUOUSLY({operand}); (self.sleepcs(5)); }}\n"
        "}\n"
    )
    world = worker_world(program)
    world.run_until_cs(18)
    if logged[0] == "start":
        assert_refused(world, logged[1])
        return
    assert run_log(world, 10) == [
        (10, "role", "Worker"),
        (10, "run-begin", "behavior roam"),
        (10, *logged),
        (15, "run-end", "behavior roam"),
        (15, "run-begin", "behavior roam"),
    ]


def test_assignment_diagnostics_are_logged_once_per_assignment_run():
    # Assignment runs at the start and at each sever or restore, never on a
    # sensor event and never as time passes, and each run logs its
    # role-ambiguous line once.
    program = (
        "role A extends Module { require (self.center == $EAST_WEST); }\n"
        "role B extends Module { require (self.center == $EAST_WEST); }\n"
    )
    topo = chain_topology(2)
    topo.modules[1].files["two.role"] = program
    scenario = Scenario(events=[ScenarioEvent(150, "start", ("m1", "two.role")),
                                ScenarioEvent(170, "sensor", ("m1", 1, 1)),
                                ScenarioEvent(700, "sever", ("m0.1", "m1.0"))])
    world = World(topo, scenario)
    world.run_until_cs(1300)
    diagnostics = [(t, kind, payload) for t, module, kind, payload in world.log.records
                   if module == "m1" and kind in ("role", "role-ambiguous")]
    assert diagnostics == [
        (150, "role-ambiguous", "A,B"),
        (150, "role", "A"),
        (700, "role-ambiguous", "A,B"),
    ]


def test_a_pass_after_a_sever_that_keeps_the_role_reads_the_new_shape():
    program = (
        "role Counter extends Module {\n"
        " require (self.center == $UP_DOWN);\n"
        " behavior count(_) {\n"
        "  self.$TURN_CONTINUOUSLY(sizeof(self.connected($EAST))); self.sleepcs(10);\n"
        " }\n"
        "}\n"
    )
    modules = [
        ModuleSpec("w", "UP_DOWN", {0: "EAST", 1: "EAST"}, files={"w.role": program}),
        ModuleSpec("p", "UP_DOWN", {0: "WEST"}),
        ModuleSpec("q", "UP_DOWN", {0: "WEST"}),
    ]
    links = [LinkSpec("w", 0, "p", 0), LinkSpec("w", 1, "q", 0)]
    scenario = Scenario(events=[ScenarioEvent(10, "start", ("w", "w.role")),
                                ScenarioEvent(35, "sever", ("w.1", "q.0"))])
    world = World(Topology(modules, links, root="w"), scenario)
    world.run_until_cs(100)
    assert [r[3] for r in world.log.select("role", "w")] == ["Counter"]
    assert turns(world, "w") == [(10, 2), (40, 1)]


# INVOKE matching: the assigned role or one of its declared ancestors runs
# the command; the built-in root and any other role name never match.

_FAMILY = (
    "abstract role Base extends Module {\n"
    " command halt(_) { self.$TURN_CONTINUOUSLY(0); (self.sleepcs(10)); }\n"
    "}\n"
    "role Worker extends Base {\n"
    " require (self.center == $UP_DOWN);\n"
    " behavior roam(_) { self.$TURN_CONTINUOUSLY(1); (self.sleepcs(50)); }\n"
    "}\n"
    "role Other extends Module {\n"
    " require (self.center == $NORTH_SOUTH);\n"
    " command halt(_) { self.$TURN_CONTINUOUSLY(9); }\n"
    "}\n"
)


@pytest.mark.parametrize("role, runs", [
    ("Worker", True), ("Base", True),
    ("Module", False), ("Ghost", False), ("Other", False),
])
def test_invoke_runs_only_for_the_assigned_role_or_its_ancestors(role, runs):
    world = worker_world(_FAMILY)
    world.run_until_cs(20)
    world.modules["w"].node.engines["w.role"].on_invoke(role, "halt")
    world.run_until_cs(21)
    began = [r for r in run_log(world, 20) if r[1] == "run-begin"]
    skipped = [r[3] for r in world.log.select("invoke-skip", "w")]
    if runs:
        assert began == [(20, "run-begin", "command halt")] and skipped == []
    else:
        assert began == [] and skipped == [f"{role}.halt"]


def _inert(old, node) -> None:
    """`old` is no longer hosted and nothing it scheduled can fire."""
    assert old not in node.engines.values()
    assert old._current is None and not old._queue


def test_engine_replaced_by_a_start_of_its_own_name_is_inert():
    world = worker_world(events=[ScenarioEvent(20, "start", ("w", "w.role"))])
    world.run_until_cs(15)
    node = world.modules["w"].node
    old = node.engines["w.role"]
    sleeping = old._current
    assert sleeping.name == "roam" and sleeping.timer is not None
    world.run_until_cs(200)
    _inert(old, node)
    assert sleeping.timer.cancelled
    assert node.engines["w.role"]._current is not None


def test_engine_restarted_by_a_version_adoption_is_inert():
    modules = [
        ModuleSpec("w", "UP_DOWN", {0: "EAST"}, files={"w.role": _WORKER}),
        ModuleSpec("p", "UP_DOWN", {0: "WEST"}),
    ]
    scenario = Scenario(events=[ScenarioEvent(10, "start", ("w", "w.role")),
                                ScenarioEvent(20, "upgrade", ("p", 2))])
    world = World(Topology(modules, [LinkSpec("w", 0, "p", 0)], root="p"), scenario)
    world.run_until_cs(15)
    node = world.modules["w"].node
    old = node.engines["w.role"]
    sleeping = old._current
    assert sleeping.name == "roam" and sleeping.timer is not None
    world.run_until_cs(600)
    assert node.version == 2
    _inert(old, node)
    assert sleeping.timer.cancelled
    assert "w.role" in node.engines


# A program that parses cannot fail while it runs: random programs over the
# grammar, mostly well formed and with constants of every kind, either are
# refused by the parser or assign and run without raising and without
# logging anything but the engine's ordinary records.

_NAMES = ("R0", "R1", "R2")
_CONSTS = ("k", "m", "q")
# Most operands suit any use, so that most programs parse; the rest (a
# symbol, self.center, a constant of either kind, a -1) try the checker.
_ints = st.integers(-1, 3).map(str)
_count = st.sampled_from(("$EAST", "$WEST", "$UP", "k")).map("sizeof(self.connected({}))".format)
_operand = st.one_of(
    _ints, _count, _ints, _count, st.sampled_from(("$EAST", "$UP_DOWN", "self.center") + _CONSTS))
_predicate = st.builds("{} {} {}".format, _operand, st.sampled_from(("==", "!=", "<", ">=")),
                       _operand)
_action = st.one_of(
    _operand.map(lambda v: f"self.$TURN_CONTINUOUSLY({v});"),
    _operand.map(lambda v: f"(self.sleepcs({v}));"),
    st.sampled_from(("self.enable($EVENT_HANDLER_1);", "R0.go(0);", "Module.halt();")))
_block = st.lists(_action, max_size=3).map(lambda acts: "{ " + " ".join(acts) + " }")
_member = st.one_of(
    _predicate.map(lambda p: f"require ({p});"),
    st.builds("{}(_) {}".format, st.sampled_from(("behavior go", "command go", "command halt")),
              _block),
    _block.map(lambda b: f"handle $EVENT_HANDLER_1 {b}"),
    _block.map(lambda b: f"startup boot(_) {b}"))
_value = st.one_of(_ints, _ints, st.sampled_from(("$EAST", "$WEST", "$NORTH_SOUTH", "$EST")))


@st.composite
def _programs(draw) -> str:
    """Up to three roles, each extending Module or an earlier role; a role
    that extends Module values every constant, a descendant may override."""
    roles = []
    for i in range(draw(st.integers(1, len(_NAMES)))):
        parent = draw(st.sampled_from(("Module",) + _NAMES[:i]))
        consts = draw(st.fixed_dictionaries({c: _value for c in _CONSTS}) if parent == "Module"
                      else st.dictionaries(st.sampled_from(_CONSTS), _value, max_size=2))
        members = [f"{c} = {v};" for c, v in consts.items()] + draw(st.lists(_member, max_size=4))
        if sum(m.startswith("startup") for m in members) > 1:
            members = [m for m in members if not m.startswith("startup")]
        abstract = "abstract " if draw(st.booleans()) else ""
        roles.append(f"{abstract}role {_NAMES[i]} extends {parent} {{ {' '.join(members)} }}")
    return "\n".join(roles) + "\n"


class _CheckedScheduler(Scheduler):
    def call_after(self, delay_us, fn):
        assert isinstance(delay_us, int) and delay_us >= 0
        return super().call_after(delay_us, fn)


class _StubHost:
    """The engine's host duck type over a scheduler that refuses a negative
    sleep; it keeps the kinds the engine logs and refuses a non-integer turn."""

    def __init__(self, shape: dr.PhysSnapshot):
        self.scheduler = _CheckedScheduler()
        self.shape = shape
        self.kinds: set[str] = set()

    def snapshot(self) -> dr.PhysSnapshot:
        return self.shape

    def actuate(self, value) -> None:
        assert isinstance(value, int)

    def log(self, kind: str, payload: str) -> None:
        self.kinds.add(kind)


_shapes = st.builds(
    lambda center, counts: dr.PhysSnapshot(center, frozenset(counts.items())),
    st.sampled_from(dr.CENTER_AXES),
    st.dictionaries(st.sampled_from(("EAST", "WEST", "UP")), st.integers(1, 2), max_size=3))


@settings(max_examples=200, deadline=None)
@given(text=_programs(), shapes=st.lists(_shapes, min_size=1, max_size=4))
def test_a_program_that_parses_cannot_fail_while_it_runs(text, shapes):
    try:
        program = dr.parse_program(text)
    except dr.RoleSyntaxError:
        return
    for shape in shapes:
        dr.assign_role(program, shape)
    host = _StubHost(shapes[0])
    engine = RoleEngine(host, program, lambda role, command: None)
    engine.start()
    for name, role in program.resolved.items():  # every concrete role's every action
        engine._reassign(name)
        for command, _ in role.commands:
            engine.on_invoke(name, command)
        engine._enabled.add(1)
        engine.on_event(1)
        host.scheduler.run_until(host.scheduler.now + 20 * US_PER_CS)
    engine.stop()
    assert host.kinds <= {"role", "role-ambiguous", "run-begin", "run-end", "invoke", "invoke-skip"}
