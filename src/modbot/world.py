"""World assembly: topology and scenario files, lossy channels, modules.

File formats are line oriented (full grammar in docs/worldfiles.md):

    # topology
    config ack_timeout_ms=100 max_retries=5 loss=0.0 prop_ms=1 byte_us=300
    module head center=NORTH_SOUTH ports=1:WEST,2:EAST sensors=1:0,3:0
    link head.2 wr.0 loss=0.1
    file head car.role car.role
    root head

    # scenario
    at 500 start head car.role
    at 1000 sensor head 1 1

A directed channel models the serial medium: a transmission occupies the
line for len(bytes) * byte_us, is lost with the link's loss
probability, and otherwise arrives propagation_delay after the last byte
went out. Loss decisions come from the world's seeded generator, so a run
is a deterministic function of (topology, scenario, seed, until). Every
transmission on an unsevered link takes one draw, whatever its loss; a
lossless link's draw is counted, not computed (see sim.Rng).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Optional

from .dynarole import CENTER_AXES, DIRECTIONS, PhysSnapshot, RoleProgram
from .link import LinkConfig, PortProtocol, Ticket
from .messages import MAX_PORT, ServiceMessage, send_message
from .node import ServiceNode, Session
from .sim import EventLog, Rng, Scheduler, US_PER_CS, US_PER_MS

DEFAULT_LOSS = 0.0
DEFAULT_PROP_US = 1 * US_PER_MS
DEFAULT_BYTE_US = 300


class LoadError(Exception):
    """Input files failed validation; nothing was run."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


@dataclass
class ModuleSpec:
    name: str
    center: str
    ports: dict[int, str]
    sensors: dict[int, int] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)


@dataclass
class LinkSpec:
    module_a: str
    port_a: int
    module_b: str
    port_b: int
    loss: Optional[float] = None
    prop_us: Optional[int] = None
    byte_us: Optional[int] = None


@dataclass
class Topology:
    modules: list[ModuleSpec]
    links: list[LinkSpec]
    root: str
    link_config: LinkConfig = field(default_factory=LinkConfig)
    default_loss: float = DEFAULT_LOSS
    default_prop_us: int = DEFAULT_PROP_US
    default_byte_us: int = DEFAULT_BYTE_US


@dataclass(slots=True)
class ScenarioEvent:
    time_cs: int
    kind: str  # sensor | sever | restore | upgrade | start
    args: tuple


@dataclass
class Scenario:
    events: list[ScenarioEvent] = field(default_factory=list)


# Every numeric key: (converter, lowest, highest, the rule a bad value breaks).
_NUMERIC_KEYS = {
    "ack_timeout_ms": (int, 1, math.inf, "must be positive"),
    "max_retries": (int, 0, math.inf, "must be non-negative"),
    "loss": (float, 0.0, 1.0, "must be in [0,1]"),
    "prop_ms": (int, 0, math.inf, "must be non-negative"),
    "byte_us": (int, 0, math.inf, "must be non-negative"),
}


def _parse_kv(fields: list[str], line_no: int, diags: list[str],
              allowed: frozenset[str]) -> dict[str, str | int | float]:
    """key=value fields; numeric values are converted and range-checked."""
    out = {}
    for item in fields:
        if "=" not in item:
            diags.append(f"line {line_no}: expected key=value, found {item!r}")
            continue
        key, value = item.split("=", 1)
        if key not in allowed:
            diags.append(f"line {line_no}: unknown key {key!r}")
            continue
        if key in _NUMERIC_KEYS:
            convert, lowest, highest, rule = _NUMERIC_KEYS[key]
            try:
                value = convert(value)
            except ValueError:
                diags.append(f"line {line_no}: bad {key} value {value!r}")
                continue
            if not lowest <= value <= highest:
                diags.append(f"line {line_no}: {key} {rule}")
                continue
        out[key] = value
    return out


_MODULE_KEYS = frozenset({"center", "ports", "sensors"})
_LINK_KEYS = frozenset({"loss", "prop_ms", "byte_us"})
_CONFIG_KEYS = frozenset(_NUMERIC_KEYS)
_PORT_INDICES = frozenset(range(MAX_PORT + 1))


def _port_index(text: str) -> Optional[int]:
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:  # more digits than int() converts
        return None


def _port_errors(modules: list[ModuleSpec]) -> list[str]:
    """A module id carries each port index in one byte, so 0-255 only."""
    return [f"module {spec.name!r}: port index {idx} is outside 0-{MAX_PORT}"
            for spec in modules for idx in sorted(spec.ports) if idx not in _PORT_INDICES]


def _split_end(token: str) -> tuple[str, Optional[int]]:
    """`module.port` as (module, port); port is None unless it is a number."""
    name, _, port = token.rpartition(".")
    return name, _port_index(port)


def _records(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; LoadError if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LoadError([f"cannot read {path}: {exc}"]) from None


def parse_topology(text: str, base_dir: Path | str = ".") -> Topology:
    base = Path(base_dir)
    diags: list[str] = []
    modules: list[ModuleSpec] = []
    links: list[LinkSpec] = []
    by_name: dict[str, ModuleSpec] = {}
    root: Optional[str] = None
    config: dict = {}

    def endpoint(token: str, line_no: int) -> Optional[tuple[str, int]]:
        if "." not in token:
            diags.append(f"line {line_no}: expected module.port, found {token!r}")
            return None
        name, port = _split_end(token)
        if name not in by_name or port is None:
            diags.append(f"line {line_no}: unknown link endpoint {token!r}")
            return None
        if port not in by_name[name].ports:
            diags.append(f"line {line_no}: module {name!r} has no port {port}")
            return None
        return name, port

    for line_no, fields in _records(text):
        record = fields[0]
        if record == "module":
            if len(fields) < 2:
                diags.append(f"line {line_no}: module needs a name")
                continue
            name = fields[1]
            if name in by_name or "." in name:
                diags.append(f"line {line_no}: bad or duplicate module name {name!r}")
                continue
            kv = _parse_kv(fields[2:], line_no, diags, _MODULE_KEYS)
            center = kv.get("center", "")
            if center not in CENTER_AXES:
                diags.append(f"line {line_no}: bad center axis {center!r}")
                continue
            ports: dict[int, str] = {}
            for part in filter(None, kv.get("ports", "").split(",")):
                idx_text, _, label = part.partition(":")
                idx = _port_index(idx_text)
                if idx is None or label not in DIRECTIONS or idx in ports:
                    diags.append(f"line {line_no}: bad port entry {part!r}")
                else:
                    ports[idx] = label
            sensors: dict[int, int] = {}
            for part in filter(None, kv.get("sensors", "").split(",")):
                sid, _, value = part.partition(":")
                try:
                    sensors[int(sid)] = int(value)
                except ValueError:
                    diags.append(f"line {line_no}: bad sensor entry {part!r}")
            spec = ModuleSpec(name=name, center=center, ports=ports, sensors=sensors)
            if not _PORT_INDICES.issuperset(ports):
                diags += [f"line {line_no}: {error}" for error in _port_errors([spec])]
            modules.append(spec)
            by_name[name] = spec
        elif record == "link":
            if len(fields) < 3:
                diags.append(f"line {line_no}: link needs two endpoints")
                continue
            end_a = endpoint(fields[1], line_no)
            end_b = endpoint(fields[2], line_no)
            if end_a is None or end_b is None:
                continue
            kv = _parse_kv(fields[3:], line_no, diags, _LINK_KEYS)
            prop_us = kv["prop_ms"] * US_PER_MS if "prop_ms" in kv else None
            links.append(LinkSpec(*end_a, *end_b, kv.get("loss"), prop_us, kv.get("byte_us")))
        elif record == "file":
            if len(fields) != 4:
                diags.append(f"line {line_no}: usage: file <module> <name> <path>")
                continue
            if fields[1] not in by_name:
                diags.append(f"line {line_no}: unknown module {fields[1]!r}")
                continue
            try:
                by_name[fields[1]].files[fields[2]] = read_text(base / fields[3])
            except LoadError as exc:
                diags.append(f"line {line_no}: {exc}")
        elif record == "root":
            if len(fields) != 2 or fields[1] not in by_name:
                diags.append(f"line {line_no}: root needs a known module name")
            else:
                root = fields[1]
        elif record == "config":
            config.update(_parse_kv(fields[1:], line_no, diags, _CONFIG_KEYS))
        else:
            diags.append(f"line {line_no}: unknown record {record!r}")

    used_ports: set[tuple[str, int]] = set()
    for spec in links:
        for end in ((spec.module_a, spec.port_a), (spec.module_b, spec.port_b)):
            if end in used_ports:
                diags.append(f"port {end[0]}.{end[1]} appears in more than one link")
            used_ports.add(end)

    if diags:
        raise LoadError(diags)

    # An empty topology is legal; it simply runs to an empty log.
    default_root = modules[0].name if modules else ""
    return Topology(
        modules=modules, links=links, root=root or default_root,
        link_config=LinkConfig(**{key: config[key] for key in ("ack_timeout_ms", "max_retries")
                                  if key in config}),
        default_loss=config.get("loss", DEFAULT_LOSS),
        default_prop_us=config["prop_ms"] * US_PER_MS if "prop_ms" in config else DEFAULT_PROP_US,
        default_byte_us=config.get("byte_us", DEFAULT_BYTE_US),
    )


_SCENARIO_ARITY = {"sensor": 3, "sever": 2, "restore": 2, "upgrade": 2, "start": 2}


def parse_scenario(text: str) -> Scenario:
    diags: list[str] = []
    events: list[ScenarioEvent] = []
    last_time = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.partition("#")[0].split()
        if not fields:
            continue
        if fields[0] != "at" or len(fields) < 3:
            diags.append(f"line {line_no}: expected 'at <time-cs> <event> ...'")
            continue
        try:
            time_cs = int(fields[1])
        except ValueError:
            diags.append(f"line {line_no}: bad time {fields[1]!r}")
            continue
        if time_cs < 0 or time_cs < last_time:
            diags.append(f"line {line_no}: times must be non-negative and sorted")
            continue
        last_time = time_cs
        kind = fields[2]
        args = fields[3:]
        arity = _SCENARIO_ARITY.get(kind)
        if arity is None:
            diags.append(f"line {line_no}: unknown event {kind!r}")
            continue
        if len(args) != arity:
            diags.append(f"line {line_no}: {kind} takes {arity} arguments")
            continue
        if kind == "sensor":
            try:
                args = (args[0], int(args[1]), int(args[2]))
            except ValueError:
                diags.append(f"line {line_no}: sensor id and value must be integers")
                continue
        elif kind == "upgrade":
            try:
                args = (args[0], int(args[1]))
            except ValueError:
                diags.append(f"line {line_no}: version must be an integer")
                continue
        else:
            args = tuple(args)
        events.append(ScenarioEvent(time_cs, kind, args))
    if diags:
        raise LoadError(diags)
    return Scenario(events=events)


def load_topology(path: str | Path) -> Topology:
    return parse_topology(read_text(path), base_dir=Path(path).parent)


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(read_text(path))


class Channel:
    """One direction of a link; a serial line with probabilistic loss.

    `transmit` queues its (immutable) bytes uncopied in a FIFO list and
    schedules `_arrive`, bound once per channel, which pops the head. That
    is the right frame: `_busy_until` only grows and `prop_us` is fixed, so
    a channel's arrivals fall due, and fire, in the order they were
    scheduled. `drops` counts the frames refused on a severed link, lost to
    the loss draw, or lost in flight to a sever.
    """

    def __init__(self, world: "World", link: "SimLink", loss: float, prop_us: int, byte_us: int):
        self._scheduler, self._rng = world.scheduler, world.rng
        self._link = link
        self.loss = loss
        self.prop_us = prop_us
        self.byte_us = byte_us
        self.receive: Callable[[bytes], None] = lambda data: None
        self._busy_until = 0
        self._in_flight: list[bytes] = []
        self._arrive = self._arrive  # bound once: scheduled for every frame
        self.transmissions = 0
        self.drops = 0

    def transmit(self, data: bytes) -> None:
        if self._link.severed:
            self.drops += 1
            return
        scheduler = self._scheduler
        start = scheduler.now
        if start < self._busy_until:
            start = self._busy_until
        finish = start + len(data) * self.byte_us
        self._busy_until = finish
        self.transmissions += 1
        if not self.loss:
            self._rng.unread += 1  # a draw nobody reads: counted, not computed
        elif self._rng.next_u64() >> 11 < self.loss * 2.0**53:  # Rng.random() < loss, exactly
            self.drops += 1
            return
        self._in_flight.append(data)
        scheduler.call_at(finish + self.prop_us, self._arrive)

    def _arrive(self) -> None:
        data = self._in_flight.pop(0)
        if self._link.severed:
            self.drops += 1
        else:
            self.receive(data)


@dataclass
class SimLink:
    spec: LinkSpec
    severed: bool = False
    forward: Optional[Channel] = None  # a -> b
    backward: Optional[Channel] = None  # b -> a

    @property
    def drops(self) -> int:
        return self.forward.drops + self.backward.drops

    @property
    def transmissions(self) -> int:
        return self.forward.transmissions + self.backward.transmissions


@dataclass
class PortRuntime:
    protocol: PortProtocol
    link: SimLink
    peer_name: str


class SimModule:
    """Ground truth for one module plus its middleware node."""

    def __init__(self, world: "World", spec: ModuleSpec):
        self.world = world
        self.name = spec.name
        self.center = spec.center
        self.port_labels = dict(spec.ports)
        self.sensors = dict(spec.sensors)
        self.speed = 0
        self.ports: dict[int, PortRuntime] = {}
        self.scheduler: Scheduler = world.scheduler
        self.link_config: LinkConfig = world.link_config
        self.programs = world.programs
        self.node = ServiceNode(host=self)
        self.node.file_store.update(spec.files)

    # host surface consumed by ServiceNode and the role engine

    def log(self, kind: str, payload: str = "") -> None:
        self.world.log.log(self.name, kind, payload)

    def state_text(self) -> str:
        parts = [f"center={self.center}", f"speed={self.speed}"]
        port_bits = []
        for idx in sorted(self.port_labels):
            label = self.port_labels[idx]
            runtime = self.ports.get(idx)
            if runtime is not None and not runtime.link.severed:
                port_bits.append(f"{idx}:{label}:CLOSED:{runtime.peer_name}")
            else:
                port_bits.append(f"{idx}:{label}:OPEN")
        if port_bits:
            parts.append("ports=" + ",".join(port_bits))
        if self.sensors:
            parts.append("sensors=" + ",".join(
                f"{sid}:{self.sensors[sid]}" for sid in sorted(self.sensors)))
        return " ".join(parts)

    def snapshot(self) -> PhysSnapshot:
        """The center and the linked-port count per direction label."""
        labels = Counter(self.port_labels[idx] for idx in self.connected_ports())
        return PhysSnapshot(self.center, frozenset(labels.items()))

    def actuate(self, value: int) -> None:
        if value != self.speed:
            self.speed = value
            self.log("TURN_CONTINUOUSLY", str(value))

    def send_port(self, port: int, msg: ServiceMessage) -> Ticket:
        return send_message(self.ports[port].protocol, msg)

    def connected_ports(self) -> list[int]:
        return [idx for idx in sorted(self.ports) if not self.ports[idx].link.severed]


class World:
    """A built topology plus scheduled scenario, ready to run."""

    def __init__(self, topology: Topology, scenario: Scenario | None = None, seed: int = 0):
        if not _PORT_INDICES.issuperset(set().union(*map(attrgetter("ports"), topology.modules))):
            raise LoadError(_port_errors(topology.modules))
        self.scheduler = Scheduler()
        self.rng = Rng(seed)
        self.log = EventLog(self.scheduler)
        self.link_config = topology.link_config
        self.programs: dict[str, RoleProgram] = {}  # parsed once per text
        self.modules: dict[str, SimModule] = {}
        for spec in topology.modules:
            self.modules[spec.name] = SimModule(self, spec)
        self.links: list[SimLink] = []
        for spec in topology.links:
            self._wire(spec, topology)
        for spec in topology.modules:
            module = self.modules[spec.name]
            is_root = spec.name == topology.root
            self.scheduler.call_at(0, lambda m=module, r=is_root: m.node.bootstrap(r))
        if scenario is not None:
            self._schedule(scenario)

    def _wire(self, spec: LinkSpec, topology: Topology) -> None:
        loss = spec.loss if spec.loss is not None else topology.default_loss
        prop_us = spec.prop_us if spec.prop_us is not None else topology.default_prop_us
        byte_us = spec.byte_us if spec.byte_us is not None else topology.default_byte_us
        link = SimLink(spec=spec)
        link.forward = Channel(self, link, loss, prop_us, byte_us)
        link.backward = Channel(self, link, loss, prop_us, byte_us)
        mod_a = self.modules[spec.module_a]
        mod_b = self.modules[spec.module_b]
        proto_a = PortProtocol(self.scheduler, link.forward.transmit,
                               partial(mod_a.node.on_link_payload, spec.port_a), self.link_config)
        proto_b = PortProtocol(self.scheduler, link.backward.transmit,
                               partial(mod_b.node.on_link_payload, spec.port_b), self.link_config)
        link.forward.receive = proto_b.on_bytes
        link.backward.receive = proto_a.on_bytes
        mod_a.ports[spec.port_a] = PortRuntime(proto_a, link, spec.module_b)
        mod_b.ports[spec.port_b] = PortRuntime(proto_b, link, spec.module_a)
        self.links.append(link)

    def _schedule(self, scenario: Scenario) -> None:
        diags = []
        calls = []
        apply = self._apply  # one bound method, shared by every call
        for event in scenario.events:
            if event.kind in ("sever", "restore"):
                target = self._find_link(event.args[0], event.args[1])
                if target is None:
                    diags.append(f"scenario references unknown link {event.args[0]} {event.args[1]}")
            else:
                target = self.modules.get(event.args[0])
                if target is None:
                    diags.append(f"scenario references unknown module {event.args[0]!r}")
            calls.append((event.time_cs * US_PER_CS, apply, event, target))
        if diags:
            raise LoadError(diags)
        calls.sort(key=itemgetter(0))  # stable: events at one time keep list order
        self.scheduler.call_batch(calls)

    def _find_link(self, end_a: str, end_b: str) -> Optional[SimLink]:
        return self._links_by_ends.get(frozenset((_split_end(end_a), _split_end(end_b))))

    @cached_property
    def _links_by_ends(self) -> dict[frozenset, SimLink]:
        """Each link under its unordered pair of (module, port) ends; of
        links between the same ends, the first one listed."""
        return {frozenset(((link.spec.module_a, link.spec.port_a),
                           (link.spec.module_b, link.spec.port_b))): link
                for link in reversed(self.links)}

    def _apply(self, event: ScenarioEvent, target: SimModule | SimLink) -> None:
        if event.kind == "sensor":
            _, sensor_id, value = event.args
            target.sensors[sensor_id] = value
            target.log("sensor", f"{sensor_id} {value}")
            target.node.on_sensor(sensor_id, value)
        elif event.kind in ("sever", "restore"):
            severed = event.kind == "sever"
            if target.severed == severed:
                return
            target.severed = severed
            spec = target.spec
            mod_a = self.modules[spec.module_a]
            mod_b = self.modules[spec.module_b]
            mod_a.log(event.kind, f"{event.args[0]} {event.args[1]}")
            for module, port in ((mod_a, spec.port_a), (mod_b, spec.port_b)):
                if not severed:
                    module.node.on_link_up(port)
                module.node.on_phys_change()
        elif event.kind == "upgrade":
            target.node.upgrade_local(event.args[1])
        elif event.kind == "start":
            filename = event.args[1]
            response = target.node.start_program(filename)
            target.log("start", f"{filename} {response}")

    def open_session(self, module_name: str) -> Session:
        return self.modules[module_name].node.open_session()

    def run_until_cs(self, t_cs: int) -> None:
        self.scheduler.run_until(t_cs * US_PER_CS)


def run(topology: Topology, scenario: Scenario | None, seed: int, until_cs: int) -> EventLog:
    """Build a world, run it to the horizon, and return its event log."""
    world = World(topology, scenario, seed)
    world.run_until_cs(until_cs)
    return world.log
