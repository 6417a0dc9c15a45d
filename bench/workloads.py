"""The three benchmark workloads: input generators, drivers and checks.

Each workload turns a seed into world text (topology, scenario, and for
roles_swarm a role program), builds a `World` from that text through the
public API, drives it to a fixed simulated horizon and then checks what
came out. The program under test never sees the seed; it only gets the
generated text and the world's own RNG seed.

A workload's `drive(world, inputs, advance)` moves the simulation forward
only through `advance(t_us)`, which runs the world's scheduler up to t_us;
the harness may split that into timed slices.

Every simulated latency is taken from the virtual clock in microseconds
(the event log rounds to centiseconds, which would quantise a 2 cs
reaction to a single value) and reported in centiseconds.
"""

from __future__ import annotations

import base64
import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field

import modbot.world as mw
from modbot.node import Session
from modbot.sim import US_PER_CS, EventLog
from modbot.world import World

DIRECTIONS = ("NORTH", "SOUTH", "EAST", "WEST", "UP", "DOWN")
CENTER_AXES = ("NORTH_SOUTH", "EAST_WEST", "UP_DOWN")
MAX_CHILDREN = 5  # a module has six faces; one faces its parent
LINK_BYTE_US = (270, 330)


@dataclass
class Inputs:
    """Generated text for one (workload, seed)."""

    topology: str
    scenario: str
    files: dict[str, str] = field(default_factory=dict)  # stored on every module
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one episode produced, reduced to what the metrics need."""

    horizon_cs: int
    digest: str
    records: int
    samples_cs: list[float]  # latency of each operation that succeeded
    attempted: int
    failures: Counter  # failure category -> count
    violations: list[str]  # safety properties that did not hold
    extra: dict = field(default_factory=dict)
    # Latency to every response, failed ones included, where that differs.
    responses_cs: list[float] | None = None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def key(self) -> tuple:
        """Everything that must repeat exactly when the episode is re-run."""
        return (self.digest, self.records, tuple(self.samples_cs), self.attempted,
                tuple(sorted(self.failures.items())), tuple(self.violations),
                tuple(sorted(self.extra.items())), tuple(self.responses_cs or ()))


class TimedLog(EventLog):
    """EventLog that also keeps each record's time in microseconds."""

    def __init__(self, scheduler):
        super().__init__(scheduler)
        self.clock = scheduler
        self.times_us: list[int] = []

    def log(self, module: str, kind: str, payload: str = "") -> None:
        super().log(module, kind, payload)
        self.times_us.append(self.clock.now)


def build_world(inputs: Inputs, seed: int) -> World:
    """Parse the generated text and assemble the world (the timed set-up).

    The parsers are looked up on the module at call time so that a traced
    run sees its wrapped versions.
    """
    topology = mw.parse_topology(inputs.topology)
    scenario = mw.parse_scenario(inputs.scenario)
    for spec in topology.modules:
        spec.files.update(inputs.files)
    world = World(topology, scenario, seed=seed)
    world.log = TimedLog(world.scheduler)
    return world


def log_digest(world: World) -> str:
    return hashlib.sha256(world.log.render().encode("utf-8")).hexdigest()


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _tree(rng: random.Random, level_sizes: list[int]) -> list[int]:
    """Parent index of every node; nodes are numbered level by level.

    Fixed level sizes keep the depth profile (and so the diffusion time
    profile) the same from seed to seed; the seed picks the parents.
    """
    parent = [-1]
    previous = [0]
    children = {0: 0}
    for size in level_sizes[1:]:
        level = []
        for _ in range(size):
            choices = [p for p in previous if children[p] < MAX_CHILDREN]
            p = rng.choice(choices)
            children[p] += 1
            node = len(parent)
            parent.append(p)
            children[node] = 0
            level.append(node)
        previous = level
    return parent


def _tree_topology(rng: random.Random, parent: list[int], sensors: str = "") -> tuple[str, dict]:
    """Topology text for a tree, plus {"adjacency": name -> [(port, peer)],
    "links": [(endpoint, endpoint)]} for building scenarios and checks.

    Loss is 0. Each link gets its own speed from LINK_BYTE_US; a narrow
    range keeps diffusion times within a few per cent from seed to seed.
    """
    n = len(parent)
    degree = [0] * n
    for child in range(1, n):
        degree[child] += 1
        degree[parent[child]] += 1
    free_ports = [rng.sample(range(degree[i]), degree[i]) for i in range(n)]
    lines = ["config loss=0.0"]
    for i in range(n):
        ports = ",".join(f"{p}:{rng.choice(DIRECTIONS)}" for p in sorted(free_ports[i]))
        extra = f" sensors={sensors}" if sensors else ""
        lines.append(f"module m{i} center={rng.choice(CENTER_AXES)} ports={ports}{extra}")
    adjacency: dict[str, list[tuple[int, str]]] = {f"m{i}": [] for i in range(n)}
    links = []
    for child in range(1, n):
        p = parent[child]
        pp, cp = free_ports[p].pop(), free_ports[child].pop()
        lines.append(f"link m{p}.{pp} m{child}.{cp} byte_us={rng.randint(*LINK_BYTE_US)}")
        adjacency[f"m{p}"].append((pp, f"m{child}"))
        adjacency[f"m{child}"].append((cp, f"m{p}"))
        links.append((f"m{p}.{pp}", f"m{child}.{cp}"))
    lines.append("root m0")
    return "\n".join(lines) + "\n", {"adjacency": adjacency, "links": links}


def _records_of(world: World, kind: str):
    """(time_us, module, payload) for every log record of one kind."""
    log = world.log
    for (t_cs, module, k, payload), t_us in zip(log.records, log.times_us):
        if k == kind:
            yield t_us, module, payload


# diffuse_tree -------------------------------------------------------------

class DiffuseTree:
    """Repeated code-diffusion waves over a ~200-module lossless tree.

    Scenario, open loop: the root boots at v1, then is upgraded once every
    WAVE_PERIOD_CS. Between waves every module keeps announcing once per
    simulated second, so most frames are small VERSION_ANNOUNCE/HELLO
    frames and their ACKs; each push carries the 600 B code image.
    """

    name = "diffuse_tree"
    op = "adopt"
    tail = 99  # the highest percentile with at least ten samples beyond it
    LEVELS = [1, 4, 12, 33, 60, 90]
    FIRST_WAVE_CS = 500
    WAVE_PERIOD_CS = 500
    WAVES = 6

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        parent = _tree(rng, self.LEVELS)
        topology, _ = _tree_topology(rng, parent)
        injections = [self.FIRST_WAVE_CS + k * self.WAVE_PERIOD_CS for k in range(self.WAVES)]
        scenario = "".join(f"at {t} upgrade m0 {v}\n" for v, t in enumerate(injections, start=2))
        horizon = injections[-1] + self.WAVE_PERIOD_CS
        return Inputs(topology, scenario, params={
            "modules": len(parent), "injections": injections, "horizon_cs": horizon})

    def drive(self, world: World, inputs: Inputs, advance) -> dict:
        """Run wave by wave; snapshot (version, id) of every module at the
        end of each wave (just before the next injection)."""
        checkpoints = inputs.params["injections"] + [inputs.params["horizon_cs"]]
        snapshots = []
        for t_cs in checkpoints:
            advance(t_cs * US_PER_CS - 1)
            snapshots.append([(m.node.version, str(m.node.module_id))
                              for m in world.modules.values()])
        advance(inputs.params["horizon_cs"] * US_PER_CS)
        return {"snapshots": snapshots}

    def evaluate(self, world: World, inputs: Inputs, observed: dict) -> Outcome:
        params = inputs.params
        waves = [(1, 0)] + list(enumerate((t * US_PER_CS for t in params["injections"]), start=2))
        accepted: dict[tuple[str, int], int] = {}
        for t_us, module, payload in _records_of(world, "push-accept"):
            version = int(payload.split()[0][2:])
            accepted.setdefault((module, version), t_us)
        failures: Counter = Counter()
        violations: list[str] = []
        samples = []
        for (version, inject_us), snapshot in zip(waves, observed["snapshots"]):
            behind = sum(1 for v, _ in snapshot if v != version)
            failures["module_missed_wave"] += behind
            ids = [mid for _, mid in snapshot]
            if len(set(ids)) != len(ids) or "" in ids:
                violations.append(f"ids not distinct after wave v{version}")
            if version == 1:
                continue  # boot wave: checked, but not a latency sample
            for name in world.modules:
                t_us = accepted.get((name, version))
                if t_us is not None:
                    samples.append((t_us - inject_us) / US_PER_CS)
        attempted = (params["modules"] - 1) * len(waves)
        return Outcome(params["horizon_cs"], log_digest(world), len(world.log.records),
                       samples, attempted, failures, violations)


# apps_lossy ---------------------------------------------------------------

class _ClientSession(Session):
    """Session that tells its client when a command's response arrives."""

    def __init__(self, node, on_response):
        super().__init__(node)
        self._on_response = on_response

    def respond(self, line: str) -> None:
        super().respond(line)
        self._on_response(line)


class _Client:
    """Closed-loop application client on one module.

    It submits one command, waits for its response line, thinks for a
    fixed time and submits the next. Every PUTFILE_EVERY-th op is a
    PUTFILE of a multi-KB text file; the others are SENDs to the
    neighbour's `sink` app. The think time must be nonzero: a command that
    fails synchronously would otherwise resubmit at the same virtual
    instant forever and the clock would never advance.
    """

    def __init__(self, world, name, targets, rng, think_us, stop_us, putfile_every):
        self.world = world
        self.name = name
        self.targets = targets  # [(module name, id text)]
        self.rng = rng
        self.think_us = think_us
        self.stop_us = stop_us
        self.putfile_every = putfile_every
        self.ops: list[dict] = []
        self.session = _ClientSession(world.modules[name].node, self._on_response)
        self._current = None

    def start(self) -> None:
        self._current = {"verb": "REGISTER"}
        self.session.submit(f"REGISTER client-{self.name}")

    def _on_response(self, line: str) -> None:
        op, self._current = self._current, None
        if op is None:
            return
        if op["verb"] != "REGISTER":
            op["reply_us"] = self.world.scheduler.now
            op["reply"] = line
        self.world.scheduler.call_after(self.think_us, self._next)

    def _next(self) -> None:
        now = self.world.scheduler.now
        if now >= self.stop_us:
            return
        k = len(self.ops)
        target, target_id = self.targets[k % len(self.targets)]
        if k % self.putfile_every == self.putfile_every - 1:
            size = self.rng.randint(1024, 4096)
            text = _filler(f"file {self.name} op {k}\n", size, self.rng)
            fname = f"f-{self.name}-{k}.txt"
            op = {"verb": "PUTFILE", "target": target, "file": fname, "text": text}
            line = f"PUTFILE {target_id} {fname} {_b64(text.encode())}"
        else:
            size = self.rng.randint(32, 480)
            payload = _filler(f"{self.name}:{k}:", size, self.rng).encode()
            op = {"verb": "SEND", "target": target, "payload": payload}
            line = f"SEND {target_id} sink {_b64(payload)}"
        op["submit_us"] = now
        self.ops.append(op)
        self._current = op
        self.session.submit(line)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


_ALPHABET = b"abcdefghijklmnopqrstuvwxyz0123456789 \n"
_TO_TEXT = bytes(_ALPHABET[i % len(_ALPHABET)] for i in range(256))


def _filler(head: str, size: int, rng: random.Random) -> str:
    """`head` padded to `size` characters of seeded printable text."""
    return head + rng.randbytes(max(0, size - len(head))).translate(_TO_TEXT).decode()


class AppsLossy:
    """Closed-loop SEND/PUTFILE clients on a 20-module chain at loss 0.2.

    Load: one client per module (20 in all), each with one command in
    flight and a fixed think time, talking to its chain neighbours. The
    clients start once diffusion has given every module an id and every
    neighbour table holds its neighbours' ids (commands name modules by
    id), or at READY_DEADLINE_CS if that never happens.
    """

    name = "apps_lossy"
    op = "send"
    tail = 99
    MODULES = 20
    LOSS = 0.2
    THINK_CS = 10
    CLIENT_WINDOW_CS = 8000
    DRAIN_CS = 1000
    READY_DEADLINE_CS = 6000
    PUTFILE_EVERY = 10

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        lines = [f"config loss={self.LOSS}"]
        n = self.MODULES
        for i in range(n):
            ports = [p for p, ok in ((0, i > 0), (1, i < n - 1)) if ok]
            spec = ",".join(f"{p}:{rng.choice(DIRECTIONS)}" for p in ports)
            lines.append(f"module m{i} center={rng.choice(CENTER_AXES)} ports={spec}")
        for i in range(n - 1):
            lines.append(f"link m{i}.1 m{i + 1}.0")
        lines.append("root m0")
        return Inputs("\n".join(lines) + "\n", "", params={
            "client_seed": rng.getrandbits(64)})

    def _ready(self, world: World) -> bool:
        names = list(world.modules)
        for i, name in enumerate(names):
            node = world.modules[name].node
            if node.module_id.unassigned:
                return False
            for port, peer in ((0, i - 1), (1, i + 1)):
                if 0 <= peer < len(names):
                    entry = node.neighbor_table.get(port)
                    peer_id = world.modules[names[peer]].node.module_id
                    if entry is None or entry[0] != peer_id:
                        return False
        return True

    def drive(self, world: World, inputs: Inputs, advance) -> dict:
        t_cs = 0
        while t_cs < self.READY_DEADLINE_CS and not self._ready(world):
            t_cs += 100
            advance(t_cs * US_PER_CS)
        start_cs = t_cs
        stop_us = (start_cs + self.CLIENT_WINDOW_CS) * US_PER_CS
        rng = random.Random(inputs.params["client_seed"])
        names = list(world.modules)
        sinks = {}
        clients = []
        for i, name in enumerate(names):
            sink = world.open_session(name)
            sink.submit("REGISTER sink")
            sinks[name] = sink
            neighbours = [names[j] for j in (i - 1, i + 1) if 0 <= j < len(names)]
            targets = [(peer, str(world.modules[peer].node.module_id)) for peer in neighbours]
            client = _Client(world, name, targets, random.Random(rng.getrandbits(64)),
                             self.THINK_CS * US_PER_CS, stop_us, self.PUTFILE_EVERY)
            client.start()
            clients.append(client)
        horizon_cs = start_cs + self.CLIENT_WINDOW_CS + self.DRAIN_CS
        advance(horizon_cs * US_PER_CS)
        return {"start_cs": start_cs, "horizon_cs": horizon_cs, "sinks": sinks,
                "clients": clients}

    def evaluate(self, world: World, inputs: Inputs, observed: dict) -> Outcome:
        horizon_us = observed["horizon_cs"] * US_PER_CS
        received: dict[str, Counter] = {}
        for name, sink in observed["sinks"].items():
            counts: Counter = Counter()
            for line in sink.take_lines():
                parts = line.split()
                if parts[0] == "MSG":
                    counts[base64.b64decode(parts[3])] += 1
            received[name] = counts
        failures: Counter = Counter()
        violations: list[str] = []
        samples = []  # SENDs answered OK and delivered
        responses = []  # every SEND, to its response or to the horizon
        file_bytes = 0
        sends = putfiles = 0
        for client in observed["clients"]:
            for op in client.ops:
                reply = op.get("reply")
                ok = reply is not None and reply.startswith("OK")
                if op["verb"] == "SEND":
                    sends += 1
                    end_us = op.get("reply_us", horizon_us)
                    responses.append((end_us - op["submit_us"]) / US_PER_CS)
                    copies = received[op["target"]][op["payload"]]
                    if ok and copies == 1:
                        samples.append(responses[-1])
                    if copies > 1:
                        violations.append(f"SEND delivered {copies} times")
                    if reply is None:
                        failures["send_no_reply"] += 1
                    elif not ok:
                        failures["send_err"] += 1
                    elif copies != 1:
                        failures["send_ok_not_delivered"] += 1
                else:
                    putfiles += 1
                    stored = world.modules[op["target"]].node.file_store.get(op["file"])
                    if stored == op["text"]:
                        file_bytes += len(op["text"].encode())
                    elif stored is not None:
                        violations.append(f"PUTFILE {op['file']} stored with other content")
                    if reply is None:
                        failures["putfile_no_reply"] += 1
                    elif not ok:
                        failures["putfile_err"] += 1
                    elif stored != op["text"]:
                        failures["putfile_ok_missing"] += 1
        window_s = self.CLIENT_WINDOW_CS / 100
        return Outcome(observed["horizon_cs"], log_digest(world), len(world.log.records),
                       samples, sends + putfiles, failures, violations, extra={
                           "clients_start_cs": observed["start_cs"],
                           "sends": sends, "putfiles": putfiles,
                           "file_goodput_Bps": file_bytes / window_s},
                       responses_cs=responses)


# roles_swarm --------------------------------------------------------------

_ROLE_TEMPLATE = """\
# Generated swarm program: every role descends from Unit, which owns the
# cruise behaviour, the evade command and the sensor handler.
abstract role Unit extends Module {{
  abstract constant cruise;
  abstract constant dodge;
  startup init(_) {{
    handle $EVENT_HANDLER_1 {{
      Unit.evade(0);
      (self.sleepcs({handler_cs}));
    }};
    (self.enable($EVENT_HANDLER_1));
  }}
  behavior move(_) {{
    self.$TURN_CONTINUOUSLY(cruise);
  }}
  command evade(_) {{
    self.$TURN_CONTINUOUSLY(dodge);
    (self.sleepcs({evade_cs}));
  }}
}}
{axis_roles}"""

_AXIS_TEMPLATE = """
abstract role {A} extends Unit {{
  require (self.center == ${axis});
  cruise = {cruise};
}}
role {A}Free extends {A} {{
  require (sizeof(self.connected(${d1})) == 0);
  dodge = {dodge0};
}}
abstract role {A}Linked extends {A} {{
  abstract constant side;
  require (sizeof(self.connected(${d1})) >= 1);
  dodge = {dodge1};
}}
role {A}Edge extends {A}Linked {{
  side = ${d2};
  require (sizeof(self.connected(side)) == 0);
}}
role {A}Inner extends {A}Linked {{
  side = ${d2};
  require (sizeof(self.connected(side)) >= 1);
}}
"""


def role_program(rng: random.Random) -> str:
    """Nine concrete roles over a four-level chain (Unit, axis, Linked,
    Edge/Inner); for every physical state exactly one of them holds."""
    parts = []
    for axis in CENTER_AXES:
        d1, d2 = rng.sample(DIRECTIONS, 2)
        parts.append(_AXIS_TEMPLATE.format(
            A="".join(w.title() for w in axis.split("_")), axis=axis, d1=d1, d2=d2,
            cruise=rng.randint(50, 150), dodge0=-rng.randint(50, 150),
            dodge1=-rng.randint(50, 150)))
    return _ROLE_TEMPLATE.format(handler_cs=5, evade_cs=20, axis_roles="".join(parts))


class RolesSwarm:
    """Role programs on a ~100-module lossless tree, driven open loop.

    Scenario, open loop at a fixed simulated rate: every ROUND_CS, TRIPS
    sensor trips on modules at pairwise distance >= 3 (so each neighbour
    receives at most one invocation per round), each trip's handler
    invoking Unit.evade on every neighbour; half-way through each round a
    link is severed (even rounds) or the last severed link restored (odd
    rounds). Programs start at START_CS, after the boot diffusion.
    """

    name = "roles_swarm"
    op = "react"
    tail = 90
    LEVELS = [1, 3, 9, 27, 60]
    PROGRAM = "swarm.role"
    START_CS = 1000
    FIRST_ROUND_CS = 1200
    ROUND_CS = 150
    ROUNDS = 40
    TRIPS = 12

    def generate(self, seed: int) -> Inputs:
        rng = random.Random(f"{self.name}:{seed}")
        parent = _tree(rng, self.LEVELS)
        topology, info = _tree_topology(rng, parent, sensors="1:0")
        program = role_program(rng)
        adjacency = {name: [peer for _, peer in ports]
                     for name, ports in info["adjacency"].items()}
        names = list(adjacency)
        events = [(self.START_CS, f"start {name} {self.PROGRAM}") for name in names]
        rounds = []
        severed = None
        for r in range(self.ROUNDS):
            t = self.FIRST_ROUND_CS + r * self.ROUND_CS
            trips = _spread_out(rng, names, adjacency, self.TRIPS)
            rounds.append({"t_cs": t, "trips": trips, "severed": severed})
            for name in trips:
                events.append((t, f"sensor {name} 1 1"))
                events.append((t + self.ROUND_CS // 3, f"sensor {name} 1 0"))
            half = t + self.ROUND_CS // 2
            if severed is None:
                severed = rng.choice(info["links"])
                events.append((half, f"sever {severed[0]} {severed[1]}"))
            else:
                events.append((half, f"restore {severed[0]} {severed[1]}"))
                severed = None
        events.sort(key=lambda e: e[0])  # stable: same-time events keep their order
        scenario = "".join(f"at {t} {text}\n" for t, text in events)
        horizon = self.FIRST_ROUND_CS + self.ROUNDS * self.ROUND_CS
        return Inputs(topology, scenario, files={self.PROGRAM: program}, params={
            "rounds": rounds, "adjacency": adjacency, "horizon_cs": horizon})

    def drive(self, world: World, inputs: Inputs, advance) -> dict:
        advance(inputs.params["horizon_cs"] * US_PER_CS)
        return {}

    def evaluate(self, world: World, inputs: Inputs, observed: dict) -> Outcome:
        params = inputs.params
        adjacency = params["adjacency"]
        begins: dict[str, list[int]] = {}
        for t_us, module, payload in _records_of(world, "run-begin"):
            if payload == "command evade":
                begins.setdefault(module, []).append(t_us)
        failures: Counter = Counter()
        samples = []
        attempted = 0
        for rnd in params["rounds"]:
            start_us = rnd["t_cs"] * US_PER_CS
            end_us = start_us + self.ROUND_CS * US_PER_CS
            cut = set(_link_modules(rnd["severed"])) if rnd["severed"] else set()
            for name in rnd["trips"]:
                for peer in adjacency[name]:
                    if {name, peer} == cut:
                        continue  # that link is severed: no invocation is sent
                    attempted += 1
                    hits = [t for t in begins.get(peer, ()) if start_us <= t < end_us]
                    if hits:
                        samples.append((hits[0] - start_us) / US_PER_CS)
                    else:
                        failures["invocation_not_run"] += 1
        return Outcome(params["horizon_cs"], log_digest(world), len(world.log.records),
                       samples, attempted, failures, [])


def _link_modules(link: tuple[str, str]) -> tuple[str, str]:
    return link[0].rpartition(".")[0], link[1].rpartition(".")[0]


def _spread_out(rng: random.Random, names: list[str], adjacency: dict, count: int) -> list[str]:
    """Up to `count` random modules at pairwise distance >= 3."""
    blocked: set[str] = set()
    chosen = []
    for name in rng.sample(names, len(names)):
        if name in blocked:
            continue
        chosen.append(name)
        ring = {name, *adjacency[name]}
        for peer in list(ring):
            ring.update(adjacency[peer])
        blocked |= ring
        if len(chosen) == count:
            break
    return chosen


WORKLOADS = {w.name: w for w in (DiffuseTree(), AppsLossy(), RolesSwarm())}
