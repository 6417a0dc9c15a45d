"""Span tracing of modbot's layers from outside the package.

`Tracer.install()` replaces the layers' public functions and methods with
wrappers, in the namespace where their callers look them up (for example
`modbot.link.crc16`, which `encode_frame` and the frame decoder call, and
`modbot.node.decode_message`, the name the node imported). It also wraps
every callback passed to `Scheduler.call_at`, so each fired event is a
span of its own and every span inside it carries that event's id.
`uninstall()` puts the originals back. Nothing inside `src/` changes.

A span is (index, name id, start ns, end ns, parent index, event id).
Spans stay in memory in one flat array and are written out at the end.
Self time is a span's duration minus the durations of its direct
children, accumulated per name as the spans close.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import modbot.dynarole as dynarole
import modbot.engine as engine
import modbot.link as link
import modbot.messages as messages
import modbot.node as node
import modbot.sim as sim
import modbot.world as world

LAYERS = ("sim", "link", "messages", "node", "engine", "dynarole", "world", "bench")
SPAN_FIELDS = 6

# (span name, owner, attribute). Functions are patched where callers find them.
TARGETS = [
    ("sim.run_until", sim.Scheduler, "run_until"),
    ("sim.call_at", sim.Scheduler, "call_at"),
    ("sim.log", sim.EventLog, "log"),
    ("link.crc16", link, "crc16"),
    ("link.encode_frame", link, "encode_frame"),
    ("link.decoder_feed", link.FrameDecoder, "feed"),
    ("link.on_bytes", link.PortProtocol, "on_bytes"),
    ("link.send", link.PortProtocol, "send"),
    ("link.cancel", link.PortProtocol, "cancel"),
    ("messages.encode", messages, "encode_message"),
    ("messages.split", messages, "split_for_link"),
    ("messages.send", world, "send_message"),
    ("messages.reassemble", messages.LinkReassembler, "feed"),
    ("messages.decode", node, "decode_message"),
    ("node.on_link_payload", node.ServiceNode, "on_link_payload"),
    ("node.execute", node.ServiceNode, "execute"),
    ("node.upgrade_local", node.ServiceNode, "upgrade_local"),
    ("node.start_program", node.ServiceNode, "start_program"),
    ("engine.evaluate", engine.RoleEngine, "evaluate"),
    ("engine.on_invoke", engine.RoleEngine, "on_invoke"),
    ("engine.on_event", engine.RoleEngine, "on_event"),
    ("dynarole.parse_program", node, "parse_program"),
    ("dynarole.assign_role", engine, "assign_role"),
    ("dynarole.chain", dynarole.RoleProgram, "chain"),
    ("world.parse_topology", world, "parse_topology"),
    ("world.parse_scenario", world, "parse_scenario"),
    ("world.build", world.World, "__init__"),
    ("world.transmit", world.Channel, "transmit"),
    ("world.snapshot", world.SimModule, "snapshot"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.stats: dict[int, list[int]] = {}  # name id -> [count, total ns, self ns]
        self.event_id = 0
        self._next_span = 0
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Counts observed at the layer boundaries.
        self.crc_bytes = 0
        self.timers_scheduled = 0
        self.timers_cancelled = 0
        self.frame_sizes: Counter = Counter()  # transmitted frame length -> count
        self.busy_us = 0
        self.message_kinds: Counter = Counter()
        self.split_calls = 0
        self.split_chunks = 0
        self.reassemblers: dict[int, messages.LinkReassembler] = {}
        self.tickets: list[tuple[int, object, list]] = []  # (send us, ticket, [resolve us])
        self.sample_frames: dict[str, bytes] = {}
        self._scheduler = None

    # span bookkeeping

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[nid] = [0, 0, 0]
        return nid

    def wrap(self, name: str, fn, new_event: bool = False):
        nid = self.name_id(name)
        stat = self.stats[nid]
        stack = self._stack
        child_ns = self._child_ns
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if new_event:
                tracer.event_id += 1
            index = tracer._next_span
            tracer._next_span = index + 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - inner
                spans.extend((index, nid, start, end, parent, tracer.event_id))

        traced.__wrapped__ = fn
        return traced

    # installation

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._observe(name, wrapped))
        original_cancel = sim.Timer.cancel
        self._patches.append((sim.Timer, "cancel", original_cancel))

        def cancel(timer):
            if not timer.cancelled:
                self.timers_cancelled += 1
            original_cancel(timer)

        sim.Timer.cancel = cancel

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _observe(self, name: str, wrapped):
        """Add the counts some layers need around their span wrapper."""
        tracer = self
        if name == "sim.call_at":
            def call_at(scheduler, t_us, fn):
                tracer._scheduler = scheduler
                tracer.timers_scheduled += 1
                return wrapped(scheduler, t_us, tracer.wrap(_event_name(fn), fn, new_event=True))
            return call_at
        if name == "link.crc16":
            def crc16(data):
                tracer.crc_bytes += len(data)
                return wrapped(data)
            return crc16
        if name == "link.encode_frame":
            def encode_frame(frame):
                out = wrapped(frame)
                tracer._sample_frame(out)
                return out
            return encode_frame
        if name == "link.send":
            def send(port, payload):
                ticket = wrapped(port, payload)
                resolved: list = []
                ticket.on_done(lambda t: resolved.append(tracer._scheduler.now))
                tracer.tickets.append((tracer._scheduler.now, ticket, resolved))
                return ticket
            return send
        if name == "messages.split":
            def split_for_link(data):
                out = wrapped(data)
                tracer.split_calls += 1
                tracer.split_chunks += len(out)
                return out
            return split_for_link
        if name == "messages.reassemble":
            def feed(reassembler, payload):
                tracer.reassemblers[id(reassembler)] = reassembler
                return wrapped(reassembler, payload)
            return feed
        if name == "messages.decode":
            def decode_message(data):
                msg = wrapped(data)
                tracer.message_kinds[msg.kind.name] += 1
                return msg
            return decode_message
        if name == "world.transmit":
            def transmit(channel, data):
                tracer.frame_sizes[len(data)] += 1
                tracer.busy_us += len(data) * channel.byte_us
                return wrapped(channel, data)
            return transmit
        return wrapped

    def _sample_frame(self, frame: bytes) -> None:
        """Keep one real frame of each class for the micro-suite."""
        if frame[1] == link.FrameType.ACK:
            self.sample_frames.setdefault("ack", frame)
        elif len(frame) == 7 + 4 + messages.CHUNK_DATA_MAX:
            self.sample_frames.setdefault("chunk", frame)
        elif frame[5:9] == b"\x00\x00\x00\x01" and frame[9] == messages.Kind.VERSION_ANNOUNCE:
            self.sample_frames.setdefault("announce", frame)

    # results

    @property
    def span_count(self) -> int:
        return len(self.spans) // SPAN_FIELDS

    def stat(self, name: str) -> tuple[int, int, int]:
        nid = self._ids.get(name)
        return tuple(self.stats[nid]) if nid is not None else (0, 0, 0)

    def self_ns_by_layer(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for nid, (_, _, self_ns) in self.stats.items():
            layer = self.names[nid].split(".", 1)[0]
            out[layer if layer in out else "bench"] += self_ns
        return out

    def write(self, path_prefix) -> None:
        """Spans as raw native-endian int64 sextuples plus the name table."""
        with open(f"{path_prefix}.spans", "wb") as f:
            self.spans.tofile(f)
        with open(f"{path_prefix}.names", "w", encoding="utf-8") as f:
            f.write("\n".join(self.names) + "\n")


def _event_name(fn) -> str:
    """Span name of a fired event: the layer that defined the callback."""
    module = getattr(fn, "__module__", None) or ""
    layer = module.rpartition(".")[2] if module.startswith("modbot.") else "bench"
    return f"{layer}.event:{getattr(fn, '__qualname__', type(fn).__name__)}"
