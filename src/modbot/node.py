"""Per-module service node.

Each module runs one ServiceNode. Local applications open sessions against
it and drive it with a line-based text protocol (see docs/protocol.md for
the verbs); the node talks to its physical neighbors through typed
messages over the reliable link layer. The node owns the app registry,
file store, version/identity state and the code-diffusion machinery, and
hosts role engines started from transferred program files.

Commands execute one at a time per session; a command's single response
line (`OK ...` or `ERR <code> <text>`) may arrive after network round
trips, with asynchronous `MSG`/`EVENT` pushes interleaved.
"""

from __future__ import annotations

import base64
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .dynarole import RoleSyntaxError, parse_program
from .engine import RoleEngine
from .link import Ticket, TicketState
from .messages import (
    APPDATA, APPDATA_STATUS, BCAST, CHUNK, CHUNK_DATA_MAX, CODE_PUSH, INVOKE, REQUEST, ROOT_ID,
    VERSION, Kind, LinkReassembler, ModuleId, ProtocolError, ServiceMessage, decode_message,
    encode_message,
)
from .sim import Timer, US_PER_MS, US_PER_S

ANNOUNCE_PERIOD_US = US_PER_S  # re-announce once per simulated second
_HELLO, _ANNOUNCE = Kind.HELLO, Kind.VERSION_ANNOUNCE  # bound once: the beacon kinds
IMAGE_SIZE = 600


def make_image(version: int) -> bytes:
    """Deterministic stand-in for the node's code image at a version."""
    head = f"svc-image v{version}\n".encode()
    return head + b"#" * max(0, IMAGE_SIZE - len(head))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


class Session:
    """One application connection: commands in, response/push lines out."""

    def __init__(self, node: "ServiceNode"):
        self.node = node
        self.name: Optional[str] = None
        self.outbox: list[str] = []
        self.closed = False
        self._commands: deque[str] = deque()
        self._busy = False
        self._advancing = False

    def submit(self, line: str) -> None:
        if self.closed:
            return
        self._commands.append(line)
        self._advance()

    def push(self, line: str) -> None:
        """Asynchronous MSG/EVENT delivery."""
        self.outbox.append(line)

    def respond(self, line: str) -> None:
        self.outbox.append(line)
        self._busy = False
        self._advance()

    def take_lines(self) -> list[str]:
        lines, self.outbox = self.outbox, []
        return lines

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.node._deregister(self)

    def _advance(self) -> None:
        if self._advancing:
            return  # a synchronous respond() re-entered; the loop below continues
        self._advancing = True
        try:
            while not self._busy and self._commands and not self.closed:
                self._busy = True
                self.node.execute(self, self._commands.popleft())
        finally:
            self._advancing = False


class _ExecSession(Session):
    """Pre-authenticated one-shot session used for remote EXEC lines."""

    def __init__(self, node: "ServiceNode", on_response: Callable[[str], None]):
        super().__init__(node)
        self.name = "_exec"
        self._on_response = on_response
        self._answered = False

    def respond(self, line: str) -> None:
        self._busy = False
        if not self._answered:
            self._answered = True
            self._on_response(line)


@dataclass
class _Transfer:
    total: int
    name: str
    parts: list[bytes]


class ServiceNode:
    """Middleware state machine for one module.

    The host duck type (the module, `world.SimModule`) supplies the
    simulated world surface: `scheduler`, `log(kind, payload)`,
    `state_text()`, `snapshot()`, `actuate(value)`, `send_port(port, msg)
    -> Ticket`, `connected_ports()`, `link_config` and `programs`, the
    parsed role programs by text, shared world-wide. The role engines the
    node starts are hosted by the same module (see `RoleEngine`); they sit
    in `engines` under their program's file name, which apps cannot
    register. An engine takes INVOKE messages addressed to that name, and
    data `INVOKE <role> <command>` that an app sends or broadcasts to it.
    """

    def __init__(self, host):
        self.host = host
        self.module_id = ModuleId()
        self.version = 0
        self.neighbor_table: dict[int, tuple[ModuleId, int]] = {}
        self.apps: dict[str, Session] = {}
        self.engines: dict[str, RoleEngine] = {}
        self.file_store: dict[str, str] = {}
        self.code_image = b""
        self._reassemblers: defaultdict[int, LinkReassembler] = defaultdict(LinkReassembler)
        self._file_transfers: dict[tuple[int, int], _Transfer] = {}
        self._pending: dict[int, tuple[Timer, Session]] = {}  # req_id -> (reply timer, asker)
        self._req_counter = itertools.count(1)
        self._transfer_counter = itertools.count(1)
        self._push_inflight: set[int] = set()
        self._held_push = None  # (req_ids it waits for, version, new id, image, pusher)
        self._hello = self._announce = None  # built by _advertise for the current id and version
        self._last_beacon: dict[int, tuple[bytes, tuple[ModuleId, int]]] = {}  # per port

    # bootstrap and periodic diffusion

    def bootstrap(self, root: bool) -> None:
        if root:
            self.module_id = ROOT_ID
            self.version = 1
            self.code_image = make_image(1)
        self.host.log("boot", f"id={self.module_id} v={self.version}")
        self._advertise()
        self.host.scheduler.call_after(ANNOUNCE_PERIOD_US, self._tick)

    def _tick(self) -> None:
        ports = self.host.connected_ports()
        announce = self._announce
        for port in ports:
            self.host.send_port(port, announce)
        self._push_older(ports)
        self.host.scheduler.call_after(ANNOUNCE_PERIOD_US, self._tick)

    def _advertise(self) -> None:
        """Build the HELLO and the tick's VERSION_ANNOUNCE for the current id
        and version, send the HELLO on every connected port, then push to each
        neighbour that runs an older version. Bootstrap and every change of
        id or version end here, so the beacons are built once per change."""
        body = VERSION.pack(self.version)
        hello = self._hello = ServiceMessage(_HELLO, self.module_id, None, body)
        self._announce = ServiceMessage(_ANNOUNCE, self.module_id, None, body)
        ports = self.host.connected_ports()
        for port in ports:
            self.host.send_port(port, hello)
        self._push_older(ports)

    def on_link_up(self, port: int) -> None:
        self.host.send_port(port, self._hello)

    def on_phys_change(self) -> None:
        for engine in self.engines.values():
            engine.evaluate()

    def on_sensor(self, sensor_id: int, value: int) -> None:
        for session in list(self.apps.values()):
            session.push(f"EVENT sensor {sensor_id} {value}")
        if value != 0:
            for engine in self.engines.values():
                engine.on_event(sensor_id)

    # code diffusion

    def upgrade_local(self, version: int) -> None:
        """Direct upgrade injection (the out-of-band reflash of one module)."""
        if version <= self.version:
            self.host.log("upgrade-ignored", f"v={version} at v={self.version}")
            return
        self.version = version
        self.code_image = make_image(version)
        if self.module_id.unassigned:
            self.module_id = ROOT_ID
        self.host.log("version", str(self.version))
        self._advertise()

    def _push_older(self, ports: Iterable[int]) -> None:
        """Push to each of these ports whose neighbour runs an older version
        and has no push in flight (versions are never negative, so v0 never pushes)."""
        for port in ports:
            entry = self.neighbor_table.get(port)
            if entry is not None and entry[1] < self.version and port not in self._push_inflight:
                self._start_push(port)

    def _start_push(self, port: int) -> None:
        self._push_inflight.add(port)
        version = self.version
        child = self.module_id.child(port)
        msg = ServiceMessage(Kind.CODE_PUSH, self.module_id, None,
                             CODE_PUSH.pack(version, child, self.code_image))
        self.host.log("push", f"v={version} port={port} id={child}")

        def done(ticket: Ticket) -> None:
            self._push_inflight.discard(port)
            if ticket.state is TicketState.DELIVERED:  # the child holds what its beacons will say
                self.neighbor_table[port] = (child, version)
            else:
                self.host.log("push-fail", f"v={version} port={port}")

        self.host.send_port(port, msg).on_done(done)

    def _chunk_messages(self, name: str, blob: bytes) -> list[ServiceMessage]:
        """One file's FILE_CHUNK messages under a fresh transfer id, each but
        the last encoded to exactly k whole link chunks: k * CHUNK_DATA_MAX
        bytes, with k = 2 for any header shorter than one link chunk."""
        transfer_id = next(self._transfer_counter)
        header = len(encode_message(ServiceMessage(
            Kind.FILE_CHUNK, self.module_id, None, CHUNK.pack(transfer_id, 0, 1, name, b""))))
        size = (2 + header // CHUNK_DATA_MAX) * CHUNK_DATA_MAX - header
        parts = [blob[i:i + size] for i in range(0, len(blob), size)] or [b""]
        return [
            ServiceMessage(Kind.FILE_CHUNK, self.module_id, None,
                           CHUNK.pack(transfer_id, i, len(parts), name, part))
            for i, part in enumerate(parts)
        ]

    def _run_job(self, port: int, msgs: list[ServiceMessage], done: Callable[[bool], None]) -> None:
        """Send messages one after another, each from the previous ticket's
        DELIVERED callback; abort the job on first failure. That callback is
        a partial of `_job_step` over an iterator of the messages, so nothing
        in a job refers back to itself and reference counting frees it."""
        self._job_step(port, iter(msgs), done, None)

    def _job_step(self, port: int, msgs: Iterator, done: Callable, ticket: Ticket | None) -> None:
        if ticket is not None and ticket.state is not TicketState.DELIVERED:
            done(False)
        elif (msg := next(msgs, None)) is None:
            done(True)
        else:
            self.host.send_port(port, msg).on_done(partial(self._job_step, port, msgs, done))

    def _adopt(self, version: int, new_id: ModuleId, blob: bytes, src: ModuleId) -> None:
        self.version = version
        self.module_id = new_id
        self.code_image = blob
        self.host.log("version", str(version))
        self.host.log("push-accept", f"v={version} id={new_id} from={src}")
        self._file_transfers.clear()
        self._reset_sessions()
        for timer, _session in self._pending.values():
            timer.cancel()
        self._pending.clear()
        self._advertise()

    def _reset_sessions(self) -> None:
        """Sessions do not survive a version adoption; engines are restarted."""
        for session in self.apps.values():
            session.push(f"EVENT reset {self.version}")
            session.closed = True
        self.apps.clear()
        engines, self.engines = self.engines, {}
        for engine in engines.values():
            engine.stop()
        for name in engines:
            self.start_program(name)

    # inbound message path

    def on_link_payload(self, port: int, payload: bytes) -> None:
        whole = self._reassemblers[port].feed(payload)
        if whole is None:
            return
        # Beacons repeat byte for byte: a repeat only stores its (id, version) again.
        beacon = self._last_beacon.get(port)
        if beacon is None or beacon[0] != whole:
            try:
                msg = decode_message(whole)
            except ProtocolError as exc:
                self.host.log("protocol-error", str(exc))
                return
            try:
                if msg.kind is not _HELLO and msg.kind is not _ANNOUNCE:
                    self._dispatch(port, msg)
                    return
                beacon = self._last_beacon[port] = (whole, (msg.src, VERSION.unpack(msg.body)[0]))
            except ProtocolError as exc:
                self.host.log("protocol-error", f"{msg.kind.name}: {exc}")
                return
        entry = self.neighbor_table.get(port)
        if entry is not None and beacon[1][1] < entry[1]:
            return  # a stale beacon: a neighbour's version never falls
        entry = self.neighbor_table[port] = beacon[1]
        if entry[1] < self.version and port not in self._push_inflight:
            self._start_push(port)

    def _dispatch(self, port: int, msg: ServiceMessage) -> None:
        kind = msg.kind
        if kind is Kind.APPDATA:
            self._on_appdata(port, msg)
        elif kind is Kind.BCAST:
            self._on_bcast(port, msg)
        elif kind is Kind.INVOKE:
            role, command = INVOKE.unpack(msg.body)
            engine = self.engines.get(msg.dst_app or "")
            if engine is None:
                self.host.log("drop", f"invoke for unknown app {msg.dst_app}")
            else:
                engine.on_invoke(role, command)
        elif kind is Kind.REPLY:
            self._resolve_pending(*REQUEST.unpack(msg.body))
        elif kind is Kind.CODE_PUSH:
            self._on_code_push(msg)
        elif kind is Kind.FILE_CHUNK:
            self._on_file_chunk(port, msg)
        else:  # EXEC or START: every other kind has its branch above
            self._serve(port, msg)

    def _on_appdata(self, port: int, msg: ServiceMessage) -> None:
        if msg.body[:1] == b"\x01":
            _, req_id, code = APPDATA_STATUS.unpack(msg.body)
            self._resolve_pending(req_id, "ERR 404 unknown app" if code else "OK delivered")
            return
        _, req_id, src_app, data = APPDATA.unpack(msg.body)
        name = msg.dst_app or ""
        code = 0 if name in self.apps or name in self.engines else 1  # 1 = unknown app
        if code:
            self.host.log("drop", f"appdata for unknown app {msg.dst_app}")
        else:
            text = f"{str(msg.src) or '-'} {src_app} {_b64(data)}"
            self.host.log("appmsg", text)
            if name in self.apps:
                self.apps[name].push(f"MSG {text}")
            else:
                _invoke(self.engines[name], data)
        if req_id:  # 0: the sender wants no status
            self.host.send_port(port, ServiceMessage(
                Kind.APPDATA, self.module_id, None, APPDATA_STATUS.pack(1, req_id, code)))

    def _on_bcast(self, port: int, msg: ServiceMessage) -> None:
        src_app, data = BCAST.unpack(msg.body)
        text = f"{str(msg.src) or '-'} {src_app} {_b64(data)}"
        self.host.log("bcastmsg", text)
        for session in list(self.apps.values()):
            session.push(f"MSG {text}")
        for engine in self.engines.values():
            _invoke(engine, data)

    def _on_code_push(self, msg: ServiceMessage) -> None:
        """Adopt a pushed version only if it is strictly newer. A push that
        finds requests pending is held until each is answered: their replies
        may queue behind it on the link, and adoption closes every session."""
        version, new_id, image = CODE_PUSH.unpack(msg.body)
        held = self._held_push
        if version <= (held[1] if held else self.version):
            self.host.log("push-reject", f"v={version} from={msg.src}")
        elif self._pending:
            self._held_push = (set(self._pending), version, new_id, image, msg.src)
        else:
            self._adopt(version, new_id, image, msg.src)

    def _on_file_chunk(self, port: int, msg: ServiceMessage) -> None:
        """Collect a file's chunks in order; store it when the last arrives."""
        transfer_id, index, total, name, data = CHUNK.unpack(msg.body)
        key = (port, transfer_id)
        if index == 0:
            entry = self._file_transfers[key] = _Transfer(total=total, name=name, parts=[data])
        else:
            entry = self._file_transfers.get(key)
            if entry is None or index != len(entry.parts) or total != entry.total:
                self._file_transfers.pop(key, None)
                self.host.log("transfer-reset", f"port={port} id={transfer_id}")
                return
            entry.parts.append(data)
        if len(entry.parts) < total:
            return
        del self._file_transfers[key]
        blob = b"".join(entry.parts)
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            self.host.log("drop", f"file {name}: not utf-8 text")
            return
        self.file_store[name] = text
        self.host.log("file", f"{name} bytes={len(blob)}")

    def _serve(self, port: int, msg: ServiceMessage) -> None:
        """EXEC/START: run the request here and answer it once, with a
        REPLY carrying its response line under the request's req_id."""
        req_id, text = REQUEST.unpack(msg.body)

        def answer(line: str) -> None:
            self.host.send_port(port, ServiceMessage(
                Kind.REPLY, self.module_id, None, REQUEST.pack(req_id, line)))

        if msg.kind is Kind.EXEC:
            _ExecSession(self, answer).submit(text)
        else:
            answer(self.start_program(text))

    # pending request bookkeeping

    def _reply_timeout_us(self) -> int:
        cfg = self.host.link_config
        return 3 * cfg.ack_timeout_ms * US_PER_MS * max(1, cfg.max_retries)

    def _request(self, session: Session, port: int, kind: Kind,
                 body_of: Callable[[int], bytes], verb: str,
                 dst_app: Optional[str] = None) -> None:
        """Send the request message body_of(req_id) and answer the session
        exactly once: with the reply's line when it arrives (see
        `_resolve_pending`), `ERR 409 delivery failed` when the link gave up
        on the request and `ERR 504 <verb> timeout` when no reply came in
        time. The message is encoded first, so a field too long for the
        wire raises ProtocolError with nothing pending. The reply timer is
        armed before the send, which fixes its place in the scheduler's
        same-time order."""
        req_id = next(self._req_counter)
        msg = ServiceMessage(kind, self.module_id, dst_app, body_of(req_id))
        msg.link_chunks  # encoded here, before anything is pending

        def expire() -> None:
            if req_id in self._pending:
                self._resolve_pending(req_id, f"ERR 504 {verb} timeout")

        def on_sent(ticket: Ticket) -> None:
            if ticket.state is TicketState.FAILED and req_id in self._pending:
                self._resolve_pending(req_id, "ERR 409 delivery failed")

        timer = self.host.scheduler.call_after(self._reply_timeout_us(), expire)
        self._pending[req_id] = (timer, session)
        self.host.send_port(port, msg).on_done(on_sent)

    def _resolve_pending(self, req_id: int, line: str) -> None:
        """Answer the session that asked request req_id with line, then adopt
        a held push once every request it waits for is answered."""
        pending = self._pending.pop(req_id, None)
        if pending is None:
            self.host.log("drop", f"reply for unknown request {req_id}")
            return
        timer, session = pending
        timer.cancel()
        session.respond(line)
        held = self._held_push
        if held is not None:
            held[0].discard(req_id)
            if not held[0]:
                self._held_push = None
                if held[1] > self.version:
                    self._adopt(*held[1:])
                else:  # a local upgrade overtook it
                    self.host.log("push-reject", f"v={held[1]} from={held[4]}")

    # engine support

    def invoke_neighbors(self, app_name: str, role: str, command: str) -> None:
        """Send one INVOKE message for role.command to the engine named
        app_name on every neighbour; no status answers it."""
        msg = ServiceMessage(Kind.INVOKE, self.module_id, app_name, INVOKE.pack(role, command))
        for port in self.host.connected_ports():
            self.host.send_port(port, msg)

    def start_program(self, filename: str) -> str:
        text = self.file_store.get(filename)
        if text is None:
            return "ERR 404 no such file"
        program = self.host.programs.get(text)
        if program is None:
            try:
                program = parse_program(text)
            except RoleSyntaxError as exc:
                return f"ERR 422 {exc.diagnostics[0]}"
            self.host.programs[text] = program
        if filename in self.apps:
            return "ERR 409 app name in use"
        old = self.engines.pop(filename, None)  # a restart moves the engine to the end
        if old is not None:
            old.stop()
        engine = self.engines[filename] = RoleEngine(
            self.host, program, partial(self.invoke_neighbors, filename))
        self.host.log("start-program", filename)
        engine.start()
        return f"OK started {filename}"

    # command protocol

    def open_session(self) -> Session:
        return Session(self)

    def _deregister(self, session: Session) -> None:
        if session.name and self.apps.get(session.name) is session:
            self.apps.pop(session.name)
            self.host.log("deregister", session.name)

    def execute(self, session: Session, line: str) -> None:
        """Run one command line; it is answered exactly once, here when the
        answer is decided before the command returns."""
        parts = line.split()
        try:
            if not parts:
                raise _Answer("ERR 400 empty command")
            verb = parts[0]
            if verb != "REGISTER" and session.name is None:
                raise _Answer("ERR 401 register first")
            handler = _COMMANDS.get(verb)
            if handler is None:
                raise _Answer(f"ERR 400 unknown command {verb}")
            handler(self, session, parts[1:])
        except _Answer as answer:
            session.respond(str(answer))
        except ProtocolError as exc:  # a name or argument too long for its wire field
            session.respond(f"ERR 400 {exc}")

    # individual commands; each answers exactly once, by response or _Answer

    def _cmd_register(self, session: Session, args: list[str]) -> None:
        if len(args) != 1:
            raise _Answer("ERR 400 usage: REGISTER <app>")
        name = args[0]
        # The app name travels in 255-byte wire fields.
        if len(name) > 64 or len(name.encode("utf-8")) > 255 or not name.isprintable():
            raise _Answer("ERR 400 bad app name")
        if session.name is not None:
            raise _Answer("ERR 409 already registered")
        if name in self.apps or name in self.engines:
            raise _Answer("ERR 409 app name in use")
        session.name = name
        self.apps[name] = session
        self.host.log("register", name)
        session.respond(f"OK registered {name}")

    def _cmd_state(self, session: Session, args: list[str]) -> None:
        if not args:
            session.respond(f"OK {self.host.state_text()}")
            return
        if len(args) != 1:
            raise _Answer("ERR 400 usage: STATE [<module>]")
        self._request(session, self._port_of(args[0]), Kind.EXEC,
                      lambda req_id: REQUEST.pack(req_id, "STATE"), "state")

    def _cmd_neighbors(self, session: Session, args: list[str]) -> None:
        if args:
            raise _Answer("ERR 400 usage: NEIGHBORS")
        entries = [
            f"{port}:{mid}:{version}"
            for port, (mid, version) in sorted(self.neighbor_table.items())
        ]
        if entries:
            session.respond("OK " + " ".join(entries))
        else:
            session.respond("OK")

    def _cmd_send(self, session: Session, args: list[str]) -> None:
        if len(args) != 3:
            raise _Answer("ERR 400 usage: SEND <module> <app> <b64>")
        data = _decode_b64(args[2])
        self._request(
            session, self._port_of(args[0]), Kind.APPDATA,
            lambda req_id: APPDATA.pack(0, req_id, session.name or "", data),
            "send", dst_app=args[1])

    def _cmd_bcast(self, session: Session, args: list[str]) -> None:
        if len(args) != 1:
            raise _Answer("ERR 400 usage: BCAST <b64>")
        msg = ServiceMessage(Kind.BCAST, self.module_id, None,
                             BCAST.pack(session.name or "", _decode_b64(args[0])))
        sent = [(port, self.host.send_port(port, msg)) for port in self.host.connected_ports()]
        if not sent:
            raise _Answer("OK delivered=0")

        def answer(_ticket: Ticket) -> None:
            if all(ticket.done for _port, ticket in sent):
                failed = [self._peer_label(port) for port, ticket in sent
                          if ticket.state is not TicketState.DELIVERED]
                line = f"OK delivered={len(sent) - len(failed)}"
                session.respond(f"{line} failed={','.join(failed)}" if failed else line)

        for _port, ticket in sent:
            ticket.on_done(answer)

    def _cmd_putfile(self, session: Session, args: list[str]) -> None:
        if len(args) != 3:
            raise _Answer("ERR 400 usage: PUTFILE <module> <name> <b64>")
        raw = _decode_b64(args[2])
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _Answer("ERR 400 file content must be utf-8 text")
        port = self._port_of(args[0])
        name = args[1]
        msgs = self._chunk_messages(name, raw)
        self._run_job(port, msgs, lambda ok: session.respond(
            f"OK transferred {name}" if ok else "ERR 409 transfer failed"))

    def _cmd_exec(self, session: Session, args: list[str]) -> None:
        if len(args) != 2:
            raise _Answer("ERR 400 usage: EXEC <module> <b64-of-command-line>")
        try:
            command_line = _decode_b64(args[1]).decode("utf-8")
        except UnicodeDecodeError:
            raise _Answer("ERR 400 command line must be utf-8 text")
        self._request(session, self._port_of(args[0]), Kind.EXEC,
                      lambda req_id: REQUEST.pack(req_id, command_line), "exec")

    def _cmd_start(self, session: Session, args: list[str]) -> None:
        if len(args) != 2:
            raise _Answer("ERR 400 usage: START <module> <name>")
        self._request(session, self._port_of(args[0]), Kind.START,
                      lambda req_id: REQUEST.pack(req_id, args[1]), "start")

    def _cmd_version(self, session: Session, args: list[str]) -> None:
        if args:
            raise _Answer("ERR 400 usage: VERSION")
        session.respond(f"OK version={self.version}")

    def _cmd_id(self, session: Session, args: list[str]) -> None:
        if args:
            raise _Answer("ERR 400 usage: ID")
        session.respond(f"OK id={self.module_id}")

    # helpers

    def _port_of(self, module_text: str) -> int:
        for port, (mid, _version) in sorted(self.neighbor_table.items()):
            if str(mid) == module_text:
                return port
        raise _Answer("ERR 404 unknown module")

    def _peer_label(self, port: int) -> str:
        entry = self.neighbor_table.get(port)
        return str(entry[0]) if entry else f"port:{port}"


class _Answer(Exception):
    """A command's whole response line, decided before the command could
    return; `execute` sends it."""


def _invoke(engine: RoleEngine, data: bytes) -> None:
    """Run the text form of an invocation, data `INVOKE <role> <command>`
    that an app sent or broadcast to an engine; other data is ignored.
    Engines invoke each other with the INVOKE message instead."""
    try:
        words = data.decode("utf-8").split()
    except UnicodeDecodeError:
        return
    if len(words) == 3 and words[0] == "INVOKE":
        engine.on_invoke(words[1], words[2])


def _decode_b64(text: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise _Answer("ERR 400 bad base64") from None


_COMMANDS: dict[str, Callable] = {
    "REGISTER": ServiceNode._cmd_register,
    "STATE": ServiceNode._cmd_state,
    "NEIGHBORS": ServiceNode._cmd_neighbors,
    "SEND": ServiceNode._cmd_send,
    "BCAST": ServiceNode._cmd_bcast,
    "PUTFILE": ServiceNode._cmd_putfile,
    "EXEC": ServiceNode._cmd_exec,
    "START": ServiceNode._cmd_start,
    "VERSION": ServiceNode._cmd_version,
    "ID": ServiceNode._cmd_id,
}
