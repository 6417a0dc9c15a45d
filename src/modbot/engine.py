"""Role engine: runs one parsed role program on one module.

The engine runs role assignment when it starts and whenever a sever or
restore changes its module's shape (`ServiceNode.on_phys_change`), runs the
assigned role's startup actions once, then keeps its default behavior (the
first declared one) active. Commands and event handlers preempt the
behavior and run to completion; behaviors and commands on one module are
mutually exclusive by construction. A repeated invocation of the command
that is currently running restarts it instead of queueing a second copy.
Parsing checked the kind of every operand, so no action can fail here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .dynarole import (
    Action, AssignResult, Enable, Invoke, PhysSnapshot, ResolvedRole,
    RoleProgram, Turn, _eval_operand, assign_role,
)
from .sim import Timer, US_PER_CS


@dataclass
class _Run:
    kind: str  # "startup" | "behavior" | "command" | "handler"
    name: str
    actions: tuple[Action, ...]
    index: int = 0
    started_at: int = 0
    timer: Optional[Timer] = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.name)


class RoleEngine:
    """Drives one program against the module that hosts it.

    The host duck type (the module, `world.SimModule`) provides
    `scheduler`, `snapshot() -> PhysSnapshot`, `actuate(value)` and
    `log(kind, payload)`. `invoke_neighbors(role, command)` sends a
    cross-role invocation to every neighbour on the program's behalf, as
    one INVOKE message that the neighbour's node hands to `on_invoke`.
    The engine lives only while its node holds it in `node.engines`; the
    node drops it before `stop()`, which cancels every timer it set.
    """

    def __init__(self, host, program: RoleProgram,
                 invoke_neighbors: Callable[[str, str], None]):
        self.host = host
        self.program = program
        self.invoke_neighbors = invoke_neighbors
        self.assigned: Optional[str] = None
        self._role: Optional[ResolvedRole] = None  # program.resolved[assigned]
        self._enabled: set[int] = set()
        self._current: Optional[_Run] = None
        self._queue: deque[_Run] = deque()
        self._state: Optional[PhysSnapshot] = None  # the shape last assigned from

    def start(self) -> None:
        self.evaluate()

    def stop(self) -> None:
        self._abort_current()
        self._queue.clear()

    # role assignment

    def evaluate(self) -> None:
        first = self._state is None
        self._state = self.host.snapshot()
        result: AssignResult = assign_role(self.program, self._state)
        if result.ambiguous:
            self.host.log("role-ambiguous", ",".join(result.candidates))
        if result.role != self.assigned or first:
            self._reassign(result.role)

    def _reassign(self, role: Optional[str]) -> None:
        self._abort_current()
        self._queue.clear()
        self._enabled.clear()
        self.assigned = role
        self._role = self.program.resolved.get(role)
        self.host.log("role", role or "none")
        if self._role is None:
            return
        startup = self._role.startup
        if startup:
            self._begin(_Run("startup", "startup", startup))
        else:
            self._start_behavior()

    # external stimuli

    def on_event(self, event_id: int) -> None:
        if event_id not in self._enabled:
            return
        for index, handler in enumerate(self._role.handlers):
            if event_id in handler.events:
                self._submit(_Run("handler", f"h{index}", handler.actions))

    def on_invoke(self, role_name: str, command: str) -> None:
        """Cross-module command dispatch; a mismatch is a logged no-op."""
        role = self._role
        if role is not None and role_name in role.ancestors:
            for name, actions in role.commands:
                if name == command:
                    self._submit(_Run("command", name, actions))
                    return
        self.host.log("invoke-skip", f"{role_name}.{command}")

    # execution core: at most one run active at a time

    def _submit(self, run: _Run) -> None:
        current = self._current
        if current is not None and current.key == run.key:
            # Same command again: restart its timer rather than queueing.
            self.host.log("run-restart", f"{run.kind} {run.name}")
            if current.timer is not None:
                current.timer.cancel()
            current.index = 0
            self._step(current)
            return
        if current is None or current.kind == "behavior":
            self._abort_current()
            self._begin(run)
            return
        if any(queued.key == run.key for queued in self._queue):
            self.host.log("run-coalesce", f"{run.kind} {run.name}")  # one queued copy runs
            return
        self._queue.append(run)

    def _begin(self, run: _Run) -> None:
        run.started_at = self.host.scheduler.now
        self._current = run
        self.host.log("run-begin", f"{run.kind} {run.name}")
        self._step(run)

    def _abort_current(self) -> None:
        run = self._current
        if run is None:
            return
        if run.timer is not None:
            run.timer.cancel()
        self._current = None
        self.host.log("run-end", f"{run.kind} {run.name}")

    def _step(self, run: _Run) -> None:
        run.timer = None
        while run.index < len(run.actions):
            action = run.actions[run.index]
            run.index += 1
            if isinstance(action, Enable):
                self._enabled.add(action.event)
                continue
            if isinstance(action, Invoke):
                self.host.log("invoke", f"{action.role}.{action.command}")
                self.invoke_neighbors(action.role, action.command)
                continue
            # Turn or SleepCs: one integer operand, read against the shape
            value = _eval_operand(action.operand, self._state)
            if isinstance(action, Turn):
                self.host.actuate(value)
            else:
                run.timer = self.host.scheduler.call_after(
                    value * US_PER_CS, lambda r=run: self._step(r)
                )
                return
        self._finish(run)

    def _finish(self, run: _Run) -> None:
        self._abort_current()
        if self._queue:
            self._begin(self._queue.popleft())
            return
        if run.kind == "behavior" and self.host.scheduler.now == run.started_at:
            # Steady state: a zero-duration behavior pass changed nothing
            # observable; park until a command or reassignment intervenes.
            return
        self._start_behavior()

    def _start_behavior(self) -> None:
        behaviors = self._role.behaviors
        if not behaviors:
            return
        name, actions = behaviors[0]
        self._begin(_Run("behavior", name, actions))
