"""DynaRole programs: parsing, invariant evaluation, role assignment.

The concrete syntax (full grammar in docs/dynarole-grammar.md):

    role Head extends Module {
      require (self.center == $NORTH_SOUTH);
      startup initialize(_) {
        handle $EVENT_HANDLER_1 $EVENT_HANDLER_3 { Wheel.evade(0); };
        (self.enable($EVENT_HANDLER_1));
      }
    }

Roles may be abstract, inherit from a single parent (the built-in root is
"Module"), declare valued or abstract constants, accumulate `require`
invariants down the inheritance chain, and carry behaviors, commands and
event handlers. Each concrete role is checked once at parse time, so
evaluating a parsed program cannot fail. Roles are stateless: evaluation
reads only a physical state snapshot.
"""

from __future__ import annotations

import gzip
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn, Optional, Union

EVENT_PREFIX = "EVENT_HANDLER_"
BUILTIN_ROOT = "Module"
MAX_NESTING = 100  # handle blocks one inside another; the parser recurses twice per block
MAX_INVOKED_ROLE = 255  # an invoked role's name travels in a 255-byte INVOKE field

CENTER_AXES = ("NORTH_SOUTH", "EAST_WEST", "UP_DOWN")
DIRECTIONS = ("NORTH", "SOUTH", "EAST", "WEST", "UP", "DOWN")


class RoleSyntaxError(Exception):
    """Diagnostics are `line N: <message>` strings, as in `world.LoadError`."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


# Expression AST (predicates are side-effect free).

@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str  # $EAST stored as "EAST"


@dataclass(frozen=True)
class ConstRef:
    name: str


@dataclass(frozen=True)
class CenterRef:
    pass


@dataclass(frozen=True)
class ConnectedCount:
    direction: Union[Sym, ConstRef]


Operand = Union[Lit, Sym, ConstRef, CenterRef, ConnectedCount]
_INTEGER = (Lit, ConnectedCount)  # the operands whose value is an int


@dataclass(frozen=True)
class Predicate:
    op: str  # one of == != < <= > >=
    lhs: Operand
    rhs: Operand


# Actions execute in list order.

@dataclass(frozen=True)
class Turn:
    operand: Operand  # the speed, an integer


@dataclass(frozen=True)
class SleepCs:
    operand: Operand  # centiseconds, an integer >= 0


@dataclass(frozen=True)
class Enable:
    event: int


@dataclass(frozen=True)
class Invoke:
    role: str
    command: str


Action = Union[Turn, SleepCs, Enable, Invoke]


@dataclass(frozen=True)
class Handler:
    events: tuple[int, ...]
    actions: tuple[Action, ...]


@dataclass
class RoleDefinition:
    name: str
    parent: str
    abstract: bool
    line: int
    constants: dict[str, Union[int, str]] = field(default_factory=dict)
    abstract_constants: list[str] = field(default_factory=list)
    requires: list[Predicate] = field(default_factory=list)
    behaviors: list[tuple[str, tuple[Action, ...]]] = field(default_factory=list)
    commands: list[tuple[str, tuple[Action, ...]]] = field(default_factory=list)
    handlers: list[Handler] = field(default_factory=list)
    startup: Optional[tuple[str, tuple[Action, ...]]] = None


@dataclass(frozen=True, slots=True)
class ResolvedRole:
    """One concrete role with its inheritance chain folded in, root-most
    ancestor first. Requires, handlers and startup actions concatenate down
    the chain; a descendant's behavior or command of the same name
    overrides the ancestor's in place, keeping the ancestor's position, and
    its constant's value is the one folded into the operands that read it."""

    ancestors: tuple[str, ...]  # the chain's role names, this role last
    requires: tuple[Predicate, ...]
    behaviors: tuple[tuple[str, tuple[Action, ...]], ...]
    commands: tuple[tuple[str, tuple[Action, ...]], ...]
    handlers: tuple[Handler, ...]
    startup: tuple[Action, ...]


def _override_in_place(items, fold) -> tuple[tuple[str, tuple[Action, ...]], ...]:
    merged: dict[str, tuple[Action, ...]] = {}
    for name, actions in items:
        merged[name] = actions  # reassigning a key keeps its position
    return tuple((name, tuple(map(fold, actions))) for name, actions in merged.items())


@dataclass
class RoleProgram:
    """A validated program. `resolved` maps every concrete role's name to
    its checked ResolvedRole, built once here, so evaluation never walks
    the chain. It is never mutated after parsing: one world shares one
    parsed program among every module that starts the same text."""

    roles: list[RoleDefinition]

    def __post_init__(self):
        self._by_name = {r.name: r for r in self.roles}
        self.resolved: dict[str, ResolvedRole] = {}
        diags: list[str] = []
        for role in (r for r in self.roles if not r.abstract):
            try:
                self.resolved[role.name] = self._resolve(role)
            except RoleSyntaxError as exc:
                diags += exc.diagnostics
        if diags:
            raise RoleSyntaxError(diags)

    def role(self, name: str) -> RoleDefinition:
        return self._by_name[name]

    def chain(self, name: str) -> list[RoleDefinition]:
        """Inheritance chain, root-most ancestor first, `name` last."""
        out: list[RoleDefinition] = []
        while name != BUILTIN_ROOT:
            role = self._by_name[name]
            out.append(role)
            name = role.parent
        out.reverse()
        return out

    def _resolve(self, role: RoleDefinition) -> ResolvedRole:
        """Fold a concrete role's chain and check that every operand has the kind
        its use needs: a direction for `connected()`, an integer (a literal or a
        count) for an ordered comparison, a turn or a sleepcs (not a negative
        literal). The first mistake raises RoleSyntaxError at the role's line."""
        chain = self.chain(role.name)
        consts = {k: v for r in chain for k, v in r.constants.items()}

        def fail(message: str) -> NoReturn:
            raise RoleSyntaxError([f"line {role.line}: {message} in role {role.name!r}"])

        missing = [c for r in chain for c in r.abstract_constants if c not in consts]
        if missing:
            fail(f"abstract constant {missing[0]!r} has no value")

        def fold(op: Operand) -> Operand:
            if isinstance(op, ConnectedCount):
                direction = fold(op.direction)
                if not (isinstance(direction, Sym) and direction.name in DIRECTIONS):
                    fail(f"connected({op.direction.name}) needs a direction")
                return ConnectedCount(direction)
            if not isinstance(op, ConstRef):
                return op
            if op.name not in consts:
                fail(f"undefined constant {op.name!r}")
            value = consts[op.name]
            return Lit(value) if isinstance(value, int) else Sym(value)

        def predicate(pred: Predicate) -> Predicate:
            lhs, rhs = fold(pred.lhs), fold(pred.rhs)
            if pred.op not in ("==", "!=") and not (
                    isinstance(lhs, _INTEGER) and isinstance(rhs, _INTEGER)):
                fail(f"ordered comparison {pred.op!r} needs integers")
            return Predicate(pred.op, lhs, rhs)

        def action(act: Action) -> Action:
            if not isinstance(act, (Turn, SleepCs)):
                return act
            operand = fold(act.operand)
            if isinstance(act, Turn) and not isinstance(operand, _INTEGER):
                fail("$TURN_CONTINUOUSLY needs an integer")
            if isinstance(act, SleepCs) and (not isinstance(operand, _INTEGER) or (
                    isinstance(operand, Lit) and operand.value < 0)):
                fail("sleepcs needs an integer >= 0")
            return type(act)(operand)

        return ResolvedRole(
            ancestors=tuple(r.name for r in chain),
            requires=tuple(predicate(p) for r in chain for p in r.requires),
            behaviors=_override_in_place((b for r in chain for b in r.behaviors), action),
            commands=_override_in_place((c for r in chain for c in r.commands), action),
            handlers=tuple(Handler(h.events, tuple(map(action, h.actions)))
                           for r in chain for h in r.handlers),
            startup=tuple(action(a) for r in chain if r.startup is not None for a in r.startup[1]),
        )


# Lexer.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>-?\d+)
  | (?P<sym>\$[A-Za-z_][A-Za-z_0-9]*)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>==|!=|<=|>=|[{}();,=.<>])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "role", "abstract", "extends", "require", "constant",
    "startup", "behavior", "command", "handle", "sizeof", "self",
}


@dataclass
class _Token:
    type: str  # int, sym, name, keyword, op, eof
    value: str
    line: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RoleSyntaxError([f"line {line}: unexpected character {text[pos]!r}"])
        kind = m.lastgroup
        value = m.group()
        if kind == "ws" or kind == "comment":
            line += value.count("\n")
        elif kind == "sym":
            tokens.append(_Token("sym", value[1:], line))
        elif kind == "name":
            tokens.append(_Token("keyword" if value in _KEYWORDS else "name", value, line))
        else:
            tokens.append(_Token(kind, value, line))
        pos = m.end()
    tokens.append(_Token("eof", "", line))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0  # of the handle blocks being parsed

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.type != "eof":
            self._pos += 1
        return tok

    def _fail(self, message: str, tok: _Token | None = None):
        tok = tok or self._peek()
        raise RoleSyntaxError([f"line {tok.line}: {message}"])

    def _expect(self, type_: str, value: str | None = None) -> _Token:
        tok = self._next()
        if tok.type != type_ or (value is not None and tok.value != value):
            want = value or type_
            self._fail(f"expected {want!r}, found {tok.value or 'end of input'!r}", tok)
        return tok

    def _accept(self, type_: str, value: str | None = None) -> Optional[_Token]:
        tok = self._peek()
        if tok.type == type_ and (value is None or tok.value == value):
            return self._next()
        return None

    # program := { roledecl }
    def parse(self) -> list[RoleDefinition]:
        roles = []
        while self._peek().type != "eof":
            roles.append(self._role_decl())
        return roles

    def _role_decl(self) -> RoleDefinition:
        is_abstract = self._accept("keyword", "abstract") is not None
        self._expect("keyword", "role")
        name_tok = self._expect("name")
        self._expect("keyword", "extends")
        parent_tok = self._expect("name")
        role = RoleDefinition(
            name=name_tok.value, parent=parent_tok.value,
            abstract=is_abstract, line=name_tok.line,
        )
        self._expect("op", "{")
        while not self._accept("op", "}"):
            self._member(role)
        return role

    def _member(self, role: RoleDefinition) -> None:
        tok = self._peek()
        if tok.type == "keyword" and tok.value == "require":
            self._next()
            self._expect("op", "(")
            role.requires.append(self._predicate())
            self._expect("op", ")")
            self._expect("op", ";")
        elif tok.type == "keyword" and tok.value == "abstract":
            self._next()
            self._expect("keyword", "constant")
            name = self._expect("name").value
            self._expect("op", ";")
            role.abstract_constants.append(name)
        elif tok.type == "name" or (tok.type == "keyword" and tok.value == "constant"):
            self._accept("keyword", "constant")  # `constant x = v;` or the short `x = v;`
            name = self._expect("name").value
            self._expect("op", "=")
            role.constants[name] = self._const_value()
            self._expect("op", ";")
        elif tok.type == "keyword" and tok.value in ("startup", "behavior", "command"):
            self._next()
            name = self._expect("name").value
            self._params()
            actions = self._block(role)
            self._accept("op", ";")
            if tok.value == "startup":
                if role.startup is not None:
                    self._fail("duplicate startup block", tok)
                role.startup = (name, actions)
            elif tok.value == "behavior":
                role.behaviors.append((name, actions))
            else:
                role.commands.append((name, actions))
        elif tok.type == "keyword" and tok.value == "handle":
            role.handlers.append(self._handler(role))
        else:
            self._fail(f"unexpected {tok.value!r} in role body", tok)

    def _const_value(self) -> Union[int, str]:
        tok = self._next()
        if tok.type == "int":
            return int(tok.value)
        if tok.type == "sym":
            return tok.value
        self._fail("expected integer or $SYMBOL constant", tok)

    def _params(self) -> None:
        self._expect("op", "(")
        while not self._accept("op", ")"):
            tok = self._next()
            if tok.type not in ("name", "int", "sym") and not (tok.type == "op" and tok.value == ","):
                self._fail("bad parameter list", tok)

    def _handler(self, role: RoleDefinition) -> Handler:
        tok = self._expect("keyword", "handle")
        if self._depth == MAX_NESTING:
            self._fail("expression nested too deeply", tok)
        events = []
        while self._peek().type == "sym":
            events.append(self._event_id(self._next()))
        if not events:
            self._fail("handle needs at least one $EVENT_HANDLER_n", tok)
        self._depth += 1
        actions = self._block(role)
        self._depth -= 1
        self._accept("op", ";")
        return Handler(tuple(events), actions)

    def _event_id(self, tok: _Token) -> int:
        if tok.value.startswith(EVENT_PREFIX) and tok.value[len(EVENT_PREFIX):].isdigit():
            return int(tok.value[len(EVENT_PREFIX):])
        self._fail(f"expected $EVENT_HANDLER_n, found ${tok.value}", tok)

    # block := "{" { stmt } "}"; handle blocks hoist to the role.
    def _block(self, role: RoleDefinition) -> tuple[Action, ...]:
        self._expect("op", "{")
        actions: list[Action] = []
        while not self._accept("op", "}"):
            tok = self._peek()
            if tok.type == "keyword" and tok.value == "handle":
                role.handlers.append(self._handler(role))
            else:
                actions.append(self._action_stmt())
        return tuple(actions)

    def _action_stmt(self) -> Action:
        wrapped = self._accept("op", "(")
        action = self._call()
        if wrapped:
            self._expect("op", ")")
        self._expect("op", ";")
        return action

    def _call(self) -> Action:
        tok = self._next()
        if tok.type == "keyword" and tok.value == "self":
            self._expect("op", ".")
            target = self._next()
            if target.type == "sym":
                if target.value != "TURN_CONTINUOUSLY":
                    self._fail(f"unknown actuation ${target.value}", target)
                args = self._args()
                if len(args) != 1:
                    self._fail("$TURN_CONTINUOUSLY takes one argument", target)
                return Turn(args[0])
            if target.type == "name" and target.value == "sleepcs":
                args = self._args()
                if len(args) != 1:
                    self._fail("sleepcs takes one argument", target)
                return SleepCs(args[0])
            if target.type == "name" and target.value == "enable":
                self._expect("op", "(")
                sym = self._next()
                if sym.type != "sym":
                    self._fail("enable takes an $EVENT_HANDLER_n", sym)
                event = self._event_id(sym)
                self._expect("op", ")")
                return Enable(event)
            self._fail(f"unknown action self.{target.value}", target)
        if tok.type == "name":
            if len(tok.value) > MAX_INVOKED_ROLE:  # names are ASCII: one byte a character
                self._fail(f"invoked role name longer than {MAX_INVOKED_ROLE} characters", tok)
            self._expect("op", ".")
            command = self._expect("name").value
            self._args()  # arguments are parsed and ignored
            return Invoke(tok.value, command)
        self._fail(f"expected an action, found {tok.value!r}", tok)

    def _args(self) -> list[Operand]:
        self._expect("op", "(")
        args: list[Operand] = []
        if not self._accept("op", ")"):
            while True:
                args.append(self._operand())
                if self._accept("op", ")"):
                    break
                self._expect("op", ",")
        return args

    def _predicate(self) -> Predicate:
        lhs = self._operand()
        op_tok = self._next()
        if op_tok.type != "op" or op_tok.value not in ("==", "!=", "<", "<=", ">", ">="):
            self._fail("expected a comparison operator", op_tok)
        rhs = self._operand()
        return Predicate(op_tok.value, lhs, rhs)

    def _operand(self) -> Operand:
        tok = self._next()
        if tok.type == "int":
            return Lit(int(tok.value))
        if tok.type == "sym":
            return Sym(tok.value)
        if tok.type == "keyword" and tok.value == "self":
            self._expect("op", ".")
            attr = self._next()
            if attr.type == "name" and attr.value == "center":
                return CenterRef()
            self._fail(f"unknown accessor self.{attr.value}", attr)
        if tok.type == "keyword" and tok.value == "sizeof":
            self._expect("op", "(")
            self._expect("keyword", "self")
            self._expect("op", ".")
            self._expect("name", "connected")
            self._expect("op", "(")
            arg = self._next()
            if arg.type == "sym" and arg.value not in DIRECTIONS:
                self._fail(f"unknown direction ${arg.value}", arg)
            if arg.type not in ("sym", "name"):
                self._fail(f"expected a direction, found {arg.value!r}", arg)
            direction = Sym(arg.value) if arg.type == "sym" else ConstRef(arg.value)
            self._expect("op", ")")
            self._expect("op", ")")
            return ConnectedCount(direction)
        if tok.type == "name":
            return ConstRef(tok.value)
        self._fail(f"expected a value, found {tok.value!r}", tok)


def _validate(roles: list[RoleDefinition]) -> list[str]:
    diags: list[str] = []
    by_name: dict[str, RoleDefinition] = {}
    for role in roles:
        if role.name == BUILTIN_ROOT:
            diags.append(f"line {role.line}: role name {BUILTIN_ROOT!r} is reserved")
        elif role.name in by_name:
            diags.append(f"line {role.line}: duplicate role {role.name!r}")
        else:
            by_name[role.name] = role
    for role in by_name.values():
        if role.parent != BUILTIN_ROOT and role.parent not in by_name:
            diags.append(f"line {role.line}: unknown parent role {role.parent!r}")
    if diags:
        return diags
    for role in by_name.values():
        cur = role
        for _ in by_name:  # a chain with no cycle has at most len(by_name) roles
            if cur.parent == BUILTIN_ROOT:
                break
            cur = by_name[cur.parent]
        else:
            diags.append(f"line {role.line}: inheritance cycle through {role.name!r}")
    return diags


def parse_program(text: str) -> RoleProgram:
    """Parse a role program; raises RoleSyntaxError carrying line-numbered
    diagnostics on syntax, consistency or kind errors."""
    roles = _Parser(_lex(text)).parse()
    diags = _validate(roles)
    if diags:
        raise RoleSyntaxError(diags)
    return RoleProgram(roles)


# Physical-state snapshot consumed by predicate evaluation.

class PhysSnapshot(NamedTuple):
    """All that role evaluation reads of a module: its center and, for each
    direction with at least one linked port, that port count."""

    center: str
    counts: frozenset[tuple[str, int]]  # (direction label, linked ports)


def _eval_operand(op: Operand, state: PhysSnapshot) -> Union[int, str]:
    """The value of an operand of a resolved role, where no ConstRef is left."""
    if isinstance(op, Lit):
        return op.value
    if isinstance(op, Sym):
        return op.name
    if isinstance(op, CenterRef):
        return state.center
    return dict(state.counts).get(op.direction.name, 0)


_COMPARE = {"==": operator.eq, "!=": operator.ne,
            "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_requires(program: RoleProgram, role_name: str, state: PhysSnapshot) -> bool:
    """True iff every require of the concrete role and all its ancestors holds."""
    return all(_COMPARE[p.op](_eval_operand(p.lhs, state), _eval_operand(p.rhs, state))
               for p in program.resolved[role_name].requires)


@dataclass(frozen=True)
class AssignResult:
    """The outcome of one `assign_role` call; never mutated."""

    role: Optional[str]
    candidates: list[str]

    @property
    def ambiguous(self) -> bool:
        return len(self.candidates) > 1


def assign_role(program: RoleProgram, state: PhysSnapshot) -> AssignResult:
    """Pure function of (program, state): the concrete roles whose
    invariants hold, with the lexicographically smallest name winning a
    multi-candidate tie."""
    candidates = sorted(name for name in program.resolved if eval_requires(program, name, state))
    return AssignResult(candidates[0] if candidates else None, candidates)


def measure_text(data: bytes) -> tuple[int, int]:
    """(raw byte count, gzip byte count) with deterministic gzip output:
    level 9, no filename, mtime pinned to 0."""
    return len(data), len(gzip.compress(data, compresslevel=9, mtime=0))
