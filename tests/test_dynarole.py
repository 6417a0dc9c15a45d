"""Role program parsing, invariant evaluation, assignment, sizes."""

import gzip
import random
import typing

import pytest
from hypothesis import given, settings, strategies as st

from modbot import dynarole as dr
from modbot.world import ModuleSpec, Scenario, ScenarioEvent, Topology, World


@pytest.fixture(scope="module")
def car_text(request) -> str:
    from conftest import CORPUS
    return (CORPUS / "car.role").read_text()


@pytest.fixture(scope="module")
def car_program(car_text) -> dr.RoleProgram:
    return dr.parse_program(car_text)


def snap(center: str, **counts: int) -> dr.PhysSnapshot:
    return dr.PhysSnapshot(center, frozenset(counts.items()))


def head_state() -> dr.PhysSnapshot:
    return snap("NORTH_SOUTH", EAST=1, WEST=1)


def wheel_state(direction: str, count: int = 1) -> dr.PhysSnapshot:
    return snap("EAST_WEST", **{direction: count})


def test_car_program_roles(car_program):
    names = [r.name for r in car_program.roles]
    assert names == ["Head", "Wheel", "RightWheel", "LeftWheel"]
    wheel = car_program.role("Wheel")
    assert wheel.abstract
    assert wheel.abstract_constants == ["connected_dir", "turn_dir", "evasion_dir"]
    assert [n for n, _ in wheel.behaviors] == ["move"]
    assert [n for n, _ in wheel.commands] == ["evade"]
    right = car_program.role("RightWheel")
    assert right.constants == {"turn_dir": 150, "evasion_dir": -100, "connected_dir": "EAST"}
    head = car_program.role("Head")
    assert head.startup is not None
    # the handle block is hoisted; startup keeps the two enables
    assert head.startup[1] == (dr.Enable(1), dr.Enable(3))
    assert len(head.handlers) == 1
    assert head.handlers[0].events == (1, 3)
    assert head.handlers[0].actions == (
        dr.Invoke("Wheel", "evade"), dr.SleepCs(dr.Lit(25)))


def test_effective_requires_accumulate(car_program):
    assert len(car_program.resolved["RightWheel"].requires) == 2  # both from Wheel
    assert len(car_program.resolved["Head"].requires) == 1


def test_empty_program_is_valid_and_assigns_nothing():
    program = dr.parse_program("")
    assert program.roles == []
    assert dr.assign_role(program, head_state()).role is None


def test_unknown_parent_diagnostic():
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program("role A extends B { }")
    assert "unknown parent" in str(exc.value.diagnostics[0])
    assert exc.value.diagnostics[0].startswith("line 1: ")


def test_inheritance_cycle_diagnostic():
    text = "role A extends B { }\nrole B extends A { }\n"
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(text)
    assert any("inheritance cycle" in str(d) for d in exc.value.diagnostics)


def test_unvalued_abstract_constant_diagnostic_names_it():
    text = (
        "abstract role W extends Module { abstract constant turn_dir; }\n"
        "role R extends W { }\n"
    )
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(text)
    assert "turn_dir" in str(exc.value.diagnostics[0])
    assert "R" in str(exc.value.diagnostics[0])


def test_duplicate_and_reserved_role_names():
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program("role A extends Module { }\nrole A extends Module { }\n")
    assert "duplicate" in str(exc.value.diagnostics[0])
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program("role Module extends Module { }")
    assert "reserved" in str(exc.value.diagnostics[0])


def test_syntax_error_carries_line_number():
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program("role A extends Module {\n require (;\n}")
    assert exc.value.diagnostics[0].startswith("line 2: ")


@pytest.mark.parametrize("body,diagnostic", [
    ("startup a(_) { }\n  startup b(_) { }", "line 3: duplicate startup block"),
    ("42;", "line 2: unexpected '42' in role body"),
    ("k = foo;", "line 2: expected integer or $SYMBOL constant"),
    ("behavior b({) { }", "line 2: bad parameter list"),
    ("handle { }", "line 2: handle needs at least one $EVENT_HANDLER_n"),
    ("handle $EAST { }", "line 2: expected $EVENT_HANDLER_n, found $EAST"),
    ("behavior b(_) { self.$JUMP(1); }", "line 2: unknown actuation $JUMP"),
    ("behavior b(_) { self.$TURN_CONTINUOUSLY(1, 2); }",
     "line 2: $TURN_CONTINUOUSLY takes one argument"),
    ("behavior b(_) { self.sleepcs(); }", "line 2: sleepcs takes one argument"),
    ("behavior b(_) { self.enable(3); }", "line 2: enable takes an $EVENT_HANDLER_n"),
    ("behavior b(_) { self.x(); }", "line 2: unknown action self.x"),
    ("behavior b(_) { 5; }", "line 2: expected an action, found '5'"),
    ("require (self.center 1);", "line 2: expected a comparison operator"),
    ("require (self.size == 1);", "line 2: unknown accessor self.size"),
    ("require (sizeof(self.connected($EST)) == 0);", "line 2: unknown direction $EST"),
    ("require (sizeof(self.connected(3)) == 0);", "line 2: expected a direction, found '3'"),
])
def test_parser_diagnostics(body, diagnostic):
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(f"role A extends Module {{\n  {body}\n}}\n")
    assert [str(d) for d in exc.value.diagnostics] == [diagnostic]


@pytest.mark.parametrize("direction, diagnostic", [
    ("self.center", "line 4: expected a direction, found 'self'"),
    ("typo", "line 1: connected(typo) needs a direction in role 'A'"),
    ("count", "line 1: connected(count) needs a direction in role 'A'"),
])
def test_connected_with_a_value_outside_the_directions_is_refused(direction, diagnostic):
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(
            "role A extends Module {\n typo = $EST;\n count = 3;\n"
            f" require (sizeof(self.connected({direction})) == 0);\n}}\n")
    assert exc.value.diagnostics == [diagnostic]


def test_eval_requires_on_car_states(car_program):
    assert dr.eval_requires(car_program, "Head", head_state())
    assert dr.eval_requires(car_program, "RightWheel", wheel_state("EAST"))
    assert not dr.eval_requires(car_program, "RightWheel", wheel_state("EAST", count=2))
    assert not dr.eval_requires(car_program, "RightWheel", wheel_state("WEST"))
    assert not dr.eval_requires(car_program, "Head", wheel_state("EAST"))


def test_assign_role_car_states(car_program):
    assert dr.assign_role(car_program, head_state()).role == "Head"
    assert dr.assign_role(car_program, wheel_state("EAST")).role == "RightWheel"
    assert dr.assign_role(car_program, wheel_state("WEST")).role == "LeftWheel"
    nothing = snap("UP_DOWN")
    assert dr.assign_role(car_program, nothing).role is None


def test_assignment_permutation_invariant_on_car(car_program, car_text):
    states = [head_state(), wheel_state("EAST"), wheel_state("WEST")]
    baseline = [dr.assign_role(car_program, s) for s in states]
    assert all(len(r.candidates) == 1 for r in baseline)
    # Re-declare the roles in every rotation (inheritance still resolves).
    blocks = _split_role_blocks(car_text)
    rng = random.Random(0)
    for _ in range(5):
        order = blocks[:]
        rng.shuffle(order)
        permuted = dr.parse_program("\n".join(order))
        for state, expected in zip(states, baseline):
            result = dr.assign_role(permuted, state)
            assert result.role == expected.role
            assert result.candidates == expected.candidates


def _split_role_blocks(text: str) -> list[str]:
    blocks, depth, current = [], 0, []
    for line in text.splitlines():
        current.append(line)
        depth += line.count("{") - line.count("}")
        if depth == 0 and current and "{" in "".join(current):
            blocks.append("\n".join(current))
            current = []
    return blocks


def test_ambiguity_resolves_lexicographically():
    text = (
        "role Zeta extends Module { require (self.center == $UP_DOWN); }\n"
        "role Alpha extends Module { require (self.center == $UP_DOWN); }\n"
    )
    program = dr.parse_program(text)
    result = dr.assign_role(program, snap("UP_DOWN"))
    assert result.role == "Alpha"
    assert result.ambiguous
    assert result.candidates == ["Alpha", "Zeta"]


@pytest.mark.parametrize("require, name", [
    ("sizeof(self.connected(mystery)) == 1", "mystery"),
    ("sizeof(self.connected($EAST)) > threshold", "threshold"),
])
def test_undefined_constant_is_refused_with_reason(require, name):
    text = (
        "abstract role Unit extends Module { }\n"
        f"role Ghost extends Unit {{ require ({require}); }}\n"
    )
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(text)
    assert exc.value.diagnostics == [f"line 2: undefined constant {name!r} in role 'Ghost'"]


def test_every_ill_kinded_concrete_role_is_reported_and_abstract_ones_are_not():
    text = (
        "abstract role Base extends Module { behavior b(_) { self.sleepcs(later); } }\n"
        "role One extends Base { }\n"
        "role Two extends Base { later = $EAST; }\n"
        "role Fine extends Base { later = 3; }\n"
        "abstract role Unused extends Module { require (self.center > 0); }\n"
    )
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(text)
    assert exc.value.diagnostics == [
        "line 2: undefined constant 'later' in role 'One'",
        "line 3: sleepcs needs an integer >= 0 in role 'Two'",
    ]


def test_deep_inheritance_requires_union():
    text = (
        "abstract role A extends Module { require (self.center == $EAST_WEST); }\n"
        "abstract role B extends A { require (sizeof(self.connected($EAST)) == 1); }\n"
        "role C extends B { require (sizeof(self.connected($WEST)) == 1); }\n"
    )
    program = dr.parse_program(text)
    assert len(program.resolved["C"].requires) == 3
    both = snap("EAST_WEST", EAST=1, WEST=1)
    east_only = snap("EAST_WEST", EAST=1)
    assert dr.eval_requires(program, "C", both)
    assert not dr.eval_requires(program, "C", east_only)
    assert [r.name for r in program.chain("C")] == ["A", "B", "C"]
    assert program.resolved["C"].ancestors == ("A", "B", "C")
    assert list(program.resolved) == ["C"]  # abstract roles are never resolved


# Three levels: Mid overrides a Base behavior and command in place,
# redefines a constant and adds a handler; Base and Leaf both have startups.
_THREE_LEVEL = """
abstract role Base extends Module {
  abstract constant speed;
  constant dir = $EAST;
  require (self.center == $EAST_WEST);
  startup boot(_) { self.enable($EVENT_HANDLER_1); }
  handle $EVENT_HANDLER_1 { self.$TURN_CONTINUOUSLY(speed); }
  behavior idle(_) { self.$TURN_CONTINUOUSLY(0); }
  behavior drift(_) { self.$TURN_CONTINUOUSLY(1); }
  command stop(_) { self.$TURN_CONTINUOUSLY(0); }
  command go(_) { self.$TURN_CONTINUOUSLY(speed); }
}
abstract role Mid extends Base {
  speed = 10;
  constant dir = $WEST;
  behavior cruise(_) { self.$TURN_CONTINUOUSLY(speed); }
  behavior idle(_) { self.$TURN_CONTINUOUSLY(2); }
  command stop(_) { self.sleepcs(5); }
  handle $EVENT_HANDLER_2 { Leaf.go(); }
}
role Leaf extends Mid {
  require (sizeof(self.connected(dir)) == 1);
  startup arm(_) { self.enable($EVENT_HANDLER_2); }
}
"""


def test_behavior_and_command_inheritance(car_program):
    assert [n for n, _ in car_program.resolved["RightWheel"].behaviors] == ["move"]
    assert [n for n, _ in car_program.resolved["LeftWheel"].commands] == ["evade"]
    assert car_program.resolved["RightWheel"].behaviors == (("move", (dr.Turn(dr.Lit(150)),)),)

    program = dr.parse_program(_THREE_LEVEL)
    leaf = program.resolved["Leaf"]
    speed = dr.Lit(10)  # the constant, folded in
    assert leaf.ancestors == ("Base", "Mid", "Leaf")
    assert leaf.behaviors == (
        ("idle", (dr.Turn(dr.Lit(2)),)),
        ("drift", (dr.Turn(dr.Lit(1)),)),
        ("cruise", (dr.Turn(speed),)),
    )
    assert leaf.commands == (
        ("stop", (dr.SleepCs(dr.Lit(5)),)),
        ("go", (dr.Turn(speed),)),
    )
    assert leaf.startup == (dr.Enable(1), dr.Enable(2))
    assert leaf.handlers == (
        dr.Handler((1,), (dr.Turn(speed),)),
        dr.Handler((2,), (dr.Invoke("Leaf", "go"),)),
    )
    # Leaf's require reads dir as Mid redefined it, not as Base set it.
    assert leaf.requires == (
        dr.Predicate("==", dr.CenterRef(), dr.Sym("EAST_WEST")),
        dr.Predicate("==", dr.ConnectedCount(dr.Sym("WEST")), dr.Lit(1)),
    )
    assert dr.eval_requires(program, "Leaf", snap("EAST_WEST", WEST=1))
    assert not dr.eval_requires(program, "Leaf", snap("EAST_WEST", EAST=1))
    assert dr.assign_role(program, snap("EAST_WEST", WEST=1)).role == "Leaf"


def test_ordered_comparison_on_symbols_is_an_error():
    text = "role A extends Module { require (self.center < $EAST_WEST); }\n"
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(text)
    assert exc.value.diagnostics == ["line 1: ordered comparison '<' needs integers in role 'A'"]


def test_comments_and_signed_ints_parse():
    text = (
        "# a car-ish fixture\n"
        "role R extends Module {\n"
        "  speed = -42;  # negative constant\n"
        "  behavior b(_) { self.$TURN_CONTINUOUSLY(speed); }\n"
        "}\n"
    )
    program = dr.parse_program(text)
    assert program.role("R").constants["speed"] == -42


def test_measure_empty_text():
    raw, gz = dr.measure_text(b"")
    assert raw == 0
    assert 18 <= gz <= 26  # bare gzip container


def test_measure_corpus_proposal_in_band():
    from conftest import CORPUS
    data = (CORPUS / "evade_proposal.py").read_bytes()
    raw, gz = dr.measure_text(data)
    assert raw == len(data)
    assert 280 <= gz <= 420


def test_measure_deterministic_output():
    data = b"role X extends Module { }\n" * 10
    assert gzip.compress(data, compresslevel=9, mtime=0) == \
        gzip.compress(data, compresslevel=9, mtime=0)
    assert dr.measure_text(data) == dr.measure_text(data)


def test_gzip_never_larger_for_kilobyte_programs(car_text):
    rng = random.Random(3)
    for _ in range(10):
        # splice together role programs of at least 1 KiB
        copies = rng.randrange(2, 8)
        text = "\n".join(
            car_text.replace("Head", f"Head{i}").replace("Wheel", f"Wheel{i}")
            for i in range(copies)
        )
        data = text.encode()
        assert len(data) >= 1024
        raw, gz = dr.measure_text(data)
        assert gz <= raw


def _nested_program(depth: int) -> str:
    """`handle` blocks nested `depth` deep on line 2: since a direction is a
    symbol or a name, nested blocks are the only input the parser recurses on."""
    return ("role A extends Module {\n "
            + "handle $EVENT_HANDLER_1 { " * depth + "}" * depth + "\n}\n")


def test_deep_nesting_is_a_diagnostic():
    bound = dr.MAX_NESTING
    assert len(dr.parse_program(_nested_program(bound)).resolved["A"].handlers) == bound
    for depth in (bound + 1, 2000):
        with pytest.raises(dr.RoleSyntaxError) as exc:
            dr.parse_program(_nested_program(depth))
        assert [str(d) for d in exc.value.diagnostics] == ["line 2: expression nested too deeply"]


def test_an_invoked_role_name_fits_the_invoke_role_field():
    # A longer name could not be sent, so it is refused before the program runs.
    bound = dr.MAX_INVOKED_ROLE
    invoke = "role A extends Module {{ startup s(_) {{ {}.go(); }} }}\n".format
    assert dr.parse_program(invoke("R" * bound)).resolved["A"].startup
    with pytest.raises(dr.RoleSyntaxError) as exc:
        dr.parse_program(invoke("R" * (bound + 1)))
    assert [str(d) for d in exc.value.diagnostics] == [
        f"line 1: invoked role name longer than {bound} characters"]


@pytest.mark.parametrize("depth, answer", [
    (dr.MAX_NESTING, "OK started deep.role"),
    (dr.MAX_NESTING + 1, "ERR 422 line 2: expression nested too deeply"),
], ids=["at-bound", "past-bound"])
def test_start_in_a_world_keeps_the_top_level_nesting_bound(depth, answer):
    # The bound is the parser's own, not the interpreter's recursion limit,
    # so a START deep in the scheduler's stack answers as parse_program does.
    module = ModuleSpec("m0", "EAST_WEST", {}, files={"deep.role": _nested_program(depth)})
    scenario = Scenario([ScenarioEvent(10, "start", ("m0", "deep.role"))])
    world = World(Topology([module], [], "m0"), scenario)
    world.run_until_cs(20)
    assert [r[3] for r in world.log.select("start")] == [f"deep.role {answer}"]


# Assignment against a fresh evaluation. Low reads its parent's require and a folded
# constant; Alpha and Zeta tie on UP_DOWN.
MEMO_PROGRAM = """
abstract role East extends Module { require (sizeof(self.connected($EAST)) >= 1); }
role Low extends East { limit = 2; require (sizeof(self.connected($UP)) < limit); }
role Alpha extends Module { require (self.center == $UP_DOWN); }
role Zeta extends Module { require (self.center == $UP_DOWN); }
role Pair extends Module {
  require (sizeof(self.connected($WEST)) == 2);
  require (sizeof(self.connected($EAST)) < 2);
}
"""

_snapshots = st.builds(
    lambda center, counts: snap(center, **counts),
    st.sampled_from(dr.CENTER_AXES),
    st.dictionaries(st.sampled_from(("EAST", "WEST", "UP")), st.integers(1, 3), max_size=3),
)


def _fresh_assignment(program: dr.RoleProgram, state: dr.PhysSnapshot):
    candidates = sorted(name for name in program.resolved if dr.eval_requires(program, name, state))
    return (candidates[0] if candidates else None), candidates


@pytest.fixture(scope="module")
def memo_program() -> dr.RoleProgram:
    return dr.parse_program(MEMO_PROGRAM)  # one program across all examples, as in a world


@settings(max_examples=60, deadline=None)
@given(states=st.lists(_snapshots, min_size=1, max_size=8))
def test_memoised_assignment_equals_fresh_evaluation(memo_program, states):
    program = memo_program
    for state in states:
        result = dr.assign_role(program, state)
        assert (result.role, result.candidates) == _fresh_assignment(program, state)


def test_memo_keys_every_operand_kind():
    # Assignment reads only the snapshot, which holds the center and the
    # per-direction counts: all that these operands read.
    assert set(typing.get_args(dr.Operand)) == {
        dr.Lit, dr.Sym, dr.ConstRef, dr.CenterRef, dr.ConnectedCount}
