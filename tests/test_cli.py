"""Exit codes and output shape of the command line driver."""

import sys
from pathlib import Path

import pytest

from modbot.cli import main

from conftest import CORPUS

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def _args_run(tmp_path: Path, name: str, until: int = 2000) -> list[str]:
    return [
        "run", str(CORPUS / "car.topo"), str(CORPUS / "car.scen"),
        "--seed", "1", "--until", str(until), "--log", str(tmp_path / name),
    ]


def test_run_writes_log_and_repeats_identically(tmp_path):
    assert main(_args_run(tmp_path, "a.log")) == 0
    assert main(_args_run(tmp_path, "b.log")) == 0
    log_a = (tmp_path / "a.log").read_bytes()
    log_b = (tmp_path / "b.log").read_bytes()
    assert log_a == log_b
    assert b"role Head" in log_a.replace(b"head role Head", b"head role Head")
    assert any(line.endswith(b"TURN_CONTINUOUSLY 150") for line in log_a.splitlines())


def test_run_to_stdout_by_default(capsys):
    code = main(["run", str(CORPUS / "car.topo"), str(CORPUS / "car.scen"),
                 "--seed", "1", "--until", "600"])
    assert code == 0
    out = capsys.readouterr().out
    assert "boot id=0 v=1" in out


def test_run_missing_topology_exits_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.topo"), str(CORPUS / "car.scen"),
                 "--seed", "1", "--until", "100"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scen"
    bad.write_text("at 10 explode everything badly\n")
    code = main(["run", str(CORPUS / "car.topo"), str(bad),
                 "--seed", "1", "--until", "100"])
    assert code == 2
    assert "unknown event" in capsys.readouterr().err


def test_run_negative_horizon_exits_2(tmp_path, capsys):
    assert main(_args_run(tmp_path, "neg.log", until=-5)) == 2
    assert capsys.readouterr().err == "error: --until must be non-negative\n"
    assert not (tmp_path / "neg.log").exists()


def test_run_log_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.log"
    code = main(["run", str(CORPUS / "car.topo"), str(CORPUS / "car.scen"),
                 "--seed", "1", "--until", "100", "--log", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert captured.out == ""


def test_measure_reports_sizes(capsys):
    code = main(["measure", str(CORPUS / "evade_proposal.py")])
    assert code == 0
    out = capsys.readouterr().out
    assert "raw=838 bytes" in out
    assert "gzip=" in out
    assert "156" in out and "350" in out  # reference figures for context


def test_measure_empty_and_repetitive_files(tmp_path, capsys):
    empty = tmp_path / "empty.role"
    empty.write_bytes(b"")
    assert main(["measure", str(empty)]) == 0
    assert "raw=0 bytes" in capsys.readouterr().out

    repetitive = tmp_path / "rep.role"
    repetitive.write_bytes(b"a" * 1000)
    assert main(["measure", str(repetitive)]) == 0
    out = capsys.readouterr().out
    gz = int(out.split("gzip=")[1].split()[0])
    assert gz < 100  # far smaller than raw


def test_measure_missing_file_exits_2(tmp_path, capsys):
    assert main(["measure", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_car_program(capsys):
    assert main(["check", str(CORPUS / "car.role")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 roles, 1 abstract, 0 errors"
    assert "  Wheel extends Module (abstract)" in out
    assert "chain: Wheel -> RightWheel" in out


def test_check_cycle_fixture(tmp_path, capsys):
    fixture = tmp_path / "cycle.role"
    fixture.write_text("role A extends B { }\nrole B extends A { }\n")
    assert main(["check", str(fixture)]) == 1
    assert "inheritance cycle" in capsys.readouterr().out


def test_check_unvalued_abstract_constant(tmp_path, capsys):
    fixture = tmp_path / "abs.role"
    fixture.write_text(
        "abstract role W extends Module { abstract constant turn_dir; }\n"
        "role R extends W { }\n"
    )
    assert main(["check", str(fixture)]) == 1
    assert "turn_dir" in capsys.readouterr().out


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "none.role")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"at 10 upgrade \xff 2\n")
    for topology, scenario in ((bad, CORPUS / "car.scen"), (CORPUS / "car.topo", bad)):
        code = main(["run", str(topology), str(scenario), "--seed", "1", "--until", "100"])
        assert code == 2
        assert f"error: cannot read {bad}" in capsys.readouterr().err


def test_check_non_utf8_program_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.role"
    bad.write_bytes(b"role A extends Module { } # \xff\n")
    assert main(["check", str(bad)]) == 2
    assert f"error: cannot read {bad}" in capsys.readouterr().err


def test_check_deeply_nested_program_exits_1(tmp_path, capsys):
    deep = tmp_path / "deep.role"
    deep.write_text("role A extends Module {\n "
                    + "handle $EVENT_HANDLER_1 { " * 2000 + "}" * 2000 + "\n}\n")
    assert main(["check", str(deep)]) == 1
    assert capsys.readouterr().out == "line 2: expression nested too deeply\n1 error(s)\n"


# The role declaration is on line 2 and the member on line 4: a grammar
# error names the member's line, a kind error the role's.
@pytest.mark.parametrize("member, diagnostic", [
    ("require (sizeof(self.connected(3)) == 0);", "line 4: expected a direction, found '3'"),
    ("require (sizeof(self.connected(sizeof(self.connected($EAST)))) == 0);",
     "line 4: expected a direction, found 'sizeof'"),
    ("require (sizeof(self.connected(self.center)) == 0);",
     "line 4: expected a direction, found 'self'"),
    ("behavior b(_) { self.sleepcs(-5); }", "line 2: sleepcs needs an integer >= 0 in role 'A'"),
    ("behavior b(_) { self.$TURN_CONTINUOUSLY($EAST); }",
     "line 2: $TURN_CONTINUOUSLY needs an integer in role 'A'"),
    ("require (self.center == axis);", "line 2: undefined constant 'axis' in role 'A'"),
])
def test_check_ill_kinded_program_exits_1(tmp_path, capsys, member, diagnostic):
    fixture = tmp_path / "bad.role"
    fixture.write_text(f"# fixture\nrole A extends Module {{\n  speed = 3;\n  {member}\n}}\n")
    assert main(["check", str(fixture)]) == 1
    assert capsys.readouterr().out == f"{diagnostic}\n1 error(s)\n"


def test_check_corpus_and_benchmark_programs_clean(tmp_path, capsys):
    programs = [CORPUS / "car.role"]
    for seed in range(1, 11):
        path = tmp_path / f"swarm{seed}.role"
        path.write_text(WORKLOADS["roles_swarm"].generate(seed).files["swarm.role"])
        programs.append(path)
    for path in programs:
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(" abstract, 0 errors")
