"""Batch command line: run simulations, measure programs, check programs.

Exit codes: 0 success, 1 scenario or program failure, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dynarole import BUILTIN_ROOT, RoleSyntaxError, measure_text, parse_program
from .world import LoadError, load_scenario, load_topology, read_text, run


def _cmd_run(args: argparse.Namespace) -> int:
    if args.until < 0:
        print("error: --until must be non-negative", file=sys.stderr)
        return 2
    try:
        topology = load_topology(args.topology)
        scenario = load_scenario(args.scenario)
        log = run(topology, scenario, seed=args.seed, until_cs=args.until)
    except LoadError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return 2
    text = log.render()
    if args.log:
        try:
            Path(args.log).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.log}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    try:
        data = Path(args.program).read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raw, gz = measure_text(data)
    print(f"{args.program}: raw={raw} bytes gzip={gz} bytes")
    print("reference points: compact bytecode ~156 B (not produced by this tool); "
          "gzipped source ~350 B")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        text = read_text(args.program)
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        program = parse_program(text)
    except RoleSyntaxError as exc:
        for diag in exc.diagnostics:
            print(diag)
        print(f"{len(exc.diagnostics)} error(s)")
        return 1
    abstract = sum(1 for role in program.roles if role.abstract)
    print(f"{len(program.roles)} roles, {abstract} abstract, 0 errors")
    for role in program.roles:
        suffix = " (abstract)" if role.abstract else ""
        print(f"  {role.name} extends {role.parent}{suffix}")
        if role.parent != BUILTIN_ROOT:
            chain = " -> ".join(r.name for r in program.chain(role.name))
            print(f"    chain: {chain}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modbot",
        description="modular-robot middleware simulator and program tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a topology + scenario and emit the event log")
    p_run.add_argument("topology")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--until", type=int, required=True, help="horizon in centiseconds")
    p_run.add_argument("--log", help="write the event log to this file instead of stdout")
    p_run.set_defaults(func=_cmd_run)

    p_measure = sub.add_parser("measure", help="report raw and gzip sizes of a program file")
    p_measure.add_argument("program")
    p_measure.set_defaults(func=_cmd_measure)

    p_check = sub.add_parser("check", help="parse a role program and report diagnostics")
    p_check.add_argument("program")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
