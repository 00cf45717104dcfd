"""Command-line front end.

Exit codes: 0 success, 1 malformed input, 2 a binary table constraint is
not submodular, 3 an oversized instance: too many assignments for the
brute-force oracle, too many interval constraints to compile, or too many
level nodes for the flow network.
"""

from __future__ import annotations

import argparse
import sys

from .cutgraph import format_network
from .errors import NotSubmodular, ParseError, TooLarge
from .fileformat import format_constraint, parse_instance
from .functions import IntervalFunction
from .model import Instance
from .solver import (brute_force, build_network, check_submodular,
                     expansions, solve)
# no command calls it, but perfbench/tracing.py wraps this name here
from .solver import compile_to_intervals  # noqa: F401


def _print_solution(instance, solution):
    for v in instance.variables:
        print(f"{v} = {solution.assignment[v]}")
    print(f"evaluation = {solution.evaluation}")


def _cmd_solve(instance: Instance, args) -> int:
    solution = solve(instance)
    _print_solution(instance, solution)
    if args.emit_graph:
        try:
            with open(args.emit_graph, "w") as handle:
                handle.write(format_network(solution.network))
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    return 0


def _cmd_check(instance: Instance, args) -> int:
    check_submodular(instance)
    print("submodular")
    return 0


def _cmd_decompose(instance: Instance, args) -> int:
    for c, parts in expansions(instance):
        if not isinstance(c.function, IntervalFunction):
            for part in parts:
                print(format_constraint(part))
    return 0


def _cmd_oracle(instance: Instance, args) -> int:
    solution = brute_force(instance)
    _print_solution(instance, solution)
    return 0


def _cmd_graph(instance: Instance, args) -> int:
    network = build_network(instance)
    sys.stdout.write(format_network(network))
    return 0


_COMMANDS = {
    "solve": (_cmd_solve, "find a minimum-evaluation assignment"),
    "check": (_cmd_check, "report whether all binary tables are submodular"),
    "decompose": (_cmd_decompose, "print each table constraint as gi terms"),
    "oracle": (_cmd_oracle, "solve by exhaustive enumeration"),
    "graph": (_cmd_graph, "print the cut network as an edge list"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scsp",
        description="exact solver for soft constraint problems with "
                    "submodular unary and binary penalties")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("file", help="instance file")
        if name == "solve":
            sub.add_argument("--emit-graph", metavar="PATH",
                             help="also write the cut network edge list")
    args = parser.parse_args(argv)

    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        instance = parse_instance(text)
        return _COMMANDS[args.command][0](instance, args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NotSubmodular as err:
        w = err.witness
        where = "" if err.constraint_index is None else f" constraint {err.constraint_index}"
        print(f"not submodular:{where} witness u={w.u} v={w.v} x={w.x} y={w.y}")
        return 2
    except TooLarge:
        print("too large")
        return 3


if __name__ == "__main__":
    sys.exit(main())
