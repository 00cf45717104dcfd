"""Verify mode: the solver against independent oracles, outside timed runs.

For each workload at the default seed and at the seed given:

* every distinct table adds back up from its decomposition,
  ``reconstruct(terms) == table``;
* ``min_cut``'s value equals networkx's ``maximum_flow_value`` on the
  same network, capacities scaled to integers;
* ``solve``'s evaluation equals the reference optimum built from the
  generating terms, ``evaluate(instance, assignment)`` agrees with it, and
  at the default seed both equal the frozen optima in ``optima.json``;
  for ``grid-text`` the command line gives the same answer;
* shrunken variants of the generator agree with ``brute_force``.

Sparse-tables at seed 5 must also be criterion 10's instance: optimum 762
and 3402 nodes.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from collections import Counter
from pathlib import Path
from time import perf_counter

import networkx as nx

import reference
import workloads
from worker import import_scsp

HERE = Path(__file__).resolve().parent
FROZEN_REPS = 3
SHRUNKEN_SEEDS = range(25)
# generator sizes small enough for brute_force
SHRUNKEN = {
    "sparse-tables": {"n": 5, "m": 4, "tables": 6},
    "dense-tables": {"n": 3, "m": 5},
    "grid-text": {"side": 2, "m": 4},
    "gi-flow": {"side": 2, "m": 4, "long_range": 5},
}


class Verifier:
    def __init__(self, scsp):
        self.scsp = scsp
        self.problems = []

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)
            print(f"  MISMATCH {message}")

    def tables(self, label, instance):
        scsp = self.scsp
        m = instance.domain_size
        seen = set()
        for c in instance.constraints:
            f = c.function
            if isinstance(f, scsp.IntervalFunction) or f in seen:
                continue
            seen.add(f)
            if isinstance(f, scsp.BinaryTable):
                if c.scope[0] == c.scope[1]:
                    continue
                rebuilt = scsp.reconstruct(scsp.decompose_binary(f).terms, m)
                self.expect(rebuilt == f, f"{label}: a binary table does not "
                            "reconstruct from its terms")
            else:
                rebuilt = scsp.reconstruct(scsp.decompose_unary(f), m)
                self.expect(all(row == (value,) * m for row, value
                                in zip(rebuilt.rows, f.values)),
                            f"{label}: a unary table does not reconstruct "
                            "from its terms")
        return len(seen)

    def network(self, label, instance):
        scsp = self.scsp
        network = scsp.build_network(scsp.compile_to_intervals(instance))
        cut = scsp.min_cut(network)
        def penalty(edge):
            return (None if edge.capacity.is_infinite
                    else edge.capacity.fraction)

        capacity, scale, big = reference.integer_capacities(
            Counter(map(penalty, network.edges)))
        ids = {node: i for i, node in enumerate(network.nodes)}
        arcs = [(ids[e.tail], ids[e.head], capacity[penalty(e)])
                for e in network.edges if e.tail != e.head]
        graph = reference.integer_graph_networkx(len(ids), arcs)
        flow = nx.maximum_flow_value(graph, ids[scsp.SOURCE], ids[scsp.SINK])
        flow_value = reference.as_value(flow, scale, big)
        cut_value = None if cut.value.is_infinite else cut.value.fraction
        self.expect(cut_value == flow_value, f"{label}: min_cut {cut.value} "
                    f"but networkx max flow {flow_value}")
        return network

    def solve(self, label, workload, model, instance, frozen):
        scsp = self.scsp
        solution = scsp.solve(instance)
        value = (None if solution.evaluation.is_infinite
                 else solution.evaluation.fraction)
        optimum = reference.optimum_scipy(model)
        self.expect(value == optimum, f"{label}: solve gives "
                    f"{solution.evaluation}, the reference optimum is "
                    f"{optimum}")
        self.expect(scsp.evaluate(instance, solution.assignment)
                    == solution.evaluation,
                    f"{label}: evaluate disagrees with solve")
        self.expect(reference.evaluate(model, solution.assignment) == value,
                    f"{label}: the generating terms disagree with solve")
        if frozen is not None:
            self.expect(str(solution.evaluation) == frozen,
                        f"{label}: frozen optimum is {frozen}, solve gives "
                        f"{solution.evaluation}")
        if workload == "grid-text":
            evaluation, assignment = self.cli(model)
            self.expect(evaluation == str(solution.evaluation)
                        and assignment == solution.assignment,
                        f"{label}: scsp solve differs from solve()")
        return solution

    def cli(self, model):
        with tempfile.TemporaryDirectory(dir=HERE.parent / ".bench_out") as d:
            path = Path(d) / "input.scsp"
            path.write_text(workloads.to_text(model))
            out = io.StringIO()
            with redirect_stdout(out):
                code = self.scsp.cli.main(["solve", str(path)])
        self.expect(code == 0, f"scsp solve exited with {code}")
        lines = out.getvalue().splitlines()
        assignment = {}
        for line in lines[:-1]:
            name, value = line.split(" = ")
            assignment[name] = int(value)
        return lines[-1].split(" = ")[1], assignment

    def shrunken(self, workload):
        scsp = self.scsp
        for seed in SHRUNKEN_SEEDS:
            model = workloads.generate(workload, seed,
                                       **SHRUNKEN[workload])
            instance = workloads.to_instance(model, scsp)
            expected = scsp.brute_force(instance).evaluation
            label = f"{workload} shrunken seed {seed}"
            got = scsp.solve(instance).evaluation
            self.expect(got == expected, f"{label}: solve {got}, "
                        f"brute_force {expected}")
            optimum = reference.optimum_networkx(model)
            self.expect(optimum == (None if expected.is_infinite
                                    else expected.fraction),
                        f"{label}: reference optimum {optimum}, brute_force "
                        f"{expected}")
            if workload == "grid-text":
                evaluation, _ = self.cli(model)
                self.expect(evaluation == str(expected),
                            f"{label}: scsp solve {evaluation}, brute_force "
                            f"{expected}")


def main(seed: int) -> int:
    scsp = import_scsp()
    (HERE.parent / ".bench_out").mkdir(exist_ok=True)
    frozen = json.loads((HERE / "optima.json").read_text())
    verifier = Verifier(scsp)
    seeds = sorted({workloads.DEFAULT_SEED, seed})
    for workload in workloads.WORKLOADS:
        start = perf_counter()
        verifier.shrunken(workload)
        for s in seeds:
            for rep in range(FROZEN_REPS if s == workloads.DEFAULT_SEED else 1):
                label = f"{workload} seed {s} rep {rep}"
                model = workloads.generate(workload, s, rep)
                instance = workloads.to_instance(model, scsp)
                expected = (frozen[workload][rep]
                            if s == workloads.DEFAULT_SEED else None)
                solution = verifier.solve(label, workload, model, instance,
                                          expected)
                if rep > 0:
                    continue
                tables = verifier.tables(label, instance)
                network = verifier.network(label, instance)
                if (workload, s) == ("sparse-tables", 5):
                    verifier.expect(str(solution.evaluation) == "762"
                                    and len(network.nodes) == 3402,
                                    "sparse-tables seed 5 is not criterion "
                                    "10's instance")
                print(f"{label}: optimum {solution.evaluation}, "
                      f"{tables} distinct tables, {len(network.nodes)} nodes, "
                      f"{len(network.edges)} edges")
        print(f"{workload}: checked in {perf_counter() - start:.1f} s")
    if verifier.problems:
        print(f"verify: {len(verifier.problems)} mismatches")
        return 1
    print("verify: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1
                  else workloads.DEFAULT_SEED))
