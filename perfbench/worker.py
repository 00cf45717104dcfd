"""One workload in a fresh interpreter: set up, then solve for a while.

``run.py`` starts this script.  It imports ``scsp`` from the checkout's
``src``, builds rep 0's input and prints ``ready``; the time to that line
is one set-up sample.  With ``--setup-only`` it stops there.  Otherwise it
solves one new instance per rep, timing only the solver call, until
``--seconds`` have passed and at least ``MIN_SAMPLES`` solves are timed,
and prints one JSON line: every solve's time, answer and check, and the
process's peak resident memory.  The first solve warms the process up
(heap growth, first-call costs) and is checked but not a sample.

With ``--trace 1`` each instance is solved twice, untraced and traced (in
alternating order), and the traced solve also yields per-layer self times;
rep 0's traced solve yields the exact counts.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3
# bounds the answer checks that follow the timed loop
MAX_REPS = 100
# stop starting reps past this, whatever MIN_SAMPLES says, to end in time
HARD_STOP_S = 100.0


def import_scsp():
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import scsp
    import scsp.cli
    import scsp.solver
    import scsp.submodular
    if Path(scsp.__file__).resolve().parent != (source / "scsp").resolve():
        raise ImportError(f"scsp was imported from {scsp.__file__}, "
                          f"not from {source}")
    return scsp


class Workload:
    """Inputs and the measured call for one workload's reps."""

    def __init__(self, scsp, name, seed, out_dir):
        self.scsp = scsp
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.cli = name == "grid-text"

    def prepare(self, rep):
        """Make rep's input: an Instance, or for the CLI an input file."""
        model = workloads.generate(self.name, self.seed, rep)
        if not self.cli:
            return model, workloads.to_instance(model, self.scsp)
        stem = self.out_dir / f"{self.name}-{self.seed}-{rep}"
        path = stem.with_suffix(".scsp")
        path.write_text(workloads.to_text(model))
        return model, (path, stem.with_suffix(".graph"))

    def call(self, payload):
        if not self.cli:
            return self.scsp.solver.solve(payload)
        path, graph = payload
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.scsp.cli.main(["solve", str(path),
                                       "--emit-graph", str(graph)])
        return code, out.getvalue()

    def answer(self, model, payload, result):
        """(evaluation text, assignment list), after checking the output
        against the solver's own evaluate."""
        scsp = self.scsp
        if not self.cli:
            instance, solution = payload, result
            assignment = [solution.assignment[v] for v in model.variables]
            evaluation = solution.evaluation
        else:
            code, out = result
            if code != 0:
                raise RuntimeError(f"scsp solve exited with {code}")
            lines = out.splitlines()
            expected = [f"{v} = " for v in model.variables] + ["evaluation = "]
            if len(lines) != len(expected) or not all(
                    line.startswith(head) for line, head in zip(lines, expected)):
                raise RuntimeError("unexpected scsp solve output")
            assignment = [int(line.split(" = ")[1]) for line in lines[:-1]]
            evaluation = scsp.as_evaluation(lines[-1].split(" = ")[1])
            self._check_graph(model, payload[1])
            instance = workloads.to_instance(model, scsp)
        named = dict(zip(model.variables, assignment))
        if scsp.evaluate(instance, named) != evaluation:
            raise RuntimeError("evaluate(instance, assignment) differs from "
                               "the reported evaluation")
        return str(evaluation), assignment

    def _check_graph(self, model, graph):
        structural = 0
        with open(graph) as handle:
            for line in handle:
                if line.endswith(" structural\n"):
                    structural += 1
                elif " constraint:" not in line:
                    raise RuntimeError(f"malformed graph line {line!r}")
        if structural != len(model.variables) * (model.m + 2):
            raise RuntimeError("emitted graph lacks structural edges")

    def sizes(self, payload):
        if not self.cli:
            return {"fileformat.input_bytes": 0, "cutgraph.graph_bytes": 0}
        path, graph = payload
        return {"fileformat.input_bytes": path.stat().st_size,
                "cutgraph.graph_bytes": graph.stat().st_size}

    def cleanup(self, payload):
        if self.cli:
            for path in payload:
                path.unlink(missing_ok=True)


def timed(workload, payload):
    gc.collect()
    start = perf_counter()
    result = workload.call(payload)
    return result, perf_counter() - start, None


def traced(workload, payload):
    gc.collect()
    tracer = tracing.Tracer(workload.scsp)
    result, seconds = tracer.root(workload.call, payload)
    return result, seconds, tracer


def attempt(workload, model, payload, run):
    """One solve, timed by ``run``: (record, tracer or None)."""
    record = {"seconds": None, "evaluation": None, "assignment": None,
              "error": None}
    tracer = None
    try:
        result, record["seconds"], tracer = run(workload, payload)
        record["evaluation"], record["assignment"] = workload.answer(
            model, payload, result)
    except Exception:  # a failed solve or check is recorded, not fatal
        record["error"] = traceback.format_exc(limit=5)
    return record, tracer


def counts(workload, instance, tracer):
    """Exact counts from rep 0's traced solve."""
    scsp = workload.scsp
    tables = [c.function for c in instance.constraints
              if isinstance(c.function, (scsp.UnaryTable, scsp.BinaryTable))]
    checked_tables = sum(1 for c in instance.constraints
                         if isinstance(c.function, scsp.BinaryTable)
                         and c.scope[0] != c.scope[1])
    check_calls = tracer.calls("submodular.find_violation")
    terms = sum(t for _, _, t in tracer.term_counts)
    bound = sum(2 * m * (m + 1) if binary else m
                for binary, m, _ in tracer.term_counts)
    network = tracer.kept["cutgraph.build_network"]
    cut = tracer.kept["cutgraph.min_cut"]
    out = {
        "solver.table_constraints": len(tables),
        "solver.distinct_tables": len(set(tables)),
        "submodular.checked_tables": checked_tables,
        "submodular.check_calls": check_calls,
        "submodular.terms": terms,
        "submodular.terms_bound": bound,
    }
    out.update(tracing.network_counts(network, cut))
    return out


def measure(workload, first, seconds, trace):
    """Solve rep after rep; the process's first solve is a warm-up whose
    time is not a sample."""
    reps, layers, spans, rep_counts, sizes = [], [], [], None, None
    samples = 0
    start = perf_counter()
    rep = 0
    model, payload = first
    while True:
        order = (timed, traced) if rep % 2 == 0 else (traced, timed)
        for run in (order if trace else (timed,)):
            record, tracer = attempt(workload, model, payload, run)
            record.update(rep=rep, traced=run is traced, warmup=not reps)
            reps.append(record)
            samples += not record["warmup"]
            if tracer is None or record["error"] is not None:
                continue
            layers.append({"wall_s": record["seconds"],
                           **tracing.layer_times(tracer.self_times())})
            spans.append(tracer.spans)
            if rep == 0:
                instance = (tracer.kept["fileformat.parse_instance"]
                            if workload.cli else payload)
                rep_counts = counts(workload, instance, tracer)
        if rep == 0:
            sizes = workload.sizes(payload)
        workload.cleanup(payload)
        rep += 1
        elapsed = perf_counter() - start
        if rep >= MAX_REPS or elapsed >= HARD_STOP_S or (
                samples >= MIN_SAMPLES and elapsed >= seconds):
            break
        model, payload = workload.prepare(rep)
    return reps, layers, spans, rep_counts, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scsp = import_scsp()
    workload = Workload(scsp, args.workload, args.seed, args.out_dir)
    first = workload.prepare(0)
    print("ready", flush=True)
    if args.setup_only:
        workload.cleanup(first[1])
        return 0
    reps, layers, spans, rep_counts, sizes = measure(
        workload, first, args.seconds, args.trace)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spans:
        path = args.out_dir / f"spans-{args.workload}-{args.seed}.json"
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "reps": spans}, handle)
    print(json.dumps({"reps": reps, "layers": layers, "counts": rep_counts,
                      "sizes": sizes, "peak_rss_mib": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
