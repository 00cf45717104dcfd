"""The scsp benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sparse-tables --seed 5 --seconds 45 --trace 0
    python3 perfbench/run.py --all        # every workload, one summary table
    python3 perfbench/run.py --verify     # independent oracles, not timed

Run it from the root of a checkout; ``scsp`` is imported from ``src``.
Each run starts fresh interpreters (``worker.py``): four that only set up,
and one that sets up, then solves new instances of the workload one after
another (a closed loop with one client) for ``--seconds``.  After the
workers end, every answer is checked against the reference optimum of
``reference.py`` and against an evaluation from the generating terms.

``BENCHMARK.json`` gates changes on ``grid-text`` and ``gi-flow``, which
between them reach every layer; ``sparse-tables`` and ``dense-tables``
run the same way from this command but are not in the gated set: within
the gated run budget, four workloads leave each run too short to be
steady on a noisy 2-core host.

With ``--trace 0`` the result line holds the end-to-end metrics:

* ``wall_s``: median seconds of one solve, from in-memory input (or, for
  ``grid-text``, from the input file) to the solver's answer;
* ``setup_s``: median seconds from starting an interpreter to the first
  input being ready (``import scsp``, generation, writing the file);
* ``peak_rss_mib``: peak resident memory of the measuring interpreter.

The failure ratio is ``failed / attempted`` in the result line and is
printed above it; it must be 0.  With ``--trace 1`` each instance is also
solved traced, and the result line holds the per-layer metrics listed in
``BENCHMARK.json``: medians over traced solves for times, rep 0's exact
counts for counts.  Counts are kept in ``.bench_out/counts.json`` per
source hash, workload and seed; a run whose counts differ from an earlier
run of the same code fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_ONLY_RUNS = 4
RUN_LIMIT_S = 170.0


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def source_hash() -> str:
    """Hash of the solver's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "scsp").glob("*.py"),
                        *HERE.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "source": source_hash(),
            "loadavg": os.getloadavg()}


def worker_command(args, setup_only):
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(OUT_DIR)]
    return command + ["--setup-only"] if setup_only else command


def start_worker(args, setup_only, deadline):
    """Start a worker and wait for ``ready``; returns (process, seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    process = subprocess.Popen(worker_command(args, setup_only), cwd=ROOT,
                               env=env, stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline()
    seconds = perf_counter() - start
    if line.strip() != "ready":
        finish(process, deadline)
        raise RuntimeError(f"worker failed during set-up (exit "
                           f"{process.returncode})")
    return process, seconds


def finish(process, deadline):
    """Wait for the worker to end; returns its remaining output."""
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError("worker ran past the time limit") from None
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with {process.returncode}")
    return out


def measure(args):
    """Set-up samples and the measuring worker's report."""
    deadline = perf_counter() + RUN_LIMIT_S
    setups = []
    for _ in range(SETUP_ONLY_RUNS):
        process, seconds = start_worker(args, True, deadline)
        finish(process, deadline)
        setups.append(seconds)
    process, seconds = start_worker(args, False, deadline)
    setups.append(seconds)
    report = json.loads(finish(process, deadline).splitlines()[-1])
    return setups, report


def parse_value(text):
    return None if text == "inf" else Fraction(text)


def check_answers(workload, seed, reps):
    """Check every answer against the reference optimum and an evaluation
    from the generating terms; returns one message per failed solve."""
    failures = []
    models, optima = {}, {}
    for record in reps:
        rep = record["rep"]
        if record["error"] is not None:
            failures.append(f"rep {rep}: {record['error']}")
            continue
        if rep not in models:
            models[rep] = workloads.generate(workload, seed, rep)
            optima[rep] = reference.optimum_scipy(models[rep])
        reported = parse_value(record["evaluation"])
        named = dict(zip(models[rep].variables, record["assignment"]))
        if reported != optima[rep]:
            failures.append(f"rep {rep}: evaluation {record['evaluation']} "
                            f"differs from the reference optimum "
                            f"{optima[rep]}")
        elif reference.evaluate(models[rep], named) != reported:
            failures.append(f"rep {rep}: the assignment's evaluation from "
                            f"the generating terms is not "
                            f"{record['evaluation']}")
    return failures


def check_counts(key, counts):
    """Compare with earlier runs of the same code; returns differences."""
    path = OUT_DIR / "counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    earlier = known.setdefault(key, {})
    differences = [f"{name}: {earlier[name]} before, {value} now"
                   for name, value in counts.items()
                   if name in earlier and earlier[name] != value]
    earlier.update(counts)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return differences


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(report, counts, untraced):
    layers = report["layers"]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0] if name != "wall_s"}
    traced_wall = statistics.median(layer["wall_s"] for layer in layers)
    untraced_wall = statistics.median(untraced)
    metrics.update(counts)
    metrics.update({
        "submodular.checks_per_table": ratio(
            counts["submodular.check_calls"],
            counts["submodular.checked_tables"]),
        "submodular.terms_per_bound": ratio(
            counts["submodular.terms"], counts["submodular.terms_bound"]),
        "solver.distinct_table_ratio": ratio(
            counts["solver.distinct_tables"],
            counts["solver.table_constraints"]),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1,
        "trace.self_time_coverage": statistics.median(
            sum(v for k, v in layer.items() if k != "wall_s") / layer["wall_s"]
            for layer in layers),
    })
    return metrics


def run_one(args) -> dict:
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    setups, report = measure(args)
    reps = report["reps"]
    failures = check_answers(args.workload, args.seed, reps)
    attempted, failed = len(reps), len(failures)

    counts = dict(report["sizes"])
    problems = []
    if args.trace:
        if report["counts"] is None:
            problems.append("rep 0's traced solve failed, so no counts")
        else:
            counts.update(report["counts"])
    key = f"{env['source']} {args.workload} seed={args.seed}"
    problems += [f"count changed: {d}" for d in check_counts(
        key, {**counts, "rep0.evaluation": reps[0]["evaluation"]})]

    walls = [r["seconds"] for r in reps if not r["traced"]
             and not r["warmup"] and r["seconds"] is not None]
    wall = statistics.median(walls) if walls else float("nan")
    q1, q3 = quartiles(walls) if walls else (wall, wall)
    if args.trace:
        metrics = (per_layer(report, counts, walls)
                   if walls and not problems else {})
    else:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
                   "peak_rss_mib": report["peak_rss_mib"]}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": walls, "setup_s": setups,
        "peak_rss_mib": report["peak_rss_mib"], "attempted": attempted,
        "failed": failed, "problems": failures + problems,
        "metrics": metrics, "env": env,
    }
    with open(OUT_DIR / "results.jsonl", "a") as handle:
        handle.write(json.dumps(summary) + "\n")

    for message in failures + problems:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# python {env['python']}, nproc {env['nproc']}, commit "
          f"{env['commit']}, source {env['source']}, loadavg "
          + " ".join(f"{x:.2f}" for x in env["loadavg"]))
    print(f"# {args.workload} seed {args.seed}: {attempted} solves, wall_s "
          f"{wall:.4f} s (quartiles {q1:.4f} s, {q3:.4f} s), setup_s "
          f"{statistics.median(setups):.4f} s, peak_rss_mib "
          f"{report['peak_rss_mib']:.1f} MiB, fail_ratio "
          f"{failed / attempted:g} ({failed}/{attempted})")
    units = declared_metrics(args.trace)
    if metrics and set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def run_all(args) -> int:
    """Every workload in its own run; one summary table."""
    rows = []
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
        out = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name}: run failed with exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        rows.append((name, result))
    print(f"{'workload':<15}{'wall_s':>12}{'setup_s':>12}"
          f"{'peak_rss_mib':>16}{'fail_ratio':>12}")
    for name, result in rows:
        m = result["metrics"]
        print(f"{name:<15}{m['wall_s']['value']:>10.4f} s"
              f"{m['setup_s']['value']:>10.4f} s"
              f"{m['peak_rss_mib']['value']:>12.1f} MiB"
              f"{result['failed'] / result['attempted']:>12g}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scsp benchmark", epilog="see the module docstring")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a summary")
    parser.add_argument("--verify", action="store_true",
                        help="check the solver against independent oracles")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scsp" / "__init__.py").is_file():
        print(f"error: no scsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.verify:
        import verify
        return verify.main(args.seed)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all or --verify")
    try:
        result = run_one(args)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
