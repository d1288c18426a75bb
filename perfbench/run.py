"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cdp-phantom --seed 0 --seconds 30 --trace 0

Workloads and metric names come from ``BENCHMARK.json`` at the checkout
root; ``--workload all`` runs every workload, each in a fresh process.
The run sets up the workload several times in fresh processes (median
``setup_s``), then repeats batches of the workload for ``--seconds``
(to within half a batch).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics derived from the traced batches' spans, with the
tracing overhead.
Every batch's outputs are checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A results file (with the run manifest) and, when traced, the spans are
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing

# BLAS/OpenMP pools are pinned to one thread before numpy is imported: on
# two cores one thread was faster on gauss-paired and certify-gap, and it
# is the plain single-threaded baseline.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, {here!r})\n"
    "import workloads\n"
    "workloads.make({name!r}, {seed})\n"
    "print(time.perf_counter() - t0)\n"
)
# Per-workload figures printed for a reader; the JSON carries only the
# BENCHMARK.json metrics, which every workload reports.
REPORT_UNITS = {
    "iters_per_s": "1/s",
    "trials_per_s": "1/s",
    "certs_per_s": "1/s",
    "success_rate.raar": "ratio",
    "success_rate.drs": "ratio",
    "failed_frac": "ratio",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def setup_seconds(name: str, seed: int) -> list:
    """Import plus input generation, timed in fresh processes."""
    code = SETUP_CHILD.format(here=HERE, name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_batch(workload, index):
    start = time.perf_counter_ns()
    batch = workload.run_batch(index)
    return batch, time.perf_counter_ns() - start


def measure(workload, seconds: int, tracer=None):
    """Repeat batches for about ``seconds``; with a tracer, alternate untraced and traced.

    Untraced runs step the batch index; traced runs repeat batch 0, so
    both halves of a pair do the same work and counts repeat exactly.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        index = 0 if tracer is not None else len(untraced)
        untraced.append(timed_batch(workload, index))
        if tracer is not None:
            tracer.install()
            try:
                batch, wall = timed_batch(workload, 0)
            finally:
                tracer.uninstall()
            traced.append((batch, wall, tracer.take()))
        now = time.perf_counter()
        # stop when one more round would end nearer past the deadline than this one ends before it
        if now + (now - begun) / 2 >= start + seconds:
            return untraced, traced


def end_to_end(workload, untraced, setups) -> tuple:
    batches = [b for b, _ in untraced]
    ops = sum(b.ops for b in batches)
    rate = statistics.median(b.ops / (wall / 1e9) for b, wall in untraced)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": sum(b.succeeded for b in batches) / ops,
    }
    report = {"failed_frac": sum(b.failed for b in batches) / ops}
    if workload.name == "certify-gap":
        report["certs_per_s"] = rate
    else:
        report["iters_per_s"] = statistics.median(b.iterations / (wall / 1e9) for b, wall in untraced)
    if workload.name == "gauss-paired":
        report["trials_per_s"] = rate
        for algo, (wins, trials) in pooled_by_algo(batches).items():
            report[f"success_rate.{algo}"] = wins / trials
    return metrics, report


def pooled_by_algo(batches) -> dict:
    pooled = {}
    for b in batches:
        for algo, (wins, trials) in b.by_algo.items():
            tally = pooled.setdefault(algo, [0, 0])
            tally[0] += wins
            tally[1] += trials
    return pooled


def layer_metrics(untraced, traced, tracing) -> dict:
    rows = [tracing.per_layer(spans, wall) for _b, wall, spans in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["artifacts.bytes_written"] = statistics.median(b.bytes_written for b, _w, _s in traced)
    # each traced batch against the untraced batch just before it, which ran
    # on the same inputs and in nearly the same machine state
    pairs = zip(untraced, traced)
    metrics["trace.overhead_frac"] = statistics.median(t[1] / u[1] for u, t in pairs) - 1.0
    return metrics


def manifest(args, workload, batches: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batches": batches,
        "params": workload.params,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_one(args, spec) -> dict:
    import workloads  # imports numpy and the library, after the thread pins above

    workload = workloads.make(args.workload, args.seed)
    setups = setup_seconds(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = measure(workload, args.seconds, tracer)

    batches = [b for b, _w in untraced] + [b for b, _w, _s in traced]
    attempted = sum(b.ops for b in batches)
    failed = sum(b.failed for b in batches)
    problems = [f"{failed} of {attempted} operations failed"] if failed else []
    for algo, floor in workload.floors.items():
        wins, trials = pooled_by_algo(batches).get(algo, (0, 0))
        if not trials or wins / trials < floor:
            problems.append(f"success rate of {algo} {wins}/{trials} is below {floor}")

    e2e, report = end_to_end(workload, untraced, setups)
    if tracer is not None:
        metrics = layer_metrics(untraced, traced, tracing)
        absent = tracing.absent_metrics(tracer.names)
        for name in absent:
            metrics.pop(name, None)
    else:
        metrics, absent = e2e, []
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = manifest(args, workload, len(untraced) + len(traced))

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"batches, {attempted} operations, {failed} failed")
    print("manifest " + json.dumps(info, sort_keys=True))
    for name, value in {**e2e, **report}.items():
        print(f"  {name:<54} {value:.6g} {units.get(name) or REPORT_UNITS.get(name, '')}")
    if tracer is not None:
        for name, value in metrics.items():
            print(f"  {name:<54} {value:.6g} {units[name]}")
    for name in absent:
        print(f"  {name:<54} absent (its function is not in the program)")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    stem = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"manifest": info, "result": result, "report": report, "absent": absent,
                   "setup_s": setups, "untraced_walls_ns": [w for _b, w in untraced],
                   "traced_walls_ns": [w for _b, w, _s in traced]}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        write_spans(stem + "-spans.csv", traced)
    return result


def write_spans(path, traced):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("batch,id,parent,name,start_ns,end_ns\n")
        for k, (_b, _w, spans) in enumerate(traced):
            fh.writelines(f"{k},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]}\n" for s in spans)


def run_all(args, spec) -> dict:
    """Every workload in a fresh process; metric names are prefixed with ``<workload>.``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"workload {w['name']} exited with code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(sys.argv[1:] if argv is None else argv, spec)
    result = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
