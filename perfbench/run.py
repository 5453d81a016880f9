"""Benchmark for stratabord: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from `src/`.
Workloads (see README.md): `certify`, `algebra-rings` and `cli`.

A run is made of rounds.  Each round is a fresh worker process (this file
again, with `--worker`), so every memo inside the program and the catalog
cache start empty, exactly as for a user's first call.  Rounds repeat, one
at a time, until `--seconds` have passed; every round runs the same jobs in
the same order.  `setup_s` is the cold set-up of the first round.  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for `--trace 0` and the per-layer metrics of a
traced run (spans around the calls into each layer) for `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify", "algebra-rings", "cli")
DEADLINE_S = 170.0  # a run ends within 180 s
CLI_PASSES = 3  # passes over the commands in one cli round


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)  # round index
    ap.add_argument("--spawned", type=float, help=argparse.SUPPRESS)  # time.time() at spawn
    ap.add_argument("--deadline", type=float, help=argparse.SUPPRESS)  # time.time() to finish by
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# The run: rounds in worker processes, then one result line


def run_round(args, index: int, deadline: float) -> dict:
    spawned = time.time()
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--worker", str(index), "--spawned", repr(spawned), "--deadline", repr(deadline),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.time(), 1.0))
    except subprocess.TimeoutExpired:
        # The worker's own children share its session: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"round {index} of {args.workload} did not finish in time")
    wall = time.time() - spawned
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"round {index} of {args.workload} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if "startup_s" not in result:
        result["startup_s"] = wall - result["inside_s"] - result["tail_s"]
    return result


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


def result_line(args, rounds) -> dict:
    failures = [f for r in rounds for f in r["failures"]]
    problems = [p for r in rounds for p in r["problems"]]
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"wrong output: {line}", file=sys.stderr)
    run_s = statistics.median(t for r in rounds for t in r["run_s"])
    if args.trace:
        import tracing

        values = {m: statistics.median(r["layers"][m] for r in rounds) for m in tracing.METRICS}
        values["cli.startup_s"] = statistics.median(r["startup_s"] for r in rounds)
        values["trace.run_s"] = run_s
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = {
            # set-up of the first round: the cold one, from process start
            "setup_s": rounds[0]["setup_s"],
            "run_s": run_s,
            "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        return worker(args)
    if not os.path.isfile(os.path.join(SRC, "stratabord", "cli.py")):
        print("error: src/stratabord not found; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    deadline = time.time() + DEADLINE_S
    rounds = []
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(run_round(args, len(rounds), deadline))
    print(json.dumps(result_line(args, rounds)))
    return 0


# ---------------------------------------------------------------------------
# One round, in a fresh process


def worker(args) -> int:
    sys.path.insert(0, SRC)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import stratabord.cli  # noqa: F401  (the whole program, as a user loads it)
    import workloads

    imported = time.time()
    rnd = workloads.Round()
    result = {}
    if args.workload == "cli":
        run_cli_round(args, rnd, result)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        setup, jobs = {
            "certify": (workloads.setup_certify, workloads.jobs_certify),
            "algebra-rings": (workloads.setup_rings, workloads.jobs_rings),
        }[args.workload]
        inputs = setup(args.seed)
        result["setup_s"] = time.time() - args.spawned
        if tracer is not None:
            # One span over the timed jobs, so the trace separates them from set-up.
            jobs = tracer.wrap("bench.jobs", jobs)
        jobs(inputs, rnd)
        result["run_s"] = [rnd.run_s]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    body_end = time.time()
    result.update(
        attempted=rnd.attempted, failed=rnd.failed,
        failures=rnd.failures, problems=rnd.problems,
        peak_rss_mib=peak / 1024.0,  # ru_maxrss is in KiB on Linux
        inside_s=body_end - imported,
    )
    if tracer is not None:
        from tracing import layer_metrics, merge

        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        tracer.write(os.path.join(OUT, "trace", f"{args.workload}.tsv"))
        total = tracer.summary()
        merge(total, result.pop("child_layers", {}))
        result["layers"] = layer_metrics(total)
    result["tail_s"] = time.time() - body_end
    print(json.dumps(result))
    return 0


def run_cli_round(args, rnd, result: dict) -> None:
    """Set up the input files, then make CLI_PASSES passes over the commands,
    one process at a time.  Each command is a fresh process, so a pass leaves
    nothing behind for the next; `run_s` holds one figure per pass."""
    import workloads

    workdir = os.path.join(OUT, f"cli-{os.getpid()}")
    tracedir = os.path.join(OUT, "trace", "cli")
    os.makedirs(workdir, exist_ok=True)
    if args.trace:
        shutil.rmtree(tracedir, ignore_errors=True)
        os.makedirs(tracedir)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    launcher = os.path.join(HERE, "launcher.py")
    traced_calls = []  # (summary path, wall seconds)

    def invoke(argv):
        if args.trace:
            summary = os.path.join(tracedir, f"call{len(traced_calls):02d}.json")
            cmd = [sys.executable, launcher, summary, *argv]
        else:
            cmd = [sys.executable, "-m", "stratabord.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=workdir, env=env, capture_output=True, text=True,
            timeout=max(args.deadline - time.time(), 1.0),
        )
        if args.trace:
            traced_calls.append((summary, time.perf_counter() - start))
        return workloads.Call(proc.returncode, proc.stdout, proc.stderr)

    try:
        inputs = workloads.setup_cli(args.seed, workdir)
        result["setup_s"] = time.time() - args.spawned
        result["run_s"] = []
        for _ in range(CLI_PASSES):
            before = rnd.run_s
            workloads.jobs_cli(inputs, rnd, invoke)
            result["run_s"].append(rnd.run_s - before)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        from tracing import merge

        layers, startup = {}, 0.0
        for summary, wall in traced_calls:
            with open(summary) as fh:
                doc = json.load(fh)
            merge(layers, doc["layers"])
            startup += wall - doc["inside_s"] - doc["tail_s"]
        result["child_layers"] = layers
        result["startup_s"] = startup


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
