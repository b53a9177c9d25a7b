"""Benchmark for mellinium: one command, three workloads.

    python3 bench/run.py --workload {points,algebra,cli} --seed N --seconds S --trace {0,1}

Runs whole seeded rounds of operations for at least S seconds, checks
every output against a reference computed apart from mellinium, prints a
short summary and, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from a run that records spans (written to bench/out/). The program
is imported from src/ next to this directory. README.md has the details.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and the CLI processes it starts, set
# before numpy loads: on a small shared machine a second BLAS thread made
# timings several times noisier. README.md has the measurements.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("points", "algebra", "cli")
SETUP_RUNS = 5


def child_env() -> dict:
    """Environment of the processes the benchmark starts.

    mellinium comes from src/, and the bytecode cache stays on even when
    the caller turned it off, so set-up and CLI starts read a warm cache,
    as they do for users.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def build(workload: str, seed: int, tracing: bool):
    """The round of ops and the exception types that count as failed ops.

    Builds the inputs and, for the in-process workloads, warms up with
    the first op of every light kind.
    """
    from spans import NullTracer

    if workload == "cli":
        import clicmds

        if tracing:
            import mellinium.cli  # noqa: F401  (cli.run spans exclude the import)
        return clicmds.cli_round(seed, child_env(), tracing), ()
    import mellinium
    import workloads

    ops = workloads.points_round(seed) if workload == "points" else workloads.algebra_round(seed)
    seen = set()
    for op in ops:
        if op.kind not in seen and not (op.heavy or op.fault):
            seen.add(op.kind)
            op.run(NullTracer())
    return ops, (mellinium.MelliniumError,)


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall times of fresh processes that do this workload's set-up.

    For cli that is a bare ``import mellinium.cli``; otherwise a child of
    this script that imports mellinium, builds the inputs and warms up.
    One untimed run first fills the bytecode cache.
    """
    if workload == "cli":
        cmd = [sys.executable, "-c", "import mellinium.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    env = child_env()
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, then exit (times set-up)")
    args = parser.parse_args(argv)
    if not (SRC / "mellinium" / "__init__.py").is_file():
        print(f"error: no mellinium source under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        build(args.workload, args.seed, tracing=False)
        return 0

    from ops import measure
    from spans import NullTracer, Tracer, layer_metrics

    cli = args.workload == "cli"
    tracing = bool(args.trace)
    setup = setup_times(args.workload, args.seed) if cli or not tracing else []
    ops, errors = build(args.workload, args.seed, tracing)
    for op in {id(op): op for op in ops}.values():
        op.reference = op.expect()

    tracer = Tracer() if tracing else NullTracer()
    m = measure(ops, args.seconds, tracer, errors, children=cli)
    completed = m.attempted - m.failed

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracing:
        counts = dict(m.tally)
        if cli:
            counts["cli.import_ms"] = statistics.median(setup) * 1e3
        metrics = layer_metrics(tracer.spans, m.attempted, counts)
        tracer.dump(OUT / f"spans-{stem}.jsonl")
    else:
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (completed / m.wall_s, "1/s"),
            "latency_p50_ms": (statistics.median(m.latencies_s) * 1e3, "ms"),
            "cpu_ms_per_op": (m.cpu_s * 1e3 / completed, "ms"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}

    result = {
        "correct": not m.unexpected,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": m.attempted // len(ops),
        "ops_per_round": len(ops),
        "known_faults": sorted({op.fault for op in ops if op.fault}),
        "unexpected_failures": dict(m.unexpected),
        "wall_s": m.wall_s,
        "ops_per_s": completed / m.wall_s,
        "setup_runs_s": setup,
        "threads": {v: os.environ[v] for v in THREAD_VARS} | {"cpu_count": os.cpu_count()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {m.attempted} ops in {detail['rounds']} rounds, "
        f"{m.failed} failed (known faults {', '.join(detail['known_faults']) or 'none'}), "
        f"{completed / m.wall_s:.4g} ops/s over {m.wall_s:.2f} s"
    )
    for kind, count in sorted(m.unexpected.items()):
        print(f"UNEXPECTED FAILURE: {kind} x{count}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
