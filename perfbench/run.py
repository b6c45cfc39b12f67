"""archtext benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Workloads: pretrain, eval, caption, retrieve (see perfbench/README.md);
`all` runs each of them in its own child process, one after another.
With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
does a fixed amount of work twice, untraced and then traced, and reports
per-layer metrics from spans around calls into archtext. The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`. The program is imported from `src/` beside this directory.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: on small matrices a second
# thread only adds start-up cost and run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("pretrain", "eval", "caption", "retrieve")

# End-to-end metrics of every workload, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "items/s"),
    ("latency_ms_p50", "ms"),
)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload in this process; returns the result and the
    lines to print before it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from harness import CountBudget, Tally, TimeBudget, compare_reference, percentile_tail, run_ops
    from spans import LAYER_METRICS, Tracer, layer_metrics
    from workloads import FULL, WORKLOADS

    sizes = sizes or FULL
    wl = WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text())[name]
    WORK.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    tracer = Tracer() if trace else None
    checks = Tally()
    memo: dict = {}
    try:
        setup_s = []
        with tracer.installed() if trace else nullcontext():
            for rep in range(sizes.setup_reps):
                rep_dir = os.path.join(work, f"setup{rep}")
                os.mkdir(rep_dir)
                t0 = time.perf_counter()
                ctx = wl.setup(seed, rep_dir, sizes)
                setup_s.append(time.perf_counter() - t0)
        run_ops(wl.warmup(ctx), checks, {})
        if not trace:
            timed = run_ops(wl.schedule(ctx, TimeBudget(seconds)), Tally(), memo)
        else:
            budget = CountBudget(sizes.trace_ops[name])
            snap = wl.snapshot(ctx)
            plain = run_ops(wl.schedule(ctx, budget), Tally(), memo)
            wl.restore(ctx, snap)
            with tracer.installed():
                timed = run_ops(wl.schedule(ctx, budget), Tally(), memo, tracer)
        try:
            probed = wl.probe(work)
        except Exception as err:  # reported as a failed check of every reference entry
            print(f"FAILED reference probe: {type(err).__name__}: {err}", file=sys.stderr)
            probed = {}
        compare_reference(probed, reference, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = checks.attempted + timed.attempted
    failed = checks.failed + timed.failed
    lines = [f"archtext benchmark: workload={name} seed={seed} seconds={seconds} "
             f"trace={int(trace)}",
             "environment: " + json.dumps(environment(), sort_keys=True)]
    named: dict = {}
    if trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{name}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        coverage = tracer.top_level_seconds(set(timed.items)) / timed.wall
        values = layer_metrics(tracer, dict(timed.items), sizes.setup_reps,
                               timed.wall / plain.wall, coverage)
        units = dict(LAYER_METRICS)
        lines.append(f"tracing overhead {timed.wall / plain.wall:.3f}x "
                     f"({timed.wall:.2f} s traced, {plain.wall:.2f} s untraced); "
                     f"top-level spans cover {100 * coverage:.1f}% of the traced pass; "
                     f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        throughput, latencies, named = wl.headline(timed)
        p50, tail, tail_pct, n = percentile_tail(latencies)
        values = {"setup_s": statistics.median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "throughput_per_s": throughput, "latency_ms_p50": p50}
        units = dict(END_TO_END)
        named.update(setup_s=(values["setup_s"], "s"), peak_rss_mb=(values["peak_rss_mb"], "MB"),
                     fail_share=(failed / attempted, "ratio"))
        lines += [f"  {k:<28} {v:.6g} {u}" for k, (v, u) in named.items() if k not in values]
        lines.append(f"  {failed} of {attempted} operations failed; the latency tail "
                     f"({tail:.6g} ms) is p{tail_pct:.1f} of {n} samples; setup took "
                     + ", ".join(f"{s:.3f}" for s in setup_s) + " s")
    lines += [f"  {k:<28} {v:.6g} {units[k]}" for k, v in values.items()]
    # a metric nothing measured (every call of its phase failed) is null
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                          for k, v in values.items()}}
    return {"lines": lines, "result": result, "named": named}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(out[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "archtext" / "__init__.py").is_file():
        print(f"error: archtext sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(out["lines"]))
        result = out["result"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
