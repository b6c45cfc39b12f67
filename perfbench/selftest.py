"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload: an untraced run reports every end-to-end metric of
BENCHMARK.json and every named metric of its workload, each with its unit;
a traced run reports every per-layer metric with its unit; no operation
fails; and two traced runs give identical count metrics. Exits 1 on the
first problem found.
"""

from __future__ import annotations

import json
import sys

import run  # sets the single-threaded BLAS environment before numpy loads

SECONDS = 0.2
SEED = 0

# Named metrics each workload prints, with their units.
NAMED = {
    "pretrain": {"pretrain_samples_per_s": "samples/s"},
    "eval": {f"{t}_samples_per_s": "samples/s" for t in ("ar", "acd", "bacd", "aqa")},
    "caption": {"ac_finetune_samples_per_s": "samples/s", "caption_ms_p50": "ms",
                "caption_ms_tail": "ms"},
    "retrieve": {"index_build_graphs_per_s": "graphs/s", "query_ms_p50": "ms",
                 "query_ms_tail": "ms"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "fail_share": "ratio"}
REPEATING_UNITS = ("count", "flop")   # plus text.real_row_share


def _units(result: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import TINY

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in run.WORKLOAD_NAMES:
        plain = run.measure(name, SEED, SECONDS, trace=False, sizes=TINY)
        traced = [run.measure(name, SEED, SECONDS, trace=True, sizes=TINY) for _ in range(2)]
        if _units(plain["result"]) != end_to_end:
            problems.append(f"{name}: end-to-end metrics {_units(plain['result'])}")
        named = {k: u for k, (_, u) in plain["named"].items()}
        if named != {**NAMED[name], **COMMON}:
            problems.append(f"{name}: named metrics {named}")
        for out in [plain] + traced:
            if out["result"]["failed"] or not out["result"]["correct"]:
                problems.append(f"{name}: {out['result']['failed']} operations failed")
        first, second = (t["result"] for t in traced)
        if _units(first) != per_layer:
            problems.append(f"{name}: per-layer metrics {_units(first)}")
        for metric, unit in per_layer.items():
            if unit in REPEATING_UNITS or metric == "text.real_row_share":
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                if a != b:
                    problems.append(f"{name}: {metric} differs between runs: {a} != {b}")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("PROBLEM", p, file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
