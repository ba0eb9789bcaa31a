#!/usr/bin/env python3
"""Run the benchmark on several seeds, twice, and summarise it, optionally into a baseline file.

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --trace-seeds 1 --out perfbench/BASELINE.json

Runs perfbench/run.py once per workload and seed, one process at a time,
with BENCHMARK.json's run length, and does so `--sets` times, one whole
set after the other. For each set and end-to-end metric it reports the
median over the seeds and the spread, the distance between the first and
third quartile as a share of the median, next to the metric's bound, and
how much worse than the first set's median each later set's median is. On
the workloads BENCHMARK.json gates, a spread or a change at or above a
third of the bound is flagged, because two sets of runs of the same code
must agree within the bound. Outputs must also hash the same in every set.
The traced runs give the per-layer breakdown: each layer's self time and
its share of the traced wall time. With --out the summary is written as
JSON together with the machine, Python and numpy it was measured on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from tracing import SELF_TIMES  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["sha256"] = next(line.split()[-1] for line in lines
                            if line.strip().startswith("output sha256 "))
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2,
                        help="sets of runs over the seeds, one after another")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {w["name"] for w in spec["workloads"]}
    names = args.workloads.split(",") if args.workloads else list(WORKLOAD_NAMES)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    summary: dict = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    results: dict = {(name, k): [] for name in names for k in range(args.sets)}
    for k in range(args.sets):
        for name in names:
            for seed in seeds:
                result = run(name, seed, seconds, 0)
                results[name, k].append(result)
                print(f"set {k + 1} {name} seed {seed}: " + "  ".join(
                    f"{m} {v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)

    flagged = 0
    for name in names:
        entry: dict = {"gated": name in gated, "seeds": seeds, "sets": [],
                       "sha256": {str(seed): r["sha256"] for seed, r in zip(seeds, results[name, 0])}}
        for k in range(args.sets):
            for seed, r in zip(seeds, results[name, k]):
                if r["sha256"] != entry["sha256"][str(seed)]:
                    print(f"  {name} seed {seed}: outputs differ between sets")
                    flagged += 1
            per_set = {}
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in results[name, k]]
                median, q1, q3, rel = spread(values)
                flag = name in gated and rel >= metric["bound"] / 3
                flagged += flag
                per_set[metric["name"]] = {
                    "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                    "spread": rel, "bound": metric["bound"], "values": values,
                }
                print(f"  set {k + 1} {name} {metric['name']}: median {median:.4g} {metric['unit']}"
                      f"  spread {rel:.3f} (bound {metric['bound']}, a third "
                      f"{metric['bound'] / 3:.3f})" + ("  ABOVE A THIRD OF THE BOUND" if flag else ""),
                      flush=True)
                if k:
                    first = entry["sets"][0][metric["name"]]["median"]
                    worse = (median - first) / first
                    worse = -worse if metric["better"] == "higher" else worse
                    flag = name in gated and worse > metric["bound"] / 3
                    flagged += flag
                    print(f"  set {k + 1} {name} {metric['name']}: {worse:+.3f} worse than set 1"
                          + ("  ABOVE A THIRD OF THE BOUND" if flag else ""), flush=True)
            entry["sets"].append(per_set)

        traced = [run(name, seed, seconds, 1) for seed in parse_seeds(args.trace_seeds)]
        layers = {m["name"]: statistics.median(t["metrics"][m["name"]]["value"] for t in traced)
                  for m in spec["per_layer"]}
        wall = layers["trace.wall_s"]
        shares = {key: layers[key] / wall for key in SELF_TIMES}
        entry["per_layer"] = layers
        entry["self_time_shares"] = shares
        entry["dominant"] = max(shares, key=shares.get)
        print(f"  {name} traced: " + "  ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])[:4]),
            flush=True)
        summary["workloads"][name] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"{flagged} figure(s) at or above a third of the bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
