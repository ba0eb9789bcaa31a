#!/usr/bin/env python3
"""bridgekit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cv-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the program is imported from
`src/`. Each workload is a closed loop with one client: one process runs
the workload's batch job (one or more `bridgekit` CLI invocations, in this
process) back to back until `--seconds` have passed, and at least twice, so
that the outputs of two iterations can be compared byte for byte.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are reported:
median wall and CPU time per iteration, the process's peak resident
memory, and the median of five set-ups. Each set-up is a separate
process that imports bridgekit and writes the inputs (for score-model it
also trains the model it scores), so set-up memory stays out of the peak.
The three times are scaled to a reference host speed (see hostspeed.py),
because the hosts this runs on change speed by tens of percent from one
minute to the next; the raw medians are printed alongside. With
`--trace 1` untraced and traced iterations alternate (see tracing.py),
and the per-layer metrics are reported: raw times as medians over the
traced iterations, counts as they repeat in every one of them, and the
tracing overhead as the median difference between a traced iteration and
the untraced one before it.

BENCHMARK.json gates cv-grid, long-docs and corpus-convert. score-model
runs the same way but is left out of the gated set, so that the gated runs
fit their time budget with runs long enough to be steady on a noisy host.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. An
iteration is one attempted operation; it fails when an invocation exits
non-zero or raises, or when its output checks fail. The process exits 1
when any iteration failed, and 2 without a result when it cannot run.
"""
from __future__ import annotations

import os
import sys
import time

# Pin native thread pools to one thread before numpy is imported, and keep
# the output directory from the environment out of the runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BRIDGEKIT_OUTPUT_DIR", None)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("cv-grid", "long-docs", "score-model", "corpus-convert")

# Reported alongside the gated metrics of BENCHMARK.json but not gated: the
# error rate is 0 when the run is correct, and F1 exists only on the
# workloads that score a model. Output checks enforce their floors.
REPORTED = {
    "error_rate": ("ratio", "lower"),
    "f1_in_domain": ("ratio", "higher"),
    "f1_cross_domain": ("ratio", "higher"),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace: bool) -> dict[str, tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """Runs and checks a workload's iterations in one working directory."""

    def __init__(self, workload, workdir: Path, invoke):
        self.workload = workload
        self.invoke = invoke
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.f1: dict[str, float] = {}

    def once(self, tracer=None, probe=None) -> dict:
        """One iteration: its raw wall and CPU time, scaled ones when a probe
        samples the host's speed, or its per-layer metrics when traced."""
        self.workload.reset(self.workdir)
        if tracer is not None:
            tracer.reset()
        errors = []
        if probe is not None:
            probe.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in self.workload.operations():
            code, err = self.invoke(argv)
            if code != 0:
                errors.append(f"{argv[0]} exited with {code}: {err.strip()}")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        result = {"raw_wall_s": wall, "raw_cpu_s": cpu}
        if probe is not None:
            probe.stop()
            result.update(wall_s=hostspeed.scale(wall, probe.samples),
                          cpu_s=hostspeed.scale(cpu, probe.samples),
                          loop_s=hostspeed.loop_s(probe.samples))
        if not errors:
            errors = self.check()
        if tracer is not None and not errors:
            result = tracer.metrics(wall, self.workload.expected_spans, self.workdir / "out")
        self.attempted += 1
        if errors:
            self.failures.append(f"iteration {self.attempted}: " + "; ".join(errors))
        return result

    def check(self) -> list[str]:
        try:
            outcome = self.workload.check(self.workdir)
        except Exception as exc:
            return [f"output check raised {type(exc).__name__}: {exc}"]
        for key in ("f1_in_domain", "f1_cross_domain"):
            if getattr(outcome, key) is not None:
                self.f1[key] = getattr(outcome, key)
        if outcome.failures:
            return outcome.failures
        if self.digest is None:
            self.digest = outcome.digest
        elif outcome.digest != self.digest:
            return ["outputs differ between iterations of one invocation"]
        return []


def layer_metrics(traced: list[dict], spec: dict, runner: Runner) -> dict[str, float]:
    """Median of each time over the traced iterations; counts must repeat exactly."""
    metrics = {}
    for name, first in traced[0].items():
        values = [t[name] for t in traced]
        if spec[name][0] == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = first
            if any(v != first for v in values):
                runner.failures.append(f"{name} differs between traced iterations: {values}")
    return metrics


def import_program() -> None:
    if not (SRC / "bridgekit" / "__init__.py").is_file():
        fail(f"no bridgekit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def setup_only(args) -> int:
    """Write the workload's inputs into --setup-dir (the set-up child process)
    and print, as JSON, the host-speed samples taken meanwhile."""
    probe = hostspeed.Probe()
    probe.start()
    import_program()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.size).setup(Path(args.setup_dir))
    probe.stop()
    print(json.dumps(probe.samples))
    return 0


def set_up(args, base: Path) -> tuple[Path, list[float], list[float]]:
    """Set the workload up SETUP_REPEATS times, each in a fresh process, so
    that imports count and the set-up's memory stays out of this process.
    Returns the first working directory and the raw and scaled set-up times."""
    raw, scaled = [], []
    for i in range(SETUP_REPEATS):
        workdir = base / f"setup{i}"
        workdir.mkdir()
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--size", args.size, "--setup-dir", str(workdir)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=workdir, capture_output=True, text=True)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up exited with {proc.returncode}:\n{proc.stderr}")
        scaled.append(hostspeed.scale(raw[-1], json.loads(proc.stdout.splitlines()[-1])))
        if i:
            shutil.rmtree(workdir)
    return base / "setup0", raw, scaled


def run_workload(args) -> int:
    import_program()
    from tracing import TraceError, Tracer
    from workloads import WORKLOADS, quiet_cli

    metrics_spec = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, args.size)

    TMP_ROOT.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_ROOT))
    here = Path.cwd()
    try:
        workdir, raw_setup, setup = set_up(args, base)
        os.chdir(workdir)
        runner = Runner(workload, workdir, quiet_cli)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            pairs = []
            while not pairs or time.perf_counter() < deadline:
                plain = runner.once()
                with Tracer() as tracer:
                    pairs.append((plain, runner.once(tracer)))
            metrics = {}
            if not runner.failures:
                metrics = layer_metrics([t for _, t in pairs], metrics_spec, runner)
                metrics["trace.overhead_s"] = statistics.median(
                    t["trace.wall_s"] - p["raw_wall_s"] for p, t in pairs)
        else:
            # The first iteration warms caches up; it is checked but not timed.
            probe = hostspeed.Probe()
            runner.once()
            timed = []
            while len(timed) < 2 or time.perf_counter() < deadline:
                timed.append(runner.once(probe=probe))
            metrics = {
                "wall_s": statistics.median(t["wall_s"] for t in timed),
                "cpu_s": statistics.median(t["cpu_s"] for t in timed),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setup),
            }
            raw = {
                "raw wall_s": statistics.median(t["raw_wall_s"] for t in timed),
                "raw cpu_s": statistics.median(t["raw_cpu_s"] for t in timed),
                "raw setup_s": statistics.median(raw_setup),
                "host loop / reference": statistics.median(t["loop_s"] for t in timed)
                / hostspeed.REFERENCE_S,
            }
    except TraceError as exc:
        fail(f"trace: {exc}")
    finally:
        os.chdir(here)
        shutil.rmtree(base, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    failed = len(runner.failures)
    correct = failed == 0
    if correct and set(metrics) != set(metrics_spec):
        fail(f"metrics {sorted(set(metrics) ^ set(metrics_spec))} do not match BENCHMARK.json")

    print(f"workload {workload.name}  seed {args.seed}  size {args.size}  "
          f"iterations {runner.attempted}  trace {args.trace}")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    rows = [(name, metrics.get(name), unit, better)
            for name, (unit, better) in metrics_spec.items()]
    if not args.trace:
        reported = {"error_rate": failed / runner.attempted, **runner.f1}
        rows += [(name, reported.get(name), unit, better)
                 for name, (unit, better) in REPORTED.items()]
    for name, value, unit, better in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {unit:<8} {better} is better")
    if not args.trace:
        for name, value in raw.items():
            print(f"  ({name} {value:.6g})")
        print("  iteration wall_s " + " ".join(f"{t['wall_s']:.4f}" for t in timed))
    print(f"  output sha256 {runner.digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in metrics_spec.items() if name in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one process each, one after another."""
    from_here = [sys.executable, str(Path(__file__).resolve())]
    status = 0
    for name in WORKLOAD_NAMES:
        argv = from_here + ["--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--size", args.size]
        code = subprocess.run(argv, cwd=ROOT).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--setup-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_dir is not None:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
