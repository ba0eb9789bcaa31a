#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size on two seeds, untraced and traced, and
checks that each run passes its output checks and prints every metric of
BENCHMARK.json by name with its unit and direction, ending in the result
line the benchmark contract asks for. It also checks that the benchmark
refuses to run without the program's sources, that tracing fails loudly
when a traced function disappears or a layer records no span, that an
output check that raises counts as a failed iteration, that the host-speed
probe samples, and that no run leaves files behind. Exits 1 when any check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import REPORTED, ROOT, WORKLOAD_NAMES, declared_metrics

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEEDS = (1, 2)

problems: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def run_one(workload: str, seed: int, trace: int) -> None:
    label = f"{workload} seed {seed} trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{label}: last line is not JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0,
          f"{label}: not correct: {lines[:-1]}")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          f"{label}: attempted {result.get('attempted')}")
    declared = declared_metrics(bool(trace))
    expected = declared if trace else {**declared, **REPORTED}
    metrics = result.get("metrics", {})
    for name, (unit, better) in expected.items():
        if name in declared:
            entry = metrics.get(name)
            check(isinstance(entry, dict) and entry.get("unit") == unit
                  and isinstance(entry.get("value"), (int, float)),
                  f"{label}: metric {name} missing or malformed in result: {entry}")
        shown = [line.split() for line in lines[:-1]]
        check(any(row[:1] == [name] and row[-4:] == [unit, better, "is", "better"]
                  for row in shown),
              f"{label}: {name} not printed with unit {unit} and direction {better}")
    check(any(line.strip().startswith("output sha256 ") for line in lines),
          f"{label}: no output sha256 line")


def bare_directory_fails() -> None:
    """Holding only BENCHMARK.json and perfbench/, the benchmark must refuse."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cv-grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0, "bare directory: benchmark exited 0")
    check('"correct"' not in proc.stdout, "bare directory: benchmark printed a result")


def tracing_fails_loudly() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import bridgekit.cli as cli
    from tracing import TraceError, Tracer

    saved = cli.cross_validate
    del cli.cross_validate
    try:
        with Tracer():
            problems.append("tracing: a missing traced function was not reported")
    except TraceError:
        pass
    finally:
        cli.cross_validate = saved
    check(cli.read_documents.__module__ == "bridgekit.ingest",
          "tracing: wrappers were not removed after a failed start")

    with Tracer() as tracer:
        try:
            tracer.metrics(1.0, ("evaluation.cv",), ROOT / "perfbench")
            problems.append("tracing: a layer without spans was not reported")
        except TraceError:
            pass


def failed_checks_are_counted() -> None:
    """An output check that raises fails its iteration; it does not stop the run."""
    from run import Runner

    class Broken:
        def reset(self, workdir):
            pass

        def operations(self):
            return [["noop"]]

        def check(self, workdir):
            raise KeyError("metrics")

    runner = Runner(Broken(), ROOT, lambda argv: (0, ""))
    runner.once()
    check(runner.attempted == 1 and len(runner.failures) == 1
          and "KeyError" in runner.failures[0],
          f"a raising output check was not counted as a failure: {runner.failures}")


def probe_samples_host_speed() -> None:
    import hostspeed

    probe = hostspeed.Probe()
    probe.start()
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        pass
    probe.stop()
    check(len(probe.samples) >= 5, f"host-speed probe took {len(probe.samples)} samples in 0.3 s")
    check(0 < hostspeed.scale(0.3, probe.samples), "host-speed scaling is not positive")


def main() -> int:
    for workload in WORKLOAD_NAMES:
        for seed in SEEDS:
            run_one(workload, seed, 0)
        run_one(workload, SEEDS[0], 1)
    bare_directory_fails()
    tracing_fails_loudly()
    failed_checks_are_counted()
    probe_samples_host_speed()
    check(not (ROOT / ".perfbench_tmp").exists(), "a run left .perfbench_tmp behind")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
