#!/usr/bin/env python3
"""End-to-end cross-corpus experiment on two synthetic corpora.

Builds a bracket-dialect corpus and a standoff-dialect corpus that share the
same planted bridging rule (definite anaphor + same unified entity type +
short distance), runs the full pipeline on them, and prints the headline
numbers: per-corpus in/cross-domain F1, random baselines, and the
definiteness residual table.

    python scripts/run_synthetic_experiment.py --workspace /tmp/synth_exp
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bridgekit.cli import main as cli_main
from bridgekit.ingest import DIALECTS
from bridgekit.synth import planted_rule_corpus


def write_corpus(workspace: Path, name: str, dialect: str, docs: list) -> dict:
    """Write `docs` as `name`'s training and test files; return its config entry."""
    entry = {"name": name, "dialect": dialect}
    for part, chunk in (("train", docs[:9]), ("test", docs[9:])):
        file = f"{name}_{part}{DIALECTS[dialect].suffix}"
        (workspace / file).write_bytes(b"".join(map(DIALECTS[dialect].emit, chunk)))
        entry[part] = [file]
    return entry


def write_config(workspace: Path, seed: int) -> Path:
    corpora = [
        write_corpus(workspace, "bracketland", "bracket",
                     planted_rule_corpus(seed, n_docs=12, single_link_per_anaphor=True)),
        write_corpus(workspace, "standofflandia", "standoff",
                     planted_rule_corpus(seed + 1, n_docs=12, schema="arrau_like",
                                         surface_definiteness=True)),
    ]
    config = {
        "seed": seed,
        "output_dir": str(workspace / "runs"),
        "corpora": corpora,
        "grid": [
            {"n_rounds": 50, "max_depth": 3, "learning_rate": 0.3},
            {"n_rounds": 100, "max_depth": 4, "learning_rate": 0.3},
        ],
        "cv_folds": 3,
    }
    path = workspace / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def summarize(run_dir: Path) -> None:
    report = json.loads((run_dir / "report.json").read_text())
    names = sorted(report["metrics"])
    print(f"\nrun directory: {run_dir}")
    print("\npositive-class F1 (rows: model, columns: eval corpus)")
    header = "".join(f"{name:>16}" for name in names)
    print(f"{'':16}{header}{'baseline':>16}")
    for model_name in names:
        cells = "".join(
            f"{report['metrics'][model_name][corpus]['f1']:>16.3f}" for corpus in names
        )
        baseline = report["baselines"][model_name]["f1"]
        print(f"{model_name:<16}{cells}{baseline:>16.3f}")
    print("\ntop gain-importance features per corpus")
    for name in names:
        gain = report["importance"][name]["gain"]
        top = sorted(gain, key=gain.get, reverse=True)[:3]
        listed = ", ".join(f"{feat} ({gain[feat]:.2f})" for feat in top)
        print(f"  {name}: {listed}")
    print("\ndefiniteness residuals (rows def/ind, columns bridge/non-bridge)")
    for name in names:
        rows = report["residuals"][name]["residuals"]
        print(f"  {name}: {rows[0][0]:+.2f} {rows[0][1]:+.2f} / {rows[1][0]:+.2f} {rows[1][1]:+.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workspace", default="runs/synthetic_experiment")
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)

    workspace = Path(args.workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    config_path = write_config(workspace, args.seed)

    code = cli_main(["run", "--config", str(config_path)])
    if code != 0:
        return code

    run_dir = next((workspace / "runs").iterdir())
    summarize(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
