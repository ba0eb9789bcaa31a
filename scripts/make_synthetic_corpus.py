#!/usr/bin/env python3
"""Generate a synthetic corpus on disk in any supported dialect.

Examples:
    python scripts/make_synthetic_corpus.py --kind planted --seed 42 \
        --single-link --out corpora/planted.brk --dialect bracket
    python scripts/make_synthetic_corpus.py --kind planted --seed 200 \
        --schema arrau_like --surface-definiteness \
        --out corpora/planted.sff --dialect standoff
    python scripts/make_synthetic_corpus.py --kind random --n-docs 40 \
        --out corpora/mixed.jsonl
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bridgekit.errors import DialectViolationError
from bridgekit.ingest import DIALECTS
from bridgekit.synth import balanced_sampling_corpus, planted_rule_corpus, random_corpus


# The flags that apply to one --kind only; any other kind rejects them.
KIND_FLAGS = {
    "flavor": "random",
    "schema": "planted",
    "surface_definiteness": "planted",
    "single_link": "planted",
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build(args) -> list:
    if args.kind == "random":
        return random_corpus(args.seed, args.n_docs, flavor=args.flavor or "canonical")
    if args.kind == "sampling":
        return balanced_sampling_corpus(args.seed, n_docs=args.n_docs)
    return planted_rule_corpus(
        args.seed,
        n_docs=args.n_docs,
        schema=args.schema or "gum_like",
        surface_definiteness=args.surface_definiteness,
        single_link_per_anaphor=args.single_link,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=["random", "planted", "sampling"], default="planted")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n-docs", type=positive_int, default=24)
    parser.add_argument("--flavor", choices=["canonical", "gum_like", "arrau_like"],
                        help="schema flavor for --kind random (default canonical)")
    parser.add_argument("--schema", choices=["gum_like", "arrau_like"],
                        help="schema for --kind planted (default gum_like)")
    parser.add_argument("--surface-definiteness", action="store_true",
                        help="mark definites with a 'the' token instead of annotation "
                             "(--kind planted)")
    parser.add_argument("--single-link", action="store_true",
                        help="at most one bridging link per anaphor, bracket-compatible "
                             "(--kind planted)")
    parser.add_argument("--dialect", choices=sorted(DIALECTS), default="canonical")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    for name, kind in KIND_FLAGS.items():
        if getattr(args, name) and args.kind != kind:
            parser.error(f"--{name.replace('_', '-')} applies only to --kind {kind}")

    docs = build(args)
    # render before creating anything, so a corpus the dialect cannot carry
    # leaves no file or directory behind
    try:
        data = b"".join(map(DIALECTS[args.dialect].emit, docs))
    except DialectViolationError as exc:
        parser.error(f"--dialect {args.dialect}: {exc}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(data)
    print(f"wrote {len(docs)} documents to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
