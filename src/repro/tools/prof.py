"""``repro-prof`` — parse-time profiling and grammar-coverage reporting.

Usage::

    repro-prof calc                       # 50 generated sentences, all backends
    repro-prof examples/jay --json        # corpus directory (basename = grammar)
    repro-prof jay prog1.jay prog2.jay    # explicit input files
    repro-prof calc --text '1+2*3' --backend interp --top 10
    repro-prof json --generate 200 --seed 7 --min-coverage 0.9

The target is a grammar key (``calc``, ``json``, ``jay``, …), a qualified
root module (``jay.Jay``), or a **corpus directory** whose basename is the
grammar key and whose files are the inputs (e.g. ``examples/jay``).  When
no inputs are given, a seeded corpus is derived from the grammar with the
differential-fuzz sentence generator, so every run is reproducible.

Each selected backend (default: all three — interpreter, parsing machine,
generated parser) parses the whole corpus under instrumentation and prints
a hotspot table: per-production invocations, memo hit rates, backtracks,
wasted characters, farthest-failure contributions, and the per-alternative
coverage summary with an uncovered-alternative listing.  ``--json`` emits
the same reports as one machine-readable document (see
``docs/profiling.md`` for the schema).

Exit status: 0 on success; 1 on errors; 2 when ``--min-coverage`` is given
and any backend's succeeded-alternative coverage falls below it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from repro.difftest.generator import SentenceGenerator
from repro.errors import ReproError
from repro.meta import ModuleLoader
from repro.modules import compose
from repro.optim import Options
from repro.profile import (
    BACKENDS,
    format_report,
    profile_corpus,
    profile_edits,
    resolve_root,
)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-prof",
        description="Profile a parse corpus: hotspots, memo telemetry, grammar coverage.",
    )
    parser.add_argument(
        "target",
        help="grammar key (calc, json, jay, xc, ml, sql), qualified root "
        "(jay.Jay), or a corpus directory named after the grammar (examples/jay)",
    )
    parser.add_argument(
        "inputs", nargs="*", metavar="FILE",
        help="input files to parse (default: corpus directory files, else "
        "--generate sentences)",
    )
    parser.add_argument(
        "--text", action="append", default=[], metavar="TEXT",
        help="inline input text (repeatable)",
    )
    parser.add_argument(
        "--generate", type=int, default=None, metavar="N",
        help="derive N sentences from the grammar (default 50 when no other inputs)",
    )
    parser.add_argument("--seed", type=int, default=0, help="sentence-generator seed (default 0)")
    parser.add_argument(
        "--max-depth", type=int, default=24,
        help="derivation depth budget for generated sentences",
    )
    parser.add_argument(
        "--backend", choices=(*BACKENDS, "all"), default="all",
        help="which backend to instrument (default: all; --edits always "
        "profiles the incremental vm session)",
    )
    parser.add_argument(
        "--edits", type=int, default=None, metavar="N",
        help="profile incremental reparsing instead: apply N seeded random "
        "edits per input through an incremental session and report memo "
        "entries reused vs invalidated vs shifted (see docs/incremental.md)",
    )
    parser.add_argument(
        "--edit-seed", type=int, default=0,
        help="edit-script seed for --edits (default 0)",
    )
    parser.add_argument(
        "--path", action="append", dest="paths", metavar="DIR",
        help="additional directory to search for .mg modules (repeatable)",
    )
    parser.add_argument("--start", help="override the start production")
    parser.add_argument(
        "-O", "--optimized", action="store_true",
        help="profile the fully optimized pipeline instead of the leftrec-only "
        "grammar (hotspots shift to fused scans and optimized loops; coverage "
        "then reports optimized alternatives, not source alternatives)",
    )
    parser.add_argument("--top", type=int, default=20, help="hotspot table rows (default 20)")
    parser.add_argument("--json", action="store_true", dest="as_json", help="emit JSON")
    parser.add_argument(
        "--output", metavar="FILE", help="write the report there instead of stdout"
    )
    parser.add_argument(
        "--min-coverage", type=float, default=None, metavar="RATIO",
        help="exit 2 when succeeded-alternative coverage is below RATIO (e.g. 0.9)",
    )
    return parser


def _resolve_target(target: str) -> tuple[str, list[Path]]:
    """``(root, corpus files)`` for a grammar key or corpus directory."""
    path = Path(target)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        return resolve_root(path.name), files
    return resolve_root(target), []


def _load_corpus(args: argparse.Namespace, grammar) -> list[str]:
    texts: list[str] = []
    root, dir_files = _resolve_target(args.target)
    for name in args.inputs:
        texts.append(Path(name).read_text())
    if not args.inputs:
        for path in dir_files:
            texts.append(path.read_text())
    texts.extend(args.text)
    generate = args.generate
    if generate is None and not texts:
        generate = 50
    if generate:
        rng = random.Random(args.seed)
        generator = SentenceGenerator(grammar, rng, max_depth=args.max_depth)
        for _ in range(generate):
            texts.append(generator.generate())
    return texts


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    root, _ = _resolve_target(args.target)
    try:
        loader = ModuleLoader(paths=args.paths)
        grammar = compose(root, loader, start=args.start)
        texts = _load_corpus(args, grammar)
        options = Options.all() if args.optimized else None
        if args.edits is not None:
            if args.backend not in ("all", "vm"):
                print(
                    f"error: --edits profiles the incremental vm session; "
                    f"got --backend {args.backend}",
                    file=sys.stderr,
                )
                return 1
            reports = [
                profile_edits(
                    grammar, texts, edits=args.edits,
                    seed=args.edit_seed, grammar_name=root, options=options,
                )
            ]
        else:
            backends = list(BACKENDS) if args.backend == "all" else [args.backend]
            reports = [
                profile_corpus(grammar, texts, backend, grammar_name=root, options=options)
                for backend in backends
            ]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {root}: {exc}", file=sys.stderr)
        return 1

    if args.as_json:
        document = json.dumps({"reports": [r.to_json() for r in reports]}, indent=2)
    else:
        document = "\n\n".join(format_report(r, top=args.top) for r in reports)
    if args.output:
        Path(args.output).write_text(document + "\n")
        print(f"wrote {args.output}")
    else:
        print(document)

    if args.min_coverage is not None:
        low = [r for r in reports if r.coverage_ratio() < args.min_coverage]
        for report in low:
            print(
                f"coverage below threshold: {report.backend} "
                f"{report.coverage_ratio():.1%} < {args.min_coverage:.1%}",
                file=sys.stderr,
            )
        if low:
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
