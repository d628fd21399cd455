"""``repro-fuzz`` — seeded differential fuzzing across parser backends.

Usage::

    repro-fuzz                      # calc, json, jay; 200+200 inputs each
    repro-fuzz calc json jay -n 500 --mutated 500 --seed 42 --strict
    repro-fuzz ml.ML --start Program --path grammars/
    repro-fuzz jay --backtracking   # include the exponential naive backend
    repro-fuzz jay --backends vm,codegen-all   # fuzz a backend subset
    repro-fuzz jay --edits 6        # incremental edit scripts, warm vs cold

Grammars may be short keys (``calc``, ``json``, ``jay``, …, resolved via
:data:`repro.grammars.ROOTS`) or qualified module names.  Every run is
fully determined by ``--seed``; a reported counterexample is printed both
raw and shrunk, together with a ready-to-paste regression test.

Exit status: 0 when every backend agreed on every input; 1 on any
disagreement; 2 under ``--strict`` when the sentence generator's accepted
ratio fell below ``--min-valid`` (a vacuity guard: fuzzing that never
reaches the accept path proves nothing about AST agreement).
"""

from __future__ import annotations

import argparse
import sys

from repro.difftest.runner import fuzz_edits, fuzz_grammar
from repro.errors import ReproError
from repro.grammars import ROOTS

_DEFAULT_GRAMMARS = ["calc", "json", "jay"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Differential fuzzing: all parser backends must agree on every input.",
    )
    parser.add_argument(
        "grammars",
        nargs="*",
        default=_DEFAULT_GRAMMARS,
        help="grammar keys (calc, json, jay, xc, ml, sql) or qualified roots "
        "(default: calc json jay)",
    )
    parser.add_argument(
        "--path", action="append", dest="paths", metavar="DIR",
        help="additional directory to search for .mg modules (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    parser.add_argument(
        "-n", "--generated", type=int, default=200, metavar="N",
        help="grammar-derived sentences per grammar (default 200)",
    )
    parser.add_argument(
        "--mutated", type=int, default=200, metavar="N",
        help="corrupted sentences per grammar (default 200)",
    )
    parser.add_argument(
        "--max-depth", type=int, default=24,
        help="derivation depth budget for the sentence generator",
    )
    parser.add_argument("--start", help="override the start production")
    parser.add_argument(
        "--backtracking", action="store_true",
        help="also run the naive backtracking interpreter (can be exponential)",
    )
    parser.add_argument(
        "--backends", metavar="NAME[,NAME…]",
        help="restrict to a backend subset, comma-separated (e.g. vm,"
        "codegen-all; 'codegen' selects every codegen variant; the reference "
        "interpreter is always kept; not with --edits)",
    )
    parser.add_argument(
        "--edits", type=int, default=None, metavar="N",
        help="edit-script mode: replay N-edit seeded scripts per generated "
        "sentence through incremental sessions; after every edit the warm "
        "reparse must be bit-identical to a cold parse (-n counts scripts; "
        "see docs/incremental.md)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="additionally fail when the generator's accepted ratio is below --min-valid",
    )
    parser.add_argument(
        "--min-valid", type=float, default=0.6, metavar="RATIO",
        help="minimum accepted ratio of generated sentences under --strict (default 0.6)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.backends and args.edits is not None:
        print("error: --edits takes no --backends (one incremental engine)", file=sys.stderr)
        return 1
    backends = None
    if args.backends:
        backends = [token.strip() for token in args.backends.split(",") if token.strip()]
    failures = 0
    vacuous = 0
    for name in args.grammars:
        root = ROOTS.get(name, name)
        if args.edits is not None:
            try:
                report = fuzz_edits(
                    root,
                    seed=args.seed,
                    scripts=args.generated,
                    edits_per_script=args.edits,
                    max_depth=args.max_depth,
                    start=args.start,
                    paths=args.paths,
                )
            except (ReproError, ValueError) as exc:
                print(f"error: {root}: {exc}", file=sys.stderr)
                return 1
            print(report.summary())
            for example in report.counterexamples:
                failures += 1
                print(f"\n--- edit counterexample ({root}) ---")
                print(f"text: {example.text!r}")
                print(f"original script ({len(example.original)} edits): {example.original!r}")
                print(f"shrunk script   ({len(example.shrunk)} edits): {example.shrunk!r}")
                print(example.disagreement.describe())
                print("regression test:\n")
                print(example.regression_test)
            print(
                f"reproduce with: repro-fuzz {name} --seed {args.seed} "
                f"-n {args.generated} --edits {args.edits}"
            )
            continue
        try:
            report = fuzz_grammar(
                root,
                seed=args.seed,
                generated=args.generated,
                mutated=args.mutated,
                max_depth=args.max_depth,
                start=args.start,
                backtracking=args.backtracking,
                paths=args.paths,
                backends=backends,
            )
        except (ReproError, ValueError) as exc:
            print(f"error: {root}: {exc}", file=sys.stderr)
            return 1
        print(report.summary())
        for example in report.counterexamples:
            failures += 1
            print(f"\n--- counterexample ({root}) ---")
            print(f"original ({len(example.original)} chars): {example.original!r}")
            print(f"shrunk   ({len(example.shrunk)} chars): {example.shrunk!r}")
            print(example.disagreement.describe())
            print("regression test:\n")
            print(example.regression_test)
        if args.strict and report.valid_ratio < args.min_valid:
            vacuous += 1
            print(
                f"strict: {root} accepted ratio {report.valid_ratio:.0%} "
                f"< {args.min_valid:.0%}",
                file=sys.stderr,
            )
        print(f"reproduce with: repro-fuzz {name} --seed {args.seed} -n {args.generated} --mutated {args.mutated}")
    if failures:
        return 1
    if vacuous:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
