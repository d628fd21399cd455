"""Record the benchmark trajectory into a versioned JSON file.

``make bench-record`` (or ``PYTHONPATH=src python scripts/bench_record.py``)
runs the E5 throughput measurement (generated parser and parsing machine,
all optimizations, per-grammar seeded corpora), the E3 cumulative
optimization ladder on the Jay corpus, the E11 real-Python corpus
throughput (every backend over ``examples/python/``), and the E12
incremental-reparse ratio (warm edit reparse vs cold parse on the parsing
machine's incremental sessions, Jay and real-Python buffers, on renames
and on the rejecting steps of line retypes), and *appends* one
record to ``BENCH_5.json``.  ``--backends`` restricts which backends the
E5/E11 sections measure (e.g. ``--backends vm`` for a machine-only
record).  Each record
carries enough provenance (machine, Python, options fingerprint, pipeline
version) that later PRs can diff performance against earlier ones instead
of re-deriving a baseline.  See docs/testing.md for the format.

The measured corpora are seeded and fixed-size, matching the fixtures in
``benchmarks/conftest.py`` where one exists, so numbers are comparable
across runs on the same machine.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.codegen import generate_parser_source, load_parser
from repro.difftest.generator import SentenceGenerator
from repro.optim import Options, prepare
from repro.optim.pipeline import PIPELINE_VERSION
from repro.workloads import (
    generate_c_program,
    generate_jay_program,
    generate_json_document,
    load_corpus,
    python_layout,
)
from repro.workloads.pycorpus import ALLOWLIST

#: Bump when the record layout changes.
SCHEMA_VERSION = 1

#: Backends the E5/E11 sections can measure; ``--backends`` selects a subset.
E5_BACKENDS = ("generated", "vm")
E11_BACKENDS = ("interpreter", "generated", "vm")

#: Grammars measured by the E5 record, with their seeded corpora.
def _sentences(root: str, count: int, seed: int) -> list[str]:
    """``count`` seeded *valid* sentences of ``root`` (derivation candidates
    that the reference parser rejects are skipped, as in the fuzz harness)."""
    grammar = repro.load_grammar(root)
    prepared = prepare(grammar, Options.none(), check=False)
    generator = SentenceGenerator(prepared.grammar, random.Random(seed), max_length=600)
    language = repro.compile_grammar(grammar, cache=False)
    sentences: list[str] = []
    attempts = 0
    while len(sentences) < count and attempts < count * 20:
        attempts += 1
        sentence = generator.generate()
        if language.recognize(sentence):
            sentences.append(sentence)
    if len(sentences) < count:
        raise RuntimeError(f"{root}: only {len(sentences)}/{count} valid sentences")
    return sentences


def corpora() -> dict[str, list[str]]:
    return {
        "calc.Calculator": _sentences("calc.Calculator", 120, 7),
        "json.Json": [generate_json_document(size=150, seed=s) for s in (66, 77)],
        "jay.Jay": [generate_jay_program(size=14, seed=s) for s in (11, 22, 33)],
        "xc.XC": [generate_c_program(size=12, seed=s) for s in (44, 55)],
        "ml.ML": _sentences("ml.ML", 120, 9),
    }


def _compiled(grammar, options: Options):
    prepared = prepare(grammar, options)
    return load_parser(generate_parser_source(prepared))


def _best_of(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_e5(repeat: int, backends: tuple[str, ...] = E5_BACKENDS) -> dict[str, dict]:
    """Per-grammar chars/sec of the selected backends over the optimized
    grammar.  The generated parser keeps its historical top-level keys
    (``seconds``/``chars_per_sec``); other backends land under
    ``backends.<name>`` so earlier records diff cleanly."""
    results: dict[str, dict] = {}
    for root, corpus in corpora().items():
        grammar = repro.load_grammar(root)
        prepared = prepare(grammar, Options.all())
        chars = sum(len(text) for text in corpus)
        entry: dict = {"inputs": len(corpus), "chars": chars}
        if "generated" in backends:
            parser_cls = load_parser(generate_parser_source(prepared))
            for text in corpus:  # correctness before timing
                parser_cls(text).parse()
            seconds = _best_of(lambda: [parser_cls(t).parse() for t in corpus], repeat)
            entry["seconds"] = round(seconds, 6)
            entry["chars_per_sec"] = round(chars / seconds)
        if "vm" in backends:
            from repro.vm import VMParser, compile_program

            vm = VMParser(compile_program(prepared))
            for text in corpus:
                vm.reset(text).parse()
            seconds = _best_of(lambda: [vm.reset(t).parse() for t in corpus], repeat)
            entry.setdefault("backends", {})["vm"] = {
                "seconds": round(seconds, 6),
                "chars_per_sec": round(chars / seconds),
            }
        results[root] = entry
    return results


def measure_e3(repeat: int) -> dict[str, int]:
    """Chars/sec at every rung of the cumulative ladder (Jay corpus)."""
    corpus = [generate_jay_program(size=14, seed=s) for s in (11, 22, 33)]
    chars = sum(len(text) for text in corpus)
    grammar = repro.load_grammar("jay.Jay")
    ladder: dict[str, int] = {}
    for label, options in Options.cumulative():
        parser_cls = _compiled(grammar, options)
        seconds = _best_of(lambda: [parser_cls(t).parse() for t in corpus], repeat)
        ladder[label] = round(chars / seconds)
    return ladder


def measure_e11(repeat: int, backends: tuple[str, ...] = E11_BACKENDS) -> dict[str, dict]:
    """Real-Python corpus bytes/sec per backend (layout pre-pass included)."""
    from repro.interp import PackratInterpreter
    from repro.optim import prepare as optim_prepare

    sys.setrecursionlimit(100_000)  # the interpreter is stack-hungry
    files, _ = load_corpus()
    texts = [cf.text for cf in files if cf.name not in ALLOWLIST]
    nbytes = sum(cf.nbytes for cf in files if cf.name not in ALLOWLIST)

    grammar = repro.load_grammar("python.Python")
    full = optim_prepare(grammar, Options.all(), check=False)
    language = repro.compile_grammar(grammar)
    available = {
        "interpreter": lambda: PackratInterpreter(full.grammar, chunked=True).parse,
        "vm": lambda: language.session(backend="vm").parse,
        "generated": lambda: language.session().parse,
    }
    measured = {name: make() for name, make in available.items() if name in backends}
    results: dict[str, dict] = {}
    for name, parse in measured.items():
        seconds = _best_of(
            lambda parse=parse: [parse(python_layout(t)) for t in texts],
            repeat if name != "interpreter" else 1,
        )
        results[name] = {
            "files": len(texts),
            "bytes": nbytes,
            "seconds": round(seconds, 6),
            "bytes_per_sec": round(nbytes / seconds),
        }
    return results


#: Lines retyped by the E12 retype rows (one ``retype_edits`` script each).
E12_RETYPES = 4


def _cold_parser(language):
    """``parse(text)``: one from-scratch pass of the incremental program a
    session runs, without the session's reject handling."""
    from repro.vm import VMParser

    parser = VMParser(language.vm_program(incremental=True))
    return lambda text: parser.reset(text).parse()


def _timed_parse(parse, *args) -> tuple[float, bool]:
    start = time.perf_counter()
    try:
        parse(*args)
    except repro.ParseError:
        return time.perf_counter() - start, False
    return time.perf_counter() - start, True


def _e12_row(language, text: str, edits: list, rejects: bool) -> dict:
    """Warm and cold seconds over ``edits``: every step, or with ``rejects``
    only the steps whose buffer does not parse.  The figures sit under
    ``backends.vm``, the layout of earlier records."""
    warm = language.incremental()
    warm.set_text(text)
    warm.parse()
    cold = _cold_parser(language)
    current = text
    warm_s = cold_s = 0.0
    count = 0
    for edit in edits:
        warm.apply_edit(edit.offset, edit.removed, edit.inserted)
        current = edit.apply(current)
        warm_step, accepted = _timed_parse(warm.parse)
        if rejects and accepted:
            continue
        warm_s += warm_step
        cold_s += _timed_parse(cold, current)[0]
        count += 1
    vm = {
        "warm_seconds": round(warm_s, 6),
        "cold_seconds": round(cold_s, 6),
        "speedup": round(cold_s / warm_s, 2),
    }
    return {"chars": len(text), "edits": count, "backends": {"vm": vm}}


def measure_e12(edits: int = 8) -> dict[str, dict]:
    """Warm-vs-cold incremental reparse ratio (see benchmark E12) over a
    Jay program and a layouted real-Python stdlib source: a seeded
    identifier-rename script, and (``… retype`` rows) the rejecting steps
    of seeded line retypes.  ``speedup`` is total cold seconds over
    total warm seconds; cold is one from-scratch pass of the same
    incremental program."""
    from repro.workloads.pyedits import corpus_texts, rename_edits, retype_edits

    buffers = {
        "jay.Jay": (
            repro.compile_grammar("jay.Jay"),
            generate_jay_program(size=14, seed=11),
        ),
    }
    python_corpus = corpus_texts(limit=1, max_chars=40_000)
    if python_corpus:
        [(name, text)] = python_corpus
        buffers[f"python.Python ({name})"] = (repro.compile_grammar("python.Python"), text)

    results: dict[str, dict] = {}
    for key, (language, text) in buffers.items():
        renames = list(rename_edits(text, random.Random(5), edits))
        results[key] = _e12_row(language, text, renames, rejects=False)
        rng = random.Random(5)
        retypes = [e for _ in range(E12_RETYPES) for e in retype_edits(text, rng)]
        results[f"{key} retype"] = _e12_row(language, text, retypes, rejects=True)
    return results


def build_record(label: str, repeat: int, backends: tuple[str, ...] | None = None) -> dict:
    e5_backends = tuple(b for b in E5_BACKENDS if backends is None or b in backends)
    e11_backends = tuple(b for b in E11_BACKENDS if backends is None or b in backends)
    return {
        "label": label,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "options": Options.all().cache_key(),
        "pipeline_version": PIPELINE_VERSION,
        "e5": measure_e5(repeat, e5_backends),
        "e3_cumulative": measure_e3(repeat),
        "e11_python_corpus": measure_e11(repeat, e11_backends),
        "e12_incremental": measure_e12(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_record", description="Append a benchmark record to BENCH_5.json."
    )
    parser.add_argument("--label", default="run", help="record label (e.g. a PR name)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_5.json"),
        help="record file to append to",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--backends", metavar="NAME[,NAME…]",
        help="restrict the E5/E11 sections to a backend subset "
        f"(known: {', '.join(sorted(set(E5_BACKENDS) | set(E11_BACKENDS)))})",
    )
    args = parser.parse_args(argv)

    backends = None
    if args.backends:
        backends = tuple(t.strip() for t in args.backends.split(",") if t.strip())
        known = set(E5_BACKENDS) | set(E11_BACKENDS)
        unknown = [t for t in backends if t not in known]
        if unknown:
            print(f"error: unknown backend(s) {unknown}; known: {sorted(known)}", file=sys.stderr)
            return 1

    record = build_record(args.label, args.repeat, backends)

    output = Path(args.output)
    if output.exists():
        data = json.loads(output.read_text())
        if data.get("schema") != SCHEMA_VERSION:
            print(
                f"error: {output} has schema {data.get('schema')}, "
                f"expected {SCHEMA_VERSION}",
                file=sys.stderr,
            )
            return 1
    else:
        data = {"schema": SCHEMA_VERSION, "records": []}
    data["records"].append(record)
    output.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n")

    print(f"recorded {args.label!r} -> {output}")
    for root, row in record["e5"].items():
        if "chars_per_sec" in row:
            print(f"  {root}: {row['chars_per_sec']:,} chars/s ({row['chars']} chars)")
        for backend, sub in row.get("backends", {}).items():
            print(f"  {root}/{backend}: {sub['chars_per_sec']:,} chars/s")
    for backend, row in record["e11_python_corpus"].items():
        print(
            f"  python-corpus/{backend}: {row['bytes_per_sec']:,} bytes/s "
            f"({row['files']} files)"
        )
    for key, row in record.get("e12_incremental", {}).items():
        for backend, sub in row["backends"].items():
            print(
                f"  incremental/{key}/{backend}: {sub['speedup']}x warm-vs-cold "
                f"({row['edits']} edits over {row['chars']} chars)"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
