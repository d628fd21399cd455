"""E12 — incremental reparsing: memo reuse vs. cold parse after an edit.

The incremental subsystem (``docs/incremental.md``) promises that an
editor-style token-level edit invalidates only the memo columns whose
examined spans overlap the damage, so a warm reparse costs work
proportional to the damage, not the buffer.  This experiment measures
that on the parsing machine's incremental sessions:

- **Jay**: a seeded generated program; the edit script is same-length
  identifier renames (:func:`repro.workloads.pyedits.rename_edits`), the
  canonical editor action.  Warm = ``apply_edit`` + ``parse`` on a live
  :class:`~repro.incremental.IncrementalSession`; cold = one from-scratch
  parse of the identical buffer by the same incremental program (so the
  comparison isolates memo reuse).
- **Real Python**: a layout-preprocessed stdlib source from
  ``examples/python/`` under the modular ``python.Python`` grammar —
  the at-scale version of the same measurement.
- **Retype rejects**: on both buffers, lines retyped one character at a
  time (:func:`repro.workloads.pyedits.retype_edits`) leave the buffer
  invalid at most steps; only those rejecting steps are timed.  A warm
  reject adds a second warm pass bounded by its farthest offset
  (``docs/incremental.md``), which must stay far cheaper than a cold
  parse for the floor to hold.

The acceptance bar — warm reparse >= 10x faster than cold, both
corpora, accepts and rejects — is the floor; the measured
ratios on the seeded corpora are well above it (the warm parse
re-derives only the damaged spine).  Correctness is not re-proven here
(the differential edit oracle in ``repro.difftest`` owns that); the runs
still assert the second pass never turned a warm reject into an accept.
"""

from __future__ import annotations

import random
import time

import repro
from repro.errors import ParseError
from repro.workloads.pyedits import corpus_texts, rename_edits, retype_edits

from bench_util import print_table

#: Acceptance floor: warm edit reparse at least this much faster than cold.
MIN_SPEEDUP = 10.0

#: Edits per measurement (each timed warm and cold; totals are compared).
EDITS = 8

#: Lines retyped per retype measurement (each one ``retype_edits`` script).
RETYPES = 4


def _cold_parser(language):
    """``parse(text)``: one from-scratch pass of the incremental program a
    session runs, without the session's reject handling."""
    from repro.vm import VMParser

    parser = VMParser(language.vm_program(incremental=True))
    return lambda text: parser.reset(text).parse()


def _timed_parse(parse, *args) -> tuple[float, bool]:
    """Seconds one ``parse(*args)`` took, and whether it accepted."""
    start = time.perf_counter()
    try:
        parse(*args)
    except ParseError:
        return time.perf_counter() - start, False
    return time.perf_counter() - start, True


def _measure(language, text: str, edits, *, rejects: bool = False) -> dict:
    """Total warm vs cold reparse seconds over one edit script: every step
    must accept, or with ``rejects`` only the rejecting steps count."""
    warm = language.incremental()
    warm.set_text(text)
    warm.parse()  # populate the memo table
    cold = _cold_parser(language)
    current = text
    warm_s = cold_s = 0.0
    count = 0
    for edit in edits:
        warm.apply_edit(edit.offset, edit.removed, edit.inserted)
        current = edit.apply(current)
        warm_step, accepted = _timed_parse(warm.parse)
        assert not warm.last_parse_recovered
        if rejects and accepted:
            continue
        assert accepted or rejects, f"step {edit} rejected"
        cold_step, cold_accepted = _timed_parse(cold, current)
        assert cold_accepted == accepted
        warm_s += warm_step
        cold_s += cold_step
        count += 1
    assert count > 0, "no step was timed"
    return {
        "edits": count,
        "chars": len(text),
        "warm_s": warm_s,
        "cold_s": cold_s,
        "speedup": cold_s / warm_s,
    }


def _report(title: str, row: dict) -> None:
    print_table(
        title,
        [
            {
                "chars": row["chars"],
                "edits": row["edits"],
                "warm (ms/edit)": f"{row['warm_s'] / row['edits'] * 1000:.3f}",
                "cold (ms/edit)": f"{row['cold_s'] / row['edits'] * 1000:.3f}",
                "speedup": f"{row['speedup']:.1f}x",
            }
        ],
        ["chars", "edits", "warm (ms/edit)", "cold (ms/edit)", "speedup"],
    )


def test_e12_jay_incremental_reparse(benchmark, jay_all):
    from repro.workloads import generate_jay_program

    text = generate_jay_program(size=14, seed=11)
    edits = list(rename_edits(text, random.Random(5), EDITS))
    row = _measure(jay_all, text, edits)
    _report(f"E12 — Jay ({len(text)} chars), token rename, warm vs cold", row)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"warm reparse only {row['speedup']:.1f}x over cold (floor {MIN_SPEEDUP}x)"
    )


def _retype_script(text: str) -> list:
    """RETYPES seeded retype scripts; each one ends at ``text`` again."""
    rng = random.Random(5)
    return [edit for _ in range(RETYPES) for edit in retype_edits(text, rng)]


def test_e12_retype_rejects(benchmark, jay_all):
    from repro.workloads import generate_jay_program

    python = repro.compile_grammar("python.Python")
    [(name, python_text)] = corpus_texts(limit=1, max_chars=40_000)
    buffers = [
        ("Jay", jay_all, generate_jay_program(size=14, seed=11)),
        (f"real Python ({name})", python, python_text),
    ]
    for label, language, text in buffers:
        row = _measure(language, text, _retype_script(text), rejects=True)
        _report(
            f"E12 — {label} ({len(text)} chars), retype, rejecting steps only, "
            "warm vs cold",
            row,
        )
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{label}: warm reject only {row['speedup']:.1f}x "
            f"over cold (floor {MIN_SPEEDUP}x)"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_e12_python_corpus_incremental_reparse(benchmark):
    language = repro.compile_grammar("python.Python")
    [(name, text)] = corpus_texts(limit=1, max_chars=40_000)
    edits = list(rename_edits(text, random.Random(5), EDITS))
    row = _measure(language, text, edits)
    _report(
        f"E12 — real Python ({name}, {len(text)} layouted chars), "
        "token rename, warm vs cold",
        row,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"warm reparse only {row['speedup']:.1f}x over cold (floor {MIN_SPEEDUP}x)"
    )
