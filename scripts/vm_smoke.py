"""Parsing-machine smoke: compile, cross-check, disassemble.

``make vm-smoke`` runs this after the VM test file.  It exercises the
machine the way a client would, end to end, and fails loudly on any
divergence from the generated parser:

1. jay and xC: lower the fully-optimized grammar to bytecode, parse the
   seeded benchmark corpora, and require structurally identical trees
   from the machine and the generated parser;
2. real Python: parse a sample of the stdlib corpus (layout pre-pass
   included) through all three loop variants — plain (``backend="vm"``),
   a cold incremental parse and a profiled parse — and compare trees the
   same way; then a variant of each file with ``?`` at the start of its
   middle line must get the generated parser's verdict and offset from
   every loop (offsets only: expected-message texts differ between
   programs by design).  It rejects unless that line lies inside a string;
3. disassemble one grammar and sanity-check the listing/summary.

See docs/vm.md.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.errors import ParseError
from repro.profile import ParseProfile
from repro.runtime.node import structural_diff
from repro.vm import VMParser, compile_program, disassemble, summarize
from repro.workloads import generate_c_program, generate_jay_program, load_corpus, python_layout
from repro.workloads.pycorpus import ALLOWLIST

#: Corpus sample size for the real-Python leg — enough to hit layout,
#: deep nesting, and every statement family without E11-scale runtime.
PY_SAMPLE = 8


def check_seeded(root: str, corpus: list[str]) -> int:
    language = repro.compile_grammar(root)
    vm = VMParser(compile_program(language.prepared))
    for text in corpus:
        diff = structural_diff(language.parse(text), vm.reset(text).parse())
        if diff is not None:
            print(f"FAIL {root}: trees differ at {diff}", file=sys.stderr)
            return 1
    print(f"ok {root}: {len(corpus)} inputs, machine == generated")
    return 0


def with_middle_line_error(text: str) -> str:
    """``text`` with ``?`` at the start of its middle line: a syntax error
    unless the line lies inside a string."""
    lines = text.split("\n")
    lines[len(lines) // 2] = "?" + lines[len(lines) // 2]
    return "\n".join(lines)


def offset_or_none(parse: Callable[[str], Any], text: str) -> int | None:
    try:
        parse(text)
    except ParseError as error:
        return error.offset
    return None


def check_python_sample() -> int:
    files, _ = load_corpus()
    sample = [cf for cf in files if cf.name not in ALLOWLIST][:PY_SAMPLE]
    language = repro.compile_grammar("python.Python")
    session = language.session()
    variants = {
        "plain": language.session(backend="vm").parse,
        "incremental": lambda text: VMParser(language.vm_program(incremental=True), text).parse(),
        "profiled": lambda text: language.parse(text, backend="vm", profile=ParseProfile()),
    }
    nbytes = rejects = 0
    for cf in sample:
        text = python_layout(cf.text)
        expected = session.parse(text)
        for variant, parse in variants.items():
            diff = structural_diff(expected, parse(text))
            if diff is not None:
                print(f"FAIL python corpus {cf.name} ({variant}): trees differ at {diff}",
                      file=sys.stderr)
                return 1
        bad = with_middle_line_error(text)
        offset = offset_or_none(session.parse, bad)
        for variant, parse in variants.items():
            got = offset_or_none(parse, bad)
            if got != offset:
                print(f"FAIL python corpus {cf.name} ({variant}): rejecting variant fails at "
                      f"{got}, generated at {offset}", file=sys.stderr)
                return 1
        rejects += offset is not None
        nbytes += cf.nbytes
    print(f"ok python corpus sample: {len(sample)} files, {nbytes} bytes, plain/incremental/"
          f"profiled machine == generated; {rejects} rejecting variants at equal offsets")
    return 0


def check_disasm(root: str) -> int:
    program = compile_program(repro.compile_grammar(root).prepared)
    listing = disassemble(program)
    summary = summarize(program)
    if sum(summary["opcodes"].values()) != summary["instructions"]:
        print(f"FAIL {root}: opcode histogram does not cover the program", file=sys.stderr)
        return 1
    print(
        f"ok disasm {root}: {summary['instructions']} instructions, "
        f"{summary['productions']} productions, {len(listing.splitlines())} listing lines"
    )
    return 0


def main() -> int:
    status = 0
    status |= check_seeded("jay.Jay", [generate_jay_program(size=14, seed=s) for s in (11, 22, 33)])
    status |= check_seeded("xc.XC", [generate_c_program(size=12, seed=s) for s in (44, 55)])
    status |= check_python_sample()
    status |= check_disasm("jay.Jay")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
