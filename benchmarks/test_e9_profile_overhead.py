"""E9 — profiling overhead: enabled is bounded, disabled is free.

The observability subsystem (``repro.profile``) is opt-in.  Two gates:

- **Enabled** profiling on the generated-parser throughput workload costs
  < 2.5x wall time — cheap enough to run on real corpora.
- **Disabled** profiling costs < 3% vs. the pre-PR baseline.  The default
  paths are *structurally* unchanged — the generated source has no hook
  calls, the interpreter uses the plain ``_Run``, and memo tables carry no
  instance-level ``get``/``put`` shadows — so the timing check guards the
  only residual cost (the ``profile is None`` branch per parse).
"""

from __future__ import annotations

import repro
from repro.codegen import generate_parser_source, load_parser
from repro.interp import GrammarInterpreter
from repro.interp.evaluator import _Run
from repro.profile import ParseProfile
from repro.runtime.memo import ChunkedMemoTable, DictMemoTable

from bench_util import print_table, time_best_of

ENABLED_CEILING = 2.5
DISABLED_CEILING = 0.03


def test_e9_disabled_paths_structurally_unchanged(jay_all):
    language = jay_all

    # Generated backend: the default source is the profiled=False source,
    # with no profiler callbacks anywhere in it.
    default_source = generate_parser_source(language.prepared)
    assert default_source == language.parser_source
    assert "prof." not in default_source
    plain_parser = language.parser("class C { }")
    assert "_profile" not in vars(plain_parser)

    # The profiled twin is a *separate* class; building it must not touch
    # the default one.
    profiled = language.profiled_parser_class
    assert profiled is not language.parser_class

    # Interpreter: no profile -> the plain _Run evaluator.
    interp = GrammarInterpreter(language.prepared.grammar)
    assert interp.profile is None
    value = interp.parse("class C { int f() { return 1; } }")
    assert value is not None
    run = interp._last_run if hasattr(interp, "_last_run") else None
    if run is not None:
        assert type(run) is _Run

    # Memo tables: the class methods are in charge — no per-instance
    # closures shadowing get/put.
    rules = ["A", "B", "C", "D"]
    for table in (DictMemoTable(rules), ChunkedMemoTable(rules)):
        assert "get" not in table.__dict__
        assert "put" not in table.__dict__


def test_e9_profile_overhead(jay_all, jay_corpus, benchmark):
    language = jay_all

    def baseline_loop():
        # The pre-PR shape: instantiate the (unhooked) parser class
        # directly, bypassing even the profile=None branch in parse().
        cls = language.parser_class
        return [cls(program).parse() for program in jay_corpus]

    def disabled_loop():
        return [language.parse(program) for program in jay_corpus]

    def enabled_loop():
        profile = ParseProfile()
        return [language.parse(program, profile=profile) for program in jay_corpus]

    # Correctness first: all three loops produce identical trees.
    assert baseline_loop() == disabled_loop() == enabled_loop()

    baseline = time_best_of(baseline_loop, repeat=7)
    disabled = time_best_of(disabled_loop, repeat=7)
    enabled = time_best_of(enabled_loop, repeat=5)

    rows = [
        {"path": "baseline (direct parser)", "time (ms)": f"{baseline * 1000:.1f}",
         "vs baseline": "1.00x"},
        {"path": "profiling disabled", "time (ms)": f"{disabled * 1000:.1f}",
         "vs baseline": f"{disabled / baseline:.2f}x"},
        {"path": "profiling enabled", "time (ms)": f"{enabled * 1000:.1f}",
         "vs baseline": f"{enabled / baseline:.2f}x"},
    ]
    print_table("E9 — generated-parser throughput with/without profiling", rows,
                ["path", "time (ms)", "vs baseline"])

    assert enabled <= ENABLED_CEILING * baseline, (
        f"enabled profiling costs {enabled / baseline:.2f}x "
        f"(ceiling {ENABLED_CEILING}x)"
    )
    assert disabled <= (1 + DISABLED_CEILING) * baseline, (
        f"disabled profiling costs {disabled / baseline:.3f}x "
        f"(ceiling {1 + DISABLED_CEILING:.2f}x)"
    )

    benchmark.pedantic(disabled_loop, rounds=3, iterations=1)


def test_e9_interpreter_overhead(jay_grammar, jay_corpus, benchmark):
    from repro.optim import Options, prepare

    prepared = prepare(jay_grammar, Options.none(), check=False)

    def plain_loop():
        interp = GrammarInterpreter(prepared.grammar)
        return [interp.parse(program) for program in jay_corpus]

    def profiled_loop():
        profile = ParseProfile()
        interp = GrammarInterpreter(prepared.grammar, profile=profile)
        return [interp.parse(program) for program in jay_corpus]

    assert plain_loop() == profiled_loop()

    plain = time_best_of(plain_loop, repeat=3)
    profiled = time_best_of(profiled_loop, repeat=3)

    print_table("E9 — interpreter with/without profiling", [
        {"path": "plain", "time (ms)": f"{plain * 1000:.0f}", "factor": "1.00x"},
        {"path": "profiled", "time (ms)": f"{profiled * 1000:.0f}",
         "factor": f"{profiled / plain:.2f}x"},
    ], ["path", "time (ms)", "factor"])

    assert profiled <= ENABLED_CEILING * plain, (
        f"profiled interpreter costs {profiled / plain:.2f}x"
    )

    benchmark.pedantic(plain_loop, rounds=2, iterations=1)
