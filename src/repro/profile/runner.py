"""Profile runners: parse a corpus under instrumentation, per backend.

Two entry points share one grammar-preparation convention:

- :func:`profile_corpus` — the engine behind ``repro-prof``: parse a list
  of inputs with one instrumented backend (``interp``, ``vm``, or
  ``generated``) and return a :class:`~repro.profile.report.ProfileReport`.
- :class:`CoverageSession` — the lightweight feed the differential-fuzz
  runner uses so fuzz runs double as coverage measurements: inputs go
  through one profiled reference interpreter and only the
  :class:`~repro.profile.collector.CoverageMatrix` is kept.

Both profile the **leftrec-only** pipeline output (``Options.none()``):
the direct left-recursion transformation is required for correctness, but
none of the alternative-rewriting optimizations (folding, prefix
factoring, inlining) run, so the alternative set — the denominator of
every coverage ratio — is stable and recognizably the author's grammar.
Pass ``options=`` to :func:`profile_corpus` to profile an optimized
pipeline instead (coverage then describes the *rewritten* grammar).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.codegen import generate_parser_source, load_parser
from repro.errors import ParseError
from repro.grammars import ROOTS
from repro.interp.evaluator import GrammarInterpreter
from repro.meta import ModuleLoader
from repro.modules import compose
from repro.optim import Options, PreparedGrammar, prepare
from repro.peg.grammar import Grammar
from repro.profile.collector import CoverageMatrix, ParseProfile
from repro.profile.report import ProfileReport, build_report

#: The instrumented backends ``profile_corpus`` can run.
BACKENDS = ("interp", "vm", "generated")


def resolve_root(root: str) -> str:
    """Expand a grammar shorthand (``calc``) to its module root
    (``calc.Calculator``); full names pass through."""
    return ROOTS.get(root, root)


def prepare_for_profiling(
    grammar: Grammar | str,
    *,
    options: Options | None = None,
    paths: list[str] | None = None,
    start: str | None = None,
) -> PreparedGrammar:
    """Compose (if ``grammar`` names a module root) and run the profiling
    pipeline — leftrec-only unless ``options`` is given."""
    if isinstance(grammar, str):
        loader = ModuleLoader(paths=paths)
        grammar = compose(resolve_root(grammar), loader, start=start)
    elif start is not None:
        grammar = grammar.with_start(start)
    return prepare(grammar, options if options is not None else Options.none(), check=False)


def profiled_parse_fn(
    prepared: PreparedGrammar, backend: str, profile: ParseProfile
) -> Callable[[str], Any]:
    """A ``parse(text)`` callable for one instrumented backend."""
    if backend == "interp":
        interp = GrammarInterpreter(
            prepared.grammar, memoize=True, chunked=prepared.chunked_memo, profile=profile
        )
        return interp.parse
    if backend == "vm":
        from repro.vm import VMParser, compile_program

        program = compile_program(prepared, profiled=True)
        return lambda text: VMParser(program, text, profile=profile).parse()
    if backend == "generated":
        source = generate_parser_source(prepared, profiled=True)
        parser_class = load_parser(source)
        return lambda text: parser_class(text, profile=profile).parse()
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def profile_corpus(
    grammar: Grammar | str,
    texts: Iterable[str],
    backend: str = "interp",
    *,
    options: Options | None = None,
    profile: ParseProfile | None = None,
    paths: list[str] | None = None,
    start: str | None = None,
    grammar_name: str | None = None,
) -> ProfileReport:
    """Parse every input in ``texts`` with one instrumented backend.

    Rejected inputs are counted (``report.rejected``), not raised — a
    profiling corpus may legitimately mix accepted and rejected inputs
    (e.g. a fuzz corpus).  Pass an existing ``profile`` to aggregate
    multiple corpora or backends into one collector.
    """
    if grammar_name is None:
        grammar_name = grammar if isinstance(grammar, str) else "<grammar>"
    prepared = prepare_for_profiling(grammar, options=options, paths=paths, start=start)
    if profile is None:
        profile = ParseProfile()
    profile.register_grammar(prepared.grammar)
    parse = profiled_parse_fn(prepared, backend, profile)
    warnings: list[str] = []
    for text in texts:
        try:
            parse(text)
        except ParseError:
            profile.count_parse(text, accepted=False)
        except RecursionError:
            profile.count_parse(text, accepted=False)
            if not warnings:
                warnings.append("some inputs exhausted the recursion limit")
        else:
            profile.count_parse(text, accepted=True)
    return build_report(profile, grammar=grammar_name, backend=backend, warnings=tuple(warnings))


def _random_edit(rng, text: str) -> tuple[int, int, str]:
    """One seeded random edit ``(offset, removed, inserted)`` over ``text``.

    Insertions sample characters from the text itself (plus a space), so
    edits stay in-vocabulary often enough to exercise both accepting and
    rejecting reparses."""
    alphabet = text if text else " "
    op = rng.choice(("insert", "delete", "replace"))
    offset = rng.randint(0, len(text))
    if op == "insert" or offset >= len(text):
        return offset, 0, "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 3))
        )
    removed = rng.randint(1, min(3, len(text) - offset))
    if op == "delete":
        return offset, removed, ""
    inserted = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
    return offset, removed, inserted


def profile_edits(
    grammar: Grammar | str,
    texts: Iterable[str],
    *,
    edits: int = 20,
    seed: int = 0,
    options: Options | None = None,
    profile: ParseProfile | None = None,
    paths: list[str] | None = None,
    start: str | None = None,
    grammar_name: str | None = None,
) -> ProfileReport:
    """Profile incremental reparsing: seeded random edits per input.

    Each input seeds an :class:`repro.incremental.IncrementalSession`
    which then applies ``edits`` random edits, reparsing after each.  The
    session reports per-edit memo accounting into the profile
    (:meth:`ParseProfile.record_edit`), so the report's ``incremental``
    block — entries reused vs invalidated vs shifted — measures how
    effective memo reuse was on this corpus.
    Rejected reparses are counted, not raised.
    """
    import random

    from repro.api import compile_grammar

    if grammar_name is None:
        grammar_name = grammar if isinstance(grammar, str) else "<grammar>"
    if isinstance(grammar, str):
        loader = ModuleLoader(paths=paths)
        grammar = compose(resolve_root(grammar), loader, start=start)
    language = compile_grammar(grammar, options=options, start=start, cache=False)
    if profile is None:
        profile = ParseProfile()
    # No register_grammar: incremental parsers carry no per-production
    # hooks, so zero-filled hotspot/coverage rows would only be noise —
    # the report's payload is the corpus totals and the incremental block.
    rng = random.Random(seed)
    warnings: list[str] = []
    session = language.incremental(profile=profile)
    def safe_parse() -> None:
        try:
            session.parse()
        except ParseError:
            pass  # counted by the session
        except RecursionError:
            if not warnings:
                warnings.append("some inputs exhausted the recursion limit")

    for text in texts:
        session.set_text(text)
        safe_parse()
        for _ in range(edits):
            offset, removed, inserted = _random_edit(rng, session.text)
            session.apply_edit(offset, removed, inserted)
            safe_parse()
    return build_report(
        profile,
        grammar=grammar_name,
        backend="incremental-vm",
        warnings=tuple(warnings),
    )


class CoverageSession:
    """Feed inputs through one profiled reference interpreter.

    Built once per fuzz run (or corpus sweep); :meth:`feed` parses one
    input and records which alternatives it exercised into the shared
    :class:`CoverageMatrix`.  The full :class:`ParseProfile` is available
    as ``.profile`` for callers that want the rest of the telemetry.
    """

    def __init__(
        self,
        grammar: Grammar | str,
        *,
        coverage: CoverageMatrix | None = None,
        paths: list[str] | None = None,
        start: str | None = None,
    ):
        prepared = prepare_for_profiling(grammar, paths=paths, start=start)
        self.coverage = coverage if coverage is not None else CoverageMatrix()
        self.profile = ParseProfile(coverage=self.coverage)
        self.profile.register_grammar(prepared.grammar)
        # Dict memo organization: coverage feeds parse many small inputs,
        # where column allocation would dominate chunked lookups.
        self._interpreter = GrammarInterpreter(
            prepared.grammar, memoize=True, chunked=False, profile=self.profile
        )

    def feed(self, text: str) -> bool:
        """Parse one input for coverage; returns whether it was accepted."""
        try:
            self._interpreter.parse(text)
        except (ParseError, RecursionError):
            self.profile.count_parse(text, accepted=False)
            return False
        self.profile.count_parse(text, accepted=True)
        return True
