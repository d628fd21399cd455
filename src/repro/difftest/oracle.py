"""The cross-backend differential oracle.

One :class:`DifferentialOracle` holds every parser the library can derive
from a single grammar:

The core set is declared once, in :data:`BACKEND_TABLE` — one row per
backend naming how it is built from the oracle's prepared grammars — so a
new backend is one table row, not a constructor edit per call site:

- the packrat interpreter over the fully optimized grammar, under *both*
  memo-table organizations (:class:`~repro.runtime.memo.ChunkedMemoTable`
  and :class:`~repro.runtime.memo.DictMemoTable`);
- a packrat interpreter over the *unoptimized* pipeline output — the
  closest thing to textbook PEG semantics, and the reference backend;
- the generated parser with all optimizations on;
- the parsing machine (:mod:`repro.vm`) over the same fully optimized,
  chunked-memo configuration.

On top of the table the constructor adds the parameterized members: one
generated parser per single-optimization-off
:meth:`~repro.optim.Options.single_off` variant (the paper's ``-Ono-…``
configurations), the hand-written recursive-descent baseline where one is
registered in :data:`repro.baselines.BASELINES`, and optionally the naive
backtracking interpreter (off by default: it is worst-case exponential,
which is a property of the backend, not a bug).

:meth:`check` parses one input with every backend and reports
*disagreements*: mismatched accept/reject verdicts, structurally unequal
ASTs on accepts, mismatched farthest-failure offsets or expected sets on
rejects (for backends with farthest-failure semantics — hand-written
baselines report their own positions and are excluded from error
comparison), and any non-:class:`~repro.errors.ParseError` crash.

:class:`EditOracle` is the incremental twin: it replays an *edit script*
through a warm :class:`~repro.incremental.IncrementalSession` (memo
surgery + reuse) and demands that after every edit the warm result is
bit-identical — verdict, AST, farthest-failure offset, expected set — to
a cold parse of the same buffer by the same incremental program, and
agrees with an independent engine (the generated parser) on verdict, AST
and offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines import BASELINES
from repro.codegen import generate_parser_source, load_parser
from repro.errors import ParseDepthError, ParseError
from repro.interp import BacktrackInterpreter, PackratInterpreter
from repro.modules import compose
from repro.meta import ModuleLoader
from repro.optim import Options, PreparedGrammar, prepare
from repro.peg.grammar import Grammar
from repro.runtime.node import structural_diff


@dataclass(frozen=True)
class Outcome:
    """What one backend did with one input."""

    accepted: bool
    value: Any = None
    offset: int = -1
    expected: tuple[str, ...] = ()
    crash: str | None = None

    @property
    def verdict(self) -> str:
        if self.crash is not None:
            return f"crash({self.crash})"
        return "accept" if self.accepted else f"reject@{self.offset}"


@dataclass(frozen=True)
class Backend:
    """A named parse function plus its comparison contract."""

    name: str
    parse: Callable[[str], Any]
    #: Failure offsets follow farthest-failure semantics and must match.
    exact_errors: bool = True
    #: Backends sharing a group label run the *same* prepared grammar and
    #: must report identical expected sets on rejects.  (Across different
    #: preparations the sets legitimately differ — fusion rewrites the
    #: expected-message vocabulary — so only offsets are compared there.)
    expected_group: str | None = None

    def run(self, text: str) -> Outcome:
        return _outcome(lambda: self.parse(text))


def _outcome(parse: Callable[[], Any]) -> Outcome:
    """What one parse call did: its value, its error, or its crash."""
    try:
        value = parse()
    except ParseDepthError:
        # Deep nesting exhausts each backend's stack at a *different*
        # input depth (stack spend per nesting level is a backend
        # property), so the structured depth diagnostic is a resource
        # limit for comparison purposes, not a semantic verdict.
        return Outcome(accepted=False, crash="RecursionError")
    except ParseError as error:
        return Outcome(accepted=False, offset=error.offset, expected=error.expected)
    except RecursionError:
        # Backstop for recursion escaping outside a parse entry point
        # (e.g. a hand-written baseline): same resource-limit treatment.
        return Outcome(accepted=False, crash="RecursionError")
    except Exception as error:  # noqa: BLE001 - crashes are findings
        return Outcome(accepted=False, crash=f"{type(error).__name__}: {error}")
    return Outcome(accepted=True, value=value)


@dataclass(frozen=True)
class Disagreement:
    """Two backends disagreed on one input."""

    text: str
    reference: str
    backend: str
    reference_outcome: Outcome
    backend_outcome: Outcome
    detail: str

    def describe(self) -> str:
        return (
            f"input {self.text!r}: {self.reference} -> "
            f"{self.reference_outcome.verdict}, {self.backend} -> "
            f"{self.backend_outcome.verdict} ({self.detail})"
        )


@dataclass(frozen=True)
class OracleGrammars:
    """The grammar forms every backend row is built from."""

    grammar: Grammar
    #: ``Options.none()`` pipeline output — textbook PEG semantics.
    plain: PreparedGrammar
    #: ``Options.all()`` pipeline output — what production backends run.
    full: PreparedGrammar


@dataclass(frozen=True)
class BackendDef:
    """One row of the declarative backend table."""

    name: str
    build: Callable[[OracleGrammars], Callable[[str], Any]]
    exact_errors: bool = True
    expected_group: str | None = None

    def instantiate(self, grammars: OracleGrammars) -> Backend:
        return Backend(
            self.name,
            self.build(grammars),
            exact_errors=self.exact_errors,
            expected_group=self.expected_group,
        )


def _build_codegen(prepared: PreparedGrammar) -> Callable[[str], Any]:
    parser_class = load_parser(generate_parser_source(prepared))
    return lambda text: parser_class(text).parse()


def _build_vm(grammars: OracleGrammars) -> Callable[[str], Any]:
    from repro.vm import VMParser, compile_program

    program = compile_program(grammars.full)
    return lambda text: VMParser(program, text).parse()


#: The core backends, declaratively.  Order matters: the first row is the
#: comparison reference.  Adding a backend here registers it with every
#: oracle construction site (``repro-fuzz``, the fuzz matrix, regression
#: tests) at once.
BACKEND_TABLE: tuple[BackendDef, ...] = (
    # Reference first: packrat interpretation of the unoptimized grammar.
    BackendDef("interp-plain", lambda g: PackratInterpreter(g.plain.grammar, chunked=False).parse),
    # Two expected-set vocabularies exist over the optimized grammar: the
    # interpreter family reports raw leaf messages; codegen and the VM
    # report precomputed guard/first-set messages ("one of …").  Expected
    # sets are compared within each vocabulary, offsets across all.
    BackendDef(
        "interp-chunked",
        lambda g: PackratInterpreter(g.full.grammar, chunked=True).parse,
        expected_group="full-interp",
    ),
    BackendDef(
        "interp-dict",
        lambda g: PackratInterpreter(g.full.grammar, chunked=False).parse,
        expected_group="full-interp",
    ),
    BackendDef("codegen-all", lambda g: _build_codegen(g.full), expected_group="full-codegen"),
    BackendDef("vm", _build_vm, expected_group="full-codegen"),
)


def _wanted(name: str, requested: tuple[str, ...] | None) -> bool:
    """Does a ``backends=`` subset select this backend name?

    A token selects exact matches and prefix families: ``codegen`` keeps
    ``codegen-all`` and every ``codegen-no-…`` variant; ``interp`` keeps all
    interpreters.
    """
    if requested is None:
        return True
    return any(name == token or name.startswith(token + "-") for token in requested)


def _wanted_any(token: str, known: set[str]) -> bool:
    """Does a selector token match at least one known backend name?"""
    return any(name == token or name.startswith(token + "-") for name in known)


class DifferentialOracle:
    """All backends derivable from one grammar, plus the comparison logic."""

    def __init__(
        self,
        grammar: Grammar,
        *,
        start: str | None = None,
        baseline: type | None = None,
        backtracking: bool = False,
        variants: list[tuple[str, Options]] | None = None,
        backends: list[str] | tuple[str, ...] | None = None,
    ):
        if start is not None:
            grammar = grammar.with_start(start)
        self.grammar = grammar
        plain = prepare(grammar, Options.none(), check=False)
        full = prepare(grammar, Options.all(), check=False)
        self.grammars = OracleGrammars(grammar=grammar, plain=plain, full=full)
        requested = tuple(backends) if backends is not None else None
        if requested is not None:
            known = {d.name for d in BACKEND_TABLE} | {"interp-backtrack", "codegen", "baseline"}
            known |= {f"codegen-{label}" for label, _ in Options.single_off()}
            unknown = [t for t in requested if not _wanted_any(t, known)]
            if unknown:
                raise ValueError(
                    f"unknown backend selector(s) {unknown!r}; known: {sorted(known)}"
                )
        self.backends: list[Backend] = []

        for index, definition in enumerate(BACKEND_TABLE):
            # The reference row is always present: every other backend is
            # compared against it, so a subset without it is meaningless.
            if index == 0 or _wanted(definition.name, requested):
                self.backends.append(definition.instantiate(self.grammars))

        if backtracking and _wanted("interp-backtrack", requested):
            naive = BacktrackInterpreter(plain.grammar)
            self.backends.append(Backend("interp-backtrack", naive.parse))

        for label, options in variants if variants is not None else Options.single_off():
            name = f"codegen-{label}"
            if _wanted(name, requested):
                self.backends.append(
                    Backend(name, _build_codegen(prepare(grammar, options, check=False)))
                )

        if baseline is not None and _wanted("baseline", requested):
            self.backends.append(
                Backend("baseline", lambda text: baseline(text).parse(), exact_errors=False)
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def for_root(
        cls,
        root: str,
        *,
        paths: list[str] | None = None,
        loader: ModuleLoader | None = None,
        start: str | None = None,
        **kwargs: Any,
    ) -> "DifferentialOracle":
        """Build the oracle for a named grammar module (e.g. ``jay.Jay``),
        attaching the hand-written baseline automatically when one exists."""
        if loader is None:
            loader = ModuleLoader(paths=paths)
        grammar = compose(root, loader, start=start)
        kwargs.setdefault("baseline", BASELINES.get(root))
        return cls(grammar, **kwargs)

    def add_backend(self, backend: Backend) -> None:
        """Attach an extra backend (used by tests to inject broken passes)."""
        self.backends.append(backend)

    @property
    def reference(self) -> Backend:
        return self.backends[0]

    # -- checking -------------------------------------------------------------

    def run_all(self, text: str) -> dict[str, Outcome]:
        """Every backend's outcome on one input."""
        return {backend.name: backend.run(text) for backend in self.backends}

    def check(self, text: str) -> list[Disagreement]:
        """All pairwise disagreements of any backend with the reference,
        plus expected-set disagreements within each same-grammar group."""
        reference = self.reference
        ref_outcome = reference.run(text)
        disagreements: list[Disagreement] = []
        group_leads: dict[str, tuple[Backend, Outcome]] = {}
        for backend in self.backends:
            outcome = ref_outcome if backend is reference else backend.run(text)
            if backend is not reference:
                detail = self._compare(ref_outcome, outcome, backend)
                if detail is not None:
                    disagreements.append(
                        Disagreement(
                            text, reference.name, backend.name, ref_outcome, outcome, detail
                        )
                    )
            group = backend.expected_group
            if group is None or not backend.exact_errors or outcome.crash is not None:
                continue
            lead = group_leads.get(group)
            if lead is None:
                group_leads[group] = (backend, outcome)
                continue
            lead_backend, lead_outcome = lead
            if (
                not lead_outcome.accepted
                and not outcome.accepted
                and set(lead_outcome.expected) != set(outcome.expected)
            ):
                disagreements.append(
                    Disagreement(
                        text,
                        lead_backend.name,
                        backend.name,
                        lead_outcome,
                        outcome,
                        "expected sets differ: "
                        f"{sorted(set(lead_outcome.expected))} != "
                        f"{sorted(set(outcome.expected))}",
                    )
                )
        return disagreements

    def explain(self, text: str) -> str | None:
        """The first disagreement on ``text``, described — or None.

        This is the single-call form used by generated regression tests.
        """
        disagreements = self.check(text)
        return disagreements[0].describe() if disagreements else None

    def _compare(self, ref: Outcome, other: Outcome, backend: Backend) -> str | None:
        if ref.crash is not None:
            return None  # the reference itself hit a resource limit; skip
        if other.crash is not None:
            if other.crash == "RecursionError":
                return None  # backend-specific stack limit, not semantics
            return f"backend crashed: {other.crash}"
        if ref.accepted != other.accepted:
            return "accept/reject verdicts differ"
        if ref.accepted:
            diff = structural_diff(ref.value, other.value)
            if diff is not None:
                return f"ASTs differ at {diff}"
            return None
        if backend.exact_errors and ref.offset != other.offset:
            return f"farthest-failure offsets differ: {ref.offset} != {other.offset}"
        return None


def _as_edit(edit: Any) -> tuple[int, int, str]:
    """Normalize an edit to ``(offset, removed, inserted)`` — accepts plain
    tuples and :class:`repro.workloads.pyedits.Edit` objects alike."""
    if isinstance(edit, (tuple, list)):
        offset, removed, inserted = edit
        return int(offset), int(removed), str(inserted)
    return int(edit.offset), int(edit.removed), str(edit.inserted)


class EditOracle:
    """The differential oracle for incremental reparsing.

    The oracle keeps a *warm* :class:`~repro.incremental.IncrementalSession`
    that applies the script's edits one at a time (memo surgery + reuse), a
    *cold* session re-seeded from scratch with
    :meth:`~repro.incremental.IncrementalSession.set_text` at every step,
    and a generated-parser session as the independent engine.

    Comparison semantics follow the preparation boundary documented on
    :data:`BACKEND_TABLE`: warm vs cold of the **same** incremental program
    must agree *bit-identically* — verdict, structural AST, farthest-failure
    offset, and the ordered expected **tuple** (order matters: error
    messages keep only its first entries; the incremental program is its
    own preparation: unfused regexes and memoize-everything give it its own
    expected-set vocabulary, so it is only error-comparable to itself).
    Against the generated parser only verdict, AST, and offset are
    compared.  A warm reject that the session's second pass turns into an
    accept (``last_parse_recovered``) is reported as a disagreement in its
    own right: it means a memo entry survived an edit it depended on.
    """

    def __init__(self, grammar: Grammar, *, start: str | None = None):
        from repro.api import compile_grammar

        if start is not None:
            grammar = grammar.with_start(start)
        self.grammar = grammar
        self.language = compile_grammar(grammar, cache=False)
        self._warm = self.language.incremental()
        self._cold = self.language.incremental()
        self._generated = self.language.session()

    @classmethod
    def for_root(
        cls,
        root: str,
        *,
        paths: list[str] | None = None,
        loader: ModuleLoader | None = None,
        start: str | None = None,
        **kwargs: Any,
    ) -> "EditOracle":
        """Build the oracle for a named grammar module (e.g. ``jay.Jay``)."""
        if loader is None:
            loader = ModuleLoader(paths=paths)
        return cls(compose(root, loader, start=start), **kwargs)

    def check_script(self, text: str, edits: list[Any]) -> list[Disagreement]:
        """All disagreements over one edit script applied to ``text``.

        Edits are ``(offset, removed, inserted)`` with offsets relative to
        the buffer *after* all previous edits (the
        :func:`repro.workloads.pyedits.edit_script` convention).  An edit
        whose offsets fall outside the evolving buffer raises ``ValueError``
        — shrinkers treat such mangled scripts as uninteresting.
        """
        steps = [_as_edit(edit) for edit in edits]
        # Validate the whole script up front so a malformed candidate (from
        # shrinking) fails before any session state is touched.
        current = text
        for offset, removed, inserted in steps:
            if not 0 <= offset <= len(current) or removed < 0 or offset + removed > len(current):
                raise ValueError(
                    f"edit ({offset}, {removed}, {inserted!r}) outside buffer "
                    f"of length {len(current)}"
                )
            current = current[:offset] + inserted + current[offset + removed:]

        disagreements: list[Disagreement] = []
        warm, cold = self._warm, self._cold
        warm.set_text(text)
        _outcome(warm.parse)  # step 0: populate the memo
        current = text
        for step, (offset, removed, inserted) in enumerate(steps, start=1):
            current = current[:offset] + inserted + current[offset + removed:]
            warm.apply_edit(offset, removed, inserted)
            outcome = _outcome(warm.parse)
            if warm.last_parse_recovered:
                disagreements.append(
                    Disagreement(
                        current, "cold-vm", "warm-vm", outcome, outcome,
                        f"step {step}: warm reject accepted by the second pass "
                        "(a memo entry survived an edit it depended on)",
                    )
                )
            cold.set_text(current)
            references = (
                ("cold-vm", _outcome(cold.parse), True),
                ("generated", _outcome(lambda: self._generated.parse(current)), False),
            )
            for name, reference, same_program in references:
                detail = self._compare_step(reference, outcome, same_program=same_program)
                if detail is not None:
                    disagreements.append(
                        Disagreement(
                            current, name, "warm-vm", reference, outcome,
                            f"step {step}: {detail}",
                        )
                    )
        return disagreements

    def explain_script(self, text: str, edits: list[Any]) -> str | None:
        """The first disagreement on one script, described — or None.

        This is the single-call form used by generated regression tests."""
        disagreements = self.check_script(text, edits)
        return disagreements[0].describe() if disagreements else None

    @staticmethod
    def _compare_step(ref: Outcome, other: Outcome, *, same_program: bool) -> str | None:
        if ref.crash is not None or other.crash is not None:
            # Warm memo hits flatten recursion a cold parse performs, so
            # depth limits can legitimately fire on one side only.
            if ref.crash == "RecursionError" or other.crash == "RecursionError":
                return None
            if ref.crash != other.crash:
                return f"crashes differ: {ref.crash} != {other.crash}"
            return None
        if ref.accepted != other.accepted:
            return "accept/reject verdicts differ"
        if ref.accepted:
            diff = structural_diff(ref.value, other.value)
            if diff is not None:
                return f"ASTs differ at {diff}"
            return None
        if ref.offset != other.offset:
            return f"farthest-failure offsets differ: {ref.offset} != {other.offset}"
        if same_program and ref.expected != other.expected:
            return (
                "expected sets differ in members or order: "
                f"{ref.expected} != {other.expected}"
            )
        return None
