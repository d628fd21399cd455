"""Closure-compiled parsing: a third execution strategy.

Between interpreting the grammar IR node by node (:mod:`repro.interp`) and
generating Python source (:mod:`repro.codegen`) sits a classic middle
ground: *closure compilation*.  Each expression is compiled — once, ahead
of parsing — into a Python closure ``match(state, pos) -> (pos, value)``;
the IR dispatch, contribution checks, and value-shape decisions all happen
at compile time, so the parse loop runs straight-line closure calls.

The semantics are identical to the other backends (shared value model from
:mod:`repro.peg.values`; the property tests compare all three), and the
benchmarks place it where the technique belongs: faster than the
tree-walking interpreter, slower than generated source.

Usage::

    parser = ClosureParser(prepared.grammar, chunked=True)
    value = parser.parse(text)
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.fusable import compiled_pattern
from repro.errors import AnalysisError
from repro.peg.expr import (
    Action,
    And,
    AnyChar,
    Binding,
    CharClass,
    CharSwitch,
    Choice,
    Epsilon,
    Expression,
    Fail,
    Literal,
    Nonterminal,
    Not,
    Option,
    Regex,
    Repetition,
    Sequence,
    Text,
    Voided,
)
from repro.peg.grammar import Grammar
from repro.peg.production import Production, ValueKind
from repro.peg.values import binding_names, contributes, kind_lookup, node_name
from repro.runtime.actionlib import ACTION_GLOBALS
from repro.runtime.base import ParserBase
from repro.runtime.memo import NO_FRONTIER, IncrementalMemoTable, make_memo_table
from repro.runtime.node import GNode

FAIL = -1
FAILPAIR = (-1, None)

#: A compiled matcher: (run-state, position) -> (new position | -1, value).
Matcher = Callable[["_State", int], tuple[int, Any]]


class _State(ParserBase):
    """Mutable per-parse state threaded through the closures."""

    __slots__ = ("memo", "env")

    def __init__(self, text: str, memo, source: str):
        super().__init__(text)
        self.memo = memo
        self.env: dict[str, Any] = {}
        self._source = source

    def _replay_fused(self, token: Any, pos: int) -> None:
        # ``token`` is the compiled fallback matcher for the fused region's
        # original expression; running it reproduces the ``_expected``
        # records the single-scan path could not make.
        token(self, pos)


class _IncrementalState(_State):
    """Parse state that tracks the *examined* watermark (incremental mode).

    ``examined`` is the exclusive end of the span of positions the current
    memoized-production frame has read — consumption, lookahead probes and
    failed expectations alike.  The memoized wrapper saves/resets/restores
    it around each frame so every memo entry records exactly the input span
    its cached outcome depends on (see docs/incremental.md).

    ``_frontier`` bounds which memo hits are served: a hit whose examined
    end lies past it is re-derived instead, once per pass (``_rederived``
    holds the keys) — a session's second pass after a warm reject
    (:mod:`repro.incremental`).
    """

    __slots__ = ("examined", "_frontier", "_rederived")

    def __init__(self, text: str, memo, source: str):
        super().__init__(text, memo, source)
        self.examined = 0
        self._frontier = NO_FRONTIER
        self._rederived: set[tuple[int, int]] = set()

    def _expected(self, pos: int, what: str) -> None:
        # A failed expectation at ``pos`` read the character there (or saw
        # end of input), so the outcome depends on positions up to pos + 1.
        if pos >= self.examined:
            self.examined = pos + 1
        super()._expected(pos, what)


class _ProfiledState(_State):
    """Parse state that additionally attributes farthest-failure advances.

    ``ParserBase`` is not slotted, so the production stack and profile live
    in the instance ``__dict__`` — only profiled parses allocate them.
    """

    __slots__ = ()

    def __init__(self, text: str, memo, source: str, profile):
        super().__init__(text, memo, source)
        self.profile = profile
        self.prod_stack: list[str] = []

    def _expected(self, pos: int, what: str) -> None:
        if pos > self._fail_pos and self.prod_stack:
            self.profile.record_farthest(self.prod_stack[-1])
        super()._expected(pos, what)


class ClosureParser:
    """Compile a grammar to closures; construct once, parse many times.

    With ``profile=`` (a :class:`repro.profile.ParseProfile`) the closures
    are compiled with instrumentation baked in; without it the compiled
    closures are exactly the uninstrumented ones — there is no disabled-probe
    branch on the hot path.
    """

    def __init__(
        self,
        grammar: Grammar,
        chunked: bool = True,
        profile=None,
        incremental: bool = False,
    ):
        grammar.validate()
        if incremental and profile is not None:
            raise AnalysisError(
                "incremental closure parsers do not support profile=; "
                "attach the profile to the IncrementalSession instead"
            )
        self.grammar = grammar
        self.chunked = chunked
        self._profile = profile
        self._incremental = incremental
        self._kind_of = kind_lookup(grammar)
        self._with_location = "withLocation" in grammar.options
        # Incremental mode memoizes *every* production (not just the ones
        # the transient heuristic would keep): an edit reuses entries at the
        # granularity they were stored, and un-memoized structural glue
        # (single-call-site rules) would force the warm reparse to re-derive
        # the whole spine.  Memoizing more never changes results — the
        # interp-plain reference memoizes everything.
        self._memo_rules: list[str] = [
            p.name
            for p in grammar.productions
            if incremental or not p.is_transient
        ]
        self._memo_index = {name: i for i, name in enumerate(self._memo_rules)}
        # Production matchers are filled in after compilation so that
        # recursive references resolve through one indirection.
        self._productions: dict[str, Matcher] = {}
        for production in grammar.productions:
            self._productions[production.name] = self._compile_production(production)
        self._last_state: _State | None = None

    # -- public API ---------------------------------------------------------------

    def parse(self, text: str, start: str | None = None, source: str = "<input>") -> Any:
        state = self._new_state(text, source)
        matcher = self._matcher_for(start or self.grammar.start)
        try:
            pos, value = matcher(state, 0)
        except RecursionError:
            # Deep nesting is an input property, not an internal fault:
            # degrade into a structured diagnostic once the stack unwinds.
            raise state.depth_error() from None
        if pos < 0 or pos < len(text):
            raise state.parse_error()
        return value

    def match_prefix(self, text: str, start: str | None = None) -> tuple[int, Any]:
        state = self._new_state(text, "<input>")
        return self._matcher_for(start or self.grammar.start)(state, 0)

    def recognize(self, text: str, start: str | None = None) -> bool:
        pos, _ = self.match_prefix(text, start)
        return pos == len(text)

    def memo_entry_count(self) -> int:
        if self._last_state is None or self._last_state.memo is None:
            return 0
        return self._last_state.memo.entry_count()

    def _new_state(self, text: str, source: str) -> _State:
        profile = self._profile
        if profile is not None:
            from repro.profile.collector import MemoEvents

            memo = make_memo_table(
                self._memo_rules,
                chunked=self.chunked,
                events=MemoEvents(profile, self._memo_rules),
            )
            state: _State = _ProfiledState(text, memo, source, profile)
        elif self._incremental:
            memo = IncrementalMemoTable(self._memo_rules).resize(len(text))
            state = _IncrementalState(text, memo, source)
        else:
            memo = make_memo_table(self._memo_rules, chunked=self.chunked)
            state = _State(text, memo, source)
        self._last_state = state
        return state

    # -- incremental reparsing (driven by repro.incremental) -----------------------

    def incremental_state(self, text: str = "", source: str = "<input>") -> _IncrementalState:
        """A persistent parse state whose memo table survives across edits.

        Only available on parsers built with ``incremental=True`` (whose
        closures maintain the examined watermark the reuse test needs).
        """
        if not self._incremental:
            raise AnalysisError("parser was not compiled with incremental=True")
        memo = IncrementalMemoTable(self._memo_rules).resize(len(text))
        state = _IncrementalState(text, memo, source)
        self._last_state = state
        return state

    def reparse(self, state: _IncrementalState, start: str | None = None) -> Any:
        """Parse ``state``'s current text, serving surviving memo entries.

        The caller (:class:`repro.incremental.IncrementalSession`) has
        already applied the edit to the memo table and rebound the state at
        the new text; this just runs the closures over it.  Raises
        :class:`ParseError` on failure like :meth:`parse`.
        """
        state._fail_pos = -1
        state._fail_expected = []
        state._fused_pending.clear()
        state.examined = 0
        state._rederived.clear()
        matcher = self._matcher_for(start or self.grammar.start)
        try:
            pos, value = matcher(state, 0)
        except RecursionError:
            raise state.depth_error() from None
        if pos < 0 or pos < state._length:
            raise state.parse_error()
        return value

    def _matcher_for(self, name: str) -> Matcher:
        matcher = self._productions.get(name)
        if matcher is None:
            raise AnalysisError(f"undefined production {name!r}")
        return matcher

    # -- production compilation ---------------------------------------------------------

    def _compile_production(self, production: Production) -> Matcher:
        alternatives = [
            self._compile_alternative(production, alternative, index)
            for index, alternative in enumerate(production.alternatives)
        ]

        def run_alternatives(state: _State, pos: int) -> tuple[int, Any]:
            for alternative in alternatives:
                result = alternative(state, pos)
                if result[0] >= 0:
                    return result
            return FAILPAIR

        if self._incremental:
            index = self._memo_index[production.name]

            def memoized_incremental(state: _State, pos: int) -> tuple[int, Any]:
                # Entries are relative: ((span, value), rel_examined) where
                # span = next_pos - pos (-1 marks failure) and rel_examined
                # is the exclusive width of the region this computation read
                # — relative so the table relocates across edits by splicing
                # columns, never rewriting entries.  The watermark is
                # saved/reset around the frame so the entry records only
                # *this* production's dependencies, then folded back into
                # the parent's watermark.  Hits examined past the state's
                # frontier are re-derived, once per pass.
                memo = state.memo
                col = memo._cols[pos]
                hit = col[index] if col is not None else None
                if hit is not None:
                    examined = pos + hit[1]
                    if examined <= state._frontier or (index, pos) in state._rederived:
                        if examined > state.examined:
                            state.examined = examined
                        pair = hit[0]
                        span = pair[0]
                        if span < 0:
                            return FAILPAIR
                        return (pos + span, pair[1])
                    state._rederived.add((index, pos))
                saved = state.examined
                state.examined = pos
                result = run_alternatives(state, pos)
                examined = state.examined
                end = result[0]
                if end > examined:
                    examined = end
                memo.put(
                    index,
                    pos,
                    (
                        (end - pos, result[1]) if end >= 0 else FAILPAIR,
                        examined - pos,
                    ),
                )
                state.examined = examined if examined > saved else saved
                return result

            inner = memoized_incremental
        elif production.is_transient:
            inner = run_alternatives
        else:
            index = self._memo_index[production.name]

            def memoized(state: _State, pos: int) -> tuple[int, Any]:
                memo = state.memo
                hit = memo.get(index, pos)
                if hit is not None:
                    return hit
                result = run_alternatives(state, pos)
                memo.put(index, pos, result)
                return result

            inner = memoized

        profile = self._profile
        if profile is None:
            return inner

        name = production.name

        def profiled(state: _State, pos: int) -> tuple[int, Any]:
            profile.invoke(name)
            stack = state.prod_stack
            stack.append(name)
            try:
                result = inner(state, pos)
            finally:
                stack.pop()
            if result[0] < 0:
                profile.failure(name)
            else:
                profile.success(name)
            return result

        return profiled

    def _compile_alternative(self, production: Production, alternative, alt_index: int) -> Matcher:
        expr = alternative.expr
        items = expr.items if isinstance(expr, Sequence) else (expr,)
        names = tuple(binding_names(expr))
        compiled = []
        for item in items:
            compiled.append(
                (self._compile(item), contributes(item, self._kind_of), isinstance(item, Action))
            )
        build = self._compile_value_builder(production, alternative)
        profile = self._profile

        if profile is not None:
            prod_name = production.name

            def match_alternative_profiled(state: _State, pos: int) -> tuple[int, Any]:
                profile.alt_enter(prod_name, alt_index)
                saved_env = state.env
                if names:
                    state.env = dict.fromkeys(names)
                contributions: list[Any] = []
                explicit: Any = _SENTINEL
                cur = pos
                try:
                    for matcher, contributing, is_action in compiled:
                        npos, value = matcher(state, cur)
                        if npos < 0:
                            profile.alt_fail(prod_name, alt_index, cur - pos)
                            return FAILPAIR
                        cur = npos
                        if contributing:
                            contributions.append(value)
                            if is_action:
                                explicit = value
                    profile.alt_success(prod_name, alt_index)
                    return cur, build(state, pos, cur, contributions, explicit)
                finally:
                    state.env = saved_env

            return match_alternative_profiled

        def match_alternative(state: _State, pos: int) -> tuple[int, Any]:
            saved_env = state.env
            if names:
                state.env = dict.fromkeys(names)
            contributions: list[Any] = []
            explicit: Any = _SENTINEL
            cur = pos
            try:
                for matcher, contributing, is_action in compiled:
                    cur, value = matcher(state, cur)
                    if cur < 0:
                        return FAILPAIR
                    if contributing:
                        contributions.append(value)
                        if is_action:
                            explicit = value
                return cur, build(state, pos, cur, contributions, explicit)
            finally:
                state.env = saved_env

        return match_alternative

    def _compile_value_builder(self, production: Production, alternative):
        kind = production.kind
        if kind is ValueKind.VOID:
            return lambda state, start, end, contributions, explicit: None
        if kind is ValueKind.TEXT:
            return lambda state, start, end, contributions, explicit: state._text[start:end]
        if kind is ValueKind.GENERIC:
            label = alternative.label
            gname = node_name(production.name, label)
            with_location = self._with_location or production.has("withLocation")
            if label is None:

                def build_generic(state, start, end, contributions, explicit):
                    if len(contributions) == 1:
                        return contributions[0]
                    location = state._location(start) if with_location else None
                    return GNode(gname, tuple(contributions), location)

                return build_generic

            def build_labeled(state, start, end, contributions, explicit):
                location = state._location(start) if with_location else None
                return GNode(gname, tuple(contributions), location)

            return build_labeled

        def build_object(state, start, end, contributions, explicit):
            if explicit is not _SENTINEL:
                return explicit
            if not contributions:
                return None
            if len(contributions) == 1:
                return contributions[0]
            return tuple(contributions)

        return build_object

    # -- expression compilation ------------------------------------------------------------

    def _compile(self, expr: Expression) -> Matcher:
        if isinstance(expr, Literal):
            return self._compile_literal(expr)
        if isinstance(expr, CharClass):
            matches = expr.matches

            def match_class(state, pos):
                text = state._text
                if pos < state._length and matches(text[pos]):
                    return pos + 1, text[pos]
                state._expected(pos, "character class")
                return FAILPAIR

            return match_class
        if isinstance(expr, AnyChar):

            def match_any(state, pos):
                if pos < state._length:
                    return pos + 1, state._text[pos]
                state._expected(pos, "any character")
                return FAILPAIR

            return match_any
        if isinstance(expr, Nonterminal):
            name = expr.name
            productions = self._productions

            def match_call(state, pos):
                return productions[name](state, pos)

            return match_call
        if isinstance(expr, Sequence):
            return self._compile_sequence(expr)
        if isinstance(expr, Choice):
            branches = [
                (self._compile(branch),) for branch in expr.alternatives
            ]

            def match_choice(state, pos):
                for (branch,) in branches:
                    result = branch(state, pos)
                    if result[0] >= 0:
                        return result
                return FAILPAIR

            return match_choice
        if isinstance(expr, Repetition):
            item = self._compile(expr.expr)
            collect = contributes(expr.expr, self._kind_of)
            minimum = expr.min

            def match_repetition(state, pos):
                values = [] if collect else None
                count = 0
                while True:
                    npos, value = item(state, pos)
                    if npos < 0 or npos == pos:
                        break
                    pos = npos
                    count += 1
                    if collect:
                        values.append(value)
                if count < minimum:
                    return FAILPAIR
                return pos, values

            return match_repetition
        if isinstance(expr, Option):
            item = self._compile(expr.expr)
            keep = contributes(expr.expr, self._kind_of)

            def match_option(state, pos):
                npos, value = item(state, pos)
                if npos < 0:
                    return pos, None
                return npos, value if keep else None

            return match_option
        if isinstance(expr, And):
            item = self._compile(expr.expr)

            if self._incremental:
                # A *succeeding* lookahead operand leaves no failure record,
                # yet the outcome depends on everything it consumed — fold
                # its end into the watermark before rewinding.
                def match_and_incremental(state, pos):
                    npos, _ = item(state, pos)
                    if npos < 0:
                        return FAILPAIR
                    if npos > state.examined:
                        state.examined = npos
                    return pos, None

                return match_and_incremental

            def match_and(state, pos):
                npos, _ = item(state, pos)
                if npos < 0:
                    return FAILPAIR
                return pos, None

            return match_and
        if isinstance(expr, Not):
            item = self._compile(expr.expr)

            if self._incremental:

                def match_not_incremental(state, pos):
                    npos, _ = item(state, pos)
                    if npos >= 0:
                        if npos > state.examined:
                            state.examined = npos
                        state._expected(pos, "not-predicate")
                        return FAILPAIR
                    return pos, None

                return match_not_incremental

            def match_not(state, pos):
                npos, _ = item(state, pos)
                if npos >= 0:
                    state._expected(pos, "not-predicate")
                    return FAILPAIR
                return pos, None

            return match_not
        if isinstance(expr, Binding):
            item = self._compile(expr.expr)
            name = expr.name

            def match_binding(state, pos):
                npos, value = item(state, pos)
                if npos >= 0:
                    state.env[name] = value
                return npos, value

            return match_binding
        if isinstance(expr, Voided):
            item = self._compile(expr.expr)

            def match_voided(state, pos):
                npos, _ = item(state, pos)
                return npos, None

            return match_voided
        if isinstance(expr, Text):
            item = self._compile(expr.expr)

            def match_text(state, pos):
                npos, _ = item(state, pos)
                if npos < 0:
                    return FAILPAIR
                return npos, state._text[pos:npos]

            return match_text
        if isinstance(expr, Action):
            code = compile(expr.code, "<action>", "eval")

            def match_action(state, pos):
                return pos, eval(code, ACTION_GLOBALS, state.env)  # noqa: S307

            return match_action
        if isinstance(expr, Epsilon):
            return lambda state, pos: (pos, None)
        if isinstance(expr, Fail):
            message = expr.message or "nothing"

            def match_fail(state, pos):
                state._expected(pos, message)
                return FAILPAIR

            return match_fail
        if isinstance(expr, Regex):
            if self._incremental:
                # A fused scan examines an unbounded span past its match end
                # (possessive backtracking probes), which would poison the
                # watermark; incremental parsers run the region's *original*
                # expression instead, whose reads are all accounted for.
                # PR 5's replay machinery guarantees fused and unfused runs
                # report identical outcomes, offsets and expected sets.
                inner = expr.original
                if expr.capture:
                    wrapped = inner if isinstance(inner, Text) else Text(inner)
                else:
                    wrapped = Voided(inner)
                return self._compile(wrapped)
            return self._compile_regex(expr)
        if isinstance(expr, CharSwitch):
            cases = [(chars, self._compile(branch)) for chars, branch in expr.cases]
            default = self._compile(expr.default)

            if self._incremental:
                # Dispatch reads text[pos] (or sees end of input) without
                # recording anything on the skip path; account for the read.
                def match_switch_incremental(state, pos):
                    if pos >= state.examined:
                        state.examined = pos + 1
                    if pos < state._length:
                        ch = state._text[pos]
                        for chars, branch in cases:
                            if ch in chars:
                                result = branch(state, pos)
                                if result[0] >= 0:
                                    return result
                                break
                    return default(state, pos)

                return match_switch_incremental

            def match_switch(state, pos):
                if pos < state._length:
                    ch = state._text[pos]
                    for chars, branch in cases:
                        if ch in chars:
                            result = branch(state, pos)
                            if result[0] >= 0:
                                return result
                            break
                return default(state, pos)

            return match_switch
        raise AnalysisError(f"cannot compile {type(expr).__name__}")

    def _compile_regex(self, expr: Regex) -> Matcher:
        scan = compiled_pattern(expr.pattern).match
        # The fallback matcher re-runs the region's original expression for
        # its ``_expected`` side effects, deferred until an error message is
        # demanded (see ParserBase._drain_fused).
        fallback = self._compile(expr.original)
        capture = expr.capture
        silent = expr.silent
        profile = self._profile
        label = expr.label or "<fused>"

        def match_fused(state, pos):
            match = scan(state._text, pos)
            if match is None:
                state._fused_pending.append((fallback, pos))
                return FAILPAIR
            if not silent:
                state._fused_pending.append((fallback, pos))
            end = match.end()
            return end, state._text[pos:end] if capture else None

        if profile is None:
            return match_fused

        def match_fused_profiled(state, pos):
            profile.fused_scan(label)
            return match_fused(state, pos)

        return match_fused_profiled

    def _compile_literal(self, expr: Literal) -> Matcher:
        text_value = expr.text
        length = len(text_value)
        expected = repr(text_value)
        if expr.ignore_case:
            folded = text_value.lower()

            def match_ci(state, pos):
                end = pos + length
                chunk = state._text[pos:end]
                if chunk.lower() == folded:
                    return end, chunk
                state._expected(state._literal_failure_pos(pos, text_value, True), expected)
                return FAILPAIR

            return match_ci

        def match_literal(state, pos):
            if state._text.startswith(text_value, pos):
                return pos + length, text_value
            state._expected(state._literal_failure_pos(pos, text_value), expected)
            return FAILPAIR

        return match_literal

    def _compile_sequence(self, expr: Sequence) -> Matcher:
        parts = [
            (self._compile(item), contributes(item, self._kind_of))
            for item in expr.items
        ]

        def match_sequence(state, pos):
            contributions: list[Any] = []
            for matcher, contributing in parts:
                pos, value = matcher(state, pos)
                if pos < 0:
                    return FAILPAIR
                if contributing:
                    contributions.append(value)
            if not contributions:
                return pos, None
            if len(contributions) == 1:
                return pos, contributions[0]
            return pos, tuple(contributions)

        return match_sequence


_SENTINEL = object()
