"""The parser generator: prepared grammar → Python parser source.

The generated module defines one ``Parser`` class with a ``_p_<Production>``
method per production (names are sanitized) plus a public ``parse`` entry
point.  The translation mirrors the reference interpreter exactly — the
property tests compare the two on random inputs — but specializes
everything the interpreter decides dynamically:

- per-expression matching code is emitted inline (no dispatch on IR nodes);
- memoization code is emitted only for non-transient productions, in one of
  two organizations chosen by the ``chunks`` optimization flag: per-position
  *columns of chunks* (two list index operations per lookup) or the textbook
  single dictionary keyed by ``(production, position)``;
- repetitions and options compile to loops and inline conditionals;
- with the ``terminals`` flag, choices that were specialized to
  :class:`CharSwitch` dispatch on the next character, and production
  alternatives with known disjoint first sets get first-character guards;
- with the ``errors`` flag, farthest-failure tracking is inlined with
  constant expected-name tables instead of per-failure method calls;
- semantic actions become module-level functions called with the
  alternative's bindings.

The module source is returned as a string; :func:`repro.codegen.load_parser`
executes it and returns the parser class.
"""

from __future__ import annotations

from repro.analysis.first import FirstAnalysis, guard_message
from repro.errors import CodegenError
from repro.optim.options import Options
from repro.optim.pipeline import PreparedGrammar
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
from repro.codegen.writer import CodeWriter

#: Memo chunk size for the chunked organization.
CHUNK_SIZE = 8


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


class ParserGenerator:
    """Generate parser source for one prepared grammar.

    With ``profiled=True`` the emitted parser reports per-production
    invocations, memo hits/misses, per-alternative coverage, backtracks and
    wasted-character estimates to a :class:`repro.profile.ParseProfile`
    (``profile=`` constructor argument; a fresh collector is created when
    omitted).  The default (unprofiled) output is byte-identical to what
    this generator emitted before profiling existed — instrumentation is a
    separate generated artifact, not a runtime flag.
    """

    def __init__(
        self, prepared: PreparedGrammar, parser_name: str = "Parser", profiled: bool = False
    ):
        self.grammar: Grammar = prepared.grammar
        self.options: Options = prepared.options
        self.parser_name = parser_name
        self.profiled = profiled
        self.kind_of = kind_lookup(self.grammar)
        self.first = FirstAnalysis(self.grammar) if self.options.terminals else None
        self._actions: dict[tuple[str, tuple[str, ...]], str] = {}
        self._action_defs: list[str] = []
        self._charsets: dict[frozenset[str], str] = {}
        self._expected: dict[str, str] = {}
        # Fused-scan support: interned compiled patterns and the per-region
        # replay functions that reproduce farthest-failure records on demand.
        self._patterns: dict[str, str] = {}
        self._replays: dict[Regex, str] = {}
        self._replay_defs: list[str] = []
        self._counter = 0
        self._with_location_default = "withLocation" in self.grammar.options
        # Dense memo indices for non-transient productions.
        self._memo_index: dict[str, int] = {}
        for production in self.grammar:
            if not production.is_transient:
                self._memo_index[production.name] = len(self._memo_index)

    # -- helpers --------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _charset_const(self, chars: frozenset[str]) -> str:
        existing = self._charsets.get(chars)
        if existing is None:
            existing = f"_CS{len(self._charsets)}"
            self._charsets[chars] = existing
        return existing

    def _expected_const(self, message: str) -> str:
        existing = self._expected.get(message)
        if existing is None:
            existing = f"_E{len(self._expected)}"
            self._expected[message] = existing
        return existing

    def _pattern_const(self, pattern: str) -> str:
        existing = self._patterns.get(pattern)
        if existing is None:
            existing = f"_RX{len(self._patterns)}"
            self._patterns[pattern] = existing
        return existing

    def _replay_fn(self, expr: Regex) -> str:
        """The module-level replay function for one fused region.

        Its body is the ordinary generated code for the region's original
        expression, run purely for its farthest-failure records — which means
        it naturally goes through :meth:`_fail`, so under the ``errors`` flag
        it shares (and never mutates) the module's constant expected tables.
        """
        existing = self._replays.get(expr)
        if existing is None:
            existing = f"_fused_replay{len(self._replays)}"
            self._replays[expr] = existing
            w = CodeWriter()
            with w.block(f"def {existing}(self, pos):"):
                w.line("# Replays one fused region's original expression for its")
                w.line("# expected-set records (see ParserBase._drain_fused).")
                w.line("text = self._text")
                ok_var = self._fresh("ok")
                value_var = self._fresh("v")
                w.line(f"{ok_var} = True")
                self._emit(w, expr.original, "pos", value_var, ok_var, False)
            self._replay_defs.append(w.render())
        return existing

    def _action_fn(self, code: str, names: tuple[str, ...]) -> str:
        key = (code, names)
        existing = self._actions.get(key)
        if existing is None:
            existing = f"_action{len(self._actions)}"
            self._actions[key] = existing
            params = ", ".join(names)
            self._action_defs.append(f"def {existing}({params}):\n    return ({code})\n")
        return existing

    def _fail(self, w: CodeWriter, pos: str, message: str) -> None:
        """Emit farthest-failure tracking.

        The optimized (``errors``) form must stay observationally identical
        to ``self._expected``: farther positions replace the expected set
        with the shared constant table, and equal positions *merge* into it
        (via :meth:`ParserBase._merge_expected`, which copies before adding
        so the constants are never mutated).
        """
        if self.options.errors:
            const = self._expected_const(message)
            with w.block(f"if {pos} > self._fail_pos:"):
                w.line(f"self._fail_pos = {pos}")
                w.line(f"self._fail_expected = {const}")
            with w.block(f"elif {pos} == self._fail_pos:"):
                w.line(f"self._merge_expected({const})")
        else:
            w.line(f"self._expected({pos}, {message!r})")

    # -- top level ---------------------------------------------------------------

    def generate(self) -> str:
        # Generate the class body first: doing so records the character-set,
        # expected-message, and action constants the module header must define.
        body = CodeWriter()
        body.indent()
        self._class_body(body)

        w = CodeWriter()
        self._module_header(w)
        for chars, const in self._charsets.items():
            w.line(f"{const} = frozenset({''.join(sorted(chars))!r})")
        for message, const in self._expected.items():
            w.line(f"{const} = [{message!r}]")
        for pattern, const in self._patterns.items():
            w.line(f"{const} = _re.compile({pattern!r}, _re.DOTALL).match")
        if self._charsets or self._expected or self._patterns:
            w.line()
        for definition in self._action_defs + self._replay_defs:
            for line in definition.splitlines():
                w.line(line)
            w.line()
        w.line()
        w.line(f"class {self.parser_name}(ParserBase):")
        for line in body.render().splitlines():
            w._lines.append(line)
        w.line()
        w.line(f"GRAMMAR_NAME = {self.grammar.name!r}")
        w.line(f"START = {self.grammar.start!r}")
        if self.profiled:
            w.line("PROFILED = True")
        return w.render()

    def _module_header(self, w: CodeWriter) -> None:
        w.lines(
            f'"""Packrat parser generated from grammar {self.grammar.name!r}.',
            "",
            "Generated by repro.codegen — do not edit.",
            f"Optimizations: {', '.join(self.options.enabled()) or 'none'}",
            '"""',
            "",
            *(("import re as _re",) if self._patterns else ()),
            "from repro.runtime.base import ParserBase",
            "from repro.runtime.node import GNode",
            "from repro.runtime.actionlib import ACTION_GLOBALS",
            *(
                ("from repro.profile.collector import ParseProfile",)
                if self.profiled
                else ()
            ),
            "",
            "# Make the action helpers (cons, fold_left, ...) visible to the",
            "# generated action functions, without clobbering module builtins.",
            "globals().update({k: v for k, v in ACTION_GLOBALS.items() if k != '__builtins__'})",
            "",
            "FAIL = -1",
            "FAILPAIR = (-1, None)",
            f"N_MEMO = {len(self._memo_index)}",
            f"N_CHUNKS = {(len(self._memo_index) + CHUNK_SIZE - 1) // CHUNK_SIZE or 1}",
            f"CHUNK_SIZE = {CHUNK_SIZE}",
            "",
        )

    def _class_body(self, w: CodeWriter) -> None:
        rule_names = list(self._memo_index)
        w.line(f'"""Parser for grammar {self.grammar.name!r} (start: {self.grammar.start!r})."""')
        w.line()
        w.line(f"MEMOIZED_RULES = {rule_names!r}")
        w.line()
        init_sig = (
            "def __init__(self, text, source='<input>', profile=None):"
            if self.profiled
            else "def __init__(self, text, source='<input>'):"
        )
        with w.block(init_sig):
            w.line("super().__init__(text)")
            w.line("self._source = source")
            if self.profiled:
                w.line("self._profile = profile if profile is not None else ParseProfile()")
            if self.options.chunks:
                w.line("self._columns = {}")
            else:
                w.line("self._memo = {}")
        w.line()
        with w.block("def _reset_memo(self):"):
            w.line('"""Clear the memo table in place (reset() protocol)."""')
            if self.options.chunks:
                w.line("self._columns.clear()")
            else:
                w.line("self._memo.clear()")
        w.line()
        with w.block("def parse(self, start=None):"):
            w.line('"""Parse the whole input text; returns the semantic value."""')
            w.line(f"method = getattr(self, '_p_' + (start or {self.grammar.start!r}))")
            with w.block("try:"):
                w.line("npos, value = method(0)")
            with w.block("except RecursionError:"):
                w.line("# Deep nesting degrades into a structured diagnostic.")
                w.line("raise self.depth_error() from None")
            with w.block("if npos < 0 or npos < self._length:"):
                w.line("raise self.parse_error()")
            w.line("return value")
        w.line()
        with w.block("def match_prefix(self, start=None):"):
            w.line('"""Match a prefix; returns (consumed, value) or (-1, None)."""')
            w.line(f"method = getattr(self, '_p_' + (start or {self.grammar.start!r}))")
            w.line("return method(0)")
        w.line()
        self._memo_accounting(w)
        for production in self.grammar:
            self._production_method(w, production)
        if self._replays:
            with w.block("def _replay_fused(self, token, pos):"):
                w.line("# token is one of the module's _fused_replayN functions.")
                w.line("token(self, pos)")
            w.line()

    def _memo_accounting(self, w: CodeWriter) -> None:
        if self.options.chunks:
            with w.block("def memo_entry_count(self):"):
                w.line("count = 0")
                with w.block("for col in self._columns.values():"):
                    with w.block("for chunk in col:"):
                        with w.block("if chunk is not None:"):
                            w.line("count += sum(1 for slot in chunk if slot is not None)")
                w.line("return count")
            w.line()
            with w.block("def memo_chunk_count(self):"):
                w.line(
                    "return sum(sum(1 for c in col if c is not None) "
                    "for col in self._columns.values())"
                )
            w.line()
            with w.block("def memo_size_bytes(self):"):
                w.line("from repro.runtime.base import sizeof_deep")
                w.line("return sizeof_deep(self._columns)")
        else:
            with w.block("def memo_entry_count(self):"):
                w.line("return len(self._memo)")
            w.line()
            with w.block("def memo_size_bytes(self):"):
                w.line("from repro.runtime.base import sizeof_deep")
                w.line("return sizeof_deep(self._memo)")
        w.line()

    # -- production methods ----------------------------------------------------------

    def _bump(self, w: CodeWriter, attr: str, key: object, amount: str = "1") -> None:
        """Inline ``profile.<attr>[key] += amount``.

        The profiled twin writes the :class:`ParseProfile` counter dicts
        directly instead of calling the hook methods — a Python-level call
        per event would dominate profiled-parser runtime."""
        w.line(f"_pd = prof.{attr}")
        w.line(f"_pd[{key!r}] = _pd.get({key!r}, 0) + {amount}")

    def _production_method(self, w: CodeWriter, production: Production) -> None:
        name = _sanitize(production.name)
        prof_name = production.name
        with w.block(f"def _p_{name}(self, pos):"):
            w.line(f'"""{production.kind.value} {production.name}"""')
            if self.profiled:
                w.line("prof = self._profile")
                self._bump(w, "invocations", prof_name)
            memoized = production.name in self._memo_index
            if memoized:
                index = self._memo_index[production.name]
                if self.options.chunks:
                    chunk_index, slot = divmod(index, CHUNK_SIZE)
                    w.line("cols = self._columns")
                    w.line("col = cols.get(pos)")
                    with w.block("if col is None:"):
                        w.line("col = cols[pos] = [None] * N_CHUNKS")
                    w.line(f"chunk = col[{chunk_index}]")
                    with w.block("if chunk is None:"):
                        w.line(f"chunk = col[{chunk_index}] = [None] * CHUNK_SIZE")
                    w.line(f"m = chunk[{slot}]")
                else:
                    w.line(f"key = ({index}, pos)")
                    w.line("m = self._memo.get(key)")
                with w.block("if m is not None:"):
                    if self.profiled:
                        self._bump(w, "memo_hits", prof_name)
                        self._bump_outcome(w, "m", prof_name)
                    w.line("return m")
                if self.profiled:
                    self._bump(w, "memo_misses", prof_name)
            w.line("text = self._text")
            self._production_body(w, production)
            if memoized:
                if self.options.chunks:
                    w.line(f"chunk[{slot}] = result")
                else:
                    w.line("self._memo[key] = result")
            if self.profiled:
                self._bump_outcome(w, "result", prof_name)
            w.line("return result")
        w.line()

    def _bump_outcome(self, w: CodeWriter, result: str, prof_name: str) -> None:
        """Count ``result`` as one success or failure of ``prof_name``,
        whether it was just computed or served from the memo."""
        with w.block(f"if {result}[0] < 0:"):
            self._bump(w, "failures", prof_name)
        with w.block("else:"):
            self._bump(w, "successes", prof_name)

    def _production_body(self, w: CodeWriter, production: Production) -> None:
        guards = self._alternative_guards(production)
        prof_name = production.name
        with w.block("while True:"):
            for alt_index, alternative in enumerate(production.alternatives):
                w.line(f"# alternative {alt_index + 1}" + (f" <{alternative.label}>" if alternative.label else ""))
                if self.profiled:
                    self._bump(w, "coverage.entered", (prof_name, alt_index))
                guard = guards[alt_index] if guards else None
                if guard is not None:
                    const, message = guard
                    with w.block(f"if pos < self._length and text[pos] in {const}:"):
                        pos_var = self._alternative_attempt(w, production, alternative, alt_index)
                        # Reached only when the attempt failed (success breaks).
                        if self.profiled:
                            self._bump(w, "backtracks", (prof_name))
                            w.line(f"_pw = {pos_var} - pos")
                            with w.block("if _pw > 0:"):
                                self._bump(w, "wasted_chars", prof_name, "_pw")
                    # Skipping the alternative must record the failure the
                    # attempt would have recorded (its first terminal failing
                    # at pos), or guarded and unguarded parsers would report
                    # different farthest-failure positions.
                    with w.block("else:"):
                        self._fail(w, "pos", message)
                        if self.profiled:
                            self._bump(w, "backtracks", prof_name)
                else:
                    pos_var = self._alternative_attempt(w, production, alternative, alt_index)
                    if self.profiled:
                        self._bump(w, "backtracks", prof_name)
                        w.line(f"_pw = {pos_var} - pos")
                        with w.block("if _pw > 0:"):
                            self._bump(w, "wasted_chars", prof_name, "_pw")
            w.line("result = FAILPAIR")
            w.line("break")

    def _alternative_guards(
        self, production: Production
    ) -> list[tuple[str, str] | None] | None:
        """Per-alternative first-char guard ``(charset const, expected
        message)`` pairs, or None when the production is unguarded (policy:
        :meth:`FirstAnalysis.alternative_guards`)."""
        sets = self.first.alternative_guards(production) if self.first else None
        if sets is None:
            return None
        return [
            None if chars is None else (self._charset_const(chars), guard_message(chars))
            for chars in sets
        ]

    def _alternative_attempt(
        self, w: CodeWriter, production: Production, alternative, alt_index: int = 0
    ) -> str:
        """Emit one attempt; on success set ``result`` and break.

        Returns the attempt's position variable so profiled callers can
        emit a wasted-character estimate on the failure path.
        """
        names = binding_names(alternative.expr)
        self._bindings_in_scope = tuple(names)
        for bound in names:
            w.line(f"bnd_{bound} = None")
        kind = production.kind
        items = (
            alternative.expr.items
            if isinstance(alternative.expr, Sequence)
            else (alternative.expr,)
        )
        need_contributions = kind in (ValueKind.GENERIC, ValueKind.OBJECT)
        pos_var = self._fresh("p")
        ok_var = self._fresh("ok")
        w.line(f"{pos_var} = pos")
        w.line(f"{ok_var} = True")
        contribution_vars: list[str] = []
        explicit_vars: list[str] = []
        depth = 0
        for item in items:
            value_var = self._fresh("v")
            item_contributes = contributes(item, self.kind_of)
            need_value = (need_contributions and item_contributes) or _has_binding(item)
            self._emit(w, item, pos_var, value_var, ok_var, need_value or isinstance(item, Action))
            if item_contributes:
                contribution_vars.append(value_var)
                if isinstance(item, Action):
                    explicit_vars.append(value_var)
            w.line(f"if {ok_var}:")
            w.indent()
            depth += 1
        self._success_value(w, production, alternative, contribution_vars, explicit_vars, pos_var)
        if self.profiled:
            self._bump(w, "coverage.succeeded", (production.name, alt_index))
        w.line("break")
        for _ in range(depth):
            w.dedent()
        return pos_var

    def _success_value(
        self,
        w: CodeWriter,
        production: Production,
        alternative,
        contribution_vars: list[str],
        explicit_vars: list[str],
        pos_var: str,
    ) -> None:
        kind = production.kind
        if kind is ValueKind.VOID:
            w.line(f"result = ({pos_var}, None)")
            return
        if kind is ValueKind.TEXT:
            w.line(f"result = ({pos_var}, text[pos:{pos_var}])")
            return
        if kind is ValueKind.GENERIC:
            if alternative.label is None and len(contribution_vars) == 1:
                w.line(f"result = ({pos_var}, {contribution_vars[0]})")
                return
            gname = node_name(production.name, alternative.label)
            children = ", ".join(contribution_vars)
            children_tuple = f"({children},)" if contribution_vars else "()"
            with_location = self._with_location_default or production.has("withLocation")
            location = "self._location(pos)" if with_location else "None"
            w.line(f"result = ({pos_var}, GNode({gname!r}, {children_tuple}, {location}))")
            return
        # OBJECT
        if explicit_vars:
            w.line(f"result = ({pos_var}, {explicit_vars[-1]})")
        elif not contribution_vars:
            w.line(f"result = ({pos_var}, None)")
        elif len(contribution_vars) == 1:
            w.line(f"result = ({pos_var}, {contribution_vars[0]})")
        else:
            w.line(f"result = ({pos_var}, ({', '.join(contribution_vars)}))")

    # -- expression emission -----------------------------------------------------------
    #
    # _emit(w, expr, pos_var, value_var, ok_var, need_value) emits code that,
    # assuming ok_var is True and pos_var holds the current position, tries
    # to match expr: on success pos_var is advanced and value_var holds the
    # value (when need_value); on failure ok_var becomes False (pos_var is
    # then meaningless — the caller must not use it).

    def _emit(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        if isinstance(expr, Literal):
            self._emit_literal(w, expr, pos_var, value_var, ok_var, need_value)
        elif isinstance(expr, CharClass):
            self._emit_char_class(w, expr, pos_var, value_var, ok_var, need_value)
        elif isinstance(expr, AnyChar):
            with w.block(f"if {pos_var} < self._length:"):
                if need_value:
                    w.line(f"{value_var} = text[{pos_var}]")
                w.line(f"{pos_var} += 1")
            with w.block("else:"):
                w.line(f"{ok_var} = False")
                self._fail(w, pos_var, "any character")
        elif isinstance(expr, Nonterminal):
            method = f"_p_{_sanitize(expr.name)}"
            result = self._fresh("r")
            w.line(f"{result} = self.{method}({pos_var})")
            with w.block(f"if {result}[0] < 0:"):
                w.line(f"{ok_var} = False")
            with w.block("else:"):
                if need_value:
                    w.line(f"{value_var} = {result}[1]")
                w.line(f"{pos_var} = {result}[0]")
        elif isinstance(expr, Sequence):
            self._emit_sequence(w, expr, pos_var, value_var, ok_var, need_value)
        elif isinstance(expr, Choice):
            self._emit_choice(w, expr, pos_var, value_var, ok_var, need_value)
        elif isinstance(expr, Repetition):
            self._emit_repetition(w, expr, pos_var, value_var, ok_var, need_value)
        elif isinstance(expr, Option):
            self._emit_option(w, expr, pos_var, value_var, ok_var, need_value)
        elif isinstance(expr, And):
            saved = self._fresh("s")
            w.line(f"{saved} = {pos_var}")
            inner_value = self._fresh("v")
            self._emit(w, expr.expr, pos_var, inner_value, ok_var, False)
            w.line(f"{pos_var} = {saved}")
            if need_value:
                w.line(f"{value_var} = None")
        elif isinstance(expr, Not):
            saved = self._fresh("s")
            w.line(f"{saved} = {pos_var}")
            inner_value = self._fresh("v")
            self._emit(w, expr.expr, pos_var, inner_value, ok_var, False)
            with w.block(f"if {ok_var}:"):
                w.line(f"{ok_var} = False")
                self._fail(w, saved, "not-predicate")
            with w.block("else:"):
                w.line(f"{ok_var} = True")
                w.line(f"{pos_var} = {saved}")
            if need_value:
                w.line(f"{value_var} = None")
        elif isinstance(expr, Binding):
            self._emit(w, expr.expr, pos_var, value_var, ok_var, True)
            with w.block(f"if {ok_var}:"):
                w.line(f"bnd_{expr.name} = {value_var}")
        elif isinstance(expr, Voided):
            inner_value = self._fresh("v")
            self._emit(w, expr.expr, pos_var, inner_value, ok_var, False)
            if need_value:
                w.line(f"{value_var} = None")
        elif isinstance(expr, Text):
            saved = self._fresh("s")
            w.line(f"{saved} = {pos_var}")
            inner_value = self._fresh("v")
            self._emit(w, expr.expr, pos_var, inner_value, ok_var, False)
            if need_value:
                with w.block(f"if {ok_var}:"):
                    w.line(f"{value_var} = text[{saved}:{pos_var}]")
        elif isinstance(expr, Action):
            names = tuple(self._bindings_in_scope)
            fn = self._action_fn(expr.code, names)
            args = ", ".join(f"bnd_{n}" for n in names)
            w.line(f"{value_var} = {fn}({args})")
        elif isinstance(expr, Epsilon):
            if need_value:
                w.line(f"{value_var} = None")
        elif isinstance(expr, Fail):
            w.line(f"{ok_var} = False")
            self._fail(w, pos_var, expr.message or "nothing")
        elif isinstance(expr, CharSwitch):
            self._emit_char_switch(w, expr, pos_var, value_var, ok_var, need_value)
        elif isinstance(expr, Regex):
            self._emit_regex(w, expr, pos_var, value_var, ok_var, need_value)
        else:  # pragma: no cover
            raise CodegenError(f"cannot generate code for {type(expr).__name__}")

    # Bindings visible to actions: managed as a stack around alternatives.
    _bindings_in_scope: tuple[str, ...] = ()

    def _emit_literal(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        length = len(expr.text)
        if expr.ignore_case:
            folded = expr.text.lower()
            cond = f"text[{pos_var}:{pos_var} + {length}].lower() == {folded!r}"
        elif length == 1:
            cond = f"{pos_var} < self._length and text[{pos_var}] == {expr.text!r}"
        else:
            cond = f"text.startswith({expr.text!r}, {pos_var})"
        message = f"{expr.text!r}"
        with w.block(f"if {cond}:"):
            if need_value:
                if expr.ignore_case:
                    w.line(f"{value_var} = text[{pos_var}:{pos_var} + {length}]")
                else:
                    w.line(f"{value_var} = {expr.text!r}")
            w.line(f"{pos_var} += {length}")
        with w.block("else:"):
            w.line(f"{ok_var} = False")
            if length == 1:
                self._fail(w, pos_var, message)
            elif expr.ignore_case:
                fail_pos = self._fresh("f")
                w.line(f"{fail_pos} = self._literal_failure_pos({pos_var}, {expr.text!r}, True)")
                self._fail(w, fail_pos, message)
            else:
                # Failure is recorded at the first mismatching character
                # (see ParserBase._literal_failure_pos); the common case —
                # the first character already differs — stays call-free.
                with w.block(
                    f"if {pos_var} < self._length and text[{pos_var}] == {expr.text[0]!r}:"
                ):
                    fail_pos = self._fresh("f")
                    w.line(f"{fail_pos} = self._literal_failure_pos({pos_var}, {expr.text!r})")
                    self._fail(w, fail_pos, message)
                with w.block("else:"):
                    self._fail(w, pos_var, message)

    def _emit_char_class(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        ch = self._fresh("c")
        chars = expr.first_chars()
        if chars is not None and len(chars) <= 32:
            test = f"{ch} in {self._charset_const(chars)}"
        else:
            parts = []
            for lo, hi in expr.ranges:
                if lo == hi:
                    parts.append(f"{ch} == {lo!r}")
                else:
                    parts.append(f"{lo!r} <= {ch} <= {hi!r}")
            test = " or ".join(parts) or "False"
            if expr.negated:
                test = f"not ({test})"
        with w.block(f"if {pos_var} < self._length:"):
            w.line(f"{ch} = text[{pos_var}]")
            with w.block(f"if {test}:"):
                if need_value:
                    w.line(f"{value_var} = {ch}")
                w.line(f"{pos_var} += 1")
            with w.block("else:"):
                w.line(f"{ok_var} = False")
                self._fail(w, pos_var, "character class")
        with w.block("else:"):
            w.line(f"{ok_var} = False")
            self._fail(w, pos_var, "character class")

    def _emit_sequence(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        contribution_vars: list[str] = []
        depth = 0
        for index, item in enumerate(expr.items):
            item_value = self._fresh("v")
            item_contributes = contributes(item, self.kind_of)
            self._emit(
                w, item, pos_var, item_value, ok_var,
                (need_value and item_contributes) or _has_binding(item) or isinstance(item, Action),
            )
            if item_contributes:
                contribution_vars.append(item_value)
            if index < len(expr.items) - 1 or need_value:
                w.line(f"if {ok_var}:")
                w.indent()
                depth += 1
        if need_value:
            if not contribution_vars:
                w.line(f"{value_var} = None")
            elif len(contribution_vars) == 1:
                w.line(f"{value_var} = {contribution_vars[0]}")
            else:
                w.line(f"{value_var} = ({', '.join(contribution_vars)})")
        for _ in range(depth):
            w.dedent()

    def _emit_choice(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        # The choice's value is the matched branch's raw value (matches the
        # interpreter; see its Choice case).
        saved = self._fresh("s")
        w.line(f"{saved} = {pos_var}")
        depth = 0
        for index, branch in enumerate(expr.alternatives):
            if index > 0:
                w.line(f"if not {ok_var}:")
                w.indent()
                depth += 1
                w.line(f"{ok_var} = True")
                w.line(f"{pos_var} = {saved}")
            branch_value = self._fresh("v")
            self._emit(w, branch, pos_var, branch_value, ok_var, need_value)
            if need_value:
                with w.block(f"if {ok_var}:"):
                    w.line(f"{value_var} = {branch_value}")
        for _ in range(depth):
            w.dedent()

    def _emit_repetition(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        item_contributes = contributes(expr.expr, self.kind_of)
        collect = need_value and item_contributes
        if collect:
            w.line(f"{value_var} = []")
            append = f"{value_var}_append"
            w.line(f"{append} = {value_var}.append")
        elif need_value:
            w.line(f"{value_var} = None")
        count = self._fresh("n") if expr.min == 1 else None
        if count:
            w.line(f"{count} = 0")
        inner_pos = self._fresh("p")
        inner_ok = self._fresh("ok")
        with w.block("while True:"):
            w.line(f"{inner_pos} = {pos_var}")
            w.line(f"{inner_ok} = True")
            item_value = self._fresh("v")
            self._emit(w, expr.expr, inner_pos, item_value, inner_ok, collect or _has_binding(expr.expr))
            with w.block(f"if not {inner_ok} or {inner_pos} == {pos_var}:"):
                w.line("break")
            w.line(f"{pos_var} = {inner_pos}")
            if collect:
                w.line(f"{append}({item_value})")
            if count:
                w.line(f"{count} += 1")
        if count:
            with w.block(f"if {count} < 1:"):
                w.line(f"{ok_var} = False")

    def _emit_option(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        item_contributes = contributes(expr.expr, self.kind_of)
        saved = self._fresh("s")
        inner_ok = self._fresh("ok")
        w.line(f"{saved} = {pos_var}")
        w.line(f"{inner_ok} = True")
        item_value = self._fresh("v")
        self._emit(
            w, expr.expr, pos_var, item_value, inner_ok,
            (need_value and item_contributes) or _has_binding(expr.expr),
        )
        with w.block(f"if not {inner_ok}:"):
            w.line(f"{pos_var} = {saved}")
            if need_value:
                w.line(f"{value_var} = None")
        if need_value:
            with w.block("else:"):
                w.line(f"{value_var} = {item_value if item_contributes else None}")

    def _emit_char_switch(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        ch = self._fresh("c")
        matched = self._fresh("m")
        w.line(f"{matched} = False")
        with w.block(f"if {pos_var} < self._length:"):
            w.line(f"{ch} = text[{pos_var}]")
            for index, (chars, branch) in enumerate(expr.cases):
                header = "if" if index == 0 else "elif"
                with w.block(f"{header} {ch} in {self._charset_const(chars)}:"):
                    w.line(f"{matched} = True")
                    branch_value = self._fresh("v")
                    self._emit(w, branch, pos_var, branch_value, ok_var, need_value)
                    if need_value:
                        with w.block(f"if {ok_var}:"):
                            w.line(f"{value_var} = {branch_value}")
        # No case applied, or the case's branch failed: try the default
        # (mirrors the interpreter's fall-through semantics).
        with w.block(f"if not {matched} or not {ok_var}:"):
            w.line(f"{ok_var} = True")
            default_value = self._fresh("v")
            self._emit(w, expr.default, pos_var, default_value, ok_var, need_value)
            if need_value:
                with w.block(f"if {ok_var}:"):
                    w.line(f"{value_var} = {default_value}")


    def _emit_regex(self, w, expr, pos_var, value_var, ok_var, need_value) -> None:
        # One C-level scan for a whole fused region.  Failures — and
        # successes of regions whose match can step over recordable failures
        # — are noted for lazy replay; the scan itself never touches the
        # expected set (see ParserBase._drain_fused for the argument).
        scan = self._pattern_const(expr.pattern)
        replay = self._replay_fn(expr)
        if self.profiled:
            self._bump(w, "fused_scans", expr.label or "<fused>")
        match = self._fresh("m")
        w.line(f"{match} = {scan}(text, {pos_var})")
        with w.block(f"if {match} is None:"):
            w.line(f"self._fused_pending.append(({replay}, {pos_var}))")
            w.line(f"{ok_var} = False")
        with w.block("else:"):
            if not expr.silent:
                w.line(f"self._fused_pending.append(({replay}, {pos_var}))")
            if need_value and expr.capture:
                end = self._fresh("e")
                w.line(f"{end} = {match}.end()")
                w.line(f"{value_var} = text[{pos_var}:{end}]")
                w.line(f"{pos_var} = {end}")
            else:
                if need_value:
                    w.line(f"{value_var} = None")
                w.line(f"{pos_var} = {match}.end()")


def _has_binding(expr: Expression) -> bool:
    from repro.peg.expr import walk

    return any(isinstance(node, Binding) for node in walk(expr))


def generate_parser_source(
    prepared: PreparedGrammar, parser_name: str = "Parser", profiled: bool = False
) -> str:
    """Generate the parser module source for a prepared grammar.

    ``profiled=True`` emits the instrumented twin (see
    :class:`ParserGenerator`); the default output is unchanged.
    """
    return ParserGenerator(prepared, parser_name, profiled=profiled).generate()
