"""IR-to-bytecode lowering for the parsing-machine backend.

The compiler turns the post-optimization grammar IR into one flat
instruction array in the style of LPeg/Nez parsing machines: ordered choice
becomes a backtrack-entry push (``CHOICE``) that a successful alternative
pops (``COMMIT``/``POPE``), productions become ``CALL``/``RET`` over a
return-frame stack, and predicates push handler entries that the failure
unwinder interprets.  Every instruction is a plain tuple ``(opcode,
arg...)``; :class:`repro.vm.machine.VMParser` dispatches over them in a
single loop.

Value construction is decided *statically*, exactly as the other backends
decide it (shared rules from :mod:`repro.peg.values`): each expression is
compiled in **value mode** (leaves exactly one value on the value stack) or
**void mode** (leaves none), and each production alternative ends in reduce
ops (``RED_NODE``/``RED_TEXT``/``SEQ_TUPLE``/…) that build the same
semantic values the interpreter and generated backends produce.

Two compilations exist per grammar: the plain program, and on demand a
*profiled twin* (``profiled=True``) with per-alternative probe ops and
named backtrack entries so :class:`repro.profile.ParseProfile` counters can
be attributed from instruction indices back to production names.  The twin
drops the first-char alternative guards — like the generated parser's
guards they are ``dispatch_safe``-gated, so offsets (though not expected
message texts) are unchanged either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.first import FirstAnalysis
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

#: Minimum alternatives for production-level first-char guards (mirrors the
#: code generator's policy so guard-recorded expected messages agree).
GUARD_MIN_ALTERNATIVES = 3

# ---------------------------------------------------------------------------
# Opcodes.  Numbered roughly by dispatch frequency: the machine's if/elif
# ladder tests them in this order, so hot ops must come first.
# ---------------------------------------------------------------------------

OP_CHAR = 0        # (op, ch, msg, push): match one exact character
OP_SET = 1         # (op, charset, push): match one char in a frozenset
OP_CALL = 2        # (op, target_ip, memo_index, name): invoke a production
OP_RET = 3         # (op,): return from a production (memo-store on the way)
OP_CHOICE = 4      # (op, alt_ip): push a backtrack entry
OP_COMMIT = 5      # (op, target_ip): pop the entry, jump
OP_POPE = 6        # (op,): pop the entry, fall through
OP_LIT = 7         # (op, text, len, msg, push): match a multi-char literal
OP_REP_NEXT = 8    # (op, body_ip): close one repetition iteration
OP_REP_BEGIN = 9   # (op, end_ip, min, mode): open a repetition
OP_GUARD = 10      # (op, charset, target_ip, msg): first-char alt guard
OP_SWITCH = 11     # (op, {ch: ip}, default_ip): first-char dispatch
OP_REGEX = 12      # (op, scan, push_mode, silent, token, label): fused scan
OP_JUMP = 13       # (op, target_ip)
OP_ANY = 14        # (op, push): match any one character
OP_CLASS = 15      # (op, matches, push): char class via a membership fn
OP_SPAN = 16       # (op, charset): void (CharClass)* as one scan loop
OP_NOT_BEGIN = 17  # (op, cont_ip): open a !e predicate
OP_NOT_FAIL = 18   # (op,): !e operand matched -> predicate fails
OP_AND_BEGIN = 19  # (op,): open a &e predicate
OP_AND_END = 20    # (op,): &e operand matched -> rewind, continue
OP_PUSH = 21       # (op, const): push a constant value
OP_POP = 22        # (op,): drop the top value
OP_PUSH_POS = 23   # (op,): push the current position (for text: capture)
OP_TEXT_END = 24   # (op,): replace pushed start pos with the matched span
OP_BIND = 25       # (op, name): env[name] = top value (kept on stack)
OP_BIND_POP = 26   # (op, name): env[name] = popped value
OP_ACTION = 27     # (op, code, push): evaluate a semantic action
OP_ENV_NEW = 28    # (op, names): fresh binding env for this alternative
OP_SEQ_TUPLE = 29  # (op, n): collapse top n values into a tuple
OP_RED_TEXT = 30   # (op,): push the text consumed by this production call
OP_RED_NODE = 31   # (op, name, n, with_loc): build a GNode from top n values
OP_LIT_CI = 32     # (op, text, folded, len, msg, push): case-insensitive lit
OP_FAIL = 33       # (op,): unconditional failure (no record)
OP_EXPECT_FAIL = 34  # (op, msg): record an expectation, then fail
OP_HALT = 35       # (op,): successful end of the start production
# Profiled-twin only:
OP_PROF_ALT = 36     # (op, prod, idx): ParseProfile.alt_enter
OP_PROF_ALT_OK = 37  # (op, prod, idx): ParseProfile.alt_success
OP_PCHOICE = 38      # (op, alt_ip, prod, idx): CHOICE with attribution
# Superinstructions (plain program only; the profiled twin keeps the
# separate ops so its probes see every step):
OP_CALL_BIND = 39  # (op, target_ip, memo_index, name, bind): CALL + BIND_POP
OP_GCHOICE = 40    # (op, charset, alt_ip, msg): GUARD + CHOICE fused
OP_ACTION_RET = 41  # (op, code): trailing semantic action + RET in one step

OP_NAMES = {
    OP_CHAR: "char",
    OP_SET: "set",
    OP_CALL: "call",
    OP_RET: "ret",
    OP_CHOICE: "choice",
    OP_COMMIT: "commit",
    OP_POPE: "pope",
    OP_LIT: "lit",
    OP_REP_NEXT: "rep_next",
    OP_REP_BEGIN: "rep_begin",
    OP_GUARD: "guard",
    OP_SWITCH: "switch",
    OP_REGEX: "regex",
    OP_JUMP: "jump",
    OP_ANY: "any",
    OP_CLASS: "class",
    OP_SPAN: "span",
    OP_NOT_BEGIN: "not_begin",
    OP_NOT_FAIL: "not_fail",
    OP_AND_BEGIN: "and_begin",
    OP_AND_END: "and_end",
    OP_PUSH: "push",
    OP_POP: "pop",
    OP_PUSH_POS: "push_pos",
    OP_TEXT_END: "text_end",
    OP_BIND: "bind",
    OP_BIND_POP: "bind_pop",
    OP_ACTION: "action",
    OP_ENV_NEW: "env_new",
    OP_SEQ_TUPLE: "seq_tuple",
    OP_RED_TEXT: "red_text",
    OP_RED_NODE: "red_node",
    OP_LIT_CI: "lit_ci",
    OP_FAIL: "fail",
    OP_EXPECT_FAIL: "expect_fail",
    OP_HALT: "halt",
    OP_PROF_ALT: "prof_alt",
    OP_PROF_ALT_OK: "prof_alt_ok",
    OP_PCHOICE: "pchoice",
    OP_CALL_BIND: "call_bind",
    OP_GCHOICE: "gchoice",
    OP_ACTION_RET: "action_ret",
}

#: Shared program prologue: ip 0 unwinds, ip 1 halts.
FAIL_IP = 0
HALT_IP = 1


def _first_set_message(chars: frozenset[str]) -> str:
    """Guard-skip expected message; must match the code generator's."""
    shown = "".join(sorted(chars))
    if len(shown) > 16:
        shown = shown[:16] + "…"
    return f"one of {shown!r}"


class _Label:
    """A forward-reference instruction address, patched at finalize time."""

    __slots__ = ("ip",)

    def __init__(self) -> None:
        self.ip: int | None = None


@dataclass(frozen=True)
class VMProgram:
    """One grammar compiled to a flat instruction array.

    ``entries`` maps production names to entry addresses; ``memo_rules`` /
    ``memo_index`` give the dense memo-table indices (non-transient
    productions in grammar order, identical to every other memoizing
    backend); ``rule_spans`` maps instruction ranges back to production
    names for the disassembler and the profiler.
    """

    code: tuple[tuple, ...]
    entries: dict[str, int]
    start: str
    memo_rules: tuple[str, ...]
    memo_index: dict[str, int]
    rule_spans: tuple[tuple[str, int, int], ...]
    profiled: bool = False
    chunked: bool = True
    incremental: bool = False
    grammar_name: str = "grammar"
    grammar: Grammar | None = field(default=None, repr=False, compare=False)

    def production_at(self, ip: int) -> str | None:
        """The production whose body contains instruction ``ip``."""
        for name, start, end in self.rule_spans:
            if start <= ip < end:
                return name
        return None


def compile_program(
    source: Any,
    *,
    profiled: bool = False,
    guards: bool | None = None,
    incremental: bool = False,
) -> VMProgram:
    """Compile a grammar (or a :class:`~repro.optim.PreparedGrammar`) to a
    :class:`VMProgram`.

    For a prepared grammar the first-char alternative guards follow the
    ``terminals`` optimization flag (like the code generator); for a bare
    grammar they default to on.  ``guards`` overrides either way;
    ``profiled=True`` always disables them and emits probe ops instead.

    ``incremental=True`` builds the variant executed by
    :meth:`VMParser._run_incremental` (see docs/incremental.md): fused
    ``Regex`` regions are lowered back to their original expressions, whose
    reads the examined watermark can account for exactly — a single C scan
    probes unboundedly far past its match end.  Everything else is compiled
    identically, so incremental and plain runs agree bit for bit.
    """
    if hasattr(source, "grammar"):
        grammar = source.grammar
        if guards is None:
            guards = bool(source.options.terminals)
        chunked = bool(source.chunked_memo)
    else:
        grammar = source
        if guards is None:
            guards = True
        chunked = True
    if profiled and incremental:
        raise AnalysisError("vm compiler: profiled and incremental are exclusive")
    return _Compiler(
        grammar,
        profiled=profiled,
        guards=guards,
        chunked=chunked,
        incremental=incremental,
    ).compile()


class _Compiler:
    def __init__(
        self,
        grammar: Grammar,
        *,
        profiled: bool,
        guards: bool,
        chunked: bool,
        incremental: bool = False,
    ):
        grammar.validate()
        self.grammar = grammar
        self.profiled = profiled
        self.chunked = chunked
        self.incremental = incremental
        self.kind_of = kind_lookup(grammar)
        self.with_location = "withLocation" in grammar.options
        self.first = FirstAnalysis(grammar) if guards and not profiled else None
        self.code: list[list] = []
        # Incremental programs memoize every production: reuse happens at
        # stored-entry granularity, and un-memoized structural glue would
        # make warm reparses re-derive the spine.
        self.memo_rules = tuple(
            p.name
            for p in grammar.productions
            if incremental or not p.is_transient
        )
        self.memo_index = {name: i for i, name in enumerate(self.memo_rules)}
        self.rule_labels = {p.name: _Label() for p in grammar.productions}

    # -- emission helpers ---------------------------------------------------

    def _emit(self, *parts: Any) -> int:
        self.code.append(list(parts))
        return len(self.code) - 1

    def _mark(self, label: _Label) -> None:
        label.ip = len(self.code)

    # -- top level ----------------------------------------------------------

    def compile(self) -> VMProgram:
        self._emit(OP_FAIL)   # FAIL_IP: shared unwind target
        self._emit(OP_HALT)   # HALT_IP: return address of the start frame
        spans: list[tuple[str, int, int]] = []
        for production in self.grammar.productions:
            start = len(self.code)
            self._compile_production(production)
            spans.append((production.name, start, len(self.code)))
        code = tuple(tuple(self._patch(part) for part in inst) for inst in self.code)
        entries = {name: label.ip for name, label in self.rule_labels.items()}
        return VMProgram(
            code=code,
            entries=entries,
            start=self.grammar.start,
            memo_rules=self.memo_rules,
            memo_index=self.memo_index,
            rule_spans=tuple(spans),
            profiled=self.profiled,
            chunked=self.chunked,
            incremental=self.incremental,
            grammar_name=self.grammar.name,
            grammar=self.grammar,
        )

    @staticmethod
    def _patch(part: Any) -> Any:
        if isinstance(part, _Label):
            if part.ip is None:
                raise AnalysisError("vm compiler bug: unmarked label")
            return part.ip
        if isinstance(part, dict):
            return {key: _Compiler._patch(value) for key, value in part.items()}
        return part

    # -- productions --------------------------------------------------------

    def _compile_production(self, production: Production) -> None:
        if not production.alternatives:
            raise AnalysisError(f"production {production.name} has no alternatives")
        self._mark(self.rule_labels[production.name])
        guards = self._alternative_guards(production)
        count = len(production.alternatives)
        for index, alternative in enumerate(production.alternatives):
            next_label = _Label() if index < count - 1 else None
            fail_target: Any = next_label if next_label is not None else FAIL_IP
            if self.profiled:
                self._emit(OP_PROF_ALT, production.name, index)
                self._emit(OP_PCHOICE, fail_target, production.name, index)
                pushed = True
            else:
                pushed = next_label is not None
                if guards is not None and guards[index] is not None:
                    charset, message = guards[index]
                    if pushed:
                        # Fused guard + backtrack push: the guard's skip
                        # target and the choice's resume target coincide.
                        self._emit(OP_GCHOICE, charset, next_label, message)
                    else:
                        self._emit(OP_GUARD, charset, fail_target, message)
                elif pushed:
                    self._emit(OP_CHOICE, next_label)
            self._compile_alternative(production, alternative, index, pushed)
            if next_label is not None:
                self._mark(next_label)

    def _alternative_guards(self, production: Production):
        """Per-alternative ``(charset, message)`` guards, or None.

        Same policy as the code generator: only with the ``terminals``
        analysis available, only for productions with enough alternatives,
        and only where skipping is provably ``dispatch_safe``.
        """
        if self.first is None or len(production.alternatives) < GUARD_MIN_ALTERNATIVES:
            return None
        guards: list[tuple[frozenset[str], str] | None] = []
        useful = False
        for alternative in production.alternatives:
            fs = self.first.first(alternative.expr)
            if (
                fs.known
                and fs.chars
                and len(fs.chars) <= 64
                and self.first.dispatch_safe(alternative.expr)
            ):
                guards.append((fs.chars, _first_set_message(fs.chars)))
                useful = True
            else:
                guards.append(None)
        return guards if useful else None

    def _compile_alternative(
        self, production: Production, alternative, index: int, pushed: bool
    ) -> None:
        expr = alternative.expr
        items = expr.items if isinstance(expr, Sequence) else (expr,)
        names = tuple(binding_names(expr))
        if names:
            self._emit(OP_ENV_NEW, names)
        wants, reduce_ops = self._alternative_plan(production, alternative, items)
        if (
            not self.profiled
            and not reduce_ops
            and items
            and isinstance(items[-1], Action)
            and wants[-1]
        ):
            # The alternative's value IS its trailing action (OBJECT kind):
            # fuse evaluation with the return.  Popping the backtrack entry
            # first is safe — actions consume nothing and never fail.
            for item, want in zip(items[:-1], wants[:-1]):
                self._compile_expr(item, want)
            if pushed:
                self._emit(OP_POPE)
            self._emit(OP_ACTION_RET, compile(items[-1].code, "<action>", "eval"))
            return
        for item, want in zip(items, wants):
            self._compile_expr(item, want)
        if self.profiled:
            self._emit(OP_PROF_ALT_OK, production.name, index)
        if pushed:
            self._emit(OP_POPE)
        for op in reduce_ops:
            self._emit(*op)
        self._emit(OP_RET)

    def _alternative_plan(self, production: Production, alternative, items):
        """Per-item value-mode flags plus the alternative's reduce ops.

        Encodes the shared static value semantics: VOID/TEXT alternatives run
        all items void; GENERIC builds a GNode (pass-through for an unlabeled
        single contribution); OBJECT takes the last top-level action's value,
        falling back to the pass-through rule.
        """
        kind = production.kind
        contrib = [contributes(item, self.kind_of) for item in items]
        if kind is ValueKind.VOID:
            return [False] * len(items), [(OP_PUSH, None)]
        if kind is ValueKind.TEXT:
            return [False] * len(items), [(OP_RED_TEXT,)]
        if kind is ValueKind.GENERIC:
            count = sum(contrib)
            label = alternative.label
            with_loc = self.with_location or production.has("withLocation")
            if label is None and count == 1:
                return contrib, []
            gname = node_name(production.name, label)
            return contrib, [(OP_RED_NODE, gname, count, with_loc)]
        # OBJECT: an explicit action (the last top-level one) wins.
        action_indices = [i for i, item in enumerate(items) if isinstance(item, Action)]
        if action_indices:
            last = action_indices[-1]
            return [i == last for i in range(len(items))], []
        count = sum(contrib)
        if count == 0:
            return contrib, [(OP_PUSH, None)]
        if count == 1:
            return contrib, []
        return contrib, [(OP_SEQ_TUPLE, count)]

    # -- expressions --------------------------------------------------------

    def _compile_expr(self, expr: Expression, want: bool) -> None:
        """Emit code for ``expr``; leaves exactly one value iff ``want``."""
        if isinstance(expr, Literal):
            text = expr.text
            if expr.ignore_case:
                self._emit(OP_LIT_CI, text, text.lower(), len(text), repr(text), want)
            elif len(text) == 1:
                self._emit(OP_CHAR, text, repr(text), want)
            else:
                self._emit(OP_LIT, text, len(text), repr(text), want)
            return
        if isinstance(expr, CharClass):
            chars = expr.first_chars()
            if chars is not None:
                self._emit(OP_SET, chars, want)
            else:
                self._emit(OP_CLASS, expr.matches, want)
            return
        if isinstance(expr, AnyChar):
            self._emit(OP_ANY, want)
            return
        if isinstance(expr, Nonterminal):
            self._emit(
                OP_CALL,
                self.rule_labels[expr.name],
                self.memo_index.get(expr.name, -1),
                expr.name,
            )
            if not want:
                self._emit(OP_POP)
            return
        if isinstance(expr, Sequence):
            self._compile_sequence(expr, want)
            return
        if isinstance(expr, Choice):
            self._compile_choice(expr, want)
            return
        if isinstance(expr, Repetition):
            self._compile_repetition(expr, want)
            return
        if isinstance(expr, Option):
            self._compile_option(expr, want)
            return
        if isinstance(expr, And):
            self._emit(OP_AND_BEGIN)
            self._compile_expr(expr.expr, False)
            self._emit(OP_AND_END)
            if want:
                self._emit(OP_PUSH, None)
            return
        if isinstance(expr, Not):
            cont = _Label()
            self._emit(OP_NOT_BEGIN, cont)
            self._compile_expr(expr.expr, False)
            self._emit(OP_NOT_FAIL)
            self._mark(cont)
            if want:
                self._emit(OP_PUSH, None)
            return
        if isinstance(expr, Binding):
            if (
                not want
                and not self.profiled
                and not self.incremental
                and isinstance(expr.expr, Regex)
            ):
                self._compile_regex(expr.expr, True, bind=expr.name)
                return
            if not want and not self.profiled and isinstance(expr.expr, Nonterminal):
                # The hottest binding shape (``x:Rule`` in an action
                # alternative) as one instruction: the return value goes
                # straight into the env, never through the value stack.
                target = expr.expr.name
                self._emit(
                    OP_CALL_BIND,
                    self.rule_labels[target],
                    self.memo_index.get(target, -1),
                    target,
                    expr.name,
                )
                return
            self._compile_expr(expr.expr, True)
            self._emit(OP_BIND if want else OP_BIND_POP, expr.name)
            return
        if isinstance(expr, Voided):
            self._compile_expr(expr.expr, False)
            if want:
                self._emit(OP_PUSH, None)
            return
        if isinstance(expr, Text):
            if want:
                self._emit(OP_PUSH_POS)
                self._compile_expr(expr.expr, False)
                self._emit(OP_TEXT_END)
            else:
                self._compile_expr(expr.expr, False)
            return
        if isinstance(expr, Action):
            self._emit(OP_ACTION, compile(expr.code, "<action>", "eval"), want)
            return
        if isinstance(expr, Epsilon):
            if want:
                self._emit(OP_PUSH, None)
            return
        if isinstance(expr, Fail):
            self._emit(OP_EXPECT_FAIL, expr.message or "nothing")
            return
        if isinstance(expr, Regex):
            if self.incremental:
                # Incremental programs must not execute single-scan fused
                # regions: a possessive C scan examines unboundedly far past
                # its match end, which the watermark cannot bound.  Lower the
                # region's *original* (nonterminal-free) expression instead;
                # PR 5 guarantees identical outcomes and error reporting.
                inner = expr.original
                if expr.capture:
                    self._compile_expr(
                        inner if isinstance(inner, Text) else Text(inner), want
                    )
                else:
                    self._compile_expr(Voided(inner) if want else inner, want)
                return
            self._compile_regex(expr, want)
            return
        if isinstance(expr, CharSwitch):
            self._compile_switch(expr, want)
            return
        raise AnalysisError(f"vm compiler: cannot compile {type(expr).__name__}")

    def _compile_sequence(self, expr: Sequence, want: bool) -> None:
        if not want:
            for item in expr.items:
                self._compile_expr(item, False)
            return
        contrib = [contributes(item, self.kind_of) for item in expr.items]
        for item, c in zip(expr.items, contrib):
            self._compile_expr(item, c)
        count = sum(contrib)
        if count == 0:
            self._emit(OP_PUSH, None)
        elif count >= 2:
            self._emit(OP_SEQ_TUPLE, count)

    def _compile_choice(self, expr: Choice, want: bool) -> None:
        end = _Label()
        last = len(expr.alternatives) - 1
        for index, branch in enumerate(expr.alternatives):
            if index < last:
                next_label = _Label()
                self._emit(OP_CHOICE, next_label)
                self._compile_expr(branch, want)
                self._emit(OP_COMMIT, end)
                self._mark(next_label)
            else:
                self._compile_expr(branch, want)
        self._mark(end)

    def _compile_repetition(self, expr: Repetition, want: bool) -> None:
        item = expr.expr
        collect = contributes(item, self.kind_of)
        # Value modes mirror the interpreter: a contributing item in a
        # value context collects a list (mode 2); a non-contributing
        # repetition still has the dynamic value None (mode 1); void mode
        # builds nothing (mode 0).
        mode = 2 if (want and collect) else (1 if want else 0)
        if mode == 0 and isinstance(item, CharClass):
            chars = item.first_chars()
            if chars is not None:
                # Single-op scan loop; the machine records the stopping
                # failure ("character class" at the stop position) exactly
                # as the per-iteration encoding would.
                if expr.min == 1:
                    self._emit(OP_SET, chars, False)
                self._emit(OP_SPAN, chars)
                return
        end = _Label()
        body = _Label()
        self._emit(OP_REP_BEGIN, end, expr.min, mode)
        self._mark(body)
        self._compile_expr(item, mode == 2)
        self._emit(OP_REP_NEXT, body)
        self._mark(end)

    def _compile_option(self, expr: Option, want: bool) -> None:
        keep = contributes(expr.expr, self.kind_of)
        if want and keep:
            none_label = _Label()
            after = _Label()
            self._emit(OP_CHOICE, none_label)
            self._compile_expr(expr.expr, True)
            self._emit(OP_COMMIT, after)
            self._mark(none_label)
            self._emit(OP_PUSH, None)
            self._mark(after)
            return
        none_label = _Label()
        self._emit(OP_CHOICE, none_label)
        self._compile_expr(expr.expr, False)
        self._emit(OP_POPE)
        self._mark(none_label)
        if want:
            self._emit(OP_PUSH, None)

    def _compile_regex(self, expr: Regex, want: bool, bind: str | None = None) -> None:
        from repro.analysis.fusable import compiled_pattern

        scan = compiled_pattern(expr.pattern).match
        if bind is not None:
            # Fused Binding(Regex): the matched span (or None for a
            # non-capturing region) goes straight into the env.
            push_mode = 3 if expr.capture else 4
            self._emit(
                OP_REGEX, scan, push_mode, expr.silent, expr, expr.label or "<fused>", bind
            )
            return
        if want:
            push_mode = 1 if expr.capture else 2
        else:
            push_mode = 0
        self._emit(OP_REGEX, scan, push_mode, expr.silent, expr, expr.label or "<fused>")

    def _compile_switch(self, expr: CharSwitch, want: bool) -> None:
        end = _Label()
        default_label = _Label()
        table: dict[str, _Label] = {}
        branch_labels: list[_Label] = []
        for chars, _branch in expr.cases:
            branch_label = _Label()
            branch_labels.append(branch_label)
            for ch in chars:
                # First case containing the character wins, like the
                # interpreter's dispatch loop.
                table.setdefault(ch, branch_label)
        self._emit(OP_SWITCH, table, default_label)
        for branch_label, (_chars, branch) in zip(branch_labels, expr.cases):
            self._mark(branch_label)
            self._compile_expr(branch, want)
            self._emit(OP_COMMIT, end)
        self._mark(default_label)
        self._compile_expr(expr.default, want)
        self._mark(end)
