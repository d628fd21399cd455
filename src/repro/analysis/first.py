"""FIRST-character analysis for terminal/choice dispatch.

``first_chars`` computes, for an expression, the set of characters that any
successful non-empty match can start with — or ``None`` when the set is
unknown/unbounded (negated classes, ``AnyChar``).  The result additionally
says whether the expression is nullable, because a nullable alternative can
succeed on *any* next character and therefore defeats dispatch.

Used by the terminal optimization (:mod:`repro.optim.terminals`) and by the
first-char alternative guards of the code generator and the parsing machine,
whose policy lives here (:meth:`FirstAnalysis.alternative_guards`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.nullability import nullable_productions
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
from repro.peg.production import Production


@dataclass(frozen=True, slots=True)
class FirstSet:
    """``chars`` is None when unknown/unbounded."""

    chars: frozenset[str] | None
    nullable: bool

    @property
    def known(self) -> bool:
        return self.chars is not None and not self.nullable


_UNKNOWN = FirstSet(None, False)

#: Minimum alternatives for production-level first-char guards.
GUARD_MIN_ALTERNATIVES = 3


def guard_message(chars: frozenset[str]) -> str:
    """Expected message a skipped first-char guard records."""
    shown = "".join(sorted(chars))
    if len(shown) > 16:
        shown = shown[:16] + "…"
    return f"one of {shown!r}"


class FirstAnalysis:
    """Compute FIRST sets over one grammar (fixpoint over productions)."""

    def __init__(self, grammar: Grammar):
        self._grammar = grammar
        self._nullable = nullable_productions(grammar)
        self._production_first: dict[str, FirstSet] = {}
        self._safe_productions: dict[str, bool] | None = None
        self._compute_productions()

    def _compute_productions(self) -> None:
        # Initialize to empty known sets and iterate to fixpoint.
        names = self._grammar.names()
        for name in names:
            self._production_first[name] = FirstSet(frozenset(), name in self._nullable)
        changed = True
        while changed:
            changed = False
            for production in self._grammar:
                combined: set[str] | None = set()
                for alternative in production.alternatives:
                    fs = self.first(alternative.expr)
                    if fs.chars is None:
                        combined = None
                        break
                    combined |= fs.chars
                new = FirstSet(
                    None if combined is None else frozenset(combined),
                    production.name in self._nullable,
                )
                if new != self._production_first[production.name]:
                    self._production_first[production.name] = new
                    changed = True

    # -- queries ------------------------------------------------------------

    def production_first(self, name: str) -> FirstSet:
        return self._production_first.get(name, _UNKNOWN)

    def first(self, expr: Expression) -> FirstSet:
        """FIRST set of an expression in this grammar."""
        if isinstance(expr, Literal):
            ch = expr.text[0]
            chars = {ch.lower(), ch.upper()} if expr.ignore_case else {ch}
            return FirstSet(frozenset(chars), False)
        if isinstance(expr, CharClass):
            return FirstSet(expr.first_chars(), False)
        if isinstance(expr, AnyChar):
            return FirstSet(None, False)
        if isinstance(expr, (Epsilon, Action)):
            return FirstSet(frozenset(), True)
        if isinstance(expr, Fail):
            return FirstSet(frozenset(), False)
        if isinstance(expr, Nonterminal):
            return self.production_first(expr.name)
        if isinstance(expr, Sequence):
            chars: set[str] = set()
            constraint: frozenset[str] | None = None
            may_have_consumed = False
            for item in expr.items:
                # Predicates (possibly wrapped in value operators, which
                # change nothing about what they match) constrain but don't
                # consume; a following item provides the actual first
                # character.  Dropping a predicate from the product only
                # *widens* the set, so FIRST(!e x) ⊆ FIRST(x) and
                # FIRST(&e x) ⊆ FIRST(x) are both sound over-approximations
                # for dispatch.  A positive predicate at the very front
                # additionally *narrows* the set: the first character must
                # also start e, so intersect when e's FIRST is known.
                inner = item
                while isinstance(inner, (Binding, Voided, Text)):
                    inner = inner.expr
                if isinstance(inner, Not):
                    continue
                if isinstance(inner, And):
                    fk = self.first(inner.expr)
                    if fk.chars is not None and not fk.nullable and not may_have_consumed:
                        constraint = (
                            fk.chars if constraint is None else constraint & fk.chars
                        )
                    continue
                fs = self.first(item)
                if fs.chars is None:
                    return _UNKNOWN
                chars |= fs.chars
                if not fs.nullable:
                    if constraint is not None:
                        chars &= constraint
                    return FirstSet(frozenset(chars), False)
                if fs.chars:
                    # A nullable item that may still consume input shifts the
                    # position later predicates apply at; stop narrowing.
                    may_have_consumed = True
            return FirstSet(frozenset(chars), True)
        if isinstance(expr, Choice):
            chars = set()
            nullable = False
            for alternative in expr.alternatives:
                fs = self.first(alternative)
                if fs.chars is None:
                    return FirstSet(None, fs.nullable or nullable)
                chars |= fs.chars
                nullable = nullable or fs.nullable
            return FirstSet(frozenset(chars), nullable)
        if isinstance(expr, Repetition):
            fs = self.first(expr.expr)
            return FirstSet(fs.chars, expr.min == 0 or fs.nullable)
        if isinstance(expr, Option):
            fs = self.first(expr.expr)
            return FirstSet(fs.chars, True)
        if isinstance(expr, (Binding, Voided, Text)):
            return self.first(expr.expr)
        if isinstance(expr, And):
            return FirstSet(None, True)
        if isinstance(expr, Not):
            return FirstSet(None, True)
        if isinstance(expr, Regex):
            return self.first(expr.original)
        if isinstance(expr, CharSwitch):
            chars = set()
            nullable = False
            for case_chars, _ in expr.cases:
                chars |= case_chars
            fs = self.first(expr.default)
            if fs.chars is None:
                return FirstSet(None, fs.nullable)
            return FirstSet(frozenset(chars | fs.chars), fs.nullable)
        raise TypeError(f"first: unhandled {type(expr).__name__}")

    def alternative_guards(
        self, production: Production
    ) -> list[frozenset[str] | None] | None:
        """Per-alternative first-char guard sets, or None when no
        alternative of ``production`` is guarded.

        Only productions with at least :data:`GUARD_MIN_ALTERNATIVES`
        alternatives are guarded, and only alternatives with a known,
        non-empty FIRST set of at most 64 characters whose skipping is
        :meth:`dispatch_safe`.  A skipped alternative records
        :func:`guard_message` of its set at the current position.
        """
        if len(production.alternatives) < GUARD_MIN_ALTERNATIVES:
            return None
        guards: list[frozenset[str] | None] = []
        for alternative in production.alternatives:
            fs = self.first(alternative.expr)
            if (
                fs.known
                and fs.chars
                and len(fs.chars) <= 64
                # A guarded skip records one failure at ``pos``; that must
                # be exactly what evaluating the alternative would have
                # recorded.
                and self.dispatch_safe(alternative.expr)
            ):
                guards.append(fs.chars)
            else:
                guards.append(None)
        return guards if any(chars is not None for chars in guards) else None

    # -- dispatch safety ----------------------------------------------------

    def dispatch_safe(self, expr: Expression) -> bool:
        """May ``expr`` be *skipped* when the next character is outside its
        FIRST set without changing the farthest-failure frontier?

        First-character dispatch (``CharSwitch`` cases, the generator's
        alternative guards) replaces an alternative's evaluation with a
        single expected-set record at the current position.  That is only
        observationally equivalent when evaluating the alternative on such a
        character provably records nothing *beyond* the current position.
        Terminal-led shapes qualify trivially: the first consuming item
        fails on its very first character.  ``!e x`` heads qualify when
        ``e`` is itself safe and every character that could start ``e`` lies
        inside the sequence's own FIRST set — outside that set ``e`` fails
        immediately and the continuation supplies the real failure (the
        ``!Keyword Identifier`` idiom: keywords start with identifier
        characters).  Positive predicates narrow FIRST below the operands'
        own sets, so they are conservatively unsafe.
        """
        return self._expr_safe(expr)

    def _production_safe(self, name: str) -> bool:
        if self._safe_productions is None:
            # Greatest fixpoint: assume every production safe, demote any
            # whose alternatives turn out unsafe until stable.
            safe = {n: True for n in self._grammar.names()}
            self._safe_productions = safe
            changed = True
            while changed:
                changed = False
                for production in self._grammar:
                    if not safe[production.name]:
                        continue
                    if not all(
                        self._expr_safe(alt.expr) for alt in production.alternatives
                    ):
                        safe[production.name] = False
                        changed = True
        return self._safe_productions.get(name, False)

    def _expr_safe(self, expr: Expression) -> bool:
        if isinstance(expr, (Literal, CharClass, AnyChar, Epsilon, Fail, Action)):
            return True
        if isinstance(expr, Nonterminal):
            return self._production_safe(expr.name)
        if isinstance(expr, Sequence):
            return self._sequence_safe(expr)
        if isinstance(expr, Choice):
            return all(self._expr_safe(alt) for alt in expr.alternatives)
        if isinstance(expr, (Repetition, Option, Binding, Voided, Text)):
            return self._expr_safe(expr.expr)
        if isinstance(expr, Regex):
            # Failure replay re-evaluates the original through the ordinary
            # machinery, so a fused region records exactly what it would.
            return self._expr_safe(expr.original)
        if isinstance(expr, CharSwitch):
            # A character outside FIRST matches no case, so only the default
            # branch ever runs.
            return self._expr_safe(expr.default)
        return False  # bare And/Not: unbounded FIRST defeats dispatch anyway

    def _sequence_safe(self, expr: Sequence) -> bool:
        seq_first = self.first(expr)
        for item in expr.items:
            inner = item
            while isinstance(inner, (Binding, Voided, Text)):
                inner = inner.expr
            if isinstance(inner, Not):
                fk = self.first(inner.expr)
                if fk.chars is None or not self._expr_safe(inner.expr):
                    return False
                if seq_first.chars is None or not fk.chars <= seq_first.chars:
                    return False
                continue
            if isinstance(inner, And):
                # The intersection narrowing means a skipped character can
                # still start the predicate's operand, whose evaluation may
                # record past the current position.
                return False
            if not self._expr_safe(item):
                return False
            fs = self.first(item)
            if not fs.nullable:
                # Items past the first non-nullable one are never reached
                # when the first character already mismatches.
                return True
        return True
