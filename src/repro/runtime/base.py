"""Shared machinery for parser backends.

:class:`ParserBase` provides what every backend (interpreters and generated
parsers) needs: the input text, farthest-failure tracking for error messages,
and accounting hooks used by the benchmarks to measure memoization cost.

The farthest-failure heuristic is the standard one for PEG parsing: because
ordered choice backtracks silently, the most useful error position is the
rightmost offset any expression failed at, together with the set of
human-readable descriptions of what was expected there.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any

from repro.errors import ParseDepthError, ParseError
from repro.locations import LineIndex, Location


class ParserBase:
    """Base class holding input text and failure bookkeeping."""

    #: Failure sentinel used in ``(pos, value)`` result pairs.
    FAIL = -1

    def __init__(self, text: str):
        self._text = text
        self._length = len(text)
        self._fail_pos = -1
        self._fail_expected: list[str] = []
        self._fused_pending: list[tuple[Any, int]] = []
        self._line_index: LineIndex | None = None
        self._source = "<input>"
        self._failed = False

    def reset(self, text: str, source: str = "<input>") -> "ParserBase":
        """Point this parser at a new input, reusing allocated structures.

        Clears failure tracking, the line index, and (via :meth:`_reset_memo`)
        the memo table *in place* — no per-parse reallocation.  When ``text``
        is the very input the parser already holds, the memo table and line
        index are *kept*: every stored entry is still valid (entries depend
        only on the text), so a repeated ``parse()`` of the same input in a
        session is memo-warm instead of re-deriving the whole table.  Returns
        ``self`` so ``parser.reset(text).parse()`` chains.

        Retention is skipped when the previous parse *failed*: memo hits do
        not replay the expected-set records their original computation made,
        so a warm re-parse of a failing input would rebuild an incomplete
        farthest-failure frontier.  Failed parses stay cold and exact.
        (Incremental sessions bound a second pass by examined spans instead,
        see :mod:`repro.incremental`; plain parsers keep no examined spans.)
        """
        same_text = not self._failed and (text is self._text or text == self._text)
        self._failed = False
        self._text = text
        self._length = len(text)
        self._fail_pos = -1
        self._fail_expected = []
        self._fused_pending.clear()
        self._source = source
        if not same_text:
            self._line_index = None
            self._reset_memo()
        return self

    def rebind(
        self,
        text: str,
        line_index: LineIndex | None = None,
        source: str | None = None,
    ) -> "ParserBase":
        """Re-point at edited text *without* touching memoized state.

        The incremental-session path: the caller has already dropped or
        shifted the affected memo entries (:mod:`repro.incremental`) and may
        supply the incrementally spliced line index so locations and error
        messages never pay an O(n) rebuild.  Failure tracking is cleared —
        the farthest-failure frontier is a per-parse quantity.
        """
        self._text = text
        self._length = len(text)
        self._fail_pos = -1
        self._fail_expected = []
        self._fused_pending.clear()
        self._line_index = line_index
        self._failed = False
        if source is not None:
            self._source = source
        return self

    def _reset_memo(self) -> None:
        """Clear memoized state in place (overridden by memoizing backends)."""

    # -- location tracking -----------------------------------------------------

    def _location(self, pos: int) -> Location:
        """Line/column location of ``pos``, O(log lines) via a cached index.

        The index (:class:`repro.locations.LineIndex`) is built once per
        input — a single C-level scan that recognizes ``\\n``, ``\\r\\n``
        and lone ``\\r`` terminators — and answers every later query by
        binary search, so error construction stays cheap on multi-megabyte
        inputs with any line-ending mix.
        """
        index = self._line_index
        if index is None:
            index = self._line_index = LineIndex(self._text)
        return index.location(pos, self._source)

    # -- error tracking ------------------------------------------------------

    def _expected(self, pos: int, what: str) -> None:
        """Record a failed expectation at ``pos`` (keeps only the farthest).

        Expectations at the same position are deduplicated (heavy
        backtracking retries the same terminal many times) while preserving
        first-seen order.
        """
        if pos > self._fail_pos:
            self._fail_pos = pos
            self._fail_expected = [what]
        elif pos == self._fail_pos and what not in self._fail_expected:
            self._fail_expected.append(what)

    def _merge_expected(self, messages: list[str]) -> None:
        """Merge a constant expected table into the farthest-failure set.

        Called by ``errors``-optimized generated parsers on the
        equal-position path.  The current value of ``_fail_expected`` may
        *be* one of the generated module's shared constant lists, so new
        messages are added to a copy, never in place.
        """
        current = self._fail_expected
        if current is messages:
            return
        merged: list[str] | None = None
        for message in messages:
            if message not in current:
                if merged is None:
                    merged = list(current)
                    current = merged
                merged.append(message)
        if merged is not None:
            self._fail_expected = merged

    def _literal_failure_pos(self, pos: int, literal: str, ignore_case: bool = False) -> int:
        """Offset of the first mismatching character of a failed literal.

        Failure positions take the trie view of a literal: ``"publix"``
        against ``"public"`` fails at the ``x``, not at the ``p``.  Every
        backend records literal failures this way, which makes
        farthest-failure positions invariant under common-prefix folding
        (which splits shared literal prefixes into nested sequences).
        """
        text = self._text
        limit = min(self._length - pos, len(literal))
        matched = 0
        if ignore_case:
            while matched < limit and text[pos + matched].lower() == literal[matched].lower():
                matched += 1
        else:
            while matched < limit and text[pos + matched] == literal[matched]:
                matched += 1
        return pos + matched

    def _replay_fused(self, token: Any, pos: int) -> None:
        """Re-run one noted fused region through the ordinary machinery.

        Overridden by backends that execute fused ``Regex`` scans; ``token``
        is whatever the backend appended to ``_fused_pending`` (the node or
        a generated replay function).  The replay
        re-evaluates the region's original expression at ``pos`` purely for
        its ``_expected`` side effects.
        """

    def _drain_fused(self) -> None:
        """Replay every noted fused scan into the expected-set bookkeeping.

        A fused region is one C-level scan: it cannot record which terminal
        inside it failed, or the failures its successful match stepped over
        (a failing final repetition iteration, rejected earlier choice
        alternatives, predicate probes — which may lie *beyond* the match
        end).  Since the farthest-failure frontier never influences control
        flow, backends just note ``(token, pos)`` per non-silent scan and
        this drain reproduces the records lazily, only when an error message
        is actually demanded.  The frontier merge is max-position plus
        set-union — commutative and idempotent — so replay order and
        duplicate evaluations cannot change the resulting offset or set.
        """
        pending = self._fused_pending
        if not pending:
            return
        self._fused_pending = []
        replay = self._replay_fused
        for token, pos in pending:
            replay(token, pos)

    def parse_error(self) -> ParseError:
        """Build a :class:`ParseError` at the farthest failure position."""
        self._failed = True  # disables same-text memo retention on reset()
        self._drain_fused()
        pos = max(self._fail_pos, 0)
        location = self._location(pos)
        found = repr(self._text[pos]) if pos < self._length else "end of input"
        # Generated parsers share constant expected lists, which may repeat
        # across merges; dedupe here too, preserving first-seen order.
        expected = tuple(dict.fromkeys(self._fail_expected))[:12]
        return ParseError(
            f"syntax error at {found}",
            offset=pos,
            line=location.line,
            column=location.column,
            expected=expected,
            source=self._source,
        )

    def depth_error(self, budget: int | None = None) -> ParseDepthError:
        """Build the structured diagnostic for an exhausted recursion budget.

        Called by backends *after* a :class:`RecursionError` has unwound (the
        stack is free again).  The reported position is the farthest offset
        the parse reached before running out of depth — the same heuristic
        :meth:`parse_error` uses — so callers get an actionable location
        instead of a bare interpreter traceback.
        """
        self._failed = True
        try:
            self._drain_fused()
        except RecursionError:  # replay itself may be deep; best effort only
            self._fused_pending.clear()
        pos = max(self._fail_pos, 0)
        location = self._location(pos)
        return ParseDepthError(
            "input nesting exceeds the parser's depth budget",
            offset=pos,
            line=location.line,
            column=location.column,
            expected=(),
            source=self._source,
            budget=budget,
        )

    def check_complete(self, pos: int, value: Any) -> Any:
        """Raise unless ``pos`` consumed the whole input; else return value."""
        if pos == self.FAIL or pos < self._length:
            raise self.parse_error()
        return value

    # -- memoization accounting (overridden by memoizing backends) -----------

    def memo_entry_count(self) -> int:
        """Number of memoized results currently stored."""
        return 0

    def memo_size_bytes(self) -> int:
        """Approximate bytes held by memoization structures."""
        return 0


def _stack_depth() -> int:
    """Number of frames currently on the Python stack (O(depth))."""
    frame = sys._getframe()
    depth = 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@contextmanager
def recursion_budget(frames: int | None):
    """Temporarily cap recursion at ``frames`` *additional* stack frames.

    ``None`` is a no-op.  The cap is relative to the current stack depth, so
    a budget means the same thing whether the parse is entered from a
    shallow script or from deep inside a framework.  Exceeding it raises
    :class:`RecursionError`, which the parse entry points convert into a
    structured :class:`~repro.errors.ParseDepthError` — the budget exists so
    that degradation is a *diagnostic*, not a stack overflow.
    """
    if frames is None:
        yield
        return
    if frames < 1:
        raise ValueError("depth budget must be a positive frame count")
    previous = sys.getrecursionlimit()
    # The budget both tightens and widens: a parse-service worker uses it to
    # accept deeper nesting than the interpreter default *and* to fail with
    # a diagnostic well before the hard worker recursion ceiling.
    sys.setrecursionlimit(_stack_depth() + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def sizeof_deep(obj: Any, _seen: set[int] | None = None) -> int:
    """Approximate deep ``sys.getsizeof`` for memo-table measurement.

    Follows dicts, lists, tuples and objects with ``__dict__``/``__slots__``;
    shared objects are counted once.  Traversal is iterative (explicit
    stack), so arbitrarily deep structures — e.g. the memo tables built by
    the E3/E5 benchmarks — cannot hit Python's recursion limit.
    """
    seen = _seen if _seen is not None else set()
    total = 0
    stack = [obj]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        oid = id(current)
        if oid in seen:
            continue
        seen.add(oid)
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        else:
            attrs = getattr(current, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            slots = getattr(type(current), "__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for slot in slots:
                if hasattr(current, slot):
                    stack.append(getattr(current, slot))
    return total
