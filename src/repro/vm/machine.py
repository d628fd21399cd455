"""The parsing machine: one dispatch loop over a :class:`VMProgram`.

Design notes
------------

The machine keeps four pieces of mutable state: the input position, a
*value stack* (semantic values under construction), a unified
*backtrack/call stack*, and the current binding environment.  Stack entries
are tagged tuples (lists for the mutable repetition entries):

==============  ============================================================
``K_CALL``      ``(kind, ret_ip, memo_index, call_pos, env[, name])`` —
                pushed by ``CALL``; popped by ``RET`` (success, memo store)
                or by the unwinder (failure memo store)
``K_CHOICE``    ``(kind, alt_ip, pos, vals_len, env)`` — ordered-choice
                backtrack entry
``K_REP``       ``[kind, end_ip, iter_pos, vals_start, iter_vals, count,
                min, mode, env]`` — one per active repetition
``K_NOT``       ``(kind, cont_ip, pos, vals_len, env)`` — ``!e`` handler:
                operand failure *resumes* after the predicate
``K_AND``       ``(kind, pos, vals_len, env)`` — ``&e`` handler: operand
                failure falls through to the enclosing handler
``K_PCHOICE``   profiled ``K_CHOICE`` carrying ``(prod, alt_index)``
==============  ============================================================

Failure is a flag: a failing instruction records its expectation into the
farthest-failure locals and the unwinder pops entries until one resumes
control.  There is **no Python recursion on the hot path** — nesting depth
is bounded by the stack-entry budget (``depth_budget``), and exceeding it
raises the same structured :class:`~repro.errors.ParseDepthError` the
recursive backends produce at their frame budgets.

Environment handling mirrors the interpreter exactly: entries hold
*references* to the env (the same dict object), so bindings made inside an
alternative deliberately survive backtracking within it; only ``ENV_NEW``
(an alternative that has bindings) swaps in a fresh dict, and ``RET``/the
unwinder restore the caller's.

Fused ``Regex`` failures (and non-silent successes) are noted in
``_fused_pending`` and replayed lazily by :meth:`VMParser._replay_fused`
through a small recursive evaluator over the region's original expression —
error-path only, exactly like the other backends.
"""

from __future__ import annotations

from typing import Any

from repro.errors import AnalysisError
from repro.peg.expr import (
    And,
    AnyChar,
    Binding,
    CharClass,
    CharSwitch,
    Epsilon,
    Fail,
    Literal,
    Not,
    Option,
    Repetition,
    Sequence,
    Text,
    Voided,
)
from repro.peg.expr import Choice as ChoiceExpr
from repro.runtime.actionlib import ACTION_GLOBALS
from repro.runtime.base import ParserBase
from repro.runtime.memo import (
    NO_FRONTIER,
    ChunkedMemoTable,
    IncrementalMemoTable,
    make_memo_table,
)
from repro.runtime.node import GNode
from repro.vm.compiler import (
    HALT_IP,
    OP_ACTION,
    OP_ACTION_RET,
    OP_AND_BEGIN,
    OP_AND_END,
    OP_ANY,
    OP_BIND,
    OP_BIND_POP,
    OP_CALL,
    OP_CALL_BIND,
    OP_CHAR,
    OP_CHOICE,
    OP_CLASS,
    OP_COMMIT,
    OP_ENV_NEW,
    OP_EXPECT_FAIL,
    OP_FAIL,
    OP_GCHOICE,
    OP_GUARD,
    OP_HALT,
    OP_JUMP,
    OP_LIT,
    OP_LIT_CI,
    OP_NOT_BEGIN,
    OP_NOT_FAIL,
    OP_PCHOICE,
    OP_POP,
    OP_POPE,
    OP_PROF_ALT,
    OP_PROF_ALT_OK,
    OP_PUSH,
    OP_PUSH_POS,
    OP_RED_NODE,
    OP_RED_TEXT,
    OP_REGEX,
    OP_REP_BEGIN,
    OP_REP_NEXT,
    OP_RET,
    OP_SEQ_TUPLE,
    OP_SET,
    OP_SPAN,
    OP_SWITCH,
    OP_TEXT_END,
    VMProgram,
)

FAIL = -1
FAILPAIR = (-1, None)

# Stack entry kinds.
K_CALL = 0
K_CHOICE = 1
K_REP = 2
K_NOT = 3
K_AND = 4
K_PCHOICE = 5

#: Default cap on machine stack entries when no ``depth_budget`` is given.
#: The machine never recurses, so without a cap left-recursive grammars
#: would grow the call stack until memory ran out; this bound turns them
#: into a structured ParseDepthError instead.
DEFAULT_STACK_BUDGET = 200_000

_CLASS_MSG = "character class"
_ANY_MSG = "any character"


class VMParser(ParserBase):
    """Run a compiled :class:`VMProgram`; construct once, parse many times.

    The constructor mirrors generated parsers (``VMParser(program, text,
    source)`` then :meth:`parse`), and :meth:`reset` re-points the instance
    at a new input in place, reusing the memo-table container.  With
    ``profile=`` the program must be the profiled twin
    (``compile_program(..., profiled=True)``).
    """

    def __init__(
        self,
        program: VMProgram,
        text: str = "",
        source: str = "<input>",
        *,
        chunked: bool | None = None,
        profile: Any = None,
        depth_budget: int | None = None,
        incremental: bool = False,
    ):
        super().__init__(text)
        self._source = source
        self._program = program
        self._profile = profile
        self._depth_budget = depth_budget
        self._incremental = incremental
        if profile is not None and not program.profiled:
            raise AnalysisError("profiled VM parse needs the profiled twin program")
        if incremental and not program.incremental:
            raise AnalysisError(
                "incremental VM parse needs an incremental program "
                "(compile_program(..., incremental=True))"
            )
        if incremental and profile is not None:
            raise AnalysisError(
                "incremental VM parsers do not support profile=; "
                "attach the profile to the IncrementalSession instead"
            )
        if chunked is None:
            chunked = program.chunked
        self._chunked = chunked
        rule_names = list(program.memo_rules)
        if profile is not None:
            from repro.profile.collector import MemoEvents

            self._memo = make_memo_table(
                rule_names, chunked=chunked, events=MemoEvents(profile, rule_names)
            )
        elif incremental:
            self._memo = IncrementalMemoTable(rule_names).resize(self._length)
        else:
            self._memo = make_memo_table(rule_names, chunked=chunked)
        #: Examined-end bound on served memo hits (incremental loop only).
        self._frontier = NO_FRONTIER

    # -- public API ---------------------------------------------------------

    def parse(self, start: str | None = None) -> Any:
        pos, value = self._run(start or self._program.start)
        if pos < 0 or pos < self._length:
            raise self.parse_error()
        return value

    def match_prefix(self, start: str | None = None) -> tuple[int, Any]:
        """Longest-prefix match: ``(end position | -1, value)``."""
        return self._run(start or self._program.start)

    def _reset_memo(self) -> None:
        if self._incremental:
            # The incremental table is sized to the text; a reset after a
            # rebind must adopt the current length, not the old geometry.
            self._memo.resize(self._length)
        else:
            self._memo.reset()

    def memo_entry_count(self) -> int:
        return self._memo.entry_count()

    def memo_size_bytes(self) -> int:
        return self._memo.size_bytes()

    # -- fused replay (error path only) -------------------------------------

    def _replay_fused(self, token: Any, pos: int) -> None:
        # ``token`` is the Regex node itself; its ``original`` is the fused
        # region's value-free expression (no Nonterminal, no Regex inside).
        self._replay(token.original, pos)

    def _replay(self, expr: Any, pos: int) -> int:
        """Re-evaluate a value-free expression purely for its ``_expected``
        records; returns the end position or -1.  Mirrors the interpreter's
        recording behaviour node for node."""
        text = self._text
        if isinstance(expr, Literal):
            value = expr.text
            if expr.ignore_case:
                end = pos + len(value)
                if text[pos:end].lower() == value.lower():
                    return end
                self._expected(self._literal_failure_pos(pos, value, True), repr(value))
                return FAIL
            if text.startswith(value, pos):
                return pos + len(value)
            self._expected(self._literal_failure_pos(pos, value), repr(value))
            return FAIL
        if isinstance(expr, CharClass):
            if pos < self._length and expr.matches(text[pos]):
                return pos + 1
            self._expected(pos, _CLASS_MSG)
            return FAIL
        if isinstance(expr, AnyChar):
            if pos < self._length:
                return pos + 1
            self._expected(pos, _ANY_MSG)
            return FAIL
        if isinstance(expr, Sequence):
            for item in expr.items:
                pos = self._replay(item, pos)
                if pos < 0:
                    return FAIL
            return pos
        if isinstance(expr, ChoiceExpr):
            for branch in expr.alternatives:
                end = self._replay(branch, pos)
                if end >= 0:
                    return end
            return FAIL
        if isinstance(expr, Repetition):
            count = 0
            while True:
                end = self._replay(expr.expr, pos)
                if end < 0 or end == pos:
                    break
                pos = end
                count += 1
            if count < expr.min:
                return FAIL
            return pos
        if isinstance(expr, Option):
            end = self._replay(expr.expr, pos)
            return pos if end < 0 else end
        if isinstance(expr, And):
            return pos if self._replay(expr.expr, pos) >= 0 else FAIL
        if isinstance(expr, Not):
            if self._replay(expr.expr, pos) >= 0:
                self._expected(pos, "not-predicate")
                return FAIL
            return pos
        if isinstance(expr, (Voided, Text, Binding)):
            return self._replay(expr.expr, pos)
        if isinstance(expr, Epsilon):
            return pos
        if isinstance(expr, Fail):
            self._expected(pos, expr.message or "nothing")
            return FAIL
        if isinstance(expr, CharSwitch):
            if pos < self._length:
                ch = text[pos]
                for chars, branch in expr.cases:
                    if ch in chars:
                        end = self._replay(branch, pos)
                        if end >= 0:
                            return end
                        break
            return self._replay(expr.default, pos)
        raise AnalysisError(f"vm replay: cannot replay {type(expr).__name__}")

    # -- profiled expected recording ----------------------------------------

    def _expected(self, pos: int, what: str) -> None:
        profile = self._profile
        if profile is not None and pos > self._fail_pos and self._prod_stack:
            profile.record_farthest(self._prod_stack[-1])
        super()._expected(pos, what)

    _prod_stack: list = []

    # -- the machine ---------------------------------------------------------

    def _run(self, start: str) -> tuple[int, Any]:
        if self._profile is not None:
            return self._run_profiled(start)
        if self._incremental:
            return self._run_incremental(start)
        program = self._program
        code = program.code
        entries = program.entries
        if start not in entries:
            raise AnalysisError(f"undefined production {start!r}")
        text = self._text
        length = self._length
        memo = self._memo
        mput = memo.put
        # Inline the chunked fast path: with no events sink installed the
        # memo get is two list index operations, not a method call.
        if type(memo) is ChunkedMemoTable and "get" not in memo.__dict__:
            columns = memo._columns
            csize = memo._chunk_size
            mget = None
        else:
            columns = None
            csize = 0
            mget = memo.get
        budget = self._depth_budget
        limit = DEFAULT_STACK_BUDGET if budget is None else budget
        pending = self._fused_pending

        # Failure protocol: a failing instruction stores its expectation in
        # ``fmsg``/``fpos`` (or records inline) and jumps to ip 0, where the
        # compiled OP_FAIL acts as the unwinder.  That keeps the hot path
        # free of any per-instruction "did we fail?" check.  ``fmsg`` is
        # None between failures; sites that fail without a message (regex,
        # memoized failures, starved repetitions) rely on that invariant.
        #
        # K_CALL frames are ``(kind, ret_ip, memo_index, call_pos, env,
        # bind)`` — ``bind`` is the binding name for CALL_BIND frames, None
        # for plain calls.  The dispatch ladder is ordered by measured
        # opcode frequency (see docs/vm.md), not opcode number.
        pos = 0
        ip = entries[start]
        vals: list = []
        env: dict[str, Any] = {}
        stack: list = [(K_CALL, HALT_IP, program.memo_index.get(start, -1), 0, env, None)]
        stack_append = stack.append
        vals_append = vals.append
        fail_pos = self._fail_pos
        fail_exp = self._fail_expected
        fmsg: str | None = None
        fpos = 0

        while True:
            inst = code[ip]
            op = inst[0]

            if op == OP_CALL:
                midx = inst[2]
                if midx >= 0:
                    if columns is not None:
                        column = columns.get(pos)
                        if column is None:
                            hit = None
                        else:
                            chunk = column.chunks[midx // csize]
                            hit = None if chunk is None else chunk[midx % csize]
                    else:
                        hit = mget(midx, pos)
                    if hit is not None:
                        npos = hit[0]
                        if npos < 0:
                            ip = 0
                        else:
                            pos = npos
                            vals_append(hit[1])
                            ip += 1
                        continue
                if len(stack) >= limit:
                    self._fail_pos = fail_pos
                    self._fail_expected = fail_exp
                    raise self.depth_error(limit)
                stack_append((K_CALL, ip + 1, midx, pos, env, None))
                ip = inst[1]
            elif op == OP_GCHOICE:
                if pos < length and text[pos] in inst[1]:
                    stack_append((K_CHOICE, inst[2], pos, len(vals), env))
                    ip += 1
                else:
                    # A skipped alternative records exactly the one failure
                    # its evaluation would have recorded (dispatch_safe).
                    msg = inst[3]
                    if pos > fail_pos:
                        fail_pos = pos
                        fail_exp = [msg]
                    elif pos == fail_pos and msg not in fail_exp:
                        fail_exp.append(msg)
                    ip = inst[2]
            elif op == OP_RET:
                frame = stack.pop()
                if frame[2] >= 0:
                    mput(frame[2], frame[3], (pos, vals[-1]))
                env = frame[4]
                bind = frame[5]
                if bind is not None:
                    env[bind] = vals.pop()
                ip = frame[1]
            elif op == OP_REGEX:
                match = inst[1](text, pos)
                if match is None:
                    pending.append((inst[4], pos))
                    ip = 0
                else:
                    if not inst[3]:
                        pending.append((inst[4], pos))
                    end = match.end()
                    push_mode = inst[2]
                    if push_mode == 1:
                        vals_append(text[pos:end])
                    elif push_mode == 2:
                        vals_append(None)
                    elif push_mode == 3:
                        env[inst[6]] = text[pos:end]
                    elif push_mode == 4:
                        env[inst[6]] = None
                    pos = end
                    ip += 1
            elif op == OP_ACTION_RET:
                value = eval(inst[1], ACTION_GLOBALS, env)  # noqa: S307
                frame = stack.pop()
                if frame[2] >= 0:
                    mput(frame[2], frame[3], (pos, value))
                env = frame[4]
                bind = frame[5]
                if bind is not None:
                    env[bind] = value
                else:
                    vals_append(value)
                ip = frame[1]
            elif op == OP_CALL_BIND:
                midx = inst[2]
                if midx >= 0:
                    if columns is not None:
                        column = columns.get(pos)
                        if column is None:
                            hit = None
                        else:
                            chunk = column.chunks[midx // csize]
                            hit = None if chunk is None else chunk[midx % csize]
                    else:
                        hit = mget(midx, pos)
                    if hit is not None:
                        npos = hit[0]
                        if npos < 0:
                            ip = 0
                        else:
                            pos = npos
                            env[inst[4]] = hit[1]
                            ip += 1
                        continue
                if len(stack) >= limit:
                    self._fail_pos = fail_pos
                    self._fail_expected = fail_exp
                    raise self.depth_error(limit)
                stack_append((K_CALL, ip + 1, midx, pos, env, inst[4]))
                ip = inst[1]
            elif op == OP_FAIL:
                # The unwinder: record the pending expectation, then pop
                # entries until one resumes control.
                if fmsg is not None:
                    if fpos > fail_pos:
                        fail_pos = fpos
                        fail_exp = [fmsg]
                    elif fpos == fail_pos and fmsg not in fail_exp:
                        fail_exp.append(fmsg)
                    fmsg = None
                while True:
                    if not stack:
                        self._fail_pos = fail_pos
                        self._fail_expected = fail_exp
                        return FAILPAIR
                    entry = stack.pop()
                    kind = entry[0]
                    if kind == K_CHOICE:
                        ip = entry[1]
                        pos = entry[2]
                        del vals[entry[3]:]
                        env = entry[4]
                        break
                    if kind == K_CALL:
                        if entry[2] >= 0:
                            mput(entry[2], entry[3], FAILPAIR)
                        continue
                    if kind == K_REP:
                        pos = entry[2]
                        del vals[entry[4]:]
                        env = entry[8]
                        if entry[5] < entry[6]:
                            continue
                        mode = entry[7]
                        if mode == 2:
                            collected = vals[entry[3]:]
                            del vals[entry[3]:]
                            vals_append(collected)
                        elif mode == 1:
                            vals_append(None)
                        ip = entry[1]
                        break
                    if kind == K_NOT:
                        ip = entry[1]
                        pos = entry[2]
                        del vals[entry[3]:]
                        env = entry[4]
                        break
                    # K_AND: the predicate's operand failed, so the predicate
                    # itself fails -- keep unwinding.
            elif op == OP_ENV_NEW:
                env = dict.fromkeys(inst[1])
                ip += 1
            elif op == OP_REP_BEGIN:
                stack_append([K_REP, inst[1], pos, len(vals), len(vals), 0, inst[2], inst[3], env])
                ip += 1
            elif op == OP_ACTION:
                value = eval(inst[1], ACTION_GLOBALS, env)  # noqa: S307
                if inst[2]:
                    vals_append(value)
                ip += 1
            elif op == OP_CHOICE:
                stack_append((K_CHOICE, inst[1], pos, len(vals), env))
                ip += 1
            elif op == OP_GUARD:
                if pos < length and text[pos] in inst[1]:
                    ip += 1
                else:
                    msg = inst[3]
                    if pos > fail_pos:
                        fail_pos = pos
                        fail_exp = [msg]
                    elif pos == fail_pos and msg not in fail_exp:
                        fail_exp.append(msg)
                    ip = inst[2]
            elif op == OP_RED_NODE:
                count = inst[2]
                if count:
                    children = tuple(vals[-count:])
                    del vals[-count:]
                else:
                    children = ()
                location = self._location(stack[-1][3]) if inst[3] else None
                vals_append(GNode(inst[1], children, location))
                ip += 1
            elif op == OP_POPE:
                stack.pop()
                ip += 1
            elif op == OP_REP_NEXT:
                entry = stack[-1]
                if pos == entry[2]:
                    # Zero-progress iteration: drop its values and finish the
                    # loop (the iteration neither counts nor collects).
                    del vals[entry[4]:]
                    stack.pop()
                    if entry[5] < entry[6]:
                        ip = 0
                    else:
                        mode = entry[7]
                        if mode == 2:
                            collected = vals[entry[3]:]
                            del vals[entry[3]:]
                            vals_append(collected)
                        elif mode == 1:
                            vals_append(None)
                        ip += 1
                else:
                    entry[5] += 1
                    entry[2] = pos
                    entry[4] = len(vals)
                    ip = inst[1]
            elif op == OP_CHAR:
                if pos < length and text[pos] == inst[1]:
                    if inst[3]:
                        vals_append(inst[1])
                    pos += 1
                    ip += 1
                else:
                    fmsg = inst[2]
                    fpos = pos
                    ip = 0
            elif op == OP_PUSH_POS:
                vals_append(pos)
                ip += 1
            elif op == OP_TEXT_END:
                start_pos = vals.pop()
                vals_append(text[start_pos:pos])
                ip += 1
            elif op == OP_SET:
                if pos < length and text[pos] in inst[1]:
                    if inst[2]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    fmsg = _CLASS_MSG
                    fpos = pos
                    ip = 0
            elif op == OP_LIT:
                if text.startswith(inst[1], pos):
                    if inst[4]:
                        vals_append(inst[1])
                    pos += inst[2]
                    ip += 1
                else:
                    # Trie view of the literal: fail at the first mismatch.
                    lit = inst[1]
                    if pos < length and text[pos] == lit[0]:
                        fpos = self._literal_failure_pos(pos, lit)
                    else:
                        fpos = pos
                    fmsg = inst[3]
                    ip = 0
            elif op == OP_COMMIT:
                stack.pop()
                ip = inst[1]
            elif op == OP_BIND_POP:
                env[inst[1]] = vals.pop()
                ip += 1
            elif op == OP_PUSH:
                vals_append(inst[1])
                ip += 1
            elif op == OP_SWITCH:
                if pos < length:
                    target = inst[1].get(text[pos])
                    if target is not None:
                        stack_append((K_CHOICE, inst[2], pos, len(vals), env))
                        ip = target
                        continue
                ip = inst[2]
            elif op == OP_SEQ_TUPLE:
                count = inst[1]
                grouped = tuple(vals[-count:])
                del vals[-count:]
                vals_append(grouped)
                ip += 1
            elif op == OP_RED_TEXT:
                vals_append(text[stack[-1][3]:pos])
                ip += 1
            elif op == OP_SPAN:
                charset = inst[1]
                while pos < length and text[pos] in charset:
                    pos += 1
                # The iteration that stops the loop records its failure,
                # exactly like the per-iteration encoding.
                if pos > fail_pos:
                    fail_pos = pos
                    fail_exp = [_CLASS_MSG]
                elif pos == fail_pos and _CLASS_MSG not in fail_exp:
                    fail_exp.append(_CLASS_MSG)
                ip += 1
            elif op == OP_CLASS:
                if pos < length and inst[1](text[pos]):
                    if inst[2]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    fmsg = _CLASS_MSG
                    fpos = pos
                    ip = 0
            elif op == OP_ANY:
                if pos < length:
                    if inst[1]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    fmsg = _ANY_MSG
                    fpos = pos
                    ip = 0
            elif op == OP_POP:
                vals.pop()
                ip += 1
            elif op == OP_BIND:
                env[inst[1]] = vals[-1]
                ip += 1
            elif op == OP_NOT_BEGIN:
                stack_append((K_NOT, inst[1], pos, len(vals), env))
                ip += 1
            elif op == OP_NOT_FAIL:
                entry = stack.pop()
                fmsg = "not-predicate"
                fpos = entry[2]
                ip = 0
            elif op == OP_AND_BEGIN:
                stack_append((K_AND, pos, len(vals), env))
                ip += 1
            elif op == OP_AND_END:
                entry = stack.pop()
                pos = entry[1]
                del vals[entry[2]:]
                env = entry[3]
                ip += 1
            elif op == OP_LIT_CI:
                end = pos + inst[3]
                chunk = text[pos:end]
                if chunk.lower() == inst[2]:
                    if inst[5]:
                        vals_append(chunk)
                    pos = end
                    ip += 1
                else:
                    fpos = self._literal_failure_pos(pos, inst[1], True)
                    fmsg = inst[4]
                    ip = 0
            elif op == OP_EXPECT_FAIL:
                fmsg = inst[1]
                fpos = pos
                ip = 0
            elif op == OP_HALT:
                self._fail_pos = fail_pos
                self._fail_expected = fail_exp
                return pos, (vals[-1] if vals else None)
            elif op == OP_JUMP:
                ip = inst[1]
            else:
                raise AnalysisError(f"vm machine: unknown opcode {op}")

    # -- the incremental machine ----------------------------------------------

    def _run_incremental(self, start: str) -> tuple[int, Any]:
        """The watermark-tracking twin loop (see docs/incremental.md).

        Identical to :meth:`_run` except that it maintains ``wm``, the
        *examined* watermark of the current memoized frame — the exclusive
        end of the input span the frame has read, lookahead and failure
        probes included — and stores *relative* ``((span, value),
        rel_examined)`` entries in an :class:`IncrementalMemoTable` (span =
        next_pos − pos, −1 for failure), so the table relocates across
        edits by splicing columns.  K_CALL frames grow a seventh slot
        holding the caller's saved watermark; every other stack shape is
        unchanged.  Programs must be compiled with ``incremental=True``
        (fused regex regions are lowered back to their originals — a single
        C scan examines unboundedly far past its match end; incremental
        programs also memoize every production, see the compiler).

        Watermark protocol: a memoized call saves the caller's ``wm`` and
        resets to the call position; the entry records ``max(wm, end)``; the
        caller resumes with ``max(saved, entry examined)``.  Memo hits fold
        the stored examined end into ``wm``.  Reads that leave no failure
        record — succeeding ``&``/``!`` operands, dispatch probes of
        ``text[pos]`` (SWITCH/GUARD/GCHOICE), SPAN stop positions — bump
        ``wm`` explicitly; recorded failures bump it in the unwinder.  So
        every failure record lies inside its frame's examined span.

        ``self._frontier`` bounds which hits are served: one whose examined
        end lies past it is re-derived instead, once per run (``rederived``
        holds the keys), which is how a session's second pass after a warm
        reject reproduces the cold frontier (:mod:`repro.incremental`).
        """
        program = self._program
        code = program.code
        entries = program.entries
        if start not in entries:
            raise AnalysisError(f"undefined production {start!r}")
        text = self._text
        length = self._length
        memo = self._memo
        mput = memo.put
        cols = memo._cols  # position-indexed column list (IncrementalMemoTable)
        bound = self._frontier
        rederived: set[tuple[int, int]] = set()
        budget = self._depth_budget
        limit = DEFAULT_STACK_BUDGET if budget is None else budget

        pos = 0
        wm = 0
        ip = entries[start]
        vals: list = []
        env: dict[str, Any] = {}
        stack: list = [
            (K_CALL, HALT_IP, program.memo_index.get(start, -1), 0, env, None, 0)
        ]
        stack_append = stack.append
        vals_append = vals.append
        fail_pos = self._fail_pos
        fail_exp = self._fail_expected
        fmsg: str | None = None
        fpos = 0

        while True:
            inst = code[ip]
            op = inst[0]

            if op == OP_CALL:
                midx = inst[2]
                if midx >= 0:
                    column = cols[pos]
                    hit = column[midx] if column is not None else None
                    if hit is not None:
                        examined = pos + hit[1]
                        if examined <= bound or (midx, pos) in rederived:
                            if examined > wm:
                                wm = examined
                            pair = hit[0]
                            span = pair[0]
                            if span < 0:
                                ip = 0
                            else:
                                pos += span
                                vals_append(pair[1])
                                ip += 1
                            continue
                        rederived.add((midx, pos))
                if len(stack) >= limit:
                    self._fail_pos = fail_pos
                    self._fail_expected = fail_exp
                    raise self.depth_error(limit)
                stack_append((K_CALL, ip + 1, midx, pos, env, None, wm))
                wm = pos
                ip = inst[1]
            elif op == OP_GCHOICE:
                if pos >= wm:
                    wm = pos + 1  # the dispatch probe reads text[pos] / EOF
                if pos < length and text[pos] in inst[1]:
                    stack_append((K_CHOICE, inst[2], pos, len(vals), env))
                    ip += 1
                else:
                    msg = inst[3]
                    if pos > fail_pos:
                        fail_pos = pos
                        fail_exp = [msg]
                    elif pos == fail_pos and msg not in fail_exp:
                        fail_exp.append(msg)
                    ip = inst[2]
            elif op == OP_RET:
                frame = stack.pop()
                if wm < pos:
                    wm = pos
                if frame[2] >= 0:
                    base = frame[3]
                    mput(frame[2], base, ((pos - base, vals[-1]), wm - base))
                saved = frame[6]
                if saved > wm:
                    wm = saved
                env = frame[4]
                bind = frame[5]
                if bind is not None:
                    env[bind] = vals.pop()
                ip = frame[1]
            elif op == OP_ACTION_RET:
                value = eval(inst[1], ACTION_GLOBALS, env)  # noqa: S307
                frame = stack.pop()
                if wm < pos:
                    wm = pos
                if frame[2] >= 0:
                    base = frame[3]
                    mput(frame[2], base, ((pos - base, value), wm - base))
                saved = frame[6]
                if saved > wm:
                    wm = saved
                env = frame[4]
                bind = frame[5]
                if bind is not None:
                    env[bind] = value
                else:
                    vals_append(value)
                ip = frame[1]
            elif op == OP_CALL_BIND:
                midx = inst[2]
                if midx >= 0:
                    column = cols[pos]
                    hit = column[midx] if column is not None else None
                    if hit is not None:
                        examined = pos + hit[1]
                        if examined <= bound or (midx, pos) in rederived:
                            if examined > wm:
                                wm = examined
                            pair = hit[0]
                            span = pair[0]
                            if span < 0:
                                ip = 0
                            else:
                                pos += span
                                env[inst[4]] = pair[1]
                                ip += 1
                            continue
                        rederived.add((midx, pos))
                if len(stack) >= limit:
                    self._fail_pos = fail_pos
                    self._fail_expected = fail_exp
                    raise self.depth_error(limit)
                stack_append((K_CALL, ip + 1, midx, pos, env, inst[4], wm))
                wm = pos
                ip = inst[1]
            elif op == OP_FAIL:
                if fmsg is not None:
                    if fpos >= wm:
                        wm = fpos + 1  # the failed read examined text[fpos]
                    if fpos > fail_pos:
                        fail_pos = fpos
                        fail_exp = [fmsg]
                    elif fpos == fail_pos and fmsg not in fail_exp:
                        fail_exp.append(fmsg)
                    fmsg = None
                while True:
                    if not stack:
                        self._fail_pos = fail_pos
                        self._fail_expected = fail_exp
                        return FAILPAIR
                    entry = stack.pop()
                    kind = entry[0]
                    if kind == K_CHOICE:
                        ip = entry[1]
                        pos = entry[2]
                        del vals[entry[3]:]
                        env = entry[4]
                        break
                    if kind == K_CALL:
                        if entry[2] >= 0:
                            base = entry[3]
                            examined = wm if wm > base else base
                            mput(entry[2], base, (FAILPAIR, examined - base))
                        saved = entry[6]
                        if saved > wm:
                            wm = saved
                        continue
                    if kind == K_REP:
                        pos = entry[2]
                        del vals[entry[4]:]
                        env = entry[8]
                        if entry[5] < entry[6]:
                            continue
                        mode = entry[7]
                        if mode == 2:
                            collected = vals[entry[3]:]
                            del vals[entry[3]:]
                            vals_append(collected)
                        elif mode == 1:
                            vals_append(None)
                        ip = entry[1]
                        break
                    if kind == K_NOT:
                        ip = entry[1]
                        pos = entry[2]
                        del vals[entry[3]:]
                        env = entry[4]
                        break
                    # K_AND: the predicate's operand failed, so the predicate
                    # itself fails -- keep unwinding.
            elif op == OP_ENV_NEW:
                env = dict.fromkeys(inst[1])
                ip += 1
            elif op == OP_REP_BEGIN:
                stack_append([K_REP, inst[1], pos, len(vals), len(vals), 0, inst[2], inst[3], env])
                ip += 1
            elif op == OP_ACTION:
                value = eval(inst[1], ACTION_GLOBALS, env)  # noqa: S307
                if inst[2]:
                    vals_append(value)
                ip += 1
            elif op == OP_CHOICE:
                stack_append((K_CHOICE, inst[1], pos, len(vals), env))
                ip += 1
            elif op == OP_GUARD:
                if pos >= wm:
                    wm = pos + 1  # dispatch probe, as in OP_GCHOICE
                if pos < length and text[pos] in inst[1]:
                    ip += 1
                else:
                    msg = inst[3]
                    if pos > fail_pos:
                        fail_pos = pos
                        fail_exp = [msg]
                    elif pos == fail_pos and msg not in fail_exp:
                        fail_exp.append(msg)
                    ip = inst[2]
            elif op == OP_RED_NODE:
                count = inst[2]
                if count:
                    children = tuple(vals[-count:])
                    del vals[-count:]
                else:
                    children = ()
                location = self._location(stack[-1][3]) if inst[3] else None
                vals_append(GNode(inst[1], children, location))
                ip += 1
            elif op == OP_POPE:
                stack.pop()
                ip += 1
            elif op == OP_REP_NEXT:
                entry = stack[-1]
                if pos == entry[2]:
                    del vals[entry[4]:]
                    stack.pop()
                    if entry[5] < entry[6]:
                        ip = 0
                    else:
                        mode = entry[7]
                        if mode == 2:
                            collected = vals[entry[3]:]
                            del vals[entry[3]:]
                            vals_append(collected)
                        elif mode == 1:
                            vals_append(None)
                        ip += 1
                else:
                    entry[5] += 1
                    entry[2] = pos
                    entry[4] = len(vals)
                    ip = inst[1]
            elif op == OP_CHAR:
                if pos < length and text[pos] == inst[1]:
                    if inst[3]:
                        vals_append(inst[1])
                    pos += 1
                    ip += 1
                else:
                    fmsg = inst[2]
                    fpos = pos
                    ip = 0
            elif op == OP_PUSH_POS:
                vals_append(pos)
                ip += 1
            elif op == OP_TEXT_END:
                start_pos = vals.pop()
                vals_append(text[start_pos:pos])
                ip += 1
            elif op == OP_SET:
                if pos < length and text[pos] in inst[1]:
                    if inst[2]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    fmsg = _CLASS_MSG
                    fpos = pos
                    ip = 0
            elif op == OP_LIT:
                if text.startswith(inst[1], pos):
                    if inst[4]:
                        vals_append(inst[1])
                    pos += inst[2]
                    ip += 1
                else:
                    lit = inst[1]
                    if pos < length and text[pos] == lit[0]:
                        fpos = self._literal_failure_pos(pos, lit)
                    else:
                        fpos = pos
                    fmsg = inst[3]
                    ip = 0
            elif op == OP_COMMIT:
                stack.pop()
                ip = inst[1]
            elif op == OP_BIND_POP:
                env[inst[1]] = vals.pop()
                ip += 1
            elif op == OP_PUSH:
                vals_append(inst[1])
                ip += 1
            elif op == OP_SWITCH:
                if pos >= wm:
                    wm = pos + 1  # dispatch probe reads text[pos] / EOF
                if pos < length:
                    target = inst[1].get(text[pos])
                    if target is not None:
                        stack_append((K_CHOICE, inst[2], pos, len(vals), env))
                        ip = target
                        continue
                ip = inst[2]
            elif op == OP_SEQ_TUPLE:
                count = inst[1]
                grouped = tuple(vals[-count:])
                del vals[-count:]
                vals_append(grouped)
                ip += 1
            elif op == OP_RED_TEXT:
                vals_append(text[stack[-1][3]:pos])
                ip += 1
            elif op == OP_SPAN:
                charset = inst[1]
                while pos < length and text[pos] in charset:
                    pos += 1
                if pos >= wm:
                    wm = pos + 1  # the stopping read examined text[pos] / EOF
                if pos > fail_pos:
                    fail_pos = pos
                    fail_exp = [_CLASS_MSG]
                elif pos == fail_pos and _CLASS_MSG not in fail_exp:
                    fail_exp.append(_CLASS_MSG)
                ip += 1
            elif op == OP_CLASS:
                if pos < length and inst[1](text[pos]):
                    if inst[2]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    fmsg = _CLASS_MSG
                    fpos = pos
                    ip = 0
            elif op == OP_ANY:
                if pos < length:
                    if inst[1]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    fmsg = _ANY_MSG
                    fpos = pos
                    ip = 0
            elif op == OP_POP:
                vals.pop()
                ip += 1
            elif op == OP_BIND:
                env[inst[1]] = vals[-1]
                ip += 1
            elif op == OP_NOT_BEGIN:
                stack_append((K_NOT, inst[1], pos, len(vals), env))
                ip += 1
            elif op == OP_NOT_FAIL:
                entry = stack.pop()
                if pos > wm:
                    wm = pos  # the operand's successful match was examined
                fmsg = "not-predicate"
                fpos = entry[2]
                ip = 0
            elif op == OP_AND_BEGIN:
                stack_append((K_AND, pos, len(vals), env))
                ip += 1
            elif op == OP_AND_END:
                entry = stack.pop()
                if pos > wm:
                    wm = pos  # succeeding lookahead leaves no failure record
                pos = entry[1]
                del vals[entry[2]:]
                env = entry[3]
                ip += 1
            elif op == OP_LIT_CI:
                end = pos + inst[3]
                chunk = text[pos:end]
                if chunk.lower() == inst[2]:
                    if inst[5]:
                        vals_append(chunk)
                    pos = end
                    ip += 1
                else:
                    fpos = self._literal_failure_pos(pos, inst[1], True)
                    fmsg = inst[4]
                    ip = 0
            elif op == OP_EXPECT_FAIL:
                fmsg = inst[1]
                fpos = pos
                ip = 0
            elif op == OP_HALT:
                self._fail_pos = fail_pos
                self._fail_expected = fail_exp
                return pos, (vals[-1] if vals else None)
            elif op == OP_JUMP:
                ip = inst[1]
            elif op == OP_REGEX:
                raise AnalysisError(
                    "vm machine: fused regex op in an incremental program "
                    "(compiler bug: incremental lowering missed a Regex)"
                )
            else:
                raise AnalysisError(f"vm machine: unknown opcode {op}")

    # -- the profiled machine -------------------------------------------------

    def _run_profiled(self, start: str) -> tuple[int, Any]:
        """The instrumented twin loop.

        Slower by design (method-based memo access so
        :class:`~repro.profile.collector.MemoEvents` fire, a production-name
        stack for farthest-failure attribution, per-alternative probes).
        Offsets, ASTs, and verdicts are identical to :meth:`_run`; the
        per-alternative *wasted* figure is an estimate — the distance from
        the alternative's entry to the failure position, which may include
        progress inside a failing callee.
        """
        program = self._program
        code = program.code
        entries = program.entries
        if start not in entries:
            raise AnalysisError(f"undefined production {start!r}")
        text = self._text
        length = self._length
        memo = self._memo
        mget = memo.get
        mput = memo.put
        budget = self._depth_budget
        limit = DEFAULT_STACK_BUDGET if budget is None else budget
        pending = self._fused_pending
        profile = self._profile
        prod_stack: list[str] = []
        self._prod_stack = prod_stack
        expected = self._expected

        pos = 0
        ip = entries[start]
        vals: list = []
        env: dict[str, Any] = {}
        stack: list = [(K_CALL, HALT_IP, program.memo_index.get(start, -1), 0, env, start)]
        stack_append = stack.append
        vals_append = vals.append
        failed = False
        # The start production is entered directly, not via OP_CALL: count
        # its invocation (and the inevitable memo miss on the fresh table)
        # and seed the attribution stack here.
        profile.invoke(start)
        if stack[0][2] >= 0:
            profile.memo_miss(start)
        prod_stack.append(start)

        while True:
            if failed:
                failed = False
                while True:
                    if not stack:
                        return FAILPAIR
                    entry = stack.pop()
                    kind = entry[0]
                    if kind == K_PCHOICE:
                        profile.alt_fail(entry[5], entry[6], max(0, pos - entry[2]))
                        ip = entry[1]
                        pos = entry[2]
                        del vals[entry[3]:]
                        env = entry[4]
                        break
                    if kind == K_CHOICE:
                        ip = entry[1]
                        pos = entry[2]
                        del vals[entry[3]:]
                        env = entry[4]
                        break
                    if kind == K_CALL:
                        prod_stack.pop()
                        profile.failure(entry[5])
                        if entry[2] >= 0:
                            mput(entry[2], entry[3], FAILPAIR)
                        continue
                    if kind == K_REP:
                        pos = entry[2]
                        del vals[entry[4]:]
                        env = entry[8]
                        if entry[5] < entry[6]:
                            continue
                        mode = entry[7]
                        if mode == 2:
                            collected = vals[entry[3]:]
                            del vals[entry[3]:]
                            vals_append(collected)
                        elif mode == 1:
                            vals_append(None)
                        ip = entry[1]
                        break
                    if kind == K_NOT:
                        ip = entry[1]
                        pos = entry[2]
                        del vals[entry[3]:]
                        env = entry[4]
                        break
                continue

            inst = code[ip]
            op = inst[0]

            if op == OP_CHAR:
                if pos < length and text[pos] == inst[1]:
                    if inst[3]:
                        vals_append(inst[1])
                    pos += 1
                    ip += 1
                else:
                    expected(pos, inst[2])
                    failed = True
            elif op == OP_SET:
                if pos < length and text[pos] in inst[1]:
                    if inst[2]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    expected(pos, _CLASS_MSG)
                    failed = True
            elif op == OP_CALL:
                midx = inst[2]
                name = inst[3]
                profile.invoke(name)
                if midx >= 0:
                    hit = mget(midx, pos)
                    if hit is not None:
                        npos = hit[0]
                        if npos < 0:
                            profile.failure(name)
                            failed = True
                        else:
                            profile.success(name)
                            pos = npos
                            vals_append(hit[1])
                            ip += 1
                        continue
                if len(stack) >= limit:
                    raise self.depth_error(limit)
                stack_append((K_CALL, ip + 1, midx, pos, env, name))
                prod_stack.append(name)
                ip = inst[1]
            elif op == OP_RET:
                frame = stack.pop()
                prod_stack.pop()
                if frame[2] >= 0:
                    mput(frame[2], frame[3], (pos, vals[-1]))
                profile.success(frame[5])
                env = frame[4]
                ip = frame[1]
            elif op == OP_CHOICE:
                stack_append((K_CHOICE, inst[1], pos, len(vals), env))
                ip += 1
            elif op == OP_COMMIT:
                stack.pop()
                ip = inst[1]
            elif op == OP_POPE:
                stack.pop()
                ip += 1
            elif op == OP_LIT:
                if text.startswith(inst[1], pos):
                    if inst[4]:
                        vals_append(inst[1])
                    pos += inst[2]
                    ip += 1
                else:
                    expected(self._literal_failure_pos(pos, inst[1]), inst[3])
                    failed = True
            elif op == OP_REP_NEXT:
                entry = stack[-1]
                if pos == entry[2]:
                    del vals[entry[4]:]
                    stack.pop()
                    if entry[5] < entry[6]:
                        failed = True
                    else:
                        mode = entry[7]
                        if mode == 2:
                            collected = vals[entry[3]:]
                            del vals[entry[3]:]
                            vals_append(collected)
                        elif mode == 1:
                            vals_append(None)
                        ip += 1
                else:
                    entry[5] += 1
                    entry[2] = pos
                    entry[4] = len(vals)
                    ip = inst[1]
            elif op == OP_REP_BEGIN:
                stack_append([K_REP, inst[1], pos, len(vals), len(vals), 0, inst[2], inst[3], env])
                ip += 1
            elif op == OP_SWITCH:
                if pos < length:
                    target = inst[1].get(text[pos])
                    if target is not None:
                        stack_append((K_CHOICE, inst[2], pos, len(vals), env))
                        ip = target
                        continue
                ip = inst[2]
            elif op == OP_REGEX:
                profile.fused_scan(inst[5])
                match = inst[1](text, pos)
                if match is None:
                    pending.append((inst[4], pos))
                    failed = True
                else:
                    if not inst[3]:
                        pending.append((inst[4], pos))
                    end = match.end()
                    push_mode = inst[2]
                    if push_mode == 1:
                        vals_append(text[pos:end])
                    elif push_mode == 2:
                        vals_append(None)
                    pos = end
                    ip += 1
            elif op == OP_JUMP:
                ip = inst[1]
            elif op == OP_ANY:
                if pos < length:
                    if inst[1]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    expected(pos, _ANY_MSG)
                    failed = True
            elif op == OP_CLASS:
                if pos < length and inst[1](text[pos]):
                    if inst[2]:
                        vals_append(text[pos])
                    pos += 1
                    ip += 1
                else:
                    expected(pos, _CLASS_MSG)
                    failed = True
            elif op == OP_SPAN:
                charset = inst[1]
                while pos < length and text[pos] in charset:
                    pos += 1
                expected(pos, _CLASS_MSG)
                ip += 1
            elif op == OP_NOT_BEGIN:
                stack_append((K_NOT, inst[1], pos, len(vals), env))
                ip += 1
            elif op == OP_NOT_FAIL:
                entry = stack.pop()
                expected(entry[2], "not-predicate")
                failed = True
            elif op == OP_AND_BEGIN:
                stack_append((K_AND, pos, len(vals), env))
                ip += 1
            elif op == OP_AND_END:
                entry = stack.pop()
                pos = entry[1]
                del vals[entry[2]:]
                env = entry[3]
                ip += 1
            elif op == OP_PUSH:
                vals_append(inst[1])
                ip += 1
            elif op == OP_POP:
                vals.pop()
                ip += 1
            elif op == OP_PUSH_POS:
                vals_append(pos)
                ip += 1
            elif op == OP_TEXT_END:
                start_pos = vals.pop()
                vals_append(text[start_pos:pos])
                ip += 1
            elif op == OP_BIND:
                env[inst[1]] = vals[-1]
                ip += 1
            elif op == OP_BIND_POP:
                env[inst[1]] = vals.pop()
                ip += 1
            elif op == OP_ACTION:
                value = eval(inst[1], ACTION_GLOBALS, env)  # noqa: S307
                if inst[2]:
                    vals_append(value)
                ip += 1
            elif op == OP_ENV_NEW:
                env = dict.fromkeys(inst[1])
                ip += 1
            elif op == OP_SEQ_TUPLE:
                count = inst[1]
                grouped = tuple(vals[-count:])
                del vals[-count:]
                vals_append(grouped)
                ip += 1
            elif op == OP_RED_TEXT:
                vals_append(text[stack[-1][3]:pos])
                ip += 1
            elif op == OP_RED_NODE:
                count = inst[2]
                if count:
                    children = tuple(vals[-count:])
                    del vals[-count:]
                else:
                    children = ()
                location = self._location(stack[-1][3]) if inst[3] else None
                vals_append(GNode(inst[1], children, location))
                ip += 1
            elif op == OP_LIT_CI:
                end = pos + inst[3]
                chunk = text[pos:end]
                if chunk.lower() == inst[2]:
                    if inst[5]:
                        vals_append(chunk)
                    pos = end
                    ip += 1
                else:
                    expected(self._literal_failure_pos(pos, inst[1], True), inst[4])
                    failed = True
            elif op == OP_PROF_ALT:
                profile.alt_enter(inst[1], inst[2])
                ip += 1
            elif op == OP_PROF_ALT_OK:
                profile.alt_success(inst[1], inst[2])
                ip += 1
            elif op == OP_PCHOICE:
                stack_append((K_PCHOICE, inst[1], pos, len(vals), env, inst[2], inst[3]))
                ip += 1
            elif op == OP_FAIL:
                failed = True
            elif op == OP_EXPECT_FAIL:
                expected(pos, inst[1])
                failed = True
            elif op == OP_HALT:
                return pos, (vals[-1] if vals else None)
            else:
                raise AnalysisError(f"vm machine: unknown opcode {op}")
