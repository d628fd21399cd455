"""The profiled interpreter run.

:class:`ProfilingRun` subclasses the interpreter's per-parse ``_Run`` and
overrides exactly the seams where telemetry attaches:

- ``apply`` — per-production invocation counts, memo hits and misses (it
  probes the memo before the inherited ``apply`` looks the entry up again,
  a cost only profiled runs pay), success/failure outcomes, and the
  production stack used to attribute farthest-failure advances;
- ``_apply_uncached`` — per-alternative coverage (entered/succeeded),
  backtrack counts, and wasted-character estimates (the characters a failed
  alternative consumed before being abandoned);
- ``_expected`` — farthest-failure contribution attribution (charged to the
  innermost production being evaluated when the frontier advances).

The uninstrumented ``_Run`` is untouched: an interpreter without a profile
never loads this module (see ``GrammarInterpreter._run``).
"""

from __future__ import annotations

from repro.interp.evaluator import FAIL, GrammarInterpreter, _CompiledProduction, _Run
from repro.profile.collector import ParseProfile


class ProfilingRun(_Run):
    """One profiled parse over one input text."""

    def __init__(
        self, interpreter: GrammarInterpreter, text: str, source: str, profile: ParseProfile
    ):
        super().__init__(interpreter, text, source)
        self._profile = profile
        self._stack: list[str] = []
        # The inherited _eval counts fused Regex scans into this dict when
        # set (one attribute check on the plain path, nothing more).
        self._fused_counts = profile.fused_scans

    def apply(self, name: str, pos: int):
        profile = self._profile
        profile.invoke(name)
        memo = self._memo
        prod = self._interp._productions.get(name)
        if memo is not None and prod is not None and not prod.transient:
            if memo.get(prod.index, pos) is None:
                profile.memo_miss(name)
            else:
                profile.memo_hit(name)
        self._stack.append(name)
        try:
            result = super().apply(name, pos)
        finally:
            self._stack.pop()
        if result[0] == FAIL:
            profile.failure(name)
        else:
            profile.success(name)
        return result

    def _apply_uncached(self, prod: _CompiledProduction, pos: int):
        profile = self._profile
        name = prod.name
        for index, alternative in enumerate(prod.alternatives):
            profile.alt_enter(name, index)
            result = self._match_alternative(prod, alternative, pos)
            if result[0] != FAIL:
                profile.alt_success(name, index)
                return result
            # On failure the value slot carries the last good position
            # (see _Run._match_alternative) — the wasted-character estimate.
            consumed = result[1] - pos if isinstance(result[1], int) else 0
            profile.alt_fail(name, index, consumed)
        if not prod.alternatives:
            # Defer to the base class for its diagnostic.
            return super()._apply_uncached(prod, pos)
        return FAIL, None

    def _expected(self, pos: int, what: str) -> None:
        if pos > self._fail_pos and self._stack:
            self._profile.record_farthest(self._stack[-1])
        super()._expected(pos, what)
