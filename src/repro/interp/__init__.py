"""Grammar interpreters.

- :class:`PackratInterpreter` — memoizing (linear-time) interpretation;
  the library's executable reference semantics and testing oracle.
- :class:`BacktrackInterpreter` — plain backtracking interpretation, the
  naive-PEG baseline used by the linearity experiment (E4).
"""

from typing import Any

from repro.interp.evaluator import GrammarInterpreter
from repro.interp.trace import TraceEvent, format_trace, trace_parse, trace_statistics
from repro.peg.grammar import Grammar


class PackratInterpreter(GrammarInterpreter):
    """Memoizing grammar interpreter (packrat parsing)."""

    def __init__(self, grammar: Grammar, chunked: bool = True, profile=None):
        super().__init__(grammar, memoize=True, chunked=chunked, profile=profile)


class BacktrackInterpreter(GrammarInterpreter):
    """Non-memoizing grammar interpreter (naive backtracking)."""

    def __init__(self, grammar: Grammar, profile=None):
        super().__init__(grammar, memoize=False, profile=profile)


__all__ = [
    "GrammarInterpreter", "PackratInterpreter", "BacktrackInterpreter",
    "TraceEvent", "format_trace", "trace_parse", "trace_statistics",
]
