"""Parsing-machine backend: the grammar IR compiled to flat bytecode.

This package is the compiled, incremental and profiled execution engine,
alongside the tree-walking interpreter (:mod:`repro.interp`, the semantic
reference) and generated source (:mod:`repro.codegen`, the default):

- :mod:`repro.vm.compiler` lowers the *post-optimization* PEG IR — including
  fused :class:`~repro.peg.expr.Regex` leaves and
  :class:`~repro.peg.expr.CharSwitch` dispatch — into one flat instruction
  array (:class:`VMProgram`);
- :mod:`repro.vm.machine` runs that program with an explicit backtrack/call
  stack (:class:`VMParser`) — no Python recursion on the hot path, so the
  depth budget becomes a stack-entry budget;
- :mod:`repro.vm.disasm` renders programs for inspection (``repro-stats
  --disasm``).

The semantics are bit-for-bit those of the other backends: same structural
ASTs, same farthest-failure offsets and expected sets, same memo-table
organizations, same deferred fused-failure replay.  The differential oracle
(:mod:`repro.difftest.oracle`) pins this down.
"""

from repro.vm.compiler import VMProgram, compile_program
from repro.vm.disasm import disassemble, summarize
from repro.vm.machine import DEFAULT_STACK_BUDGET, VMParser

__all__ = [
    "DEFAULT_STACK_BUDGET",
    "VMParser",
    "VMProgram",
    "compile_program",
    "disassemble",
    "summarize",
]
