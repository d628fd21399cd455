"""Parse-time observability: profiling, memo telemetry, grammar coverage.

The subsystem has three layers (see ``docs/profiling.md``):

- :mod:`repro.profile.collector` — the :class:`ParseProfile` collector the
  instrumented backends report into, plus the :class:`CoverageMatrix` of
  per-alternative coverage and the :class:`MemoEvents` memo-table sink;
- :mod:`repro.profile.report` — frozen, JSON-round-trippable
  :class:`ProfileReport` snapshots and their human-readable rendering;
- :mod:`repro.profile.runner` — corpus runners: :func:`profile_corpus`
  behind the ``repro-prof`` CLI, and :class:`CoverageSession` feeding
  coverage from differential-fuzz runs.

Instrumentation is strictly opt-in: without a profile attached, every
backend keeps its uninstrumented shape (enforced by benchmark E9).
"""

from repro.profile.collector import CoverageMatrix, MemoEvents, ParseProfile
from repro.profile.report import (
    AlternativeCoverage,
    ProductionProfile,
    ProfileReport,
    build_report,
    format_report,
)
from repro.profile.runner import (
    BACKENDS,
    CoverageSession,
    profile_corpus,
    profile_edits,
    profiled_parse_fn,
    prepare_for_profiling,
    resolve_root,
)

__all__ = [
    "ParseProfile", "CoverageMatrix", "MemoEvents",
    "ProfileReport", "ProductionProfile", "AlternativeCoverage",
    "build_report", "format_report",
    "BACKENDS", "CoverageSession", "profile_corpus",
    "profile_edits", "profiled_parse_fn", "prepare_for_profiling",
    "resolve_root",
]
