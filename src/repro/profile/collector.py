"""The parse-time telemetry collector.

A :class:`ParseProfile` accumulates, over any number of parses on any
backend, the quantities the paper's optimization story is argued from:

- per-production **invocation counts** (memo-served applications included),
- **memo hits/misses**, counted where each engine already branches on its
  memo lookup (the interpreter's ``apply``, the parsing machine's ``CALL``,
  the generated parsers' inlined memo code),
- **backtrack counts** — failed alternative attempts — together with a
  **wasted-character estimate** (characters consumed by an alternative's
  successfully matched prefix before the attempt was abandoned),
- **farthest-failure contributions** — how often each production pushed
  the farthest-failure frontier forward, i.e. which productions drive the
  error diagnosis, and
- per-alternative **grammar coverage** (a :class:`CoverageMatrix` of which
  alternatives were ever entered and which ever succeeded).

The collector is backend-agnostic: every hook is keyed by fully qualified
production *name*, so one profile can aggregate runs from the interpreter,
the parsing machine, and generated parsers (their post-optimization
grammars permitting).  All hooks are cheap dictionary updates; parsers pay
for them only when a profile is attached (see ``docs/profiling.md``).
"""

from __future__ import annotations

from repro.peg.grammar import Grammar


class CoverageMatrix:
    """Which alternatives of which productions a corpus exercised.

    ``entered[(production, index)]`` counts attempts; ``succeeded`` counts
    attempts that matched.  :meth:`register` records a grammar's full
    alternative set so never-entered alternatives appear (with zero counts)
    in coverage reports — without registration only touched alternatives
    are known.
    """

    def __init__(self) -> None:
        self.entered: dict[tuple[str, int], int] = {}
        self.succeeded: dict[tuple[str, int], int] = {}
        #: (production, index) -> alternative label (None when unlabeled),
        #: for every registered alternative.
        self.alternatives: dict[tuple[str, int], str | None] = {}

    # -- recording -----------------------------------------------------------

    def enter(self, production: str, index: int) -> None:
        key = (production, index)
        self.entered[key] = self.entered.get(key, 0) + 1

    def succeed(self, production: str, index: int) -> None:
        key = (production, index)
        self.succeeded[key] = self.succeeded.get(key, 0) + 1

    def register(self, grammar: Grammar) -> None:
        """Record every alternative of ``grammar`` as a coverage target."""
        for production in grammar:
            for index, alternative in enumerate(production.alternatives):
                self.alternatives.setdefault((production.name, index), alternative.label)

    def merge(self, other: "CoverageMatrix") -> None:
        """Fold another matrix (e.g. from a parallel fuzz run) into this one."""
        for key, count in other.entered.items():
            self.entered[key] = self.entered.get(key, 0) + count
        for key, count in other.succeeded.items():
            self.succeeded[key] = self.succeeded.get(key, 0) + count
        for key, label in other.alternatives.items():
            self.alternatives.setdefault(key, label)

    # -- reporting -----------------------------------------------------------

    def keys(self) -> list[tuple[str, int]]:
        """All known alternatives: registered ones plus any recorded ones."""
        known = set(self.alternatives)
        known.update(self.entered)
        known.update(self.succeeded)
        return sorted(known)

    def total(self) -> int:
        return len(self.keys())

    def entered_count(self) -> int:
        return sum(1 for key in self.keys() if self.entered.get(key, 0) > 0)

    def succeeded_count(self) -> int:
        return sum(1 for key in self.keys() if self.succeeded.get(key, 0) > 0)

    def ratio(self, *, succeeded: bool = True) -> float:
        """Covered fraction; ``succeeded=False`` counts merely-entered
        alternatives as covered."""
        total = self.total()
        if not total:
            return 1.0
        covered = self.succeeded_count() if succeeded else self.entered_count()
        return covered / total

    def uncovered(self, *, succeeded: bool = True) -> list[tuple[str, int]]:
        """Alternatives never covered, sorted by production then index."""
        counts = self.succeeded if succeeded else self.entered
        return [key for key in self.keys() if counts.get(key, 0) == 0]

    def label(self, key: tuple[str, int]) -> str | None:
        return self.alternatives.get(key)

    def describe(self, key: tuple[str, int]) -> str:
        production, index = key
        label = self.alternatives.get(key)
        suffix = f" <{label}>" if label else ""
        return f"{production}/{index + 1}{suffix}"


class ParseProfile:
    """Accumulates parse-time telemetry across parses and backends.

    Construct one, attach it to a parser (``profile=`` on the interpreter,
    the parsing machine's profiled twin, :class:`repro.Language` APIs, or a
    profiled generated parser), parse a corpus, then read the counters directly or build a
    :class:`repro.profile.report.ProfileReport`.
    """

    def __init__(self, coverage: CoverageMatrix | None = None):
        self.invocations: dict[str, int] = {}
        self.memo_hits: dict[str, int] = {}
        self.memo_misses: dict[str, int] = {}
        self.successes: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.backtracks: dict[str, int] = {}
        self.wasted_chars: dict[str, int] = {}
        self.farthest: dict[str, int] = {}
        #: Fused single-scan ``Regex`` evaluations, keyed by the enclosing
        #: production's name (see the ``fuse`` optimization).
        self.fused_scans: dict[str, int] = {}
        self.coverage = coverage if coverage is not None else CoverageMatrix()
        #: Completed ``parse()`` calls (successful or not) observed via
        #: :meth:`count_parse`.
        self.parses = 0
        self.chars = 0
        self.rejected = 0
        #: Incremental-session edit accounting (:meth:`record_edit`):
        #: memo entries reused (retained), invalidated, and relocated, summed
        #: over every :meth:`repro.incremental.IncrementalSession.apply_edit`.
        self.edits = 0
        self.memo_reused = 0
        self.memo_dropped = 0
        self.memo_shifted = 0

    # -- corpus accounting (called by runners, not parsers) -------------------

    def count_parse(self, text: str, accepted: bool) -> None:
        self.parses += 1
        self.chars += len(text)
        if not accepted:
            self.rejected += 1

    def register_grammar(self, grammar: Grammar) -> None:
        """Register coverage targets and zero-fill production counters so
        untouched productions show up in reports."""
        self.coverage.register(grammar)
        for production in grammar:
            self.invocations.setdefault(production.name, 0)

    def record_edit(self, reused: int, dropped: int, shifted: int) -> None:
        """One incremental edit: ``reused`` memo entries survived it,
        ``dropped`` overlapped the damage and were invalidated, ``shifted``
        were relocated by the length delta."""
        self.edits += 1
        self.memo_reused += reused
        self.memo_dropped += dropped
        self.memo_shifted += shifted

    # -- parser hooks ----------------------------------------------------------

    def invoke(self, production: str) -> None:
        self.invocations[production] = self.invocations.get(production, 0) + 1

    def memo_hit(self, production: str) -> None:
        self.memo_hits[production] = self.memo_hits.get(production, 0) + 1

    def memo_miss(self, production: str) -> None:
        self.memo_misses[production] = self.memo_misses.get(production, 0) + 1

    def success(self, production: str) -> None:
        self.successes[production] = self.successes.get(production, 0) + 1

    def failure(self, production: str) -> None:
        self.failures[production] = self.failures.get(production, 0) + 1

    def alt_enter(self, production: str, index: int) -> None:
        self.coverage.enter(production, index)

    def alt_success(self, production: str, index: int) -> None:
        self.coverage.succeed(production, index)

    def alt_fail(self, production: str, index: int, wasted: int) -> None:
        """A failed alternative attempt: one backtrack, ``wasted`` characters
        consumed and rewound."""
        self.backtracks[production] = self.backtracks.get(production, 0) + 1
        if wasted > 0:
            self.wasted_chars[production] = self.wasted_chars.get(production, 0) + wasted

    def record_farthest(self, production: str) -> None:
        """``production`` advanced the farthest-failure frontier."""
        self.farthest[production] = self.farthest.get(production, 0) + 1

    def fused_scan(self, production: str) -> None:
        """One fused ``Regex`` region was scanned inside ``production``."""
        self.fused_scans[production] = self.fused_scans.get(production, 0) + 1

    # -- derived totals --------------------------------------------------------

    def production_names(self) -> list[str]:
        names = set(self.invocations)
        for counter in (self.memo_hits, self.memo_misses, self.successes,
                        self.failures, self.backtracks, self.wasted_chars,
                        self.farthest, self.fused_scans):
            names.update(counter)
        return sorted(names)

    def total_invocations(self) -> int:
        return sum(self.invocations.values())

    def total_memo_hits(self) -> int:
        return sum(self.memo_hits.values())

    def total_memo_misses(self) -> int:
        return sum(self.memo_misses.values())

    def total_backtracks(self) -> int:
        return sum(self.backtracks.values())

    def total_wasted_chars(self) -> int:
        return sum(self.wasted_chars.values())

    def total_fused_scans(self) -> int:
        return sum(self.fused_scans.values())

    def memo_hit_rate(self) -> float:
        looked_up = self.total_memo_hits() + self.total_memo_misses()
        return self.total_memo_hits() / looked_up if looked_up else 0.0

