"""The fuzz loop: generate, mutate, cross-check, shrink, report.

:func:`fuzz_grammar` is the engine behind both the ``repro-fuzz`` CLI and
the in-tree smoke test: seed an rng, derive ``generated`` candidate
sentences from the grammar, corrupt ``mutated`` of them, run every input
through the :class:`~repro.difftest.oracle.DifferentialOracle`, and shrink
any disagreement to a minimal counterexample with a ready-to-paste
regression test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.difftest.generator import SentenceGenerator
from repro.difftest.mutate import mutate
from repro.difftest.oracle import DifferentialOracle, Disagreement, EditOracle
from repro.difftest.shrink import (
    edit_regression_test_source,
    regression_test_source,
    shrink,
    shrink_edit_script,
)
from repro.profile.collector import CoverageMatrix
from repro.profile.runner import CoverageSession


@dataclass
class Counterexample:
    """One disagreement, shrunk and packaged for a human."""

    original: str
    shrunk: str
    disagreement: Disagreement
    regression_test: str


@dataclass
class FuzzReport:
    """Summary of one seeded fuzz run over one grammar."""

    root: str
    seed: int
    generated: int = 0
    mutated: int = 0
    accepted: int = 0
    checked: int = 0
    backend_count: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    #: Alternative-coverage matrix of the fuzz corpus (when requested via
    #: ``fuzz_grammar(..., coverage=...)``); None otherwise.
    coverage: CoverageMatrix | None = None

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    @property
    def valid_ratio(self) -> float:
        """Fraction of *generated* (unmutated) sentences the reference
        accepted — the health metric for the sentence generator."""
        return self.accepted / self.generated if self.generated else 0.0

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.counterexamples)} DISAGREEMENTS"
        line = (
            f"{self.root}: {self.checked} inputs "
            f"({self.generated} generated, {self.mutated} mutated; "
            f"{self.valid_ratio:.0%} of generated accepted) "
            f"across {self.backend_count} backends — {status}"
        )
        if self.coverage is not None:
            line += (
                f"; alternative coverage {self.coverage.ratio():.0%} "
                f"({self.coverage.succeeded_count()}/{self.coverage.total()})"
            )
        return line


def fuzz_grammar(
    root: str,
    *,
    seed: int = 0,
    generated: int = 200,
    mutated: int = 200,
    max_depth: int = 24,
    max_shrink_checks: int = 2000,
    max_counterexamples: int = 5,
    oracle: DifferentialOracle | None = None,
    start: str | None = None,
    backtracking: bool = False,
    paths: list[str] | None = None,
    coverage: CoverageMatrix | bool = False,
    backends: list[str] | None = None,
) -> FuzzReport:
    """One seeded differential fuzz run over the grammar module ``root``.

    Stops collecting (but keeps counting inputs) after
    ``max_counterexamples`` distinct shrunk counterexamples: one real
    optimizer bug tends to disagree on hundreds of inputs, and shrinking
    each is wasted work.

    With ``coverage`` set (``True`` for a fresh matrix, or an existing
    :class:`~repro.profile.collector.CoverageMatrix` to accumulate into —
    e.g. across seeds), every checked input is also fed through a profiled
    reference interpreter, so the fuzz run doubles as a grammar-coverage
    measurement; the matrix lands on ``report.coverage``.

    ``backends`` restricts the oracle to a subset of backend names (the
    reference is always kept); see
    :class:`~repro.difftest.oracle.DifferentialOracle`.
    """
    if oracle is None:
        oracle = DifferentialOracle.for_root(
            root, paths=paths, start=start, backtracking=backtracking, backends=backends
        )
    coverage_session = None
    if coverage:
        matrix = coverage if isinstance(coverage, CoverageMatrix) else None
        coverage_session = CoverageSession(oracle.grammar, coverage=matrix)
    rng = random.Random(seed)
    generator = SentenceGenerator(oracle.grammar, rng, max_depth=max_depth)
    report = FuzzReport(
        root=root,
        seed=seed,
        backend_count=len(oracle.backends),
        coverage=coverage_session.coverage if coverage_session else None,
    )

    corpus: list[str] = []
    for _ in range(generated):
        sentence = generator.generate()
        corpus.append(sentence)
        report.generated += 1
        if oracle.reference.run(sentence).accepted:
            report.accepted += 1
        if coverage_session is not None:
            coverage_session.feed(sentence)
        _check_one(oracle, root, sentence, report, max_shrink_checks, max_counterexamples)

    for index in range(mutated):
        base = corpus[index % len(corpus)] if corpus else ""
        mutant = mutate(base, rng, edits=rng.randint(1, 3))
        report.mutated += 1
        if coverage_session is not None:
            coverage_session.feed(mutant)
        _check_one(oracle, root, mutant, report, max_shrink_checks, max_counterexamples)

    return report


def _check_one(
    oracle: DifferentialOracle,
    root: str,
    text: str,
    report: FuzzReport,
    max_shrink_checks: int,
    max_counterexamples: int,
) -> None:
    report.checked += 1
    if len(report.counterexamples) >= max_counterexamples:
        return
    disagreements = oracle.check(text)
    if not disagreements:
        return
    first = disagreements[0]
    shrunk = shrink(
        text,
        lambda candidate: bool(oracle.check(candidate)),
        max_checks=max_shrink_checks,
    )
    detail = oracle.explain(shrunk) or first.describe()
    report.counterexamples.append(
        Counterexample(
            original=text,
            shrunk=shrunk,
            disagreement=first,
            regression_test=regression_test_source(root, shrunk, detail),
        )
    )


# -- incremental edit scripts --------------------------------------------------


@dataclass
class EditCounterexample:
    """One edit-script disagreement, shrunk and packaged for a human."""

    text: str
    original: list
    shrunk: list
    disagreement: Disagreement
    regression_test: str


@dataclass
class EditFuzzReport:
    """Summary of one seeded edit-script fuzz run over one grammar."""

    root: str
    seed: int
    scripts: int = 0
    edits_checked: int = 0
    counterexamples: list[EditCounterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.counterexamples)} DISAGREEMENTS"
        return (
            f"{self.root} [edits]: {self.scripts} scripts "
            f"({self.edits_checked} edits, warm vm vs cold vm and generated) — {status}"
        )


def fuzz_edits(
    root: str,
    *,
    seed: int = 0,
    scripts: int = 200,
    edits_per_script: int = 6,
    max_depth: int = 24,
    max_shrink_checks: int = 400,
    max_counterexamples: int = 5,
    oracle: EditOracle | None = None,
    start: str | None = None,
    paths: list[str] | None = None,
) -> EditFuzzReport:
    """One seeded differential fuzz run over incremental edit scripts.

    Derives ``scripts`` sentences from the grammar, builds a seeded
    ``edits_per_script``-edit script over each
    (:func:`repro.workloads.pyedits.edit_script` — token-boundary and
    mid-token inserts/deletes/replacements), and replays every script
    through the :class:`~repro.difftest.oracle.EditOracle`: after each
    edit the warm incremental reparse must match a cold parse of the same
    buffer bit-identically, and a generated-parser parse on verdict, AST
    and offset.  Disagreeing scripts are shrunk
    (:func:`~repro.difftest.shrink.shrink_edit_script`) and packaged with
    a ready-to-paste regression test.
    """
    from repro.workloads.pyedits import edit_script

    if oracle is None:
        oracle = EditOracle.for_root(root, paths=paths, start=start)
    rng = random.Random(seed)
    generator = SentenceGenerator(oracle.grammar, rng, max_depth=max_depth)
    report = EditFuzzReport(root=root, seed=seed)
    for _ in range(scripts):
        sentence = generator.generate()
        edits = [
            (e.offset, e.removed, e.inserted)
            for e in edit_script(sentence, rng, edits_per_script)
        ]
        report.scripts += 1
        report.edits_checked += len(edits)
        if len(report.counterexamples) >= max_counterexamples:
            continue
        disagreements = oracle.check_script(sentence, edits)
        if not disagreements:
            continue
        first = disagreements[0]
        shrunk = shrink_edit_script(
            edits,
            lambda candidate: bool(oracle.check_script(sentence, candidate)),
            max_checks=max_shrink_checks,
        )
        detail = oracle.explain_script(sentence, shrunk) or first.describe()
        report.counterexamples.append(
            EditCounterexample(
                text=sentence,
                original=edits,
                shrunk=shrunk,
                disagreement=first,
                regression_test=edit_regression_test_source(root, sentence, shrunk, detail),
            )
        )
    return report
