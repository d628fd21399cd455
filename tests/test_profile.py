"""Unit tests for the profiling collector, reports, and runners.

The hand-computed cases pin the exact event counts a tiny grammar must
produce — if an instrumentation seam drifts (an extra memo probe, a missed
backtrack), these numbers move.
"""

import json

import pytest

from repro.errors import ParseError
from repro.interp import PackratInterpreter
from repro.peg.builder import GrammarBuilder, cc, lit, ref, text
from repro.profile import (
    BACKENDS,
    CoverageMatrix,
    MemoEvents,
    ParseProfile,
    ProfileReport,
    build_report,
    format_report,
    profile_corpus,
)
from repro.vm import VMParser, compile_program

pytestmark = pytest.mark.prof


def tiny_grammar():
    """S <- A B / A 'c';  A <- 'a';  B <- 'b'  (all void)."""
    b = GrammarBuilder("t", start="S")
    b.void("S", [ref("A"), ref("B")], [ref("A"), lit("c")])
    b.void("A", [lit("a")])
    b.void("B", [lit("b")])
    return b.build()


@pytest.fixture(params=[True, False], ids=["chunked", "dict"])
def chunked(request):
    return request.param


class TestHandComputedCounts:
    """Parse "ac" with S <- A B / A 'c':

    - S applied once (miss); alternative 1 enters, A succeeds (miss),
      B fails (miss) -> backtrack with 1 wasted char;
    - alternative 2 enters, A is served from the memo (hit), 'c' matches.
    """

    def run(self, chunked, backend="interp"):
        profile = ParseProfile()
        grammar = tiny_grammar()
        if backend == "interp":
            PackratInterpreter(grammar, chunked=chunked, profile=profile).parse("ac")
        else:
            program = compile_program(grammar, profiled=True)
            VMParser(program, "ac", chunked=chunked, profile=profile).parse()
        return profile

    @pytest.mark.parametrize("backend", ["interp", "vm"])
    def test_counts(self, chunked, backend):
        profile = self.run(chunked, backend)
        assert profile.invocations == {"S": 1, "A": 2, "B": 1}
        assert profile.memo_misses == {"S": 1, "A": 1, "B": 1}
        assert profile.memo_hits == {"A": 1}
        assert profile.successes == {"S": 1, "A": 2}
        assert profile.failures == {"B": 1}
        # Every failed alternative attempt is one backtrack — including the
        # failure of B's only alternative, not just S's rewind.
        assert profile.backtracks == {"S": 1, "B": 1}
        assert profile.wasted_chars == {"S": 1}

    def test_coverage_entered_vs_succeeded(self, chunked):
        matrix = self.run(chunked).coverage
        assert matrix.entered == {("S", 0): 1, ("S", 1): 1, ("A", 0): 1, ("B", 0): 1}
        assert matrix.succeeded == {("S", 1): 1, ("A", 0): 1}

    def test_totals(self, chunked):
        profile = self.run(chunked)
        assert profile.total_invocations() == 4
        assert profile.total_memo_hits() == 1
        assert profile.total_memo_misses() == 3
        assert profile.total_backtracks() == 2
        assert profile.total_wasted_chars() == 1
        assert profile.memo_hit_rate() == pytest.approx(0.25)


class TestBacktrackAccounting:
    def test_ordered_choice_backtracks(self):
        # S <- 'aaa' / 'aa' / 'a' on "a": two failed attempts, then success.
        b = GrammarBuilder("t", start="S")
        b.void("S", [lit("aaa")], [lit("aa")], [lit("a")])
        profile = ParseProfile()
        PackratInterpreter(b.build(), profile=profile).parse("a")
        assert profile.backtracks == {"S": 2}
        assert profile.coverage.entered == {("S", 0): 1, ("S", 1): 1, ("S", 2): 1}
        assert profile.coverage.succeeded == {("S", 2): 1}

    def test_wasted_chars_count_matched_prefix(self):
        # First alternative matches "ab" then dies on 'x': 2 wasted chars.
        b = GrammarBuilder("t", start="S")
        b.void("S", [lit("a"), lit("b"), lit("x")], [lit("a"), lit("b"), lit("c")])
        profile = ParseProfile()
        PackratInterpreter(b.build(), profile=profile).parse("abc")
        assert profile.wasted_chars == {"S": 2}

    def test_failed_parse_records_farthest(self):
        b = GrammarBuilder("t", start="S")
        b.void("S", [ref("A"), lit("b")])
        b.void("A", [lit("a")])
        profile = ParseProfile()
        with pytest.raises(ParseError):
            PackratInterpreter(b.build(), profile=profile).parse("ax")
        assert sum(profile.farthest.values()) >= 1


class TestCoverageMatrix:
    def test_register_exposes_unentered_alternatives(self):
        matrix = CoverageMatrix()
        matrix.register(tiny_grammar())
        assert matrix.total() == 4
        assert matrix.ratio() == 0.0
        assert ("S", 1) in matrix.uncovered()

    def test_ratio_and_uncovered(self):
        matrix = CoverageMatrix()
        matrix.register(tiny_grammar())
        matrix.enter("S", 0)
        matrix.succeed("S", 0)
        matrix.enter("S", 1)
        assert matrix.entered_count() == 2
        assert matrix.succeeded_count() == 1
        assert matrix.ratio() == pytest.approx(0.25)
        assert matrix.ratio(succeeded=False) == pytest.approx(0.5)
        assert ("S", 1) in matrix.uncovered()
        assert ("S", 1) not in matrix.uncovered(succeeded=False)

    def test_merge(self):
        a, b = CoverageMatrix(), CoverageMatrix()
        a.enter("S", 0)
        b.enter("S", 0)
        b.succeed("S", 1)
        a.merge(b)
        assert a.entered[("S", 0)] == 2
        assert a.succeeded[("S", 1)] == 1

    def test_describe_uses_labels(self):
        b = GrammarBuilder("t", start="S")
        b.object("S", [text(lit("a"))], [text(cc("0-9"))])
        grammar = b.build()
        # Give the alternatives labels if the builder recorded none.
        matrix = CoverageMatrix()
        matrix.register(grammar)
        label = matrix.label(("S", 0))
        described = matrix.describe(("S", 0))
        assert described.startswith("S/1")
        if label:
            assert f"<{label}>" in described


class TestReports:
    def make_report(self):
        report = profile_corpus(tiny_grammar(), ["ac", "ab", "zz"], "interp",
                                grammar_name="tiny")
        assert report.parses == 3
        assert report.rejected == 1
        return report

    def test_json_round_trip(self):
        report = self.make_report()
        wire = json.dumps(report.to_json())
        assert ProfileReport.from_json(json.loads(wire)) == report

    def test_json_contents(self):
        data = self.make_report().to_json()
        assert data["grammar"] == "tiny"
        assert data["backend"] == "interp"
        assert data["totals"]["invocations"] > 0
        assert 0.0 <= data["totals"]["memo_hit_rate"] <= 1.0
        assert data["coverage"]["total"] == 4
        by_name = {p["name"]: p for p in data["productions"]}
        assert {"S", "A", "B"} <= set(by_name)
        assert by_name["S"]["backtracks"] >= 1

    def test_uncovered_listing(self):
        report = profile_corpus(tiny_grammar(), ["ac"], "interp")
        uncovered = {(a.production, a.index) for a in report.uncovered_alternatives()}
        assert ("S", 0) in uncovered
        assert ("B", 0) in uncovered  # entered but never succeeded

    def test_format_report_mentions_hotspots_and_coverage(self):
        rendered = format_report(self.make_report())
        assert "memo hit rate" in rendered
        assert "alternative coverage" in rendered
        # A partially covered corpus lists what's missing.
        partial = format_report(profile_corpus(tiny_grammar(), ["ac"], "interp"))
        assert "uncovered" in partial

    def test_build_report_snapshots_collector(self):
        profile = ParseProfile()
        profile.invoke("X")
        profile.memo_miss("X")
        report = build_report(profile, grammar="g", backend="b")
        assert report.invocations == 1
        assert report.memo_misses == 1
        assert report.productions[0].name == "X"


class TestMemoEvents:
    def test_maps_indices_to_names(self):
        profile = ParseProfile()
        events = MemoEvents(profile, ["Alpha", "Beta"])
        events.miss(0, 0)
        events.hit(1, 0, (1, None))
        events.store(0, 0, (1, None))  # stores are not separately counted
        assert profile.memo_misses == {"Alpha": 1}
        assert profile.memo_hits == {"Beta": 1}


class TestRunner:
    def test_profile_corpus_counts_rejections(self):
        report = profile_corpus(tiny_grammar(), ["ab", "ac", "nope"], "interp")
        assert report.parses == 3
        assert report.chars == len("ab") + len("ac") + len("nope")
        assert report.rejected == 1

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            profile_corpus(tiny_grammar(), ["ab"], "warp-drive")

    def test_backends_agree_on_counts(self):
        texts = ["ab", "ac", "zz"]
        reports = {
            backend: profile_corpus(tiny_grammar(), texts, backend)
            for backend in BACKENDS
        }
        baseline = reports["interp"]
        for report in reports.values():
            assert report.invocations == baseline.invocations
            assert report.memo_hits == baseline.memo_hits
            assert report.memo_misses == baseline.memo_misses
            assert report.backtracks == baseline.backtracks
            assert report.coverage_ratio() == baseline.coverage_ratio()
            assert report.rejected == baseline.rejected

    def test_shared_profile_aggregates(self):
        profile = ParseProfile()
        profile_corpus(tiny_grammar(), ["ac"], "interp", profile=profile)
        profile_corpus(tiny_grammar(), ["ac"], "vm", profile=profile)
        assert profile.parses == 2
        assert profile.invocations["S"] == 2


class TestCli:
    COUNTERS = ("invocations", "memo_hits", "memo_misses", "successes", "failures", "backtracks")

    def run_cli(self, tmp_path, backend):
        from repro.tools import prof

        out = tmp_path / f"{backend}.json"
        assert prof.main(["calc", "--backend", backend, "--json", "--output", str(out)]) == 0
        [report] = json.loads(out.read_text())["reports"]
        return report

    def test_vm_backend_without_edits_matches_interp(self, tmp_path):
        vm = self.run_cli(tmp_path, "vm")
        interp = self.run_cli(tmp_path, "interp")
        assert vm["backend"] == "vm" and vm["parses"] == 50
        assert vm["rejected"] == interp["rejected"]
        assert vm["coverage"] == interp["coverage"]
        for ours, theirs in zip(vm["productions"], interp["productions"], strict=True):
            assert ours["name"] == theirs["name"]
            for counter in self.COUNTERS:
                assert ours[counter] == theirs[counter], (ours["name"], counter)


class TestLanguageHooks:
    def test_parse_profile_hook(self, calc_lang):
        profile = ParseProfile()
        tree = calc_lang.parse("1+2*3", profile=profile)
        assert tree is not None
        assert profile.parses == 1
        assert profile.total_invocations() > 0
        assert profile.total_memo_misses() > 0

    def test_session_profile_accumulates(self, calc_lang):
        profile = ParseProfile()
        session = calc_lang.session(profile=profile)
        session.parse("1+2")
        session.parse("2*3")
        with pytest.raises(ParseError):
            session.parse("1+")
        assert profile.parses == 3
        assert profile.rejected == 1

    def test_profiled_twin_cached(self, calc_lang):
        assert calc_lang.profiled_parser_class is calc_lang.profiled_parser_class
        assert calc_lang.profiled_parser_class is not calc_lang.parser_class

    def test_interpreter_profile_hook(self, calc_lang):
        profile = ParseProfile()
        calc_lang.interpreter(profile=profile).parse("1+2")
        assert profile.total_invocations() > 0

    def test_default_paths_uninstrumented(self, calc_lang):
        # Pay-for-what-you-use: no profile -> no profiling hooks anywhere.
        assert "_profile" not in vars(calc_lang.parser(""))
        assert "prof" not in calc_lang.parser_source
        interp = calc_lang.interpreter()
        assert interp.profile is None
