"""Tests for incremental reparsing: memo surgery, sessions, streaming.

Covers the :class:`~repro.runtime.memo.IncrementalMemoTable` column
surgery (drop/shift with the relative-span summaries), the
:class:`~repro.incremental.IncrementalSession` edit loop on the parsing
machine (warm results identical to cold parses, locations relocated, failure
fidelity), the same-text memo retention of plain sessions, the
incremental profile counters and report round-trip, the
:class:`~repro.incremental.StreamFeeder` framing, and the differential
edit oracle with its script shrinker — including the ISSUE's acceptance
property: 200 seeded edit scripts per fuzz-matrix grammar with zero
warm/cold divergences.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.difftest import EditOracle, fuzz_edits, shrink_edit_script
from repro.difftest.oracle import Outcome
from repro.errors import ParseDepthError, ParseError
from repro.incremental import StreamFeeder
from repro.meta import ModuleLoader
from repro.profile import ParseProfile, ProfileReport, build_report, format_report
from repro.profile.report import REPORT_FORMAT
from repro.runtime.memo import _SPAN_CAP, IncrementalMemoTable
from repro.runtime.node import GNode
from repro.workloads.pyedits import (
    Edit,
    apply_script,
    corpus_texts,
    edit_script,
    rename_edits,
    retype_edits,
)

#: ``P`` records a failure one character past its match (the optional
#: ``"!!"`` against ``"!;"``), beyond where ``S`` then fails at the ``;``.
HIDDEN_GRAMMAR = """
module t.Hidden;
public generic S = void:" "* P void:";" ;
generic P = "a" "!!"? ;
"""


@pytest.fixture(scope="module")
def calc():
    return repro.compile_grammar("calc.Calculator")


@pytest.fixture(scope="module")
def jay():
    return repro.compile_grammar("jay.Jay")


@pytest.fixture(scope="module")
def hidden():
    loader = ModuleLoader(include_builtin=False)
    loader.register_source("t.Hidden", HIDDEN_GRAMMAR)
    return repro.compile_grammar(repro.load_grammar("t.Hidden", loader=loader))


@pytest.fixture(scope="module")
def python_retype():
    """The Python language, a corpus buffer, and four seeded line retypes
    (each ends at the original buffer, so they chain)."""
    [(_, text)] = corpus_texts(limit=1, max_chars=40_000)
    rng = random.Random(3)
    edits = [edit for _ in range(4) for edit in retype_edits(text, rng)]
    return repro.compile_grammar("python.Python"), text, edits


def entry(span: int, value, rel: int):
    """Build one relative memo entry the way the backends store them."""
    return ((span, value), rel)


class TestIncrementalMemoTable:
    def table(self, length=10, rules=("a", "b")):
        return IncrementalMemoTable(list(rules)).resize(length)

    def test_put_get_roundtrip(self):
        table = self.table()
        table.put(0, 3, entry(2, "v", 2))
        assert table.get(0, 3) == ((2, "v"), 2)
        assert table.get(1, 3) is None
        assert table.get(0, 4) is None
        assert table.entry_count() == 1

    def test_put_same_slot_counts_once(self):
        table = self.table()
        table.put(0, 3, entry(2, "v", 2))
        table.put(0, 3, entry(1, "w", 1))
        assert table.entry_count() == 1
        assert table.get(0, 3) == ((1, "w"), 1)

    def test_resize_clears(self):
        table = self.table()
        table.put(0, 3, entry(2, "v", 2))
        table.resize(5)
        assert table.entry_count() == 0
        assert table.get(0, 3) is None
        # Columns exist for every position including end-of-input.
        table.put(0, 5, entry(0, "eof", 0))
        assert table.get(0, 5) is not None

    def test_drop_range_interior(self):
        table = self.table()
        table.put(0, 5, entry(1, "damaged", 1))
        table.put(1, 6, entry(1, "damaged", 1))
        table.put(0, 2, entry(1, "left", 1))
        assert table.drop_range(5, 7) == 2
        assert table.get(0, 5) is None and table.get(1, 6) is None
        assert table.get(0, 2) is not None
        assert table.entry_count() == 1

    def test_drop_range_keeps_zero_width_at_lo(self):
        # A zero-width entry at the damage start never read damaged text.
        table = self.table()
        table.put(0, 5, entry(0, "zero", 0))
        assert table.drop_range(5, 6) == 0
        assert table.get(0, 5) is not None

    def test_drop_range_spine_by_examined_span(self):
        table = self.table()
        # Examined [2, 6) — crosses damage at 5: dropped.
        table.put(0, 2, entry(1, "crosses", 4))
        # Examined [2, 5) — stops exactly at the damage: retained.
        table.put(1, 2, entry(1, "stops", 3))
        assert table.drop_range(5, 6) == 1
        assert table.get(0, 2) is None
        assert table.get(1, 2) is not None

    def test_drop_range_long_span_entries(self):
        # Spans >= _SPAN_CAP are summarized at the cap and tracked exactly
        # in a side set, so damage far beyond the byte window still finds
        # the entry that examined across it.
        table = self.table(length=1000)
        table.put(0, 0, entry(600, "long", 600))
        table.put(1, 0, entry(300, "shorter-long", 300))
        assert 0 in table._long
        # Damage at 500: the 600-wide entry crosses, the 300-wide does not.
        assert table.drop_range(500, 501) == 1
        assert table.get(0, 0) is None
        assert table.get(1, 0) is not None
        # The 300-wide entry still reaches the cap, so 0 stays long and a
        # later closer damage still finds it.
        assert 0 in table._long
        assert table.drop_range(200, 201) == 1
        assert table.get(1, 0) is None

    def test_shift_from_insert(self):
        table = self.table()
        table.put(0, 2, entry(1, "left", 1))
        table.put(0, 7, entry(1, "right", 1))
        shifted = table.shift_from(5, 3)
        assert shifted == 1
        assert table.get(0, 2) == ((1, "left"), 1)
        assert table.get(0, 7) is None
        assert table.get(0, 10) == ((1, "right"), 1)
        assert table.entry_count() == 2

    def test_shift_from_delete_accounts_lost_entries(self):
        table = self.table()
        table.put(0, 2, entry(1, "left", 1))
        table.put(0, 4, entry(1, "spliced-away", 1))
        table.put(0, 7, entry(1, "right", 1))
        shifted = table.shift_from(5, -2)
        assert shifted == 1
        assert table.entry_count() == 2
        assert table.get(0, 2) is not None
        assert table.get(0, 5) == ((1, "right"), 1)

    def test_shift_from_zero_delta_shifts_nothing(self):
        table = self.table()
        table.put(0, 7, entry(1, "right", 1))
        assert table.shift_from(5, 0) == 0
        assert table.get(0, 7) is not None

    def test_shift_relocates_long_set(self):
        table = self.table(length=1000)
        table.put(0, 400, entry(300, "long", 300))
        assert 400 in table._long
        table.shift_from(100, 5)
        assert table._long == {405}
        assert table.get(0, 405) is not None

    def test_on_value_called_for_relocated_successes_only(self):
        table = self.table()
        table.put(0, 2, entry(1, "left", 1))
        table.put(0, 7, entry(1, "moved", 1))
        table.put(1, 7, ((-1, None), 2))  # failure entry: no value to patch
        seen = []
        table.shift_from(5, 1, on_value=seen.append)
        assert seen == ["moved"]


class TestIncrementalSession:
    def test_edits_match_cold_parse(self, calc):
        session = calc.incremental()
        session.set_text("1+2*(3-4)")
        assert repr(session.parse()) == repr(calc.parse("1+2*(3-4)"))
        for edit, expected in [
            ((2, 1, "7"), "1+7*(3-4)"),
            ((4, 0, "(8)+"), "1+7*(8)+(3-4)"),
            ((0, 2, ""), "7*(8)+(3-4)"),
        ]:
            session.apply_edit(*edit)
            assert session.text == expected
            assert repr(session.parse()) == repr(calc.parse(expected))
            assert not session.last_parse_recovered

    def test_edit_stats_accounting(self, calc):
        session = calc.incremental()
        session.set_text("1+2*(3-4)")
        session.parse()
        before = session.memo_entry_count()
        assert before > 0
        stats = session.apply_edit(2, 1, "9")
        assert stats.offset == 2 and stats.removed == 1 and stats.inserted == 1
        assert stats.retained == session.memo_entry_count()
        assert stats.retained == before - stats.dropped

    def test_warm_failure_identical_to_cold(self, calc):
        warm = calc.incremental()
        warm.set_text("1+2*3")
        warm.parse()
        warm.apply_edit(4, 1, "+")  # "1+2*+" — dangling operator
        with pytest.raises(ParseError) as warm_err:
            warm.parse()
        cold = calc.incremental()
        cold.set_text(warm.text)
        with pytest.raises(ParseError) as cold_err:
            cold.parse()
        assert warm_err.value.offset == cold_err.value.offset
        assert warm_err.value.expected == cold_err.value.expected
        assert warm_err.value.line == cold_err.value.line
        assert warm_err.value.column == cold_err.value.column
        # Failure fidelity came from the second pass, which must not have
        # *changed* the verdict (that would be an invalidation bug).
        assert not warm.last_parse_recovered

    def test_random_edit_sequence_stays_consistent(self, calc):
        rng = random.Random(17)
        session = calc.incremental()
        text = "1+2*(3-4)+(5*6)"
        session.set_text(text)
        for _ in range(40):
            [edit] = edit_script(session.text, rng, 1)
            session.apply_edit(edit.offset, edit.removed, edit.inserted)
            try:
                warm = repr(session.parse())
            except ParseError as error:
                with pytest.raises(ParseError) as cold_err:
                    calc.parse(session.text)
                assert cold_err.value.offset == error.offset
            else:
                assert warm == repr(calc.parse(session.text))
            assert not session.last_parse_recovered

    def test_feed_appends(self, calc):
        session = calc.incremental()
        session.set_text("1")
        session.parse()
        session.feed("+2")
        assert session.text == "1+2"
        assert repr(session.parse()) == repr(calc.parse("1+2"))
        session.feed("*3")
        assert repr(session.parse()) == repr(calc.parse("1+2*3"))

    def test_locations_relocated_across_newline_edit(self, jay):
        from repro.workloads import generate_jay_program

        text = generate_jay_program(size=5, seed=1)
        session = jay.incremental()
        session.set_text(text)
        session.parse()
        # Insert a comment line near the front: every retained node behind
        # it moves down one line.
        session.apply_edit(0, 0, "// header\n")
        warm = session.parse()
        cold = jay.parse(session.text)

        def locations(value):
            out, stack = [], [value]
            while stack:
                node = stack.pop()
                if isinstance(node, GNode):
                    if node.location is not None:
                        out.append((node.name, node.location.line, node.location.column))
                    stack.extend(node.children)
                elif isinstance(node, (tuple, list)):
                    stack.extend(node)
            return sorted(out)

        assert locations(warm) == locations(cold)

    def test_source_name_in_warm_errors(self, calc):
        session = calc.incremental()
        session.set_text("1+2*3", source="expr.calc")
        session.parse()
        session.apply_edit(3, 1, "@")
        with pytest.raises(ParseError) as err:
            session.parse()
        assert err.value.source == "expr.calc"
        assert str(err.value).startswith("expr.calc:1:")

    def test_edit_validation(self, calc):
        session = calc.incremental()
        session.set_text("1+2")
        with pytest.raises(ValueError):
            session.apply_edit(4, 0, "x")
        with pytest.raises(ValueError):
            session.apply_edit(2, 5, "x")
        with pytest.raises(ValueError):
            session.apply_edit(0, -1, "x")

    def test_context_manager_releases_entries(self, calc):
        with calc.incremental() as session:
            session.set_text("1+2*3")
            session.parse()
            assert session.memo_entry_count() > 0
        assert session.memo_entry_count() == 0


def _cold_parse(language, text: str):
    """One from-scratch pass of the incremental program, with no session."""
    from repro.vm import VMParser

    program = language.vm_program(incremental=True)
    return VMParser(program, text).parse()


def _error_fields(error: ParseError) -> tuple:
    return (error.offset, error.line, error.column, error.expected, error.source, str(error))


class TestWarmRejectFrontier:
    """A warm reject runs a second pass that re-derives every memo hit
    examined past its frontier: the error is exactly the cold one."""

    def test_retained_entry_hiding_a_failure_past_the_frontier(self, hidden):
        session = hidden.incremental()
        session.set_text("a!;")
        with pytest.raises(ParseError):
            session.parse()
        # P's entry (its "!!" failure recorded at 2) shifts to 1 and is kept.
        session.apply_edit(0, 0, " ")
        # Serving it, the first pass alone stops at the ';' mismatch at 2 ...
        with pytest.raises(ParseError) as first_pass:
            session._parser.parse()
        assert first_pass.value.offset == 2
        # ... while the cold parse, and so the session, fails at 3.
        with pytest.raises(ParseError) as warm:
            session.parse()
        with pytest.raises(ParseError) as cold:
            _cold_parse(hidden, " a!;")
        assert cold.value.offset == 3
        assert _error_fields(warm.value) == _error_fields(cold.value)
        assert not session.last_parse_recovered

    def test_python_retype_errors_equal_cold_errors(self, python_retype):
        language, text, edits = python_retype
        session = language.incremental()
        session.set_text(text)
        session.parse()
        rejects = 0
        for edit in edits:
            session.apply_edit(edit.offset, edit.removed, edit.inserted)
            try:
                session.parse()
            except ParseError as warm:
                rejects += 1
                with pytest.raises(ParseError) as cold:
                    _cold_parse(language, session.text)
                assert _error_fields(warm) == _error_fields(cold.value)
            assert not session.last_parse_recovered
        assert session.text == text
        assert rejects >= 3

    def test_second_pass_stores_are_few_and_unique(self, python_retype):
        language, text, edits = python_retype
        session = language.incremental()
        session.set_text(text)
        session.parse()
        memo, parser = session._memo, session._parser
        passes: list[list[tuple[int, int]]] = []
        plain_put, plain_parse = memo.put, parser.parse

        def put(rule, pos, entry):
            passes[-1].append((rule, pos))
            plain_put(rule, pos, entry)

        def parse(start=None):
            passes.append([])
            return plain_parse(start)

        memo.put = put
        parser.parse = parse
        rejects = 0
        for edit in edits:
            session.apply_edit(edit.offset, edit.removed, edit.inserted)
            passes.clear()
            try:
                session.parse()
            except ParseError:
                rejects += 1
                first, second = passes
                assert len(first) + len(second) < 0.05 * session.memo_entry_count()
                # The first pass may store a key the second re-derives; within
                # one pass no key is stored twice.
                assert len(set(second)) == len(second)
        assert rejects >= 3

    def test_depth_error_raises_after_one_pass(self, jay):
        # Served hits push no frames, so a second pass would need at least
        # as much stack as the first: the session must not run one.
        deep = "class A { int f() { return " + "(" * 3000 + "1" + ")" * 3000 + "; } }"
        profile = ParseProfile()
        session = jay.incremental(profile=profile, depth_budget=500)
        session.set_text(deep)
        parser = session._parser
        passes = []
        plain_parse = parser.parse

        def parse(start=None):
            passes.append(start)
            return plain_parse(start)

        parser.parse = parse
        with pytest.raises(ParseDepthError) as info:
            session.parse()
        assert info.value.budget == 500
        assert len(passes) == 1
        assert not session.last_parse_recovered
        assert (profile.parses, profile.rejected) == (1, 1)


class TestSessionMemoRetention:
    """Regression: ``ParserBase.reset`` keeps the memo when the input is
    unchanged, so repeated ``session.parse(same_text)`` is memo-warm —
    except after a *failed* parse, which must stay cold and exact."""

    @pytest.mark.parametrize("backend", ("generated", "vm"))
    def test_same_text_keeps_memo(self, calc, backend):
        session = calc.session(backend=backend)
        session.parse("1+2*(3-4)")
        parser = session.parser
        count = parser.memo_entry_count()
        assert count > 0
        parser.reset("1+2*(3-4)")
        assert parser.memo_entry_count() == count
        parser.reset("1+2*(3-5)")
        assert parser.memo_entry_count() == 0

    @pytest.mark.parametrize("backend", ("generated", "vm"))
    def test_failed_parse_disables_retention(self, calc, backend):
        session = calc.session(backend=backend)
        with pytest.raises(ParseError):
            session.parse("1+2+*")
        parser = session.parser
        parser.reset("1+2+*")
        assert parser.memo_entry_count() == 0
        # The retried identical input reports the identical error.
        with pytest.raises(ParseError) as err:
            session.parse("1+2+*")
        with pytest.raises(ParseError) as cold:
            calc.parse("1+2+*")
        assert err.value.offset == cold.value.offset
        assert set(err.value.expected) == set(cold.value.expected)


class TestIncrementalProfile:
    def test_record_edit_accumulates(self):
        profile = ParseProfile()
        profile.record_edit(10, 2, 5)
        profile.record_edit(7, 1, 0)
        assert profile.edits == 2
        assert profile.memo_reused == 17
        assert profile.memo_dropped == 3
        assert profile.memo_shifted == 5

    def test_report_round_trip_with_incremental_block(self):
        profile = ParseProfile()
        profile.record_edit(10, 2, 5)
        profile.count_parse("x" * 40, accepted=True)
        report = build_report(profile, grammar="calc", backend="incremental-vm")
        data = report.to_json()
        assert data["format"] == REPORT_FORMAT == 3
        assert data["incremental"] == {
            "edits": 1, "memo_reused": 10, "memo_dropped": 2, "memo_shifted": 5,
        }
        assert ProfileReport.from_json(data) == report
        rendered = format_report(report)
        assert "incremental: 1 edits" in rendered
        assert "memo entries reused 10" in rendered

    def test_session_reports_into_profile(self, calc):
        profile = ParseProfile()
        session = calc.incremental(profile=profile)
        session.set_text("1+2*(3-4)")
        session.parse()
        session.apply_edit(2, 1, "9")
        session.parse()
        assert profile.edits == 1
        assert profile.memo_reused > 0
        assert profile.parses == 2

    def test_profile_edits_runner(self):
        from repro.profile import profile_edits

        report = profile_edits("calc", ["1+2*3", "(4-5)"], edits=3, seed=1)
        assert report.backend == "incremental-vm"
        assert report.edits == 6  # 3 per input
        assert report.parses == 8  # (1 + 3) per input, rejected reparses included
        assert ProfileReport.from_json(report.to_json()) == report


class TestStreamFeeder:
    def test_frames_across_chunk_boundaries(self):
        feeder = StreamFeeder()
        records = feeder.feed("alpha\nbe")
        assert [(r.index, r.text) for r in records] == [(1, "alpha")]
        assert feeder.pending == "be"
        records = feeder.feed("ta\ngamma\n")
        assert [(r.index, r.text) for r in records] == [(2, "beta"), (3, "gamma")]
        assert feeder.count == 3

    def test_blank_lines_skipped_and_crlf_stripped(self):
        feeder = StreamFeeder()
        records = feeder.feed("one\r\n\r\n\ntwo\r\n")
        assert [(r.index, r.text) for r in records] == [(1, "one"), (2, "two")]

    def test_end_flushes_tail_and_seals(self):
        feeder = StreamFeeder()
        feeder.feed("complete\npartial")
        records = feeder.end()
        assert [(r.index, r.text) for r in records] == [(2, "partial")]
        assert feeder.end() == []
        with pytest.raises(ValueError):
            feeder.feed("more")

    def test_parse_mode_populates_values_and_errors(self, calc):
        feeder = StreamFeeder(calc.parse)
        ok, bad = feeder.feed("1+2\n1+\n")
        assert repr(ok.value) == repr(calc.parse("1+2")) and ok.error is None
        assert bad.value is None and isinstance(bad.error, ParseError)

    def test_random_chunkings_match_one_shot_feed(self):
        def framed(chunks):
            feeder = StreamFeeder()
            records = [r for chunk in chunks for r in feeder.feed(chunk)]
            return [(r.index, r.text) for r in records + feeder.end()]

        rng = random.Random(7)
        pieces = ["ab", "c", " ", "\n", "\r", "\r\n", "\n\n"]
        for _ in range(300):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
            cuts = sorted(rng.sample(range(len(text) + 1), min(len(text) + 1, 6)))
            chunks = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
            assert framed(chunks) == framed([text]), chunks

    def test_long_line_in_small_chunks_is_linear(self):
        import time

        line = "x" * 2_000_000
        feeder = StreamFeeder()
        start = time.perf_counter()
        for offset in range(0, len(line), 64):
            assert feeder.feed(line[offset:offset + 64]) == []
        [record] = feeder.feed("\n")
        assert time.perf_counter() - start < 0.5
        assert record.text == line


class TestEditOracle:
    def test_clean_scripts_have_no_disagreements(self):
        oracle = EditOracle.for_root("calc.Calculator")
        rng = random.Random(11)
        for _ in range(10):
            text = "1+2*(3-4)"
            edits = edit_script(text, rng, 4)
            assert oracle.explain_script(text, edits) is None

    def test_invalid_script_raises(self):
        oracle = EditOracle.for_root("calc.Calculator")
        with pytest.raises(ValueError):
            oracle.check_script("1+2", [(99, 0, "x")])
        with pytest.raises(ValueError):
            oracle.check_script("1+2", [(0, 2, ""), (2, 0, "x")])

    def test_compare_step_semantics(self):
        compare = EditOracle._compare_step
        accept = Outcome(accepted=True, value=None)
        assert compare(accept, accept, same_program=True) is None
        assert "verdicts" in compare(
            accept, Outcome(accepted=False, offset=3), same_program=True
        )
        assert "offsets" in compare(
            Outcome(accepted=False, offset=3),
            Outcome(accepted=False, offset=4),
            same_program=True,
        )
        mismatch = (
            Outcome(accepted=False, offset=3, expected=("'a'",)),
            Outcome(accepted=False, offset=3, expected=("'b'",)),
        )
        # Expected sets compare within one program, never across programs.
        assert "expected sets" in compare(*mismatch, same_program=True)
        assert compare(*mismatch, same_program=False) is None
        # Order counts too: error messages keep only the first entries.
        reordered = (
            Outcome(accepted=False, offset=3, expected=("'a'", "'b'")),
            Outcome(accepted=False, offset=3, expected=("'b'", "'a'")),
        )
        assert "order" in compare(*reordered, same_program=True)
        # Resource limits are backend properties, not semantic verdicts.
        assert compare(
            Outcome(accepted=False, crash="RecursionError"), accept, same_program=True
        ) is None

    def test_fuzz_cli_rejects_backends_with_edits(self, capsys):
        from repro.tools import fuzz

        assert fuzz.main(["calc", "--backends", "nonsense", "--edits", "2"]) == 1
        assert "--backends" in capsys.readouterr().err

    def test_shrink_edit_script_reduces_to_culprit(self):
        edits = [(0, 0, "aa"), (1, 1, "x"), (2, 0, "yy"), (0, 1, "")]
        shrunk = shrink_edit_script(edits, lambda s: any(e[2] == "x" for e in s))
        assert shrunk == [(1, 1, "x")]

    def test_shrink_edit_script_requires_interesting(self):
        with pytest.raises(ValueError):
            shrink_edit_script([(0, 0, "a")], lambda s: False)

    def test_fuzz_edits_packages_and_shrinks_counterexamples(self, calc):
        class StubOracle:
            """Real grammar (for the sentence generator), fake comparison:
            any script containing a pure deletion "disagrees"."""

            grammar = calc.grammar

            def check_script(self, text, edits):
                from repro.difftest.oracle import Disagreement

                if any(e[1] > 0 and e[2] == "" for e in edits):
                    return [Disagreement(text, "cold-vm", "warm-vm",
                                         Outcome(True), Outcome(False, offset=0),
                                         "stub")]
                return []

            def explain_script(self, text, edits):
                found = self.check_script(text, edits)
                return found[0].describe() if found else None

        report = fuzz_edits(
            "calc.Calculator", seed=5, scripts=30, edits_per_script=4,
            oracle=StubOracle(),
        )
        assert not report.ok
        example = report.counterexamples[0]
        assert len(example.shrunk) <= len(example.original)
        assert len(example.shrunk) == 1  # one deletion suffices
        assert "EditOracle" in example.regression_test
        assert "test_edit_regression_" in example.regression_test


# -- the acceptance property (ISSUE): 200 seeded scripts per matrix grammar ------


@pytest.mark.fuzz
@pytest.mark.parametrize(
    "root", ["calc.Calculator", "json.Json", "jay.Jay", "xc.XC", "ml.ML"]
)
def test_edits_property_zero_divergences(root):
    report = fuzz_edits(root, seed=3, scripts=200, edits_per_script=3)
    assert report.scripts == 200
    assert report.ok, "\n".join(
        c.disagreement.describe() for c in report.counterexamples
    )


class TestWorkloadEditScripts:
    def test_edit_script_deterministic(self):
        text = "def f(x):\n    return x + 1\n"
        first = edit_script(text, random.Random(9), 6)
        second = edit_script(text, random.Random(9), 6)
        assert first == second
        assert len(first) == 6

    def test_apply_script_matches_sequential_apply(self):
        text = "value = alpha + beta\n"
        edits = edit_script(text, random.Random(2), 5)
        current = text
        for edit in edits:
            current = edit.apply(current)
        assert apply_script(text, edits) == current

    def test_rename_edits_are_length_preserving_non_keyword(self):
        import keyword

        text = "def compute(total):\n    return total if total else None\n"
        current = text
        for edit in rename_edits(text, random.Random(4), 8):
            assert edit.removed == len(edit.inserted)
            assert not keyword.iskeyword(edit.inserted)
            current = edit.apply(current)
        assert len(current) == len(text)

    def test_renames_skip_string_prefixes(self):
        text = 'v = f"a" + rb\'b\' + u"c" + Rf"d" + name\n'
        for seed in range(40):
            current = text
            for edit in rename_edits(text, random.Random(seed), 5):
                assert current[edit.offset + edit.removed] not in "'\""
                current = edit.apply(current)

    def test_retype_edits_delete_then_type_back(self):
        text = "{\n  return alpha + beta;\n}\n"
        start = text.index(" + beta;")
        edits = retype_edits(text, random.Random(1))
        assert edits == [Edit(start, 8, "")] + [
            Edit(start + index, 0, char) for index, char in enumerate(" + beta;")
        ]
        assert apply_script(text, edits) == text
        assert retype_edits("a\nb\n", random.Random(1)) == []

    def test_edit_dataclass_apply(self):
        assert Edit(1, 2, "XY").apply("abcd") == "aXYd"
        assert Edit(0, 0, "z").apply("") == "z"
