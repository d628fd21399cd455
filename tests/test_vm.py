"""Tests for the parsing-machine backend (:mod:`repro.vm`).

The machine must be observationally identical to the generated parser it
sits beside: same ASTs, same farthest-failure offsets *and* expected sets,
same memo behavior across ``reset()``, same progress guard on nullable
repetitions — with one deliberate difference: ``depth_budget`` bounds the
machine's explicit stack (calls + live backtrack points), not Python
recursion, so deep inputs raise :class:`ParseDepthError` without ever
touching the interpreter recursion limit.
"""

from __future__ import annotations

import pickle

import pytest

import repro
from repro.errors import AnalysisError, ParseDepthError, ParseError
from repro.interp import PackratInterpreter
from repro.optim import Options, prepare
from repro.peg.builder import GrammarBuilder, lit, plus, ref, seq
from repro.peg.expr import Literal, Option, Repetition
from repro.profile import ParseProfile
from repro.runtime.node import structural_diff
from repro.vm import VMParser, compile_program, disassemble, summarize

JAY_TEXT = "import a.b; class A extends B { int f(int x) { return x + 1; } }"
JAY_BAD = "class A { int f( }"


@pytest.fixture(scope="module")
def jay_lang():
    return repro.compile_grammar("jay.Jay")


@pytest.fixture(scope="module")
def jay_program(jay_lang):
    return compile_program(jay_lang.prepared)


# -- cross-backend parity -----------------------------------------------------


class TestParity:
    def test_ast_matches_generated(self, jay_lang, jay_program):
        expected = jay_lang.parse(JAY_TEXT)
        actual = VMParser(jay_program, JAY_TEXT).parse()
        assert structural_diff(expected, actual) is None

    def test_error_offset_and_expected_set_match_generated(self, jay_lang, jay_program):
        with pytest.raises(ParseError) as gen_info:
            jay_lang.parse(JAY_BAD)
        with pytest.raises(ParseError) as vm_info:
            VMParser(jay_program, JAY_BAD).parse()
        assert vm_info.value.offset == gen_info.value.offset
        assert set(vm_info.value.expected) == set(gen_info.value.expected)
        assert vm_info.value.line == gen_info.value.line
        assert vm_info.value.column == gen_info.value.column

    def test_profiled_twin_matches_plain_and_interpreter(self, jay_lang):
        profiled = compile_program(jay_lang.prepared, profiled=True)
        profile = ParseProfile()
        tree = VMParser(profiled, JAY_TEXT, profile=profile).parse()
        assert structural_diff(jay_lang.parse(JAY_TEXT), tree) is None

        reference = ParseProfile()
        jay_lang.interpreter(profile=reference).parse(JAY_TEXT)
        assert dict(profile.invocations) == dict(reference.invocations)
        assert dict(profile.memo_hits) == dict(reference.memo_hits)
        assert dict(profile.memo_misses) == dict(reference.memo_misses)
        assert dict(profile.backtracks) == dict(reference.backtracks)
        assert dict(profile.fused_scans) == dict(reference.fused_scans)
        assert dict(profile.successes) == dict(reference.successes)
        assert dict(profile.failures) == dict(reference.failures)

    def test_profile_requires_profiled_program(self, jay_program):
        with pytest.raises(AnalysisError):
            VMParser(jay_program, JAY_TEXT, profile=ParseProfile())


# -- api wiring ---------------------------------------------------------------


class TestApiBackend:
    def test_parse_backend_vm(self, jay_lang):
        assert structural_diff(
            jay_lang.parse(JAY_TEXT), jay_lang.parse(JAY_TEXT, backend="vm")
        ) is None

    def test_unknown_backend_rejected(self, jay_lang):
        with pytest.raises(ValueError, match="unknown backend"):
            jay_lang.parse(JAY_TEXT, backend="jit")
        with pytest.raises(ValueError, match="unknown backend"):
            jay_lang.session(backend="jit")

    def test_session_reuses_one_vm_parser(self, jay_lang):
        session = jay_lang.session(backend="vm")
        first = session.parse(JAY_TEXT)
        parser = session.parser
        assert isinstance(parser, VMParser)
        second = session.parse(JAY_TEXT)
        assert session.parser is parser
        assert structural_diff(first, second) is None

    def test_session_failure_clears_memo(self, jay_lang):
        session = jay_lang.session(backend="vm")
        with pytest.raises(ParseError):
            session.parse(JAY_BAD)
        assert session.parser.memo_entry_count() == 0

    def test_vm_program_cached_on_language(self, jay_lang):
        assert jay_lang.vm_program() is jay_lang.vm_program()
        assert jay_lang.vm_program(profiled=True) is jay_lang.vm_program(profiled=True)
        assert jay_lang.vm_program() is not jay_lang.vm_program(profiled=True)

    def test_profiled_parse_counts(self, jay_lang):
        profile = ParseProfile()
        jay_lang.parse(JAY_TEXT, backend="vm", profile=profile)
        assert profile.parses == 1


# -- parser api ---------------------------------------------------------------


class TestParserApi:
    @pytest.fixture(scope="class")
    def calc_program(self):
        return compile_program(repro.compile_grammar("calc.Calculator").prepared)

    def test_match_prefix(self, calc_program):
        # The Calculation start is EOF-anchored, so use the expression level.
        consumed, _ = VMParser(calc_program, "1+2 trailing").match_prefix("Expression")
        assert consumed == 4  # includes the trailing-space run

    def test_undefined_start(self, calc_program):
        with pytest.raises(AnalysisError):
            VMParser(calc_program, "1").parse("Nope")

    def test_unchunked_mode(self, calc_program):
        chunked = VMParser(calc_program, "1+2").parse()
        assert VMParser(calc_program, "1+2", chunked=False).parse() == chunked

    def test_transient_productions_not_memoized(self):
        builder = GrammarBuilder("t", start="S")
        builder.void("S", [ref("A"), lit("x")], [ref("A"), lit("y")])
        builder.void("A", [plus(lit("a"))], transient=True)
        prepared = prepare(builder.build(), Options.all().without("inline"), check=False)
        parser = VMParser(compile_program(prepared), "aay")
        parser.parse()
        # Only S can have entries; A is transient.
        assert parser.memo_entry_count() <= 2

    def test_locations_tracked(self, jay_program):
        text = "class A {\n int f() { return 1; }\n}"
        tree = VMParser(jay_program, text, "d.jay").parse()
        method = tree.find_all("Method")[0]
        assert method.location is not None and method.location.line == 2


# -- memo behavior across reset() ---------------------------------------------


class TestMemoReset:
    def test_reset_clears_entries_and_preserves_results(self, jay_program):
        parser = VMParser(jay_program, JAY_TEXT)
        first = parser.parse()
        assert parser.memo_entry_count() > 0
        other = "class B { }"
        reused = parser.reset(other).parse()
        fresh = VMParser(jay_program, other).parse()
        assert structural_diff(reused, fresh) is None
        # Round-trip back to the first input: same tree again.
        assert structural_diff(parser.reset(JAY_TEXT).parse(), first) is None

    def test_reset_clears_failure_state(self, jay_program):
        parser = VMParser(jay_program, JAY_BAD)
        with pytest.raises(ParseError) as first:
            parser.parse()
        tree = parser.reset(JAY_TEXT).parse()
        assert tree is not None
        with pytest.raises(ParseError) as second:
            parser.reset(JAY_BAD).parse()
        assert second.value.offset == first.value.offset
        assert set(second.value.expected) == set(first.value.expected)


# -- depth budget -------------------------------------------------------------


class TestDepthBudget:
    def test_deep_right_nested_input_raises_at_small_budget(self, jay_lang):
        deep = "class A { int f() { return " + "(" * 2000 + "1" + ")" * 2000 + "; } }"
        with pytest.raises(ParseDepthError) as info:
            jay_lang.parse(deep, backend="vm", depth_budget=500)
        assert info.value.budget == 500
        # A roomy budget parses the same input fine — the input is valid.
        assert jay_lang.parse(deep, backend="vm") is not None

    def test_depth_error_is_a_parse_error(self, jay_lang):
        deep = "class A { int f() { return " + "(" * 2000 + "1" + ")" * 2000 + "; } }"
        with pytest.raises(ParseError):
            jay_lang.parse(deep, backend="vm", depth_budget=500)


# -- error pickling -----------------------------------------------------------


class TestErrorPickling:
    def test_parse_error_round_trips(self, jay_lang):
        with pytest.raises(ParseError) as info:
            jay_lang.parse(JAY_BAD, backend="vm")
        error = info.value
        clone = pickle.loads(pickle.dumps(error))
        assert clone.offset == error.offset
        assert clone.expected == error.expected
        assert (clone.line, clone.column) == (error.line, error.column)
        assert str(clone) == str(error)

    def test_depth_error_round_trips(self, jay_lang):
        deep = "class A { int f() { return " + "(" * 2000 + "1" + ")" * 2000 + "; } }"
        with pytest.raises(ParseDepthError) as info:
            jay_lang.parse(deep, backend="vm", depth_budget=500)
        clone = pickle.loads(pickle.dumps(info.value))
        assert isinstance(clone, ParseDepthError)
        assert clone.budget == 500


# -- nullable repetition progress guard ---------------------------------------


class TestNullableRepetition:
    def _grammar(self):
        builder = GrammarBuilder("Nul", "S")
        builder.text("S", seq(Repetition(Option(Literal("a")), 0), lit("b")))
        return builder.build()

    def test_prepare_rejects_nullable_repetition(self):
        # The analysis guard fires before any backend sees the grammar —
        # the VM inherits exactly the contract the other backends have.
        with pytest.raises(AnalysisError, match="nullable"):
            prepare(self._grammar(), Options.all())

    def test_runtime_progress_guard_matches_interpreter(self):
        # With the check bypassed, every backend falls back to a runtime
        # zero-progress break; the machine's must agree with the reference
        # interpreter's, verdicts and expected sets included.
        grammar = self._grammar()
        reference = PackratInterpreter(grammar)
        program = compile_program(grammar)
        for text in ("b", "aab", "aaab"):
            assert VMParser(program, text).parse() == reference.parse(text)
        for text in ("", "a", "aac"):
            with pytest.raises(ParseError) as ref_info:
                reference.parse(text)
            with pytest.raises(ParseError) as vm_info:
                VMParser(program, text).parse()
            assert vm_info.value.offset == ref_info.value.offset
            assert set(vm_info.value.expected) == set(ref_info.value.expected)


# -- disassembler -------------------------------------------------------------


class TestDisassembler:
    def test_listing_covers_every_production(self, jay_program):
        listing = disassemble(jay_program)
        for name, _, _ in jay_program.rule_spans:
            assert f"\n{name}:" in listing

    def test_single_production_listing(self, jay_program):
        listing = disassemble(jay_program, "Expression")
        assert "Expression:" in listing
        with pytest.raises(KeyError):
            disassemble(jay_program, "NoSuchProduction")

    def test_summary_accounts_for_all_instructions(self, jay_program):
        summary = summarize(jay_program)
        assert summary["instructions"] == len(jay_program.code)
        assert sum(summary["opcodes"].values()) == len(jay_program.code)
        assert summary["productions"] == len(jay_program.rule_spans)
        assert not summary["profiled"]
