"""Scanner fusion: translation, value discipline, error replay, ablation.

The fuse pass (:mod:`repro.optim.fuse` + :mod:`repro.analysis.fusable`)
rewrites value-free terminal regions into single :class:`~repro.peg.expr.Regex`
scans.  These tests pin the three contracts the pass rests on:

- *translation exactness* — PEG committed choice / possessive repetition
  map onto ``re`` atomic groups / possessive quantifiers;
- *value discipline* — fused regions only ever produce the value the
  unfused expression would have produced (None or the matched span);
- *error parity* — failure offsets and expected sets survive fusion via
  the deferred replay machinery in ``ParserBase``.
"""

from __future__ import annotations

import re

import pytest

import repro
from repro.analysis import fusable
from repro.analysis.first import FirstAnalysis
from repro.analysis.fusable import (
    MIN_FUSED_TERMINALS,
    FusionAnalysis,
    compiled_pattern,
    fusion_coverage,
    fusion_supported,
)
from repro.codegen import generate_parser_source, load_parser
from repro.errors import ParseError
from repro.interp import PackratInterpreter
from repro.optim import Options, prepare
from repro.optim.fuse import fuse_scanners, useless_nofuse
from repro.peg.builder import (
    GrammarBuilder,
    alt,
    amp,
    any_,
    bang,
    bind,
    cc,
    lit,
    opt,
    plus,
    ref,
    star,
    text,
    void,
)
from repro.peg.expr import Literal, Regex, choice, walk
from repro.profile import ParseProfile
from repro.vm import VMParser, compile_program

pytestmark = pytest.mark.skipif(
    not fusion_supported(), reason="fusion requires Python >= 3.11 regex syntax"
)


def _regexes(grammar):
    return [
        node
        for production in grammar
        for alternative in production.alternatives
        for node in walk(alternative.expr)
        if isinstance(node, Regex)
    ]


def _tiny_grammar(**space_flags):
    """number / identifier tokens over skippable whitespace."""
    builder = GrammarBuilder("t", start="S")
    builder.object(
        "S", [ref("Space"), plus(ref("Token"))],
    )
    builder.generic(
        "Token",
        alt("num", ref("Number"), ref("Space")),
        alt("id", ref("Ident"), ref("Space")),
    )
    builder.text("Number", [plus(cc("0-9"))])
    builder.text("Ident", [cc("a-z"), star(cc("a-z0-9"))])
    builder.void("Space", [star(cc(" \t\n"))], **space_flags)
    return builder.build()


class TestTranslation:
    def _analysis(self, grammar=None):
        return FusionAnalysis(grammar if grammar is not None else _tiny_grammar())

    def test_literal_and_class(self):
        a = self._analysis()
        assert a.translate(lit("if(")) == "if\\("
        assert a.translate(cc("a-z0-9_")) == "[0-9_a-z]"  # ranges are sorted
        assert a.translate(cc("^\"\\\\")) == '[^"\\\\]'

    def test_control_characters_stay_readable(self):
        a = self._analysis()
        assert a.translate(lit("\n\t")) == "\\n\\t"
        assert a.translate(cc(" \t\n")) == "[\\t\\n\\ ]"

    def test_choice_is_atomic_group(self):
        a = self._analysis()
        pattern = a.translate(choice(lit("ab"), lit("a")))
        assert pattern == "(?>ab|a)"
        # Atomic: once "ab" matched, "a" is never retried — exactly PEG
        # committed choice, where ("ab"/"a")"bc" rejects "abc".
        assert re.compile(pattern + "bc").match("abc") is None
        assert re.compile("(?:ab|a)bc").match("abc") is not None  # uncommitted

    def test_repetition_is_possessive(self):
        a = self._analysis()
        assert a.translate(star(cc("0-9"))) == "[0-9]*+"
        assert a.translate(plus(cc("0-9"))) == "[0-9]++"
        assert a.translate(opt(lit("-"))) == "\\-?+"
        # Possessive: the quantifier never gives characters back.
        assert re.compile(a.translate(star(cc("0-9"))) + "1").match("11") is None

    def test_predicates_are_lookarounds(self):
        a = self._analysis()
        assert a.translate(bang(lit("*/"))) == "(?!\\*/)"
        assert a.translate(amp(cc("a-z"))) == "(?=[a-z])"

    def test_any_char_dotall(self):
        a = self._analysis()
        assert a.translate(any_()) == "."
        assert compiled_pattern(".").match("\n") is not None

    def test_compound_quantified_region(self):
        a = self._analysis()
        pattern = a.translate(star(lit("//"), star(cc("^\n"))))
        assert pattern == "(?://[^\\n]*+)*+"


class TestFusability:
    def test_case_insensitive_literal_not_fusable(self):
        a = FusionAnalysis(_tiny_grammar())
        assert a.fusable(lit("select", ignore_case=True)) is False
        assert a.fusable(lit("select")) is True

    def test_nullable_plus_not_fusable(self):
        # PEG rejects `e+` over a nullable e (zero-width iterations don't
        # count); `(?:e)++` would accept, so the region must not fuse.
        a = FusionAnalysis(_tiny_grammar())
        assert a.fusable(plus(star(cc("0-9")))) is False

    def test_bindings_and_recursion_not_fusable(self):
        builder = GrammarBuilder("r", start="A")
        builder.void("A", [lit("("), ref("A"), lit(")")], [lit("x")])
        grammar = builder.build()
        a = FusionAnalysis(grammar)
        assert a.fusable(ref("A")) is False  # recursive
        assert a.fusable(bind("n", cc("0-9"))) is False

    def test_benefit_threshold(self):
        a = FusionAnalysis(_tiny_grammar())
        small = choice(lit("a"), lit("b"))
        assert a.build_regex(small, capture=False, label="t") is None
        looped = star(cc(" "))
        assert a.build_regex(looped, capture=False, label="t") is not None
        wide = choice(lit("abc"), lit("def"), lit("ghi"))
        assert MIN_FUSED_TERMINALS == 3
        assert a.build_regex(wide, capture=False, label="t") is not None


class TestValueDiscipline:
    def test_text_production_value_survives_fusion(self):
        grammar = _tiny_grammar()
        fused = prepare(grammar, Options.all())
        unfused = prepare(grammar, Options.all().without("fuse"))
        assert _regexes(fused.grammar), "expected fused regions"
        assert not _regexes(unfused.grammar)
        for source in ["abc 12 x9", "7", "ab 12 cd 34"]:
            a = PackratInterpreter(fused.grammar, chunked=fused.chunked_memo).parse(source)
            b = PackratInterpreter(unfused.grammar, chunked=unfused.chunked_memo).parse(source)
            assert repr(a) == repr(b)

    def test_capture_modes(self):
        grammar = _tiny_grammar()
        fused = prepare(grammar, Options.all()).grammar
        captures = {node.capture for node in _regexes(fused)}
        # Both modes occur: Space regions discard, Number/Ident spans capture.
        assert captures == {True, False}

    def test_all_backends_agree(self):
        grammar = _tiny_grammar()
        prepared = prepare(grammar, Options.all())
        interp = PackratInterpreter(prepared.grammar, chunked=prepared.chunked_memo)
        program = compile_program(prepared)
        generated = load_parser(generate_parser_source(prepared))
        for source in ["abc 12 x9", " 1 a ", "zz"]:
            values = [
                interp.parse(source),
                VMParser(program, source).parse(),
                generated(source).parse(),
            ]
            assert len({repr(v) for v in values}) == 1, f"backends differ on {source!r}"


class TestErrorParity:
    @pytest.mark.parametrize(
        "source",
        ["", "ab 12 !", "12 ab (", "abc  12  ?x", "9a$"],
    )
    def test_offsets_and_expected_sets_match(self, source):
        grammar = _tiny_grammar()
        fused = prepare(grammar, Options.all())
        unfused = prepare(grammar, Options.all().without("fuse"))
        errors = []
        for prepared in (fused, unfused):
            interp = PackratInterpreter(prepared.grammar, chunked=prepared.chunked_memo)
            with pytest.raises(ParseError) as info:
                interp.parse(source)
            errors.append(info.value)
        assert errors[0].offset == errors[1].offset
        assert set(errors[0].expected) == set(errors[1].expected)

    def test_real_grammar_offsets(self):
        grammar = repro.load_grammar("jay.Jay")
        fused = repro.compile_grammar(grammar, Options.all(), cache=False)
        unfused = repro.compile_grammar(
            grammar, Options.all().without("fuse"), cache=False
        )
        for source in ["class A {", "class A { int f( }", "klass"]:
            with pytest.raises(ParseError) as a:
                fused.parse(source)
            with pytest.raises(ParseError) as b:
                unfused.parse(source)
            assert a.value.offset == b.value.offset, source


class TestSilence:
    def test_pure_concatenation_is_silent(self):
        a = FusionAnalysis(_tiny_grammar())
        assert a.silent_on_success(lit("abc")) is True
        node = a.build_regex(lit("abcdef"), capture=False, label="t")
        assert node is None or node.silent  # below threshold or silent

    def test_choice_and_repetition_are_not_silent(self):
        # Their successful match can step over recordable failures (a
        # rejected earlier alternative, the failing final iteration).
        a = FusionAnalysis(_tiny_grammar())
        assert a.silent_on_success(star(cc(" "))) is False
        assert a.silent_on_success(choice(lit("ab"), lit("cd"))) is False


class TestNofuse:
    def test_nofuse_production_is_not_fused_or_inlined(self):
        grammar = _tiny_grammar(nofuse=True)  # Space carries nofuse
        fused = fuse_scanners(grammar)
        for node in _regexes(fused):
            assert "Space" not in node.pattern  # patterns have no names...
        # ...so check structurally: Space's body is regex-free and every
        # fused pattern came from Number/Ident, not from inlining Space.
        space = fused.get("Space")
        assert not any(isinstance(n, Regex) for a in space.alternatives for n in walk(a.expr))
        analysis = FusionAnalysis(grammar)
        assert analysis.region("Space") is None

    def test_useless_nofuse_lint(self):
        builder = GrammarBuilder("u", start="S")
        builder.object("S", [ref("Sep"), ref("Act")])
        builder.void("Sep", [plus(cc(" "))], nofuse=True)  # would fuse: useful
        builder.object("Act", [bind("n", cc("0-9")), lit("!")], nofuse=True)  # never fusable
        grammar = builder.build()
        assert useless_nofuse(grammar) == ["Act"]


class TestGate:
    def test_pass_is_noop_without_regex_support(self, monkeypatch):
        monkeypatch.setattr(fusable, "FUSION_SUPPORTED", False)
        grammar = _tiny_grammar()
        assert fuse_scanners(grammar) is grammar
        assert useless_nofuse(_tiny_grammar(nofuse=True)) == []

    def test_options_flag_disables_pass(self):
        prepared = prepare(_tiny_grammar(), Options.all().without("fuse"))
        assert not _regexes(prepared.grammar)


class TestCoverageAndProfile:
    def test_fusion_coverage_counts(self):
        prepared = prepare(_tiny_grammar(), Options.all())
        coverage = fusion_coverage(prepared.grammar)
        assert coverage.regions > 0
        assert coverage.patterns > 0
        assert coverage.fused_terminals > 0
        assert 0.0 < coverage.ratio <= 1.0

    def test_profiler_counts_fused_scans(self):
        prepared = prepare(_tiny_grammar(), Options.all())
        profile = ParseProfile()
        interp = PackratInterpreter(
            prepared.grammar, chunked=prepared.chunked_memo, profile=profile
        )
        interp.parse("abc 12 x9")
        assert profile.total_fused_scans() > 0

    def test_vm_profiler_counts_fused_scans(self):
        prepared = prepare(_tiny_grammar(), Options.all())
        profile = ParseProfile()
        program = compile_program(prepared, profiled=True)
        VMParser(program, "abc 12 x9", profile=profile).parse()
        assert profile.total_fused_scans() > 0

    def test_generated_profiled_twin_counts_fused_scans(self):
        prepared = prepare(_tiny_grammar(), Options.all())
        parser_cls = load_parser(generate_parser_source(prepared, profiled=True))
        profile = ParseProfile()
        parser_cls("abc 12 x9", profile=profile).parse()
        assert profile.total_fused_scans() > 0

    def test_prof_cli_optimized_reports_fused_scans(self, tmp_path):
        import json

        from repro.tools import prof

        out = tmp_path / "report.json"
        assert prof.main([
            "calc", "--backend", "generated", "--optimized",
            "--generate", "5", "--json", "--output", str(out),
        ]) == 0
        report = json.loads(out.read_text())["reports"][0]
        assert report["totals"]["fused_scans"] > 0


class TestDispatchSafety:
    """Regression tests for FIRST-set predicate handling + dispatch_safe."""

    def _grammar(self):
        builder = GrammarBuilder("d", start="S")
        builder.object(
            "S",
            alt("kw", ref("Keyword")),
            alt("id", ref("Identifier")),
            alt("num", ref("Number")),
        )
        builder.text("Keyword", [lit("if"), bang(cc("a-z"))])
        builder.text("Identifier", [bang(ref("Keyword")), plus(cc("a-z"))])
        builder.text("Number", [plus(cc("0-9"))])
        return builder.build()

    def test_not_led_sequence_has_known_first(self):
        first = FirstAnalysis(self._grammar())
        fs = first.first(self._grammar().get("Identifier").alternatives[0].expr)
        assert fs.known
        assert fs.chars == frozenset("abcdefghijklmnopqrstuvwxyz")

    def test_wrapped_predicates_are_transparent(self):
        first = FirstAnalysis(self._grammar())
        wrapped = [void(bang(lit("x"))), cc("0-9")]
        fs = first.first(alt(None, *wrapped).expr)
        assert fs.known and fs.chars == frozenset("0123456789")

    def test_and_head_narrows_first(self):
        first = FirstAnalysis(self._grammar())
        guarded = alt(None, amp(cc("ab")), cc("a-z")).expr
        fs = first.first(guarded)
        assert fs.known and fs.chars == frozenset("ab")

    def test_and_head_is_dispatch_unsafe(self):
        # Evaluating `&("abc") x` on a skipped character can record failures
        # beyond the current position (inside the predicate's operand), so
        # dispatch must not skip it.
        first = FirstAnalysis(self._grammar())
        guarded = alt(None, amp(lit("abc")), cc("a-z")).expr
        assert first.dispatch_safe(guarded) is False

    def test_not_keyword_identifier_is_dispatch_safe(self):
        grammar = self._grammar()
        first = FirstAnalysis(grammar)
        identifier = grammar.get("Identifier").alternatives[0].expr
        assert first.dispatch_safe(identifier) is True

    def test_terminal_led_sequences_are_safe(self):
        first = FirstAnalysis(self._grammar())
        assert first.dispatch_safe(alt(None, lit("if"), cc("a-z")).expr) is True


def test_pattern_cache_is_shared():
    a = compiled_pattern("[0-9]++")
    b = compiled_pattern("[0-9]++")
    assert a is b


def test_regex_nodes_survive_pickling():
    import pickle

    prepared = prepare(_tiny_grammar(), Options.all())
    regions = _regexes(prepared.grammar)
    assert regions
    restored = pickle.loads(pickle.dumps(prepared.grammar))
    assert _regexes(restored) == regions
