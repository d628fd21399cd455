"""End-to-end pipeline integration tests: every stage chained, on every
shipped language, plus cross-stage invariants not covered elsewhere."""

import pytest

import repro
from repro.analysis import grammar_stats, require_wellformed
from repro.codegen import generate_parser_source, load_parser
from repro.codegen.writer import CodeWriter
from repro.interp import PackratInterpreter
from repro.meta import ModuleLoader
from repro.optim import Options, prepare
from repro.peg.pretty import format_grammar
from repro.vm import VMParser, compile_program

ROOTS = [
    "calc.Calculator", "calc.Full", "json.Json",
    "jay.Jay", "jay.Extended", "xc.XC", "xc.Extended",
    "sql.Sql", "ml.ML", "ml.Extended", "meta.Module",
]

SAMPLES = {
    "calc.Calculator": "1 + 2 * (3 - 4)",
    "calc.Full": "2**3 <= 9",
    "json.Json": '{"k": [1, true, null]}',
    "jay.Jay": "class A { int f() { return 1; } }",
    "jay.Extended": "class A { void m() { assert ok; } }",
    "xc.XC": "int main(void) { return 0; }",
    "xc.Extended": "int f(void) { until (x) { x = x - 1; } return x; }",
    "sql.Sql": "select a from t",
    "ml.ML": "let rec f n = if n = 0 then 1 else n * f (n - 1) ;; f 5",
    "ml.Extended": "[1; 2] |> length",
    "meta.Module": 'module x.Y;\nA = "a" ;\n',
}


class TestEveryShippedLanguage:
    @pytest.mark.parametrize("root", ROOTS)
    def test_full_pipeline(self, root):
        # compose
        grammar = repro.load_grammar(root)
        # well-formed (warnings allowed, errors not)
        require_wellformed(grammar)
        # optimize both extremes
        fast = prepare(grammar, Options.all())
        slow = prepare(grammar, Options.none())
        # generate + load both
        fast_cls = load_parser(generate_parser_source(fast))
        slow_cls = load_parser(generate_parser_source(slow))
        # parse the sample with four backends and compare
        sample = SAMPLES[root]
        expected = PackratInterpreter(fast.grammar).parse(sample)
        assert fast_cls(sample).parse() == expected
        assert slow_cls(sample).parse() == expected
        assert VMParser(compile_program(fast), sample).parse() == expected

    @pytest.mark.parametrize("root", ROOTS)
    def test_composed_grammar_prints_and_reparses(self, root):
        from repro.meta import parse_module

        grammar = repro.load_grammar(root)
        printed = format_grammar(grammar)
        module = parse_module(printed, f"<printed:{root}>")
        assert {p.name for p in module.productions} == set(grammar.names())

    @pytest.mark.parametrize("root", ROOTS)
    def test_stats_are_sane(self, root):
        grammar = repro.load_grammar(root)
        stats = grammar_stats(grammar)
        assert stats.productions == len(grammar)
        assert stats.alternatives >= stats.productions
        assert sum(stats.by_kind.values()) == stats.productions


class TestOptimizedGrammarsStayWellFormed:
    @pytest.mark.parametrize("root", ["jay.Extended", "xc.Extended", "ml.Extended"])
    def test_prepared_grammar_is_closed_and_clean(self, root):
        prepared = prepare(repro.load_grammar(root))
        prepared.grammar.validate()
        # the optimized grammar must have no *error-level* diagnostics
        # (unreachable-production warnings are fine: public entry points)
        from repro.analysis import check

        errors = [d for d in check(prepared.grammar) if d.severity == "error"]
        assert errors == []


class TestCodeWriter:
    def test_blocks_nest_and_unwind(self):
        writer = CodeWriter()
        writer.line("def f():")
        with writer.block("if x:"):
            writer.line("return 1")
        writer.line("return 0")
        assert writer.render() == "def f():\nif x:\n    return 1\nreturn 0\n"

    def test_dedent_guard(self):
        writer = CodeWriter()
        with pytest.raises(ValueError):
            writer.dedent()

    def test_blank_lines_carry_no_indent(self):
        writer = CodeWriter()
        writer.indent()
        writer.line()
        assert writer.render() == "\n"
