"""Property-based tests (hypothesis).

Three families of invariants:

1. **Backend equivalence** — for fixed grammars, the generated parser, the
   packrat interpreter, and the backtracking interpreter must agree on both
   acceptance and semantic values for arbitrary inputs.
2. **Optimization soundness** — random optimization-flag subsets must not
   change parse results.
3. **Random-grammar differential testing** — random well-formed PEGs over a
   tiny alphabet are run through all backends on random strings; acceptance
   and consumed-prefix length must agree everywhere.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.codegen import generate_parser_source, load_parser
from repro.errors import ParseError
from repro.interp import BacktrackInterpreter, PackratInterpreter
from repro.optim import Options, prepare
from repro.peg.builder import GrammarBuilder, alt, cc, lit, opt, plus, ref, star, text, void
from repro.peg.expr import (
    And,
    Choice,
    Expression,
    Literal,
    Nonterminal,
    Not,
    Option,
    Repetition,
    Sequence,
)
from repro.peg.grammar import Grammar
from repro.peg.production import Alternative, Production, ValueKind

# ---------------------------------------------------------------------------
# 1. Backend equivalence on the calculator language
# ---------------------------------------------------------------------------

_calc = repro.compile_grammar("calc.Calculator")
_calc_packrat = _calc.interpreter()
_calc_naive = _calc.interpreter(memoize=False)


@st.composite
def calc_expressions(draw, depth=0):
    """Random well-formed calculator source text."""
    if depth >= 4 or draw(st.booleans()):
        number = draw(st.integers(0, 999))
        if draw(st.booleans()):
            return f"{number}.{draw(st.integers(0, 99))}"
        return str(number)
    kind = draw(st.sampled_from(["bin", "neg", "paren"]))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        left = draw(calc_expressions(depth=depth + 1))
        right = draw(calc_expressions(depth=depth + 1))
        space = draw(st.sampled_from(["", " ", "  "]))
        return f"{left}{space}{op}{space}{right}"
    if kind == "neg":
        inner = draw(calc_expressions(depth=depth + 1))
        return f"- {inner}"
    return f"({draw(calc_expressions(depth=depth + 1))})"


@given(calc_expressions())
@settings(max_examples=150, deadline=None)
def test_calc_backends_agree_on_valid_input(source):
    expected = _calc_packrat.parse(source)
    assert _calc.parse(source) == expected
    assert _calc_naive.parse(source) == expected


@given(st.text(alphabet="0123456789+-*/() .", max_size=24))
@settings(max_examples=200, deadline=None)
def test_calc_backends_agree_on_arbitrary_input(source):
    outcomes = []
    for parse in (_calc.parse, _calc_packrat.parse, _calc_naive.parse):
        try:
            outcomes.append(("ok", parse(source)))
        except ParseError:
            outcomes.append(("fail", None))
    assert outcomes[0] == outcomes[1] == outcomes[2]


# ---------------------------------------------------------------------------
# 2. Optimization soundness under random flag subsets
# ---------------------------------------------------------------------------

_flag_sets = st.sets(st.sampled_from(Options.flag_names()))
_tiny_grammar = repro.load_grammar("calc.Calculator")
_reference_inputs = ["1", "1+2*3", "(1-2)/3", "- 4 * (5 + 6)", "7.5-0.5"]
_reference_values = [_calc.parse(s) for s in _reference_inputs]


@given(_flag_sets)
@settings(max_examples=40, deadline=None)
def test_any_flag_subset_preserves_values(disabled):
    options = Options.all().without(*disabled)
    prepared = prepare(_tiny_grammar, options)
    parser_cls = load_parser(generate_parser_source(prepared))
    for source, expected in zip(_reference_inputs, _reference_values):
        assert parser_cls(source).parse() == expected


# ---------------------------------------------------------------------------
# 3. Random-grammar differential testing
# ---------------------------------------------------------------------------

_RULE_NAMES = ["R0", "R1", "R2", "R3"]


@st.composite
def random_expression(draw, names, depth=0) -> Expression:
    if depth >= 3:
        return Literal(draw(st.sampled_from(["a", "b", "ab", "c"])))
    kind = draw(
        st.sampled_from(
            ["lit", "lit", "ref", "seq", "choice", "star", "plus_", "option", "and_", "not_"]
        )
    )
    if kind == "lit":
        return Literal(draw(st.sampled_from(["a", "b", "ab", "c"])))
    if kind == "ref":
        return Sequence(
            (Literal(draw(st.sampled_from(["a", "b"]))), Nonterminal(draw(st.sampled_from(names))))
        )
    if kind == "seq":
        return Sequence(
            tuple(draw(random_expression(names, depth + 1)) for _ in range(draw(st.integers(2, 3))))
        )
    if kind == "choice":
        return Choice(
            tuple(draw(random_expression(names, depth + 1)) for _ in range(draw(st.integers(2, 3))))
        )
    inner = draw(random_expression(names, depth + 1))
    if kind == "star":
        return Repetition(Sequence((Literal("a"), inner)), 0)
    if kind == "plus_":
        return Repetition(Sequence((Literal("b"), inner)), 1)
    if kind == "option":
        return Option(inner)
    if kind == "and_":
        return And(inner)
    return Not(inner)


@st.composite
def random_grammars(draw) -> Grammar:
    productions = []
    for index, name in enumerate(_RULE_NAMES):
        # Only allow references to later rules: guarantees no left recursion
        # and no infinite recursion anywhere.
        later = _RULE_NAMES[index + 1 :] or None
        if later:
            expr = draw(random_expression(later))
        else:
            expr = draw(random_expression(["R3"], depth=3))
        productions.append(
            Production(name, ValueKind.VOID, (Alternative(expr),), frozenset())
        )
    return Grammar(tuple(productions), start="R0", name="random")


@given(random_grammars(), st.text(alphabet="abc", max_size=10))
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_grammar_backends_agree(grammar, source):
    from repro.vm import VMParser, compile_program

    packrat = PackratInterpreter(grammar)
    naive = BacktrackInterpreter(grammar)
    prepared = prepare(grammar, check=False)
    generated = load_parser(generate_parser_source(prepared))

    reference = packrat.match_prefix(source)[0]
    assert naive.match_prefix(source)[0] == reference
    assert generated(source).match_prefix()[0] == reference
    assert VMParser(compile_program(prepared), source).match_prefix()[0] == reference
    incremental = compile_program(prepared, incremental=True)
    assert VMParser(incremental, source, incremental=True).match_prefix()[0] == reference

    # The unoptimized pipeline agrees too.
    unoptimized = prepare(grammar, Options.none(), check=False)
    generated_slow = load_parser(generate_parser_source(unoptimized))
    assert generated_slow(source).match_prefix()[0] == reference


# ---------------------------------------------------------------------------
# 4. JSON: generated-vs-baseline on hypothesis-built JSON values
# ---------------------------------------------------------------------------

_json = repro.compile_grammar("json.Json")

json_values = st.recursive(
    st.one_of(
        st.booleans(),
        st.none(),
        st.integers(-10**6, 10**6),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(alphabet="abcdefghij XYZ_", max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(alphabet="abc", max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=150, deadline=None)
def test_json_grammar_accepts_everything_stdlib_emits(value):
    import json as stdlib_json

    from repro.baselines import JsonParser

    document = stdlib_json.dumps(value)
    tree = _json.parse(document)
    assert tree == JsonParser(document).parse()
