"""Profiling must be observationally invisible.

For every backend, a profiled parse and an unprofiled parse of the same
input must produce structurally identical ASTs on accepts and identical
farthest-failure offsets on rejects.  Corpora are seeded mixes of
grammar-derived sentences (mostly accepted) and mutants (mostly rejected),
so both result paths are exercised on every grammar.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

import repro
from repro.difftest.generator import SentenceGenerator
from repro.difftest.mutate import mutate
from repro.errors import ParseError
from repro.profile import ParseProfile
from repro.runtime.node import structurally_equal

pytestmark = pytest.mark.prof

GRAMMARS = ["calc.Calculator", "json.Json", "jay.Jay", "xc.XC", "ml.ML"]


@lru_cache(maxsize=None)
def language(root: str) -> repro.Language:
    return repro.compile_grammar(root)


@lru_cache(maxsize=None)
def corpus(root: str) -> tuple[str, ...]:
    rng = random.Random(20260806)
    generator = SentenceGenerator(language(root).grammar, rng, max_depth=20)
    texts = [generator.generate() for _ in range(25)]
    texts += [mutate(text, rng, edits=rng.randint(1, 3)) for text in texts[:12]]
    return tuple(texts)


def outcome(parse, text):
    """(accepted, value, farthest-failure offset) of one parse call."""
    try:
        return True, parse(text), -1
    except ParseError as error:
        return False, None, error.offset
    except RecursionError:
        return None, None, -1  # input too deep for this backend; skip


def assert_same_outcomes(plain_parse, profiled_parse, texts, backend):
    checked = 0
    for text in texts:
        plain = outcome(plain_parse, text)
        profiled = outcome(profiled_parse, text)
        if plain[0] is None or profiled[0] is None:
            continue
        checked += 1
        assert plain[0] == profiled[0], (
            f"{backend}: accept/reject changed under profiling for {text!r}"
        )
        if plain[0]:
            assert structurally_equal(plain[1], profiled[1]), (
                f"{backend}: AST changed under profiling for {text!r}"
            )
        else:
            assert plain[2] == profiled[2], (
                f"{backend}: error offset changed under profiling for {text!r}"
            )
    assert checked, "corpus entirely skipped"


@pytest.mark.parametrize("root", GRAMMARS)
class TestProfiledParityAcrossBackends:
    def test_generated(self, root):
        lang = language(root)
        profile = ParseProfile()
        assert_same_outcomes(
            lang.parse,
            lambda text: lang.parse(text, profile=profile),
            corpus(root),
            "generated",
        )
        assert profile.total_invocations() > 0

    def test_interpreter(self, root):
        lang = language(root)
        profile = ParseProfile()
        plain = lang.interpreter()
        profiled = lang.interpreter(profile=profile)
        assert_same_outcomes(plain.parse, profiled.parse, corpus(root), "interp")
        assert profile.total_invocations() > 0

    def test_vm(self, root):
        lang = language(root)
        profile = ParseProfile()
        assert_same_outcomes(
            lambda text: lang.parse(text, backend="vm"),
            lambda text: lang.parse(text, backend="vm", profile=profile),
            corpus(root),
            "vm",
        )
        assert profile.total_invocations() > 0


def test_session_parity(calc_lang):
    texts = ["1+2*3", "(4-5)", "1+", "", "7*(8+9)"]
    profile = ParseProfile()
    plain, profiled = calc_lang.session(), calc_lang.session(profile=profile)
    for text in texts:
        a = outcome(plain.parse, text)
        b = outcome(profiled.parse, text)
        assert a[0] == b[0]
        if a[0]:
            assert structurally_equal(a[1], b[1])
        else:
            assert a[2] == b[2]
    assert profile.parses == len(texts)
