"""The real-Python stress workload: layout pre-pass, grammar round-trips,
PEP 263 corpus loading, cross-backend parity, depth budgets, and session
memo hygiene.

The `python.*` grammar modules target 3.8-level Python; files using newer
constructs are declared in :data:`repro.workloads.pycorpus.ALLOWLIST` with
the reason.  See docs/grammars-python.md.
"""

from __future__ import annotations

import io
import tokenize as std_tokenize

import pytest

import repro
from repro.errors import ParseDepthError, ParseError
from repro.interp import PackratInterpreter
from repro.optim import Options, prepare
from repro.runtime.base import recursion_budget
from repro.runtime.node import GNode
from repro.workloads import (
    ALLOWLIST,
    CORPUS_DIR,
    CorpusDecodeError,
    LayoutError,
    decode_python_source,
    load_corpus,
    python_layout,
    run_corpus,
    source_encoding,
)
from repro.workloads.pylayout import DEDENT, INDENT, NEWLINE

#: Frames ample for every corpus file on every backend (the unoptimized
#: interpreter spends the most stack per grammar level).
BUDGET = 100_000


@pytest.fixture(scope="module")
def python_lang():
    return repro.compile_grammar("python.Python")


@pytest.fixture(scope="module")
def corpus():
    files, skipped = load_corpus()
    return files, skipped


def parse_source(lang, source: str):
    """Layout pre-pass + parse, the way every corpus driver composes them."""
    return lang.parse(python_layout(source), depth_budget=BUDGET)


# -- layout pre-pass ----------------------------------------------------------


class TestLayoutPrePass:
    def test_sentinels_are_control_characters(self):
        assert (INDENT, DEDENT, NEWLINE) == ("\x01", "\x02", "\x03")

    def test_simple_block(self):
        out = python_layout("if x:\n    y\n")
        assert out == f"if x:{NEWLINE}\n{INDENT}    y{NEWLINE}\n{DEDENT}"

    def test_stripping_sentinels_restores_text(self):
        source = "def f():\n\tif x:\n\t\treturn [1,\n 2]\n# done\n"
        out = python_layout(source)
        for sentinel in (INDENT, DEDENT, NEWLINE):
            out = out.replace(sentinel, "")
        assert out == source

    def test_indent_dedent_balance(self):
        source = "class C:\n    def m(self):\n        if x:\n            y\n"
        out = python_layout(source)
        assert out.count(INDENT) == out.count(DEDENT) == 3

    def test_blank_and_comment_lines_get_no_sentinels(self):
        out = python_layout("x\n\n# comment\n    \ny\n")
        lines = out.split("\n")
        assert lines[1] == "" and lines[2] == "# comment"
        assert out.count(NEWLINE) == 2  # only the two code lines

    def test_brackets_suppress_newline(self):
        out = python_layout("x = [1,\n     2]\n")
        # One logical line: the embedded "\n" stays but carries no NEWLINE.
        assert out.count(NEWLINE) == 1
        assert out.index(NEWLINE) > out.index("2]")

    def test_backslash_continuation(self):
        out = python_layout("x = 1 + \\\n    2\n")
        assert out.count(NEWLINE) == 1 and out.count(INDENT) == 0

    def test_triple_quoted_string_spans_lines(self):
        source = 'x = """\nnot: indented\n  # not a comment\n"""\n'
        out = python_layout(source)
        assert out.count(NEWLINE) == 1 and out.count(INDENT) == 0

    def test_tabs_advance_to_multiple_of_8(self):
        # "\t" (width 8) vs "        " (8 spaces) are the same level.
        out = python_layout("if x:\n\ty\n        z\n")
        assert out.count(INDENT) == 1 and out.count(DEDENT) == 1

    def test_inconsistent_dedent_raises(self):
        with pytest.raises(LayoutError) as exc_info:
            python_layout("if x:\n        y\n    z\n")
        assert exc_info.value.line == 3

    def test_raw_sentinel_in_input_rejected(self):
        with pytest.raises(LayoutError):
            python_layout("x = '\x01'\n")

    def test_crlf_source(self):
        out = python_layout("if x:\r\n    y\r\n")
        assert out.count(INDENT) == 1 and out.count(DEDENT) == 1
        assert out.count(NEWLINE) == 2

    def test_dedents_after_final_comment(self):
        out = python_layout("if x:\n    y\n# trailing")
        assert out.endswith(DEDENT)

    def test_matches_cpython_tokenize_on_corpus(self, corpus):
        """INDENT/DEDENT/logical-NEWLINE counts agree with ``tokenize``."""
        files, _ = corpus
        checked = 0
        for cf in files:
            if cf.name.startswith("encoded_"):
                continue
            try:
                tokens = list(
                    std_tokenize.generate_tokens(io.StringIO(cf.text).readline)
                )
            except Exception:  # tokenize chokes -> nothing to compare
                continue
            expected = {
                std_tokenize.INDENT: 0,
                std_tokenize.DEDENT: 0,
                std_tokenize.NEWLINE: 0,
            }
            for token in tokens:
                if token.type in expected:
                    expected[token.type] += 1
            out = python_layout(cf.text)
            assert out.count(INDENT) == expected[std_tokenize.INDENT], cf.name
            assert out.count(DEDENT) == expected[std_tokenize.DEDENT], cf.name
            assert out.count(NEWLINE) == expected[std_tokenize.NEWLINE], cf.name
            checked += 1
        assert checked >= 20


# -- grammar round-trips ------------------------------------------------------


SNIPPETS = [
    "x = 1\n",
    "x, y = y, x\n",
    "x += f(a, *b, **c)\n",
    "del d[k]\n",
    "assert x, 'msg'\n",
    "from os import (path, sep)\n",
    "from . import sibling\n",
    "import os.path as p, sys\n",
    "lambda a, b=1, *args, **kw: a\n",
    "x = a if b else c\n",
    "x = {k: v for k, v in items}\n",
    "x = {1, 2, 3} | {i for i in y}\n",
    "def g():\n    x = yield\n    yield from range(3)\n",
    "x[1:2, ::3] = y\n",
    "x = not a < b <= c != d\n",
    "x = a @ b // c ** -d\n",
    "x = f'' if 0 else rb'bytes'\n",
    "@deco(arg)\nclass C:\n    '''doc'''\n",
    "try:\n    pass\nexcept (A, B) as e:\n    raise X from e\nfinally:\n    pass\n",
    "while x:\n    break\nelse:\n    continue_ = 1\n",
    "for i, in pairs:\n    global g\n",
    "with (open(a) as f, open(b) as g):\n    pass\n",
    "with (a, b) as pair:\n    pass\n",
    "async def f():\n    return [x async for x in aiter()]\n",
    "if (n := len(s)) > 10:\n    pass\n",
    "def f(a, /, b, *, c):\n    nonlocal_ = 0\n",
    "x = 0x_FF + 0b10_01 + 1_000.5e-3 + 4j + .5\n",
    "x = ...\n",
]

REJECTS = [
    "x = \n",
    "def f(:\n    pass\n",
    "if x\n    pass\n",
    "x = 1 +\n",
    "x = lambda y:\n",
    "import\n",
]


class TestRoundTrips:
    @pytest.mark.parametrize("source", SNIPPETS)
    def test_accepts(self, python_lang, source):
        value = parse_source(python_lang, source)
        assert isinstance(value, list) and value

    @pytest.mark.parametrize("source", REJECTS)
    def test_rejects(self, python_lang, source):
        with pytest.raises(ParseError):
            parse_source(python_lang, source)

    def test_assign_shape(self, python_lang):
        (stmt,) = parse_source(python_lang, "x = 1\n")
        assert isinstance(stmt, GNode) and stmt.name == "Assign"
        ((target,),), (value,) = stmt.children
        assert target == "x" and value.name == "Num" and value[0] == "1"

    def test_funcdef_shape(self, python_lang):
        (stmt,) = parse_source(python_lang, "def f(a, b=2):\n    return a\n")
        assert stmt.name == "FuncDef" and stmt[0] == "f"
        params = stmt[1]
        assert [p.name for p in params] == ["Param", "Param"]
        assert params[1][1].name == "Num"
        (ret,) = stmt[3]
        assert ret.name == "Return"

    def test_comprehension_shape(self, python_lang):
        (stmt,) = parse_source(python_lang, "y = [i for i in xs if i]\n")
        comp = stmt[1][0]
        assert comp.name == "ListComp"
        clauses = comp[1]
        assert [c.name for c in clauses] == ["CompFor", "CompIf"]

    def test_statements_not_spliced(self, python_lang):
        """A bare tuple expression must stay one statement, not splat into
        the statement list (the ``<Expr>`` wrapper regression)."""
        stmts = parse_source(python_lang, "a, b\nc\n")
        assert len(stmts) == 2
        assert stmts[0].name == "Expr" and len(stmts[0][0]) == 2

    def test_group_is_not_tuple(self, python_lang):
        (grouped,) = parse_source(python_lang, "(x)\n")
        (tupled,) = parse_source(python_lang, "(x,)\n")
        assert grouped[0][0] == "x"
        assert tupled[0][0].name == "TupleLit"

    def test_empty_braces_are_dict(self, python_lang):
        (stmt,) = parse_source(python_lang, "x = {}\n")
        assert stmt[1][0].name == "DictLit"


# -- PEP 263 corpus loading ---------------------------------------------------


class TestEncoding:
    def test_default_is_utf8(self):
        assert source_encoding(b"x = 1\n") == "utf-8"

    def test_bom_wins(self):
        data = b"\xef\xbb\xbf# -*- coding: latin-1 -*-\nx\n"
        assert source_encoding(data) == "utf-8-sig"
        assert decode_python_source(data).startswith("#")

    def test_coding_on_first_line(self):
        assert source_encoding(b"# coding: latin-1\n") == "latin-1"

    def test_coding_on_second_line(self):
        assert source_encoding(b"#!/usr/bin/env python\n# coding=cp1252\n") == "cp1252"

    def test_code_line_closes_window(self):
        # A declaration on line 2 only counts when line 1 is blank/comment.
        assert source_encoding(b"import x\n# coding: latin-1\n") == "utf-8"

    def test_third_line_declaration_ignored(self):
        assert source_encoding(b"#\n#\n# coding: latin-1\n") == "utf-8"

    def test_unknown_codec_raises(self):
        with pytest.raises(CorpusDecodeError):
            decode_python_source(b"# coding: no-such-codec\nx\n")

    def test_undecodable_bytes_raise(self):
        with pytest.raises(CorpusDecodeError):
            decode_python_source(b"# coding: utf-8\nx = '\xff\xfe'\n")

    def test_latin1_declaration_honored(self):
        text = decode_python_source(b"# coding: latin-1\ns = '\xe9'\n")
        assert "\u00e9" in text

    def test_loader_skips_and_reports(self, corpus):
        files, skipped = corpus
        assert [s.name for s in skipped] == ["encoded_undecodable.py"]
        assert "cannot decode" in skipped[0].reason
        loaded = {cf.name for cf in files}
        assert "encoded_latin1.py" in loaded
        assert "encoded_undecodable.py" not in loaded


# -- the corpus, end to end ---------------------------------------------------


class TestCorpus:
    def test_corpus_is_substantial(self, corpus):
        files, _ = corpus
        assert len(files) >= 20
        assert sum(cf.nbytes for cf in files) >= 300_000

    def test_generated_backend_parses_everything(self, python_lang, corpus):
        with python_lang.session(depth_budget=BUDGET) as session:
            report = run_corpus(session.parse)
        assert report.failed == [], report.summary()
        assert report.stale_allowlist == [], report.summary()
        assert report.parse_rate == 1.0
        assert {o.name for o in report.allowlisted} == {
            "dataclasses.py",
            "traceback.py",
        }
        assert [s.name for s in report.skipped] == ["encoded_undecodable.py"]
        assert report.parsed_bytes >= 300_000

    def test_latin1_file_parses(self, python_lang, corpus):
        files, _ = corpus
        (latin1,) = [cf for cf in files if cf.name == "encoded_latin1.py"]
        assert parse_source(python_lang, latin1.text)

    def test_allowlist_reasons_are_non_empty(self):
        assert all(reason.strip() for reason in ALLOWLIST.values())

    def test_corpus_dir_is_checked_in(self):
        assert CORPUS_DIR.is_dir()
        assert (CORPUS_DIR / "README.md").is_file()


# -- cross-backend parity -----------------------------------------------------


@pytest.fixture(scope="module")
def python_oracle():
    from repro.difftest import DifferentialOracle

    return DifferentialOracle.for_root("python.Python")


PARITY_FILES = ["abc.py", "bisect.py", "heapq.py", "linecache.py", "types.py"]


@pytest.mark.fuzz
class TestBackendParity:
    def test_oracle_covers_all_backend_families(self, python_oracle):
        names = [backend.name for backend in python_oracle.backends]
        assert names[0] == "interp-plain"  # textbook semantics is reference
        assert "vm" in names
        assert "codegen-all" in names
        assert sum(1 for n in names if n.startswith("codegen-no-")) == 11

    @pytest.mark.parametrize("source", SNIPPETS + REJECTS)
    def test_snippet_parity(self, python_oracle, source):
        with recursion_budget(BUDGET):
            disagreements = python_oracle.check(python_layout(source))
        assert disagreements == [], disagreements[0].describe()

    @pytest.mark.parametrize("name", PARITY_FILES)
    def test_corpus_file_parity(self, python_oracle, corpus, name):
        files, _ = corpus
        (cf,) = [f for f in files if f.name == name]
        text = python_layout(cf.text)
        with recursion_budget(BUDGET):
            outcomes = python_oracle.run_all(text)
        assert outcomes["interp-plain"].accepted, cf.name
        with recursion_budget(BUDGET):
            disagreements = python_oracle.check(text)
        assert disagreements == [], disagreements[0].describe()


# -- depth budgets: no raw RecursionError reaches callers ---------------------


def deep_source(depth: int = 3000) -> str:
    return "x = " + "(" * depth + "1" + ")" * depth + "\n"


class TestDepthBudget:
    def test_generated_backend_degrades_structurally(self, python_lang):
        with pytest.raises(ParseDepthError) as exc_info:
            python_lang.parse(python_layout(deep_source()), depth_budget=500)
        error = exc_info.value
        assert isinstance(error, ParseError)  # one except clause serves both
        assert error.offset > 0  # farthest offset reached, not 0

    def test_session_budget_applies_to_every_parse(self, python_lang):
        with python_lang.session(depth_budget=500) as session:
            for _ in range(2):
                with pytest.raises(ParseDepthError):
                    session.parse(python_layout(deep_source()))
            # The session stays healthy for reasonable inputs.
            assert session.parse(python_layout("x = (1)\n"))

    def test_interpreter_degrades_structurally(self):
        grammar = repro.load_grammar("python.Python")
        prepared = prepare(grammar, Options.all(), check=False)
        interpreter = PackratInterpreter(prepared.grammar, chunked=True)
        with recursion_budget(500):
            with pytest.raises(ParseDepthError):
                interpreter.parse(python_layout(deep_source()))

    def test_budget_restores_recursion_limit(self, python_lang):
        import sys

        before = sys.getrecursionlimit()
        with pytest.raises(ParseDepthError):
            python_lang.parse(python_layout(deep_source()), depth_budget=500)
        assert sys.getrecursionlimit() == before


# -- session memo hygiene across corpus files ---------------------------------


class TestSessionMemoRelease:
    def test_reset_drops_previous_files_columns(self, python_lang, corpus):
        """Memo size tracks the *current* file, not the session high-water
        mark: parsing a small file after a large one must shrink the table."""
        files, _ = corpus
        big = python_layout(next(f.text for f in files if f.name == "calendar.py"))
        small = python_layout(next(f.text for f in files if f.name == "bisect.py"))
        with python_lang.session(depth_budget=BUDGET) as session:
            session.parse(big)
            after_big = session.parser.memo_entry_count()
            assert after_big > 0
            session.parse(small)
            after_small = session.parser.memo_entry_count()
            assert 0 < after_small < after_big / 2
            session.parse(big)
            assert session.parser.memo_entry_count() <= after_big

    def test_failed_parse_leaves_no_memo_behind(self, python_lang):
        with python_lang.session(depth_budget=BUDGET) as session:
            with pytest.raises(ParseError):
                session.parse(python_layout("def f(:\n    pass\n"))
            assert session.parser.memo_entry_count() == 0
            assert session.parser.memo_size_bytes() < 10_000

    def test_close_releases_the_parser(self, python_lang):
        session = python_lang.session(depth_budget=BUDGET)
        session.parse(python_layout("x = 1\n"))
        assert session.parser is not None
        session.close()
        assert session.parser is None
        # Closed sessions stay usable; the next parse re-allocates.
        assert session.parse(python_layout("y = 2\n"))

    def test_context_manager_closes(self, python_lang):
        with python_lang.session() as session:
            session.parse(python_layout("x = 1\n"))
        assert session.parser is None

    def test_interpreter_table_reset_releases_columns(self):
        from repro.runtime.memo import ChunkedMemoTable

        table = ChunkedMemoTable(["A", "B", "C"])
        for pos in range(1000):
            table.put(0, pos, (pos + 1, None))
        assert table.column_count() == 1000
        big = table.size_bytes()
        assert table.reset() is table
        assert table.entry_count() == 0
        assert table.chunk_count() == 0
        assert table.column_count() == 0
        assert table.size_bytes() < big / 100
