"""E11 — the real-Python stress workload.

Two series over the checked-in stdlib corpus (``examples/python/``, see its
README for provenance):

(a) corpus throughput (bytes/sec of raw source) of each backend — packrat
    interpreter, generated parser, parsing machine — over
    every non-allowlisted corpus file, layout pre-pass included in the
    timing (it is part of what a client pays to parse Python);
(b) E4-style linearity on a large real-Python input: a ≥100 KB file built
    by concatenating corpus modules must parse in time linear in its size.

Expected shape: (a) generated and vm > interpreter, all in the
hundreds-of-KB/s range; (b) R² ≥ 0.98 for the linear fit.
"""

from __future__ import annotations

import pytest

import repro
from repro.interp import PackratInterpreter
from repro.optim import Options, prepare
from repro.workloads import load_corpus, python_layout
from repro.workloads.pycorpus import ALLOWLIST

from bench_util import print_table, time_best_of


@pytest.fixture(scope="module")
def corpus_texts() -> list[tuple[str, str, int]]:
    """``(name, decoded_text, raw_bytes)`` of every parseable corpus file."""
    files, _ = load_corpus()
    return [
        (cf.name, cf.text, cf.nbytes) for cf in files if cf.name not in ALLOWLIST
    ]


@pytest.fixture(scope="module")
def python_backends():
    grammar = repro.load_grammar("python.Python")
    full = prepare(grammar, Options.all(), check=False)
    language = repro.compile_grammar(grammar)
    interpreter = PackratInterpreter(full.grammar, chunked=True)
    vm_session = language.session(backend="vm")
    session = language.session()
    return [
        ("interpreter", interpreter.parse),
        ("vm", vm_session.parse),
        ("generated", session.parse),
    ]


def test_e11a_corpus_throughput_per_backend(benchmark, corpus_texts, python_backends):
    total_bytes = sum(nbytes for _, _, nbytes in corpus_texts)
    rows = []
    throughput = {}
    for name, parse in python_backends:
        def run(parse=parse):
            for _, text, _ in corpus_texts:
                parse(python_layout(text))

        seconds = time_best_of(run, repeat=1 if name == "interpreter" else 2)
        throughput[name] = total_bytes / seconds
        rows.append(
            {
                "backend": name,
                "files": len(corpus_texts),
                "KB": f"{total_bytes / 1e3:.0f}",
                "time (s)": f"{seconds:.2f}",
                "KB/s": f"{total_bytes / seconds / 1e3:.0f}",
            }
        )
    print_table(
        "E11a — real-Python corpus throughput per backend",
        rows,
        ["backend", "files", "KB", "time (s)", "KB/s"],
    )

    assert len(corpus_texts) >= 20 and total_bytes >= 300_000
    # The compiled backends must beat the interpreter; the generated parser
    # is the fast path clients get from Language.parse.
    assert throughput["generated"] > throughput["interpreter"]
    assert throughput["vm"] > throughput["interpreter"]

    _, fastest = python_backends[-1]
    small = [t for _, t, n in corpus_texts if n < 15_000]
    benchmark.pedantic(
        lambda: [fastest(python_layout(t)) for t in small], rounds=3, iterations=1
    )


def linear_fit_r2(xs, ys):
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return 1 - ss_res / ss_tot if ss_tot else 1.0


def test_e11b_parse_time_linear_on_large_python_file(benchmark, corpus_texts):
    """Concatenated corpus modules (complete files are valid top-level
    suites, so concatenation is again valid Python) at 1x..5x a ~30 KB
    base: ≥100 KB at the top, linear fit across the range."""
    base = "\n".join(
        text
        for name, text, _ in corpus_texts
        if name in ("abc.py", "bisect.py", "copy.py", "heapq.py")
    ) + "\n"
    language = repro.compile_grammar("python.Python")
    session = language.session()

    multiples = [1, 2, 3, 4, 5]
    rows, xs, ys = [], [], []
    for k in multiples:
        text = python_layout(base * k)
        seconds = time_best_of(lambda t=text: session.parse(t), repeat=3)
        xs.append(len(text))
        ys.append(seconds)
        rows.append(
            {
                "input bytes": len(text),
                "time (ms)": f"{seconds * 1000:.1f}",
                "µs/KB": f"{seconds * 1e6 / (len(text) / 1024):.0f}",
            }
        )
    print_table(
        "E11b — generated Python parser: time vs input size",
        rows,
        ["input bytes", "time (ms)", "µs/KB"],
    )

    assert xs[-1] >= 100_000, "top size must exercise a ≥100KB Python input"
    r2 = linear_fit_r2(xs, ys)
    print(f"linear fit R^2 = {r2:.4f}")
    assert r2 >= 0.98, "packrat parse time must be linear on real Python"
    per_byte = [y / x for x, y in zip(xs, ys)]
    assert max(per_byte) < 2.5 * min(per_byte)

    benchmark.pedantic(lambda: session.parse(python_layout(base)), rounds=3, iterations=1)
