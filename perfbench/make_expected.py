"""Rebuild ``expected.json``: the reference outcome of every benchmark input.

The reference is the packrat interpreter over ``Options.none()``.  It takes
several minutes over the whole input universe, so it runs on two processes.
Run it from the root of the repository after changing the corpus, the
layout pre-pass, the grammar, or the input universe in ``inputs.py``::

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time

import inputs
import reference

_parse = None


def _start_worker() -> None:
    global _parse
    sys.setrecursionlimit(200_000)
    import repro
    from repro.optim import Options

    language = repro.compile_grammar("python.Python", options=Options.none(), cache=False)
    _parse = language.interpreter().parse


def _reference(job: tuple[str, str]) -> tuple[str, list]:
    name, text = job
    return name, reference.outcome(_parse, text)


def universe() -> dict[str, str]:
    """Every input text to parse, keyed by its reference key."""
    files = inputs.corpus_files()
    jobs = {reference.key(source.text): inputs.layout(source.text) for source in files}
    for text, _ in inputs.serve_universe(files):
        layouted = inputs.layout(text)
        jobs[reference.key(layouted)] = layouted
    buffers, pool = inputs.edit_universe(files)
    for buffer in buffers:
        jobs[reference.key(buffer.text)] = buffer.text
    for action in pool:
        for state in inputs.action_states(buffers[action.buffer].text, action):
            jobs[reference.key(state)] = state
    return jobs


def check(entries: dict[str, list]) -> None:
    """Fail loudly if the universe does not behave as the workloads assume."""
    files = inputs.corpus_files()
    for source in files:
        compile(source.text, source.name, "exec")
        accepted = entries[reference.key(source.text)][0] == 1
        if accepted == (source.name in inputs.SCOPE_LIMITED):
            raise SystemExit(f"{source.name}: reference verdict contradicts SCOPE_LIMITED")
    universe = inputs.serve_universe(files)
    for text, _ in universe[len(universe) // 2 :]:
        if entries[reference.key(inputs.layout(text))][0] != 0:
            raise SystemExit("an invalid serve variant is accepted by the reference")
    buffers, pool = inputs.edit_universe(files)
    for action in pool:
        states = inputs.action_states(buffers[action.buffer].text, action)
        verdicts = [entries[reference.key(state)][0] for state in states]
        if states[-1] != buffers[action.buffer].text or verdicts[-1] != 1:
            raise SystemExit(f"a {action.kind} action does not restore its buffer")
        if action.kind != "retype" and 0 in verdicts:
            raise SystemExit(f"a {action.kind} action rejects")


def main() -> int:
    started = time.perf_counter()
    jobs = universe()
    print(f"{len(jobs)} inputs", flush=True)
    entries: dict[str, list] = {}
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2, initializer=_start_worker) as pool:
        for done, (name, result) in enumerate(pool.imap_unordered(_reference, jobs.items(), chunksize=2), 1):
            entries[name] = result
            if done % 100 == 0:
                print(f"{done}/{len(jobs)} in {time.perf_counter() - started:.0f}s", flush=True)
    check(entries)
    # One entry a line, so a rebuilt file diffs entry by entry.
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items()))
    reference.EXPECTED.write_text(
        '{"format": 1, "grammar": "python.Python", "reference": "packrat interpreter, Options.none()",\n'
        f'"entries": {{\n{lines}\n}}}}\n'
    )
    print(f"wrote {len(entries)} outcomes in {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
