import io
import keyword
import tokenize

import pytest

import inputs
import reference
from repro.workloads.pylayout import SENTINELS

#: Chunk sizes in bytes: mostly small, one in ten above the heavy threshold.
SIZES = [5000 + index if index % 10 == 3 else 100 + 7 * index for index in range(100)]


@pytest.fixture(scope="module")
def files():
    return inputs.corpus_files()


@pytest.fixture(scope="module")
def universe(files):
    return inputs.edit_universe(files)


@pytest.fixture(scope="module")
def rejects(universe):
    entries = reference.load()
    buffers, pool = universe
    return [
        sum(1 for state in inputs.action_states(buffers[a.buffer].text, a)
            if reference.lookup(entries, state, "state")[0] == 0)
        for a in pool
    ]


def _token_kinds(layouted: str) -> list[int]:
    raw = "".join(char for char in layouted if char not in SENTINELS)
    return [token.type for token in tokenize.generate_tokens(io.StringIO(raw).readline)]


def test_same_seed_same_inputs(files, universe, rejects):
    _, pool = universe
    assert inputs.batch_workload(7, 5, files) == inputs.batch_workload(7, 5, files)
    assert inputs.edit_workload(7, 5, pool, rejects) == inputs.edit_workload(7, 5, pool, rejects)
    assert inputs.serve_workload(7, 5, SIZES) == inputs.serve_workload(7, 5, SIZES)


def test_other_seed_other_inputs(files, universe, rejects):
    _, pool = universe
    assert inputs.batch_workload(7, 5, files) != inputs.batch_workload(8, 5, files)
    assert inputs.edit_workload(7, 5, pool, rejects) != inputs.edit_workload(8, 5, pool, rejects)
    assert inputs.serve_workload(7, 5, SIZES) != inputs.serve_workload(8, 5, SIZES)


def test_name_sites_skip_string_prefixes():
    raw = 'x = f"a" + rb\'b\' + u"c" + fr"{x}"\ny = x\n'
    layouted = inputs.layout(raw)
    assert [layouted[s:e] for s, e in inputs.name_sites(raw, layouted)] == ["x", "y", "x"]


def test_name_directly_before_a_quote_is_no_site():
    raw = "a = x'b'\n"
    layouted = inputs.layout(raw)
    assert [layouted[s:e] for s, e in inputs.name_sites(raw, layouted)] == ["a"]


def test_renames_never_touch_a_string_prefix(universe):
    buffers, pool = universe
    for action in pool:
        if action.kind == "retype":
            continue
        text = buffers[action.buffer].text
        offset, removed, inserted = action.steps[0]
        assert text[offset + removed] not in "'\""
        changed = inputs.apply_step(text, action.steps[0])
        start = offset
        while start > 0 and (changed[start - 1].isalnum() or changed[start - 1] == "_"):
            start -= 1
        end = offset + len(inserted)
        while changed[end].isalnum() or changed[end] == "_":
            end += 1
        name = changed[start:end]
        assert name.isidentifier() and not keyword.iskeyword(name)
        assert _token_kinds(changed) == _token_kinds(text)


def test_edit_rounds_fix_the_reject_share(universe, rejects):
    _, pool = universe
    for actions in inputs.edit_workload(3, 5, pool, rejects)["rounds"]:
        assert sum(rejects[i] for i in actions) == inputs.ROUND_REJECTS
        kinds = [pool[i].kind for i in actions]
        assert {kind: kinds.count(kind) for kind in inputs.ROUND_ACTIONS} == inputs.ROUND_ACTIONS


def test_only_retyping_rejects(universe, rejects):
    _, pool = universe
    assert all(count == 0 for action, count in zip(pool, rejects) if action.kind != "retype")


def test_every_action_restores_its_buffer(universe):
    buffers, pool = universe
    for action in pool:
        assert inputs.action_states(buffers[action.buffer].text, action)[-1] == buffers[action.buffer].text


def test_serve_decks_hold_the_same_requests_in_other_orders():
    chunks = len(SIZES)
    workload = inputs.serve_workload(3, 30, SIZES)
    deck = sorted(list(range(chunks)) + [chunks + i for i in range(0, chunks, inputs.SERVE_VARIANT_EVERY)])
    stream = workload["stream"]
    assert len(stream) % len(deck) == 0 and len(stream) == len(workload["due"])
    decks = [stream[i : i + len(deck)] for i in range(0, len(stream), len(deck))] + workload["backlogs"]
    for requests in decks:
        assert sorted(requests) == deck
    assert decks[0] != decks[1]
    gaps = {round(b - a, 9) for a, b in zip(workload["due"], workload["due"][1:])}
    assert gaps == {round(1 / inputs.SERVE_RATE, 9)}


def test_serve_decks_spread_the_largest_requests():
    chunks = len(SIZES)
    for deck in inputs.serve_workload(5, 30, SIZES)["backlogs"]:
        heavy = [i for i, r in enumerate(deck) if SIZES[r % chunks] > inputs.SERVE_HEAVY_BYTES]
        assert len(heavy) > 1
        assert min(b - a for a, b in zip(heavy, heavy[1:])) >= len(deck) // len(heavy) - 1


def test_every_universe_input_has_a_reference(files, universe):
    entries = reference.load()
    for source in files:
        reference.lookup(entries, source.text, source.name)
    for text, _ in inputs.serve_universe(files):
        reference.lookup(entries, inputs.layout(text), "request")
    buffers, pool = universe
    for action in pool:
        for state in inputs.action_states(buffers[action.buffer].text, action):
            reference.lookup(entries, state, "edit state")
