"""Benchmark inputs: a fixed input universe and the seeded workloads drawn from it.

The universe is every input a run can ever hand the program:

- ``batch``: the decodable files of ``examples/python``;
- ``serve``: the top-level ``def``/``class`` chunks of those files, plus one
  invalid variant of each chunk;
- ``edit``: a pool of edit actions over three mid-size buffers.  Every
  action starts and ends at the unedited buffer, so actions compose in any
  order and every intermediate buffer is known in advance.

The universe does not depend on the seed, so ``make_expected.py`` computes
the reference outcome of every input once.  A seed only chooses order,
selection and timing.  Only this module and ``make_expected.py`` import the
program (for its layout pre-pass); the measured child sees the generated
inputs alone.
"""

from __future__ import annotations

import ast
import io
import keyword
import random
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "examples" / "python"

#: Corpus files that are valid Python but use ``match`` statements, which
#: the grammar's 3.8-level scope rejects.  The reference rejects them too.
SCOPE_LIMITED = frozenset({"dataclasses.py", "traceback.py"})

#: Mid-size buffers the edit workload opens, of similar layouted size
#: (11.8-12.8k chars) so a reject costs about the same on each.
EDIT_FILES = ("json_decoder.py", "queue.py", "string.py")
RENAMES_PER_BUFFER = 24
EXTENDS_PER_BUFFER = 24
#: Retyping deletes the last RETYPE_CHARS characters of a line and types
#: them back one at a time.  Retyped lines sit in the last fifth of a
#: buffer: a reject costs a cold parse up to the damage, so this keeps
#: reject costs within ~20% of each other and the tail steady across seeds.
RETYPE_CHARS = 8
RETYPE_BAND = 0.8

#: Every edit round runs this many actions of each kind, with exactly
#: ROUND_REJECTS rejecting steps among its 64 steps (16%).  The median then
#: sits in the warm-accept mode and the tail percentile in the reject mode,
#: far from the boundary between them.
ROUND_ACTIONS = {"retype": 4, "rename": 7, "extend": 7}
ROUND_REJECTS = 10

#: Serve: open-loop send rate, about a fifth of one worker's capacity on
#: these requests (~100/s at the seed commit).  At half capacity, queueing
#: behind the largest chunks and the slowest rejects made the percentiles
#: swing twofold from seed to seed; at this rate the largest requests
#: themselves set the tail.
SERVE_RATE = 20.0
#: Every fifth chunk also comes as its invalid variant (65 of 387 requests
#: per deck).
SERVE_VARIANT_EVERY = 5
#: Requests of chunks above this many bytes (31 per deck) hold the worker for
#: 30-320 ms each; decks space them evenly.
SERVE_HEAVY_BYTES = 4000
#: The stream takes about this share of a run; draining backlogs the rest.
SERVE_STREAM_SHARE = 0.7

_QUOTES = frozenset("'\"")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SourceFile:
    name: str
    text: str
    nbytes: int


def corpus_files(root: Path = CORPUS) -> list[SourceFile]:
    """Every decodable ``*.py`` file under ``root`` (PEP 263), by name."""
    files = []
    for path in sorted(root.glob("*.py")):
        data = path.read_bytes()
        try:
            encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
            text = data.decode(encoding)
        except (SyntaxError, UnicodeDecodeError, LookupError):
            continue
        files.append(SourceFile(path.name, text, len(data)))
    return files


def layout(text: str) -> str:
    from repro.workloads.pylayout import python_layout

    return python_layout(text)


# -- serve universe -------------------------------------------------------------


def top_level_chunks(files: list[SourceFile]) -> list[str]:
    """The source of every top-level ``def``/``class`` (decorators included)."""
    chunks = []
    for source in files:
        lines = source.text.split("\n")
        for node in ast.parse(source.text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                chunks.append("\n".join(lines[first - 1 : node.end_lineno]) + "\n")
    return chunks


def _line_starts(text: str) -> list[int]:
    starts = [0]
    for index, char in enumerate(text):
        if char == "\n":
            starts.append(index + 1)
    return starts


def _tokens(text: str):
    """``(type, string, offset)`` of each token of ``text``."""
    starts = _line_starts(text)
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        row, col = token.start
        yield token.type, token.string, starts[row - 1] + col


def invalid_variant(chunk: str, index: int) -> str:
    """``chunk`` with a stray ``?`` before one token of its last third (or
    before its last token, when a string literal fills that third).

    ``?`` is no Python token, so the variant is invalid, and the parser
    reaches the error only after most of the chunk.
    """
    floor = 2 * len(chunk) // 3
    offsets = [
        offset
        for kind, _, offset in _tokens(chunk)
        if kind in (tokenize.NAME, tokenize.OP, tokenize.NUMBER)
    ]
    late = [offset for offset in offsets if offset >= floor] or offsets[-1:]
    position = random.Random(f"variant:{index}").choice(late)
    return chunk[:position] + "?" + chunk[position:]


def serve_universe(files: list[SourceFile]) -> list[tuple[str, int]]:
    """``(raw text, raw bytes)`` of every request: chunks, then variants."""
    chunks = top_level_chunks(files)
    variants = [invalid_variant(chunk, index) for index, chunk in enumerate(chunks)]
    return [(text, len(text.encode())) for text in chunks + variants]


# -- edit universe --------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """Edit steps ``(offset, removed, inserted)`` that end where they began."""

    buffer: int
    kind: str  # "rename" | "extend" | "retype"
    steps: tuple[tuple[int, int, str], ...]


def raw_to_layout(raw: str, layouted: str) -> list[int]:
    """Offset in ``layouted`` of each character of ``raw``.

    The layout pre-pass only inserts sentinel characters, so the raw text
    is the layouted text with those removed.
    """
    from repro.workloads.pylayout import SENTINELS

    positions = [index for index, char in enumerate(layouted) if char not in SENTINELS]
    if "".join(layouted[p] for p in positions) != raw:
        raise ValueError("layout changed more than sentinel characters")
    return positions


def name_sites(raw: str, layouted: str) -> list[tuple[int, int]]:
    """Layouted ``(start, end)`` spans of the identifiers an editor may rename.

    Identifiers come from the tokenizer, so words inside strings, comments
    and numbers never qualify; keywords are excluded, and so is any name
    directly before a quote, which would be a string prefix.
    """
    positions = raw_to_layout(raw, layouted)
    sites = []
    for kind, text, offset in _tokens(raw):
        if kind != tokenize.NAME or keyword.iskeyword(text):
            continue
        start = positions[offset]
        end = positions[offset + len(text) - 1] + 1
        if end < len(layouted) and layouted[end] in _QUOTES:
            continue
        sites.append((start, end))
    return sites


def _fresh_name(name: str) -> bool:
    return name.isidentifier() and not keyword.iskeyword(name)


def rename_action(buffer: int, layouted: str, site: tuple[int, int], rng) -> Action:
    """Replace one letter of a name, then restore it (two same-length steps)."""
    start, end = site
    name = layouted[start:end]
    index = rng.randrange(len(name))
    for letter in rng.sample(_LETTERS, len(_LETTERS)):
        candidate = name[:index] + letter + name[index + 1 :]
        if candidate != name and _fresh_name(candidate):
            break
    return Action(buffer, "rename", ((start, len(name), candidate), (start, len(name), name)))


def extend_action(buffer: int, layouted: str, site: tuple[int, int], rng) -> Action:
    """Type a one- or two-letter suffix onto a name, then delete it."""
    start, end = site
    name = layouted[start:end]
    while True:
        suffix = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 2)))
        if _fresh_name(name + suffix):
            break
    return Action(buffer, "extend", ((end, 0, suffix), (end, len(suffix), "")))


def retype_sites(layouted: str) -> list[tuple[int, str]]:
    """``(start, text)`` of the last RETYPE_CHARS characters of each
    one-line logical line in the retype band."""
    from repro.workloads.pylayout import NEWLINE, SENTINELS

    sites = []
    floor = int(RETYPE_BAND * len(layouted))
    end = layouted.find(NEWLINE)
    while end >= 0:
        line_start = layouted.rfind("\n", 0, end) + 1
        start = line_start
        while start < end and (layouted[start] in SENTINELS or layouted[start] in " \t"):
            start += 1
        content = layouted[start:end]
        if (
            start >= floor
            and len(content) > RETYPE_CHARS
            and not any(char in SENTINELS or char in "#\\" for char in content)
        ):
            sites.append((end - RETYPE_CHARS, content[-RETYPE_CHARS:]))
        end = layouted.find(NEWLINE, end + 1)
    return sites


def retype_action(buffer: int, site: tuple[int, str]) -> Action:
    """Delete the end of a line, then type it back one character at a time."""
    start, content = site
    steps = [(start, len(content), "")]
    steps += [(start + index, 0, char) for index, char in enumerate(content)]
    return Action(buffer, "retype", tuple(steps))


@dataclass(frozen=True)
class EditBuffer:
    name: str
    text: str  # layouted
    nbytes: int  # raw size on disk


def edit_universe(files: list[SourceFile]) -> tuple[list[EditBuffer], list[Action]]:
    """The edit buffers and the pool of every action the workload may run."""
    by_name = {source.name: source for source in files}
    buffers, pool = [], []
    for index, name in enumerate(EDIT_FILES):
        source = by_name[name]
        layouted = layout(source.text)
        buffers.append(EditBuffer(name, layouted, source.nbytes))
        rng = random.Random(f"edit-pool:{name}")
        sites = name_sites(source.text, layouted)
        for site in rng.sample(sites, RENAMES_PER_BUFFER):
            pool.append(rename_action(index, layouted, site, rng))
        for site in rng.sample(sites, EXTENDS_PER_BUFFER):
            pool.append(extend_action(index, layouted, site, rng))
        for site in retype_sites(layouted):
            pool.append(retype_action(index, site))
    return buffers, pool


def apply_step(text: str, step: tuple[int, int, str]) -> str:
    offset, removed, inserted = step
    return text[:offset] + inserted + text[offset + removed :]


def action_states(text: str, action: Action) -> list[str]:
    """The buffer after each step of ``action`` applied to ``text``."""
    states = []
    for step in action.steps:
        text = apply_step(text, step)
        states.append(text)
    return states


# -- seeded workloads -------------------------------------------------------------


def batch_workload(seed: int, seconds: int, files: list[SourceFile]) -> dict:
    """Passes over every file, each pass in its own seeded order."""
    rng = random.Random(f"batch:{seed}")
    order = list(range(len(files)))
    passes = []
    for _ in range(20 * seconds):
        rng.shuffle(order)
        passes.append(list(order))
    return {"passes": passes}


def edit_workload(seed: int, seconds: int, pool: list[Action], rejects: list[int]) -> dict:
    """Rounds of ROUND_ACTIONS actions, in seeded order, whose retype
    actions reject on exactly ROUND_REJECTS steps.

    ``rejects[i]`` is the number of steps of ``pool[i]`` the reference
    rejects; rename and extend actions never reject.
    """
    rng = random.Random(f"edit:{seed}")
    by_kind = {kind: [i for i, a in enumerate(pool) if a.kind == kind] for kind in ROUND_ACTIONS}
    retypes = ROUND_ACTIONS["retype"]
    rounds = []
    for _ in range(20 * seconds):
        for _ in range(100_000):
            actions = rng.sample(by_kind["retype"], retypes)
            if sum(rejects[i] for i in actions) == ROUND_REJECTS:
                break
        else:
            raise ValueError(f"no {retypes} retype actions reject {ROUND_REJECTS} times")
        for kind in ("rename", "extend"):
            actions += rng.sample(by_kind[kind], ROUND_ACTIONS[kind])
        rng.shuffle(actions)
        rounds.append(actions)
    return {"rounds": rounds}


def _deck(rng, sizes: list[int]) -> list[int]:
    """Universe indices of every chunk once, plus the invalid variant of
    every SERVE_VARIANT_EVERY-th chunk, in seeded order, with the requests
    above SERVE_HEAVY_BYTES spread evenly through the deck.

    ``sizes`` are the sizes of the chunks, in universe order.  Every deck
    holds the same requests, so which variants a run drew cannot decide its
    tail; and a large request never queues behind another one, so neither
    can where the seed happened to put two of them side by side.
    """
    chunks = len(sizes)
    picks = list(range(chunks)) + [chunks + index for index in range(0, chunks, SERVE_VARIANT_EVERY)]
    heavy = [pick for pick in picks if sizes[pick % chunks] > SERVE_HEAVY_BYTES]
    light = [pick for pick in picks if sizes[pick % chunks] <= SERVE_HEAVY_BYTES]
    rng.shuffle(heavy)
    rng.shuffle(light)
    deck, gap = [], len(picks) / len(heavy)
    for number, pick in enumerate(heavy):
        deck += light[round(number * gap) - number : round((number + 1) * gap) - number - 1]
        deck.append(pick)
    deck += light[len(deck) - len(heavy) :]
    return deck


def serve_workload(seed: int, seconds: int, sizes: list[int]) -> dict:
    """An open-loop stream of whole decks, one request every
    ``1 / SERVE_RATE`` seconds, then decks to drain.

    Sends are evenly spaced rather than Poisson: with Poisson arrivals,
    where the bursts fell next to the largest requests decided the tail,
    and the percentiles swung twofold from seed to seed.
    """
    rng = random.Random(f"serve:{seed}")
    deck = len(sizes) + len(range(0, len(sizes), SERVE_VARIANT_EVERY))
    decks = max(1, round(SERVE_STREAM_SHARE * seconds * SERVE_RATE / deck))
    stream = [pick for _ in range(decks) for pick in _deck(rng, sizes)]
    due = [(number + 1) / SERVE_RATE for number in range(len(stream))]
    backlogs = [_deck(rng, sizes) for _ in range(seconds)]
    return {"due": due, "stream": stream, "backlogs": backlogs}
