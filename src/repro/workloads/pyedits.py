"""Deterministic edit scripts over source text (the incremental workload).

Incremental reparsing (``docs/incremental.md``) is measured and property-
tested against *edit scripts*: sequences of ``(offset, removed, inserted)``
edits applied one at a time to an evolving buffer.  This module generates
them deterministically from a seed, so benchmark E12 and the differential
``edits`` fuzz mode replay identical workloads on every run:

- :func:`rename_edits` — same-length identifier renames (the canonical
  token-level editor action E12 times): pick an identifier occurrence,
  mutate one character, never producing a keyword.  Length-preserving, so
  memo relocation is pure invalidation with no column motion.
- :func:`retype_edits` — delete the end of a logical line, then type it
  back one character at a time: the buffer is invalid at almost every
  step, so this is the workload of warm *rejects* (E12's retype row).
- :func:`edit_script` — mixed insert/delete/replace edits at token
  boundaries *and* mid-token, with inserted text sampled from the buffer's
  own token vocabulary.  This is the adversarial diet the differential
  oracle feeds on: edits that straddle token boundaries are exactly where
  a stale memo entry would survive by accident.
- :func:`corpus_texts` — layout-preprocessed real-Python stdlib sources
  (:mod:`repro.workloads.pycorpus`), the at-scale substrate for both.

Every function takes a :class:`random.Random` the caller seeds; nothing
here reads global randomness.
"""

from __future__ import annotations

import keyword
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.workloads.pycorpus import ALLOWLIST, CORPUS_DIR, load_corpus
from repro.workloads.pylayout import NEWLINE, SENTINELS, LayoutError, python_layout

#: Identifiers a rename must never produce (or it would change parse
#: structure on purpose rather than by defect).
PY_KEYWORDS = frozenset(keyword.kwlist)

#: A lexer-ish split good enough for edit placement: identifiers, numbers,
#: runs of whitespace, and single punctuation characters.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\s+|.", re.DOTALL)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

_QUOTES = "'\""

#: Characters :func:`retype_edits` deletes and types back.
RETYPE_CHARS = 8


@dataclass(frozen=True)
class Edit:
    """One buffer edit: replace ``removed`` characters at ``offset`` with
    ``inserted`` — the exact argument shape of
    :meth:`repro.incremental.IncrementalSession.apply_edit`."""

    offset: int
    removed: int
    inserted: str

    def apply(self, text: str) -> str:
        return text[: self.offset] + self.inserted + text[self.offset + self.removed :]


def identifier_spans(text: str, *, exclude: frozenset = PY_KEYWORDS) -> list[tuple[int, int]]:
    """``(start, end)`` spans of every non-keyword identifier in ``text``."""
    return [
        match.span()
        for match in _IDENT_RE.finditer(text)
        if match.group() not in exclude
    ]


def rename_identifier(text: str, rng, *, exclude: frozenset = PY_KEYWORDS) -> Edit | None:
    """A same-length rename of one identifier occurrence, or None if the
    text has no eligible identifier.

    One character of the name is rotated through the alphabet until the
    result is a fresh non-keyword identifier, so the edit is token-level,
    length-preserving, and never an accidental no-op.  A name directly
    before a quote is a string prefix (``f"..."``, ``rb'...'``), not an
    identifier, and is never picked.
    """
    spans = [
        (start, end)
        for start, end in identifier_spans(text, exclude=exclude)
        if text[end : end + 1] not in _QUOTES
    ]
    if not spans:
        return None
    start, end = spans[rng.randrange(len(spans))]
    name = text[start:end]
    index = rng.randrange(len(name))
    for step in range(1, len(_LETTERS) + 1):
        old = name[index].lower()
        base = _LETTERS.index(old) if old in _LETTERS else 0
        candidate_char = _LETTERS[(base + step) % len(_LETTERS)]
        candidate = name[:index] + candidate_char + name[index + 1 :]
        if candidate != name and candidate not in exclude and not candidate[0].isdigit():
            return Edit(start, len(name), candidate)
    return None


def rename_edits(text: str, rng, count: int, *, exclude: frozenset = PY_KEYWORDS) -> Iterator[Edit]:
    """``count`` sequential same-length identifier renames over an evolving
    buffer (each edit's offsets refer to the text after the previous one)."""
    current = text
    for _ in range(count):
        edit = rename_identifier(current, rng, exclude=exclude)
        if edit is None:
            return
        yield edit
        current = edit.apply(current)


def retype_edits(text: str, rng) -> list[Edit]:
    """Retype the end of one logical line: delete its last RETYPE_CHARS
    characters, then type them back one at a time (RETYPE_CHARS + 1
    edits, ending at ``text`` again).

    Logical lines end at the layout ``NEWLINE`` sentinel in layouted
    Python and at ``\\n`` elsewhere.  A line qualifies when its physical
    last line holds more than RETYPE_CHARS characters past the
    indentation and no sentinel, ``#`` or backslash; the line is drawn
    from ``rng``.  Returns ``[]`` when no line qualifies.
    """
    end_mark = NEWLINE if NEWLINE in text else "\n"
    sites = []
    end = text.find(end_mark)
    while end >= 0:
        start = text.rfind("\n", 0, end) + 1
        while start < end and (text[start] in SENTINELS or text[start] in " \t"):
            start += 1
        content = text[start:end]
        if len(content) > RETYPE_CHARS and not any(c in SENTINELS or c in "#\\" for c in content):
            sites.append(end - RETYPE_CHARS)
        end = text.find(end_mark, end + 1)
    if not sites:
        return []
    start = sites[rng.randrange(len(sites))]
    tail = text[start : start + RETYPE_CHARS]
    return [Edit(start, RETYPE_CHARS, "")] + [
        Edit(start + index, 0, char) for index, char in enumerate(tail)
    ]


def _token_spans(text: str) -> list[tuple[int, int]]:
    return [match.span() for match in _TOKEN_RE.finditer(text)]


def random_edit(text: str, rng) -> Edit:
    """One random insert/delete/replace over ``text``.

    Half the edits land on token boundaries (insert a sampled token, delete
    or replace a whole token); the rest are mid-token character surgery.
    Inserted material is drawn from the buffer's own token vocabulary, so a
    useful fraction of edited buffers still parse.
    """
    spans = _token_spans(text)
    if not spans:
        return Edit(0, 0, rng.choice((" ", "x", "0")))
    vocabulary = [text[s:e] for s, e in spans]
    op = rng.choice(("insert", "delete", "replace", "mid-insert", "mid-delete", "mid-replace"))
    start, end = spans[rng.randrange(len(spans))]
    if op == "insert":
        boundary = rng.choice((start, end))
        return Edit(boundary, 0, rng.choice(vocabulary))
    if op == "delete":
        return Edit(start, end - start, "")
    if op == "replace":
        return Edit(start, end - start, rng.choice(vocabulary))
    # Mid-token: offsets strictly inside a (multi-character) token when one
    # exists; degrade to boundary edits otherwise.
    offset = rng.randint(start, max(start, end - 1))
    if op == "mid-insert":
        return Edit(offset, 0, rng.choice(vocabulary)[:1] or "x")
    removed = min(rng.randint(1, 2), len(text) - offset)
    if removed <= 0:
        return Edit(offset, 0, "x")
    if op == "mid-delete":
        return Edit(offset, removed, "")
    return Edit(offset, removed, rng.choice(vocabulary)[: rng.randint(1, 2)] or "x")


def edit_script(text: str, rng, count: int) -> list[Edit]:
    """A deterministic ``count``-edit script over an evolving buffer.

    Each edit's offsets refer to the buffer state after all previous edits
    (apply them in order with :meth:`Edit.apply`).  This is the workload
    the ``edits`` differential-fuzz mode replays against cold parses.
    """
    edits: list[Edit] = []
    current = text
    for _ in range(count):
        edit = random_edit(current, rng)
        edits.append(edit)
        current = edit.apply(current)
    return edits


def apply_script(text: str, edits: list[Edit]) -> str:
    """The buffer after applying ``edits`` in order."""
    for edit in edits:
        text = edit.apply(text)
    return text


def corpus_texts(
    *,
    root: Path | str = CORPUS_DIR,
    limit: int | None = None,
    max_chars: int | None = None,
) -> list[tuple[str, str]]:
    """``(name, layouted_text)`` for parseable real-Python corpus files.

    Allowlisted files (known not to parse) and layout failures are skipped:
    edit workloads need buffers whose *initial* state parses.  ``limit``
    caps the file count, ``max_chars`` the per-file size — benchmarks use
    both to keep run time bounded.
    """
    files, _ = load_corpus(root)
    texts: list[tuple[str, str]] = []
    for cf in files:
        if cf.name in ALLOWLIST:
            continue
        try:
            layouted = python_layout(cf.text)
        except LayoutError:
            continue
        if max_chars is not None and len(layouted) > max_chars:
            continue
        texts.append((cf.name, layouted))
        if limit is not None and len(texts) >= limit:
            break
    return texts
