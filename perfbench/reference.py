"""Reference outcomes: tree digests and reject offsets, keyed by input text.

``expected.json`` holds, for every input in the universe of ``inputs.py``,
the outcome of the packrat interpreter over ``Options.none()``: a digest of
the accepted tree, or the offset of the reject.  That reference shares no
code with the optimizer, code generator or VM the benchmark times.
``make_expected.py`` rebuilds the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def key(text: str) -> str:
    """The lookup key of one input text."""
    return hashlib.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=10).hexdigest()


def digest(value) -> str:
    """A structural digest of a parse result.

    Node names, child order, list contents and leaf values count; source
    locations and list-versus-tuple do not, as in
    ``repro.runtime.node.structural_diff``.
    """
    from repro import GNode

    out = []
    stack = [value]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is GNode:
            out.append(f"({item.name}:{len(item.children)}")
            stack.extend(reversed(item.children))
        elif kind is list or kind is tuple:
            out.append(f"[{len(item)}")
            stack.extend(reversed(item))
        elif kind is str:
            out.append(repr(item))
        elif item is None:
            out.append("~")
        else:
            out.append(f"{kind.__name__}:{item!r}")
    return hashlib.blake2b("\x00".join(out).encode("utf-8", "surrogatepass"), digest_size=12).hexdigest()


def outcome(parse, text: str) -> list:
    """``[1, digest]`` if ``parse(text)`` accepts, ``[0, offset]`` if it rejects."""
    from repro.errors import ParseError

    try:
        value = parse(text)
    except ParseError as error:
        return [0, error.offset]
    return [1, digest(value)]


def load() -> dict[str, list]:
    return json.loads(EXPECTED.read_text())["entries"]


class StaleReference(LookupError):
    """An input has no reference outcome: the corpus, the layout pre-pass or
    the input generator changed since ``expected.json`` was made."""


def lookup(entries: dict[str, list], text: str, what: str) -> list:
    try:
        return entries[key(text)]
    except KeyError:
        raise StaleReference(f"no reference outcome for {what}; rerun perfbench/make_expected.py") from None
