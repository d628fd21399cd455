"""Memoization table organizations.

The paper's *chunks* optimization replaces the textbook packrat organization
(one hash-table entry per ⟨production, position⟩) with per-position *column*
objects whose memo fields are grouped into lazily allocated *chunk* objects.
A parse that touches a position allocates one column; only the chunks whose
productions are actually tried get allocated, and each memo access is two
attribute loads instead of a hash lookup of a tuple key.

Two interchangeable table implementations are provided so the effect can be
measured (experiment E3):

- :class:`DictMemoTable` — the textbook baseline: ``dict[(rule, pos)] → entry``
- :class:`ChunkedMemoTable` — columns of chunks, built for a specific list of
  production names partitioned ``chunk_size`` fields at a time.

Entries are ``(next_pos, value)`` pairs; failures store ``(-1, None)``.
Both tables present the same ``get(rule_index, pos)`` / ``put`` interface;
the production *index* (dense int) is assigned by the caller.  The
profilers count memo hits and misses where their engines already branch on
a lookup; the tables themselves carry no instrumentation.

A third organization, :class:`IncrementalMemoTable`, serves incremental
reparsing (``docs/incremental.md``): a position-indexed column list holding
*relative* entries, so that relocating the memo across a text edit is two
C-level list splices (``shift_from``) plus a damage-local invalidation scan
(``drop_range``) instead of a walk over every entry.
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.runtime.base import sizeof_deep

#: Number of memo fields per chunk.  Rats! groups ~10 fields per chunk; the
#: exact figure only shifts constants, and 8 keeps chunk objects small.
DEFAULT_CHUNK_SIZE = 8

_ABSENT = None  # absent entries are represented by None slots


class DictMemoTable:
    """Baseline packrat memo table: one dict keyed by (rule_index, pos)."""

    def __init__(self, rule_names: list[str], chunk_size: int = DEFAULT_CHUNK_SIZE):
        self._table: dict[tuple[int, int], tuple[int, Any]] = {}
        self.rule_names = list(rule_names)
        self._size_cache: tuple[int, int] | None = None  # (entry_count, bytes)

    def get(self, rule: int, pos: int) -> tuple[int, Any] | None:
        return self._table.get((rule, pos))

    def put(self, rule: int, pos: int, entry: tuple[int, Any]) -> None:
        self._table[(rule, pos)] = entry

    def clear(self) -> None:
        self._table.clear()
        self._size_cache = None

    def reset(self) -> "DictMemoTable":
        """Drop all entries in place, keeping the table object (and the
        dict's allocated capacity) for reuse across parses."""
        self._table.clear()
        self._size_cache = None
        return self

    def entry_count(self) -> int:
        return len(self._table)

    def size_bytes(self) -> int:
        # Deep-sizing is O(entries); cache keyed on the entry count, which
        # changes with every store (entries are never overwritten: packrat
        # memoization stores one result per ⟨rule, pos⟩).
        cached = self._size_cache
        count = len(self._table)
        if cached is not None and cached[0] == count:
            return cached[1]
        size = sizeof_deep(self._table)
        self._size_cache = (count, size)
        return size


class _Column:
    """Per-position holder of lazily allocated chunks."""

    __slots__ = ("chunks",)

    def __init__(self, n_chunks: int):
        self.chunks: list[list | None] = [None] * n_chunks


class ChunkedMemoTable:
    """Column/chunk memo organization (the paper's *chunks* optimization).

    Chunks are fixed-size lists here (Python's closest cheap analogue of a
    field group); a chunk is allocated the first time any of its rules is
    memoized at that position.
    """

    def __init__(self, rule_names: list[str], chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.rule_names = list(rule_names)
        self._chunk_size = chunk_size
        self._n_chunks = (len(rule_names) + chunk_size - 1) // chunk_size or 1
        self._columns: dict[int, _Column] = {}
        # Accounting is incremental (maintained by put/clear/reset), never a
        # full table scan: entry_count/chunk_count used to walk every column
        # on every call, which made per-parse measurement quadratic.
        self._entries = 0
        self._chunks = 0
        self._size_cache: tuple[int, int] | None = None  # (entry_count, bytes)

    def get(self, rule: int, pos: int) -> tuple[int, Any] | None:
        column = self._columns.get(pos)
        if column is None:
            return None
        chunk = column.chunks[rule // self._chunk_size]
        if chunk is None:
            return None
        return chunk[rule % self._chunk_size]

    def put(self, rule: int, pos: int, entry: tuple[int, Any]) -> None:
        column = self._columns.get(pos)
        if column is None:
            column = self._columns[pos] = _Column(self._n_chunks)
        index = rule // self._chunk_size
        chunk = column.chunks[index]
        if chunk is None:
            chunk = column.chunks[index] = [_ABSENT] * self._chunk_size
            self._chunks += 1
        slot = rule % self._chunk_size
        if chunk[slot] is None:
            self._entries += 1
        chunk[slot] = entry

    def clear(self) -> None:
        self._columns.clear()
        self._entries = 0
        self._chunks = 0
        self._size_cache = None

    def reset(self) -> "ChunkedMemoTable":
        """Drop all columns in place, keeping the table object and its
        chunk geometry for reuse across parses."""
        self.clear()
        return self

    def entry_count(self) -> int:
        return self._entries

    def chunk_count(self) -> int:
        """Number of allocated chunk objects (the paper's space metric)."""
        return self._chunks

    def column_count(self) -> int:
        return len(self._columns)

    def size_bytes(self) -> int:
        # Cached per entry count; every store adds an entry (one result per
        # ⟨rule, pos⟩), so a changed table always has a changed count.
        cached = self._size_cache
        if cached is not None and cached[0] == self._entries:
            return cached[1]
        size = sizeof_deep(self._columns)
        self._size_cache = (self._entries, size)
        return size


#: Relative examined spans are summarized per column in one byte; spans of
#: ``_SPAN_CAP`` or more are additionally tracked in an exact side set.
_SPAN_CAP = 255

#: The frontier of an ordinary incremental pass: every retained entry is
#: served.  A second pass after a warm reject lowers it to the reject's
#: farthest offset (see :meth:`repro.incremental.IncrementalSession.parse`).
#: The largest one-digit CPython int, so the per-hit comparison stays on
#: the interpreter's fast int path; it exceeds the examined end of any
#: realistic buffer, and past it a hit is only re-derived, never wrong.
NO_FRONTIER = (1 << 30) - 1


class IncrementalMemoTable:
    """Position-indexed memo table for incremental reparsing.

    Entries are *relative*: ``((span, value), rel_examined)`` where
    ``span = next_pos - pos`` (``-1`` marks a failure) and ``rel_examined =
    examined - pos`` is the exclusive width of the region of text the
    memoized parse read, lookahead and failure probes included.  Because
    nothing inside an entry mentions an absolute position, relocating the
    table across an edit (``shift_from``) is a pair of C-level list splices
    — tree-sitter's relative-offset trick applied to packrat columns —
    rather than a rewrite of every entry.

    Storage is one flat list slot per ⟨position, rule⟩: ``_cols[pos]`` is
    ``None`` until the first store at ``pos``, then a ``len(rule_names)``
    list.  Two per-column summaries keep ``drop_range`` damage-local:

    - ``_relb[pos]`` — a byte holding the column's maximum relative
      examined span, capped at ``_SPAN_CAP``;
    - ``_long`` — the (small) set of positions whose true maximum reaches
      the cap, checked exactly.

    An edit at ``lo`` therefore only inspects the damaged columns plus the
    ≤254-column spine window left of ``lo`` whose summary byte proves an
    entry *might* reach the damage, plus the handful of ``_long`` columns.

    One deliberate conservatism: a pure deletion at ``lo`` also drops
    zero-width entries *at* ``lo`` along with the damaged interior (the
    column is spliced away).  Dropping a reusable entry only costs a
    re-derivation; retention is what must be — and is — exact.
    """

    def __init__(self, rule_names: list[str]):
        self.rule_names = list(rule_names)
        self._width = len(rule_names)
        self._cols: list[list | None] = [None]
        self._relb = bytearray(1)
        self._cnt = array("H", (0,))
        self._long: set[int] = set()
        self._entries = 0

    def resize(self, length: int) -> "IncrementalMemoTable":
        """Reset the table for a text of ``length`` characters (columns for
        every position including the end-of-input position)."""
        n = length + 1
        self._cols = [None] * n
        self._relb = bytearray(n)
        self._cnt = array("H", bytes(2 * n))
        self._long.clear()
        self._entries = 0
        return self

    def reset(self) -> "IncrementalMemoTable":
        """Drop all entries in place, keeping the current geometry."""
        return self.resize(len(self._cols) - 1)

    def get(self, rule: int, pos: int):
        col = self._cols[pos]
        return col[rule] if col is not None else None

    def put(self, rule: int, pos: int, entry) -> None:
        col = self._cols[pos]
        if col is None:
            col = self._cols[pos] = [None] * self._width
        if col[rule] is None:
            self._entries += 1
            self._cnt[pos] += 1
        col[rule] = entry
        rel = entry[1]
        if rel >= _SPAN_CAP:
            self._long.add(pos)
            self._relb[pos] = _SPAN_CAP
        elif rel > self._relb[pos]:
            self._relb[pos] = rel

    # -- incremental reparsing (see docs/incremental.md) ----------------------

    def drop_range(self, lo: int, hi: int) -> int:
        """Invalidate entries whose examined span overlaps the damaged
        region ``[lo, hi)`` of the old text.  An entry at ``p`` with
        relative examined span ``r`` survives iff ``p + r <= lo`` (it never
        read damaged text) or ``p >= hi`` (it starts after the damage and is
        relocated by :meth:`shift_from`).  Returns the number dropped."""
        cols = self._cols
        relb = self._relb
        dropped = 0
        # Damaged interior: everything goes except zero-width entries at lo.
        for p in range(lo, min(hi, len(cols))):
            col = cols[p]
            if col is None:
                continue
            if p > lo or relb[p] > 0:
                dropped += self._drop_crossing(p, lo)
        # Spine: columns left of lo whose summary byte admits an entry
        # reaching past lo, plus the exact long-span set.
        window = max(0, lo - (_SPAN_CAP - 1))
        for p in range(window, lo):
            if relb[p] > lo - p:
                dropped += self._drop_crossing(p, lo)
        if self._long:
            for p in [q for q in self._long if q < window]:
                dropped += self._drop_crossing(p, lo)
        self._entries -= dropped
        return dropped

    def _drop_crossing(self, p: int, lo: int) -> int:
        """Null every entry in column ``p`` whose examined end exceeds
        ``lo``; re-tighten the column's span summary.  Returns the count."""
        col = self._cols[p]
        if col is None:
            return 0
        threshold = lo - p
        dropped = 0
        best = 0
        for i, entry in enumerate(col):
            if entry is None:
                continue
            rel = entry[1]
            if rel > threshold:
                col[i] = None
                dropped += 1
            elif rel > best:
                best = rel
        if dropped:
            self._cnt[p] -= dropped
            if best >= _SPAN_CAP:
                self._relb[p] = _SPAN_CAP
            else:
                self._relb[p] = best
                self._long.discard(p)
            if self._cnt[p] == 0:
                self._cols[p] = None
        return dropped

    def shift_from(self, pos: int, delta: int, on_value=None) -> int:
        """Relocate every column at a position ``>= pos`` by ``delta``
        characters.  With relative entries this is pure column motion: a
        list splice inserting ``delta`` empty columns (insertion) or
        deleting the ``-delta`` columns left of ``pos`` (deletion); no entry
        is rewritten.  ``on_value`` (if given) is called once per relocated
        success value so callers can patch position-bearing payloads (e.g.
        source locations).  Returns the number of entries relocated."""
        cols = self._cols
        cnt = self._cnt
        if delta > 0:
            cols[pos:pos] = [None] * delta
            self._relb[pos:pos] = bytes(delta)
            cnt[pos:pos] = array("H", bytes(2 * delta))
        elif delta < 0:
            lost = sum(cnt[pos + delta : pos])
            if lost:
                self._entries -= lost
            del cols[pos + delta : pos]
            del self._relb[pos + delta : pos]
            del cnt[pos + delta : pos]
        if self._long:
            cut = pos + delta if delta < 0 else pos
            self._long = {
                q + delta if q >= pos else q
                for q in self._long
                if q < cut or q >= pos
            }
        start = pos + delta if delta < 0 else pos
        shifted = sum(cnt[start:]) if delta else 0
        if on_value is not None:
            for col in cols[start:]:
                if col is None:
                    continue
                for entry in col:
                    if entry is not None and entry[0][0] >= 0:
                        on_value(entry[0][1])
        return shifted

    def entry_count(self) -> int:
        return self._entries

    def column_count(self) -> int:
        return sum(1 for col in self._cols if col is not None)

    def size_bytes(self) -> int:
        return sizeof_deep(self._cols) + sizeof_deep(self._relb) + sizeof_deep(
            self._cnt
        )


def make_memo_table(
    rule_names: list[str], chunked: bool, chunk_size: int = DEFAULT_CHUNK_SIZE
):
    """Factory selecting the table organization for a parser run."""
    cls = ChunkedMemoTable if chunked else DictMemoTable
    return cls(rule_names, chunk_size)
