"""Incremental reparsing: memo-table reuse across edits.

An :class:`IncrementalSession` (built by :meth:`repro.Language.incremental`)
keeps one parser, one memo table and one line index alive across a sequence
of text edits.  :meth:`~IncrementalSession.apply_edit` translates an edit —
*replace* ``removed`` characters at ``offset`` with an inserted string —
into memo-table surgery instead of a cold start:

- entries whose **examined span** overlaps the damaged range are dropped
  (:meth:`~repro.runtime.memo.IncrementalMemoTable.drop_range`);
- entries entirely right of the damage are shifted by the length delta
  (:meth:`~repro.runtime.memo.IncrementalMemoTable.shift_from`) — pure
  column motion, since entries store relative spans; attached source
  locations move with them;
- everything else — typically the vast majority — is *retained* and served
  as memo hits by the next :meth:`~IncrementalSession.parse`.

The soundness of retention rests on the **examined watermark**: the
parsing machine's incremental variant (a :class:`repro.vm.VMParser` over
``Language.vm_program(incremental=True)``) records, per memo entry, the
exclusive end of the input span its computation *read* — consumed
characters, lookahead-probe spans (``&``/``!``), single-character
dispatch reads, and failed expectations alike.  An entry is reusable after an edit exactly when that
span misses the damage; fused ``Regex`` regions, whose single C scan can
examine unboundedly far past its match end, are compiled back to their
original expressions in incremental programs so the watermark stays tight.
See ``docs/incremental.md`` for the algorithm and invariant.

Failure fidelity: a served memo hit does not replay the expected-set
records its original computation made, so a *warm* reject may stop short
of the cold farthest-failure frontier.  The watermark is pushed past
every failure the machine records, so **every failure record of a
memoized computation lies inside its examined span**.  After a warm reject
at farthest offset ``F`` the session therefore runs a second warm pass in
which a hit is served only if its examined end is ``<= F``; a hit
examined past ``F`` — the only kind that can hide a record at or beyond
``F`` — is re-derived, at most once per pass.  Every computation that
records at or past ``F`` then runs where a cold parse runs it, so the
error is bit-identical to a from-scratch parse: offset and the ordered
expected tuple.  The once-per-pass key set matters: a re-derived entry
still examines past ``F``, and without the set each later call would
re-derive it again.

Per-entry failure records (store each entry's frontier contribution and
merge it on every hit) would give the same exactness, but in a prototype
saving and merging the frontier at every call made cold incremental
parses 40–60% slower, and they widen every memo entry; the examined spans
already kept for invalidation bound the second pass instead.

:attr:`~IncrementalSession.last_parse_recovered` flags a second pass that
*accepts* where the first rejected: an entry examined past ``F`` survived
an edit it depended on (the differential edit oracle asserts it never
fires).  A stale entry examined only up to ``F`` is served by both passes
and shows up in the oracle as a warm/cold verdict mismatch instead.

:class:`StreamFeeder` is the streaming half: it frames a chunked character
stream into newline-delimited documents and (optionally) parses each one as
it completes, which is how ``repro-serve --streaming`` consumes NDJSON and
log streams chunk-by-chunk (:mod:`repro.serve.wire`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ParseDepthError, ParseError
from repro.locations import LineIndex, Location
from repro.runtime.memo import NO_FRONTIER
from repro.runtime.node import GNode
from repro.vm import VMParser


@dataclass(frozen=True)
class EditStats:
    """What one :meth:`IncrementalSession.apply_edit` did to the memo table."""

    offset: int
    removed: int
    inserted: int
    #: Entries whose examined span overlapped the damage (invalidated).
    dropped: int
    #: Entries right of the damage, relocated by the length delta.
    shifted: int
    #: Entries surviving the edit (shifted ones included).
    retained: int


class IncrementalSession:
    """One text buffer, edited in place and reparsed with memo reuse.

    Build via :meth:`repro.Language.incremental`; see the module docstring
    for the reuse algorithm.  Not thread-safe — one session, one buffer,
    one caller.
    """

    def __init__(
        self,
        language,
        start: str | None = None,
        profile: Any = None,
        depth_budget: int | None = None,
    ):
        self._start = start or language.grammar.start
        self._profile = profile
        self._text = ""
        self._source = "<input>"
        self._index = LineIndex("")
        self._recovered = False
        grammar = language.prepared.grammar
        self._with_location = "withLocation" in grammar.options or any(
            production.has("withLocation") for production in grammar
        )
        program = language.vm_program(incremental=True)
        self._parser = VMParser(program, depth_budget=depth_budget)
        self._memo = self._parser._memo

    def _rebind(self) -> None:
        self._parser.rebind(self._text, self._index, source=self._source)

    # -- the buffer -----------------------------------------------------------

    @property
    def text(self) -> str:
        """The session's current buffer contents."""
        return self._text

    @property
    def line_index(self) -> LineIndex:
        """The incrementally maintained line index over :attr:`text`."""
        return self._index

    @property
    def last_parse_recovered(self) -> bool:
        """Did the last :meth:`parse` accept only in its second pass?

        Always False in a correct build: both passes serve memo entries
        that are valid for the text, so they reach the same verdict.  A
        second-pass accept means an entry examined past the reject frontier
        survived an edit it depended on.  The differential edit oracle
        asserts this never fires (a stale entry inside the frontier shows
        up there as a warm/cold verdict mismatch instead)."""
        return self._recovered

    def memo_entry_count(self) -> int:
        """Memo entries currently stored (retained + rebuilt)."""
        return self._memo.entry_count()

    def set_text(self, text: str, source: str = "<input>") -> "IncrementalSession":
        """Replace the whole buffer, discarding all memoized state."""
        self._text = text
        self._source = source
        self._index = LineIndex(text)
        self._memo.resize(len(text))
        self._rebind()
        return self

    def apply_edit(self, offset: int, removed: int, inserted: str) -> EditStats:
        """Replace ``removed`` characters at ``offset`` with ``inserted``.

        Updates the buffer, splices the line index, drops memo entries whose
        examined span overlaps the damaged range ``[offset, offset+removed)``,
        and shifts the survivors right of it by the length delta (relocating
        any source locations attached to their values).  The next
        :meth:`parse` serves everything retained as memo hits.
        """
        old = self._text
        if not 0 <= offset <= len(old):
            raise ValueError(f"edit offset {offset} outside text of length {len(old)}")
        if removed < 0 or offset + removed > len(old):
            raise ValueError(f"edit removes [{offset}, {offset + removed}) beyond the text")
        hi = offset + removed
        removed_text = old[offset:hi]
        new = old[:offset] + inserted + old[hi:]
        delta = len(inserted) - removed

        old_index = self._index.clone()
        self._index.splice(new, offset, removed, len(inserted))
        self._text = new

        relocate = None
        if self._with_location and not _preserves_locations(delta, removed_text, inserted):
            relocate = _location_relocator(old_index, self._index, hi, delta)

        memo = self._memo
        dropped = memo.drop_range(offset, hi)
        shifted = memo.shift_from(hi, delta, on_value=relocate)
        retained = memo.entry_count()
        self._rebind()
        if self._profile is not None:
            self._profile.record_edit(retained, dropped, shifted)
        return EditStats(
            offset=offset,
            removed=removed,
            inserted=len(inserted),
            dropped=dropped,
            shifted=shifted,
            retained=retained,
        )

    def feed(self, chunk: str) -> "IncrementalSession":
        """Append ``chunk`` to the buffer (a pure-insertion edit at the end).

        Appending damages nothing behind it: only entries that probed the
        old end of input are dropped, so growing a stream and reparsing
        costs work proportional to the new tail, not the buffer.
        """
        self.apply_edit(len(self._text), 0, chunk)
        return self

    # -- parsing --------------------------------------------------------------

    def parse(self) -> Any:
        """Parse the current buffer, serving surviving memo entries.

        Raises :class:`~repro.errors.ParseError` on failure with exactly the
        error a cold parse reports: a warm reject is followed by a second
        pass bounded by its farthest offset (see the module docstring).
        That guarantee covers rejects, not depth errors: served hits push
        no frames, so a warm parse may fit a ``depth_budget`` a cold parse
        exceeds, or exceed it elsewhere.  A
        :class:`~repro.errors.ParseDepthError` is raised at once: the
        second pass serves fewer hits, so it would need at least as much
        stack and fail again.
        """
        self._recovered = False
        parser = self._parser
        try:
            value = parser.parse(self._start)
        except ParseDepthError:
            self._count_parse(False)
            raise
        except ParseError as warm_error:
            # Served hits do not replay their failure records, so the cold
            # frontier may lie past this one.  Rerun, re-deriving every hit
            # that examined past it: those are the only ones that can hide a
            # record there.
            self._rebind()
            parser._frontier = warm_error.offset
            try:
                value = parser.parse(self._start)
            except ParseError:
                self._count_parse(False)
                raise
            finally:
                parser._frontier = NO_FRONTIER
            self._recovered = True
            self._count_parse(True)
            return value
        self._count_parse(True)
        return value

    def _count_parse(self, accepted: bool) -> None:
        if self._profile is not None:
            self._profile.count_parse(self._text, accepted=accepted)

    def close(self) -> None:
        """Release the memo table's entries (the session stays usable)."""
        self._memo.reset()
        self._rebind()

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _preserves_locations(delta: int, removed_text: str, inserted: str) -> bool:
    """Is the location mapping across this edit the identity?

    True when the edit neither changes the text length nor touches any line
    break: every retained location's (line, column) is then unchanged, and
    the relocation walk can be skipped entirely (the common case for
    editor-style replacements, e.g. renaming an identifier in place).
    ``\\r`` counts as a break character even mid-``\\r\\n``: removing or
    inserting either half re-tokenizes the terminator.
    """
    if delta != 0:
        return False
    for chunk in (removed_text, inserted):
        if "\n" in chunk or "\r" in chunk:
            return False
    return True


def _location_relocator(
    old_index: LineIndex, new_index: LineIndex, hi: int, delta: int
) -> Callable[[Any], None]:
    """A per-value walker that rewrites stale :class:`Location` objects.

    Called by ``shift_from`` on each relocated memo entry's value.  Every
    node inside such a value starts at an old offset >= ``hi`` (the damage
    end), so its new offset is exactly ``old + delta``; the walker maps the
    stale (line, column) back to the old offset via the pre-splice index
    snapshot and forward to the new pair via the post-splice index.  Both
    lookups are O(log lines) binary searches — no text rescan.

    Relocation mutates nodes in place (locations move, identity is shared
    with any previously returned tree — the tree-sitter tradeoff), and it
    is not idempotent, so one ``visited`` identity set per edit guards
    values that share memoized substructure.
    """
    visited: set[int] = set()

    def relocate(value: Any) -> None:
        stack = [value]
        while stack:
            node = stack.pop()
            if isinstance(node, GNode):
                if id(node) in visited:
                    continue
                visited.add(id(node))
                location = node.location
                if location is not None:
                    old_offset = old_index.offset_of(location.line, location.column)
                    if old_offset >= hi:
                        line, column = new_index.line_column(old_offset + delta)
                        node.location = Location(location.source, line, column)
                stack.extend(node.children)
            elif isinstance(node, (tuple, list)):
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.extend(node)

    return relocate


# -- streaming ----------------------------------------------------------------


@dataclass(frozen=True)
class FeedRecord:
    """One newline-framed document completed by a :class:`StreamFeeder`.

    ``value``/``error`` are populated only when the feeder was built with a
    parse callable; framing-only feeders (``repro-serve`` submits documents
    to its own worker queue) leave both None.
    """

    index: int
    text: str
    value: Any = None
    error: ParseError | None = None


class StreamFeeder:
    """Frame a chunked character stream into newline-delimited documents.

    ``feed(chunk)`` buffers arbitrary chunk boundaries (a document may span
    many chunks; a chunk may complete many documents) and returns a
    :class:`FeedRecord` per *completed* document, in order; ``end()``
    flushes the unterminated tail.  Documents are 1-indexed per stream —
    ``repro-serve`` uses ``<stream>:<index>`` result ids.  Blank documents
    (empty lines) are skipped, matching the NDJSON wire's blank-line rule.
    A trailing ``\\r`` is stripped, so CRLF-framed streams work unchanged.
    """

    def __init__(self, parse: Callable[[str], Any] | None = None):
        self._parse = parse
        # The unterminated tail, in chunk-sized parts: joined once, when its
        # newline arrives, so a long line fed in small chunks stays linear.
        self._parts: list[str] = []
        self._count = 0
        self._ended = False

    @property
    def pending(self) -> str:
        """The buffered, not-yet-terminated tail."""
        return "".join(self._parts)

    @property
    def count(self) -> int:
        """Documents completed so far."""
        return self._count

    def feed(self, chunk: str) -> list[FeedRecord]:
        """Buffer ``chunk``; return records for every document it completes."""
        if self._ended:
            raise ValueError("stream already ended")
        records: list[FeedRecord] = []
        *lines, tail = chunk.split("\n")
        if lines:
            self._parts.append(lines[0])
            lines[0] = "".join(self._parts)
            self._parts.clear()
            for line in lines:
                self._emit(line, records)
        if tail:
            self._parts.append(tail)
        return records

    def end(self) -> list[FeedRecord]:
        """Flush the unterminated tail (if any) and seal the stream."""
        if self._ended:
            return []
        self._ended = True
        records: list[FeedRecord] = []
        self._emit(self.pending, records)
        self._parts.clear()
        return records

    def _emit(self, line: str, records: list[FeedRecord]) -> None:
        if line.endswith("\r"):
            line = line[:-1]
        if not line.strip():
            return
        self._count += 1
        if self._parse is None:
            records.append(FeedRecord(index=self._count, text=line))
            return
        try:
            value = self._parse(line)
        except ParseError as error:
            records.append(FeedRecord(index=self._count, text=line, error=error))
        else:
            records.append(FeedRecord(index=self._count, text=line, value=value))

    def __repr__(self) -> str:
        state = "ended" if self._ended else f"{len(self.pending)} buffered"
        return f"<StreamFeeder {self._count} documents, {state}>"
