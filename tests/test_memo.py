"""Unit tests for the memo-table organizations."""

import pytest

from repro.runtime.memo import ChunkedMemoTable, DictMemoTable, make_memo_table

RULES = [f"R{i}" for i in range(20)]


@pytest.mark.parametrize("table_cls", [DictMemoTable, ChunkedMemoTable])
class TestCommonBehavior:
    def test_miss_then_hit(self, table_cls):
        table = table_cls(RULES)
        assert table.get(3, 100) is None
        table.put(3, 100, (105, "value"))
        assert table.get(3, 100) == (105, "value")

    def test_rules_independent(self, table_cls):
        table = table_cls(RULES)
        table.put(0, 5, (6, "a"))
        assert table.get(1, 5) is None
        assert table.get(0, 6) is None

    def test_failure_entries(self, table_cls):
        table = table_cls(RULES)
        table.put(2, 0, (-1, None))
        assert table.get(2, 0) == (-1, None)

    def test_entry_count(self, table_cls):
        table = table_cls(RULES)
        for rule in range(10):
            for pos in range(7):
                table.put(rule, pos, (pos + 1, None))
        assert table.entry_count() == 70

    def test_clear(self, table_cls):
        table = table_cls(RULES)
        table.put(1, 1, (2, "x"))
        table.clear()
        assert table.get(1, 1) is None
        assert table.entry_count() == 0

    def test_size_bytes_grows(self, table_cls):
        table = table_cls(RULES)
        empty = table.size_bytes()
        for pos in range(50):
            table.put(0, pos, (pos + 1, "payload"))
        assert table.size_bytes() > empty

    def test_overwrite(self, table_cls):
        table = table_cls(RULES)
        table.put(0, 0, (1, "a"))
        table.put(0, 0, (2, "b"))
        assert table.get(0, 0) == (2, "b")
        assert table.entry_count() == 1

    def test_reset_returns_same_table(self, table_cls):
        table = table_cls(RULES)
        table.put(1, 1, (2, "x"))
        assert table.reset() is table
        assert table.get(1, 1) is None
        assert table.entry_count() == 0

    def test_reset_then_reuse(self, table_cls):
        table = table_cls(RULES)
        for pos in range(10):
            table.put(0, pos, (pos + 1, "first"))
        table.reset()
        table.put(0, 3, (4, "second"))
        assert table.get(0, 3) == (4, "second")
        assert table.entry_count() == 1
        # stale entries from before the reset never resurface
        assert table.get(0, 4) is None


class TestChunkedSpecifics:
    def test_chunks_allocated_lazily(self):
        table = ChunkedMemoTable(RULES, chunk_size=8)
        table.put(0, 0, (1, None))  # chunk 0 at column 0
        assert table.chunk_count() == 1
        table.put(1, 0, (1, None))  # same chunk
        assert table.chunk_count() == 1
        table.put(8, 0, (1, None))  # chunk 1, same column
        assert table.chunk_count() == 2
        table.put(0, 9, (10, None))  # new column
        assert table.chunk_count() == 3
        assert table.column_count() == 2

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            ChunkedMemoTable(RULES, chunk_size=0)

    def test_single_rule_grammar(self):
        table = ChunkedMemoTable(["Only"])
        table.put(0, 0, (1, "v"))
        assert table.get(0, 0) == (1, "v")

    def test_chunk_size_larger_than_rule_count(self):
        # 3 rules, chunks of 64: one chunk per column, indices still correct.
        table = ChunkedMemoTable(["A", "B", "C"], chunk_size=64)
        for rule in range(3):
            table.put(rule, 7, (8, f"r{rule}"))
        assert [table.get(rule, 7) for rule in range(3)] == [
            (8, "r0"), (8, "r1"), (8, "r2")
        ]
        assert table.chunk_count() == 1
        assert table.column_count() == 1

    def test_reset_keeps_chunk_geometry(self):
        table = ChunkedMemoTable(RULES, chunk_size=4)
        table.put(13, 5, (6, "v"))
        table.reset()
        assert table.column_count() == 0
        table.put(13, 5, (6, "w"))
        assert table.get(13, 5) == (6, "w")
        assert table.chunk_count() == 1


def test_factory():
    assert isinstance(make_memo_table(RULES, chunked=True), ChunkedMemoTable)
    assert isinstance(make_memo_table(RULES, chunked=False), DictMemoTable)


@pytest.mark.parametrize("table_cls", [DictMemoTable, ChunkedMemoTable])
class TestSizeAccounting:
    """entry_count/size_bytes are incremental + cached, never stale."""

    def test_size_bytes_stable_between_mutations(self, table_cls):
        table = table_cls(RULES)
        for pos in range(20):
            table.put(2, pos, (pos + 1, "v"))
        assert table.size_bytes() == table.size_bytes()

    def test_size_bytes_not_stale_after_reset(self, table_cls):
        # Regression: the size cache must be invalidated by reset()/clear(),
        # not keep reporting the pre-reset footprint.
        table = table_cls(RULES)
        empty = table.size_bytes()
        for pos in range(50):
            table.put(0, pos, (pos + 1, "payload"))
        full = table.size_bytes()
        assert full > empty
        table.reset()
        assert table.entry_count() == 0
        assert table.size_bytes() < full

    def test_size_bytes_tracks_refill_after_reset(self, table_cls):
        table = table_cls(RULES)
        for pos in range(50):
            table.put(0, pos, (pos + 1, "payload"))
        full = table.size_bytes()
        table.reset()
        table.put(0, 0, (1, "payload"))
        assert table.entry_count() == 1
        assert table.size_bytes() < full

    def test_clear_resets_counts(self, table_cls):
        table = table_cls(RULES)
        for rule in range(5):
            table.put(rule, 3, (4, None))
        table.clear()
        assert table.entry_count() == 0
        table.put(1, 1, (2, None))
        assert table.entry_count() == 1


class TestChunkedIncrementalCounts:
    def test_counts_match_scan(self):
        # The incremental _entries/_chunks bookkeeping must agree with what a
        # full walk of the columns would find.
        table = ChunkedMemoTable(RULES, chunk_size=4)
        for rule in (0, 3, 4, 19):
            for pos in (0, 7, 7, 100):  # includes an overwrite
                table.put(rule, pos, (pos + 1, None))
        entries = chunks = 0
        for column in table._columns.values():
            for chunk in column.chunks:
                if chunk is not None:
                    chunks += 1
                    entries += sum(1 for slot in chunk if slot is not None)
        assert table.entry_count() == entries
        assert table.chunk_count() == chunks

    def test_chunk_count_not_stale_after_reset(self):
        table = ChunkedMemoTable(RULES, chunk_size=4)
        table.put(0, 0, (1, None))
        table.put(9, 0, (1, None))
        assert table.chunk_count() == 2
        table.reset()
        assert table.chunk_count() == 0
        table.put(0, 0, (1, None))
        assert table.chunk_count() == 1

