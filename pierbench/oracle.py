"""Independent reference answers, computed with stdlib ``sqlite3``.

The benchmark keeps its own copy of every row it hands the program and
asks sqlite for the expected answer to every operation.  An answer is
classed as:

* ``ok`` -- equal to the reference (as a multiset of rows; aggregate
  values exactly, top-k tie-tolerant),
* ``incomplete`` -- every returned row is consistent with the reference
  but some are missing or some aggregates are short (what a query whose
  contributions missed the proxy's deadline looks like: PIER answers
  with whatever arrived by its timeout),
* ``wrong`` -- some returned row or value contradicts the reference.

``incomplete`` counts as a failed operation; ``wrong`` additionally makes
the run incorrect.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

OK = "ok"
INCOMPLETE = "incomplete"
WRONG = "wrong"


class Reference:
    """An in-memory sqlite database mirroring the benchmark's inputs."""

    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:")
        self._columns: Dict[str, List[str]] = {}

    def create(self, table: str, columns: Sequence[str]) -> None:
        self._columns[table] = list(columns)
        self.db.execute(f"CREATE TABLE {table} ({', '.join(columns)})")

    def insert(self, table: str, rows: Iterable[Mapping[str, Any]]) -> None:
        columns = self._columns[table]
        marks = ", ".join("?" for _ in columns)
        self.db.executemany(
            f"INSERT INTO {table} VALUES ({marks})",
            ([row[column] for column in columns] for row in rows),
        )

    def rows(self, sql: str, params: Sequence[Any] = ()) -> List[tuple]:
        return list(self.db.execute(sql, params))


def check_rows(got: Iterable[Mapping[str, Any]], columns: Sequence[str], expected: Iterable[tuple]) -> str:
    """Compare an unordered row result with the reference multiset."""
    got_rows = Counter(tuple(row.get(column) for column in columns) for row in got)
    want = Counter(tuple(row) for row in expected)
    if got_rows == want:
        return OK
    if not got_rows - want:
        return INCOMPLETE
    return WRONG


def check_groups(
    got: Sequence[Mapping[str, Any]],
    keys: Sequence[str],
    values: Sequence[str],
    expected: Iterable[tuple],
    top_k: Optional[int] = None,
) -> str:
    """Compare a GROUP BY answer with the reference.

    ``expected`` rows are ``(*keys, *values)``.  Aggregates are COUNT and
    SUM over non-negative integers, so a group that lost contributions
    reads *lower* than the reference, never higher.  With ``top_k`` the
    answer is the first ``top_k`` groups ordered by the first value,
    descending; groups tied at the cut-off are interchangeable.
    """
    reference = {tuple(row[: len(keys)]): tuple(row[len(keys):]) for row in expected}
    answer: Dict[tuple, tuple] = {}
    for row in got:
        key = tuple(row.get(column) for column in keys)
        if key in answer:
            return WRONG  # a group reported twice
        answer[key] = tuple(row.get(column) for column in values)
    for key, value in answer.items():
        want = reference.get(key)
        if want is None or any(
            not isinstance(v, int) or v > w for v, w in zip(value, want)
        ):
            return WRONG
    if top_k is not None:
        ordered = [value[0] for value in answer.values()]  # in answer order
        if ordered != sorted(ordered, reverse=True) or len(answer) > top_k:
            return WRONG
        best = sorted((value[0] for value in reference.values()), reverse=True)[:top_k]
        exact = all(answer[key] == reference[key] for key in answer)
        return OK if exact and ordered == best else INCOMPLETE
    if answer == reference:
        return OK
    return INCOMPLETE
