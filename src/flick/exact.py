"""Exact integer division and the grow-on-demand row table shared across
modules.

Every identity in this package is supposed to hold in plain integers.  A
division that leaves a remainder therefore never means "round it" -- it means
a formula was transcribed wrong or an extraction index is off, and we want a
loud failure at the exact spot.
"""

from __future__ import annotations

import threading
from typing import Callable


class InexactDivisionError(ArithmeticError):
    """An integer division that must be exact left a remainder."""


def exact_div(a: int, b: int) -> int:
    """Return a // b, raising InexactDivisionError unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError(f"{a} is not divisible by {b}")
    return q


class _StepTable:
    """Rows 0, 1, 2, ... of a table grown on demand by row_{i+1} = step(row_i),
    starting from row_0 = step([]).

    Extension is serialized by a lock; rows are only ever appended, so reads
    of already-filled rows are safe to run concurrently.
    """

    def __init__(self, step: Callable[[list[int]], list[int]]) -> None:
        self._step = step
        self._rows: list[list[int]] = []
        self._lock = threading.Lock()

    def row(self, i: int) -> list[int]:
        """Row i (i >= 0), shared with the table: callers must not mutate it."""
        rows = self._rows
        if i >= len(rows):
            with self._lock:
                while len(rows) <= i:
                    rows.append(self._step(rows[-1] if rows else []))
        elif i < 0:
            raise ValueError(f"row index must be >= 0, got {i}")
        return rows[i]
