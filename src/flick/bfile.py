"""OEIS b-file serialization: one "index value" pair per line, no header."""

from __future__ import annotations

__all__ = ["format_bfile", "parse_bfile"]


def format_bfile(values: list[int], offset: int) -> str:
    """Render a sequence as b-file text; indices start at `offset`."""
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


def parse_bfile(text: str) -> tuple[int, list[int]]:
    """Parse b-file text back into (offset, values).

    Indices must be consecutive; blank lines and '#' comment lines are
    tolerated on input even though we never emit them.
    """
    offset: int | None = None
    values: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {raw!r}")
        index, value = int(fields[0]), int(fields[1])
        if offset is None:
            offset = index
        elif index != offset + len(values):
            raise ValueError(f"line {lineno}: non-consecutive index {index}")
        values.append(value)
    if offset is None:
        raise ValueError("empty b-file")
    return offset, values
