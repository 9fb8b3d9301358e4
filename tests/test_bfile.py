from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flick.bfile import format_bfile, parse_bfile
from flick.cli import _int_str_digits

DIGIT_LIMIT = 10**4300  # the first integer past CPython's default 4300 digits

# Values of 4301 to 6000 digits, either sign, built without converting strings.
HUGE = st.builds(
    lambda digits, low, sign: sign * (10 ** (digits - 1) + low),
    st.integers(4301, 6000),
    st.integers(0, 10**20),
    st.sampled_from([1, -1]),
)


def test_format_basic():
    assert format_bfile([1, 5, 14], offset=1) == "1 1\n2 5\n3 14\n"
    assert format_bfile([7], offset=0) == "0 7\n"


def test_round_trip():
    cases = [
        ([1, -3, 10, -38], 0),
        ([10**50, 2, 3], 1),
        ([0], 5),
    ]
    for values, offset in cases:
        assert parse_bfile(format_bfile(values, offset)) == (offset, values)


@settings(max_examples=50, deadline=None, database=None)
@given(
    offset=st.integers(-1000, 10**6),
    values=st.lists(st.one_of(st.integers(-(10**40), 10**40), HUGE), min_size=1),
)
def test_round_trip_random(offset, values):
    # Lifted the way the CLI lifts the limit to print its results.
    with _int_str_digits(0):
        text = format_bfile(values, offset)
        assert parse_bfile(text) == (offset, values)
    if any(abs(v) >= DIGIT_LIMIT for v in values):
        with _int_str_digits(sys.int_info.default_max_str_digits):
            with pytest.raises(ValueError):
                format_bfile(values, offset)
            with pytest.raises(ValueError):
                parse_bfile(text)


def test_parse_tolerates_comments_and_blanks():
    text = "# header comment\n\n1 10\n2 20\n\n# trailing\n"
    assert parse_bfile(text) == (1, [10, 20])


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError):
        parse_bfile("1 2 3\n")
    with pytest.raises(ValueError):
        parse_bfile("foo\n")


def test_parse_rejects_gaps():
    with pytest.raises(ValueError):
        parse_bfile("1 10\n3 30\n")


def test_parse_rejects_empty():
    with pytest.raises(ValueError):
        parse_bfile("# nothing here\n")
