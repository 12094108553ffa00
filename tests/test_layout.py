"""The digit-string codec against the per-symbol layout it replaced."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_layout
from cap_search import cap_text
from gf4lrc.errors import ParseError, ShapeMismatch
from gf4lrc.matrix import FieldMatrix, pack_row, read_symbol_rows, row_digits, unpack_row
from gf4lrc.projective import CapSet


@st.composite
def matrices(draw, max_rows=6, max_cols=13):
    """A GF(2) or GF(4) matrix, 0 rows and 0 columns included."""
    q = draw(st.sampled_from([2, 4]))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, q**ncols - 1), min_size=nrows, max_size=nrows))
    return FieldMatrix(q, nrows, ncols, rows)


def assert_layout_matches(m: FieldMatrix) -> None:
    q, n = m.q, m.ncols
    t = m.transpose()
    assert (t.q, t.nrows, t.ncols) == (q, n, m.nrows)
    assert list(t.rows) == scalar_layout.transpose(q, m.rows, n)
    assert m.to_text() == scalar_layout.matrix_text(q, m.rows, n)
    for row in m.rows:
        symbols = scalar_layout.unpack_row(q, row, n)
        assert unpack_row(q, row, n) == symbols
        assert pack_row(q, symbols) == scalar_layout.pack_row(q, symbols) == row
        assert int(row_digits(q, row, n)[::-1] or "0", q) == row


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_layout_matches_the_per_symbol_loops(m):
    assert_layout_matches(m)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(0, 9), st.integers(1, 2**40))
def test_unpack_drops_symbols_beyond_ncols(q, ncols, row):
    assert unpack_row(q, row, ncols) == scalar_layout.unpack_row(q, row, ncols)
    assert len(row_digits(q, row, ncols)) == ncols


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.data())
def test_cap_text_matches_the_per_symbol_loop(ambient, data):
    point = st.tuples(*[st.integers(0, 3)] * (ambient + 1))
    points = tuple(data.draw(st.lists(point, max_size=6)))
    assert cap_text(CapSet(ambient, points)) == scalar_layout.cap_text(ambient, points)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (0, 6), (4, 0)])
def test_empty_shapes(q, shape):
    nrows, ncols = shape
    m = FieldMatrix(q, nrows, ncols, [0] * nrows)
    assert_layout_matches(m)
    assert m.transpose().transpose() == m


@pytest.mark.parametrize("q", [2, 4])
def test_a_5000_column_row_passes_the_int_digit_limit(q):
    # int(str) refuses more than sys.get_int_max_str_digits() (4300 by
    # default) digits in base 10, but not in a power-of-two base like 2 or 4.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and limit < 5000:
        with pytest.raises(ValueError):
            int("1" * 5000)
    rng = random.Random(q)
    row = rng.getrandbits((q // 2) * 5000) | 1 << ((q // 2) * 5000 - 1)
    assert_layout_matches(FieldMatrix(q, 1, 5000, [row]))


@pytest.mark.parametrize("q", [2, 4])
def test_a_row_wider_than_ncols_or_negative_is_refused_when_built(q):
    """No matrix holds a symbol beyond its last column, which ``to_text``
    would drop and ``rref`` would count, or a negative row."""
    width = (q // 2) * 3
    assert FieldMatrix(q, 2, 3, [1, (1 << width) - 1]).transpose().ncols == 2
    for row in (1 << width, 1 << (q // 2) * 4 - 1, -1, -(1 << width)):
        with pytest.raises(ShapeMismatch, match="negative or wider than 3 columns"):
            FieldMatrix(q, 2, 3, [1, row])
    with pytest.raises(ShapeMismatch):
        FieldMatrix(q, 1, 0, [1])


#: Mostly the single space that ``to_text`` writes, so that many bodies take
#: the one-pass read.
SEPARATORS = [" "] * 6 + ["  ", "\t", " \t", "\x0c", "\u00a0"]


@st.composite
def symbol_lines(draw):
    """Lines of about ncols symbols, foreign ones among them, separated,
    led and trailed by random whitespace."""
    q = draw(st.sampled_from([2, 4]))
    ncols = draw(st.integers(0, 6))
    symbols = st.sampled_from(["0", "1", "w", "W"][:q] * 3 + ["w", "2", "x", "ww", "10", ""])
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        count = max(0, ncols + draw(st.sampled_from([0, 0, 0, -1, 1])))
        syms = draw(st.lists(symbols, min_size=count, max_size=count))
        gaps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=count, max_size=count))
        lead = draw(st.sampled_from(["", "", "", " ", "\t"]))
        trail = draw(st.sampled_from(["", "", " "]))
        line = lead + "".join(g + s for g, s in zip(["", *gaps], syms)) + trail
        lines.append(line if line.strip() else "0")
    return q, lines, ncols


def _rows_or_error(read, q, lines, ncols):
    try:
        return read(q, lines, ncols)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(symbol_lines())
@example((2, ["1 0 "], 3))  # single spaces, one symbol short, one space trailing
@example((2, [" 1 0"], 3))
@example((2, ["1 0 1 "], 3))
@example((4, ["1 w W", "W\tw 0"], 3))
@example((2, ["1 w 1"], 3))
@example((4, ["1 x 1 2"], 3))
def test_symbol_rows_read_as_the_split_reader_reads_them(case):
    q, lines, ncols = case
    expected = _rows_or_error(scalar_layout.split_symbol_rows, q, lines, ncols)
    assert _rows_or_error(read_symbol_rows, q, lines, ncols) == expected


@st.composite
def symbol_bodies(draw):
    """A matrix body as ``to_text`` writes it, odd and even widths, empty
    shapes included, with no line, one line or every line re-spaced, and
    maybe one foreign symbol on any line."""
    q = draw(st.sampled_from([2, 4]))
    ncols = draw(st.integers(0, 7))
    nrows = draw(st.integers(0, 5))
    rows = draw(st.lists(st.integers(0, q**ncols - 1), min_size=nrows, max_size=nrows))
    lines = [scalar_layout.row_text(q, row, ncols) for row in rows]
    respaced = draw(st.sampled_from(["none", "one", "all"]))
    for i in range(nrows):
        if respaced == "all" or (respaced == "one" and i == draw(st.integers(0, nrows - 1))):
            gaps = draw(st.lists(st.sampled_from(SEPARATORS[6:]), min_size=ncols, max_size=ncols))
            lines[i] = "".join(g + s for g, s in zip(["", *gaps], lines[i].split()))
    if lines and ncols and draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        syms = lines[i].split()
        syms[j] = draw(st.sampled_from(["2", "x", "ww", "W", "w", "é", "1"]))
        lines[i] = " ".join(syms)
    # A body with no symbol per line has no nonblank line to read.
    return q, lines if ncols else ["0"] * min(nrows, 1), ncols


@settings(max_examples=300, deadline=None)
@given(symbol_bodies())
@example((2, [], 0))
@example((4, [], 3))
@example((2, ["0"], 0))
@example((2, ["1 0 1", "0 w 1"], 3))  # a bad symbol on a later line of a canonical body
@example((4, ["1 w W", "W w 0 1"], 3))  # a canonical width, then one line too long
@example((4, ["1 w", "W 0", "0\tW"], 2))  # the last line re-spaced
def test_a_body_is_read_as_the_split_reader_reads_it(case):
    q, lines, ncols = case
    expected = _rows_or_error(scalar_layout.split_symbol_rows, q, lines, ncols)
    assert _rows_or_error(read_symbol_rows, q, lines, ncols) == expected
    body = "\n".join(lines)
    if not isinstance(expected, str) and body.splitlines() == lines:  # no \x0c line breaks
        text = f"field={q} rows={len(lines)} cols={ncols}\n{body}\n"
        assert FieldMatrix.from_text(text)[0].rows == tuple(expected)
