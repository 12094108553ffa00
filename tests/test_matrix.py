import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_elimination import entry
from gf4lrc import gf4
from gf4lrc.errors import FieldMismatch, ParseError, ShapeMismatch
from gf4lrc.matrix import FieldMatrix, pack_row, rows_rank, scale_row

W, W2 = gf4.W, gf4.W2


def span_size(q: int, mat: FieldMatrix) -> int:
    """Row-span size by brute-force enumeration of all row combinations."""
    span = set()
    for coeffs in itertools.product(range(q), repeat=mat.nrows):
        combination = 0
        for c, row in zip(coeffs, mat.rows):
            combination ^= scale_row(q, row, c)
        span.add(combination)
    return len(span)


def test_rref_identity():
    m = FieldMatrix.identity(2, 2)
    reduced, rank, pivots = m.rref()
    assert reduced == m and rank == 2 and pivots == (0, 1)


def test_rref_single_row():
    m = FieldMatrix.from_rows(2, [[1, 1, 1]])
    reduced, rank, pivots = m.rref()
    assert reduced == m and rank == 1 and pivots == (0,)


def test_rref_gf4_dependent_rows():
    # second row is w times the first, so the hand-reduced form is
    # [[1, w^2], [0, 0]] with a single pivot
    m = FieldMatrix.from_rows(4, [[W, 1], [W2, W]])
    reduced, rank, pivots = m.rref()
    assert [reduced.row_tuple(i) for i in range(2)] == [(1, W2), (0, 0)]
    assert rank == 1 and pivots == (0,)


def test_rref_idempotent_and_rank_preserving():
    rng = random.Random(7)
    for q in (2, 4):
        for _ in range(25):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(4)]
            m = FieldMatrix.from_rows(q, rows)
            reduced, rank, _ = m.rref()
            again, rank2, _ = reduced.rref()
            assert again == reduced and rank2 == rank
            assert rows_rank(q, reduced.rows, m.ncols) == rows_rank(q, m.rows, m.ncols) == rank


def test_rank_matches_span_counting_oracle():
    rng = random.Random(99)
    for _ in range(20):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 8)
        m = FieldMatrix.from_rows(
            4, [[rng.randrange(4) for _ in range(ncols)] for _ in range(nrows)]
        )
        assert 4 ** rows_rank(4, m.rows, ncols) == span_size(4, m)


def test_nullspace_identity_is_empty():
    assert FieldMatrix.identity(2, 3).nullspace().nrows == 0


def test_nullspace_of_all_ones_row():
    ns = FieldMatrix.from_rows(2, [[1, 1, 1]]).nullspace()
    assert ns.nrows == 2
    assert {ns.row_tuple(i) for i in range(2)} == {(1, 1, 0), (1, 0, 1)}


def test_nullspace_of_hamming_parity():
    h = FieldMatrix.from_rows(4, [[1, 0, 1, 1, 1], [0, 1, 1, W, W2]])
    ns = h.nullspace()
    assert ns.nrows == 3
    # every basis row orthogonal to both check rows, verified elementwise
    for i in range(ns.nrows):
        row = ns.row_tuple(i)
        for r in range(2):
            acc = 0
            for j in range(5):
                acc ^= gf4.gf4_mul(entry(h, r, j), row[j])
            assert acc == 0


def test_nullspace_orthogonality_random():
    rng = random.Random(5)
    for q in (2, 4):
        for _ in range(15):
            m = FieldMatrix.from_rows(
                q, [[rng.randrange(q) for _ in range(6)] for _ in range(3)]
            )
            ns = m.nullspace()
            assert ns.nrows == m.ncols - rows_rank(q, m.rows, m.ncols)
            if ns.nrows:
                assert not any(m.mat_mul(ns.transpose()).rows)


def test_mat_mul_right_inverse_of_inner_generator():
    q_mat = FieldMatrix.from_rows(2, [[0, 1, 0], [0, 0, 1]])
    g_in = FieldMatrix.from_rows(2, [[1, 1, 0], [1, 0, 1]])
    assert q_mat.mat_mul(g_in.transpose()) == FieldMatrix.identity(2, 2)


def test_mat_mul_zero_and_scalar():
    a = FieldMatrix.from_rows(4, [[1, W], [W2, 0]])
    z = FieldMatrix(4, 2, 2, [0, 0])
    assert not any(a.mat_mul(z).rows)
    assert FieldMatrix.from_rows(4, [[W]]).mat_mul(
        FieldMatrix.from_rows(4, [[W]])
    ) == FieldMatrix.from_rows(4, [[W2]])


def test_mat_mul_errors():
    a = FieldMatrix.from_rows(2, [[1, 0]])
    with pytest.raises(ShapeMismatch):
        a.mat_mul(a)
    with pytest.raises(FieldMismatch):
        a.mat_mul(FieldMatrix.from_rows(4, [[1], [W]]))


def test_text_round_trip():
    m = FieldMatrix.from_rows(4, [[0, 1, W, W2], [1, 1, 0, W]])
    text = m.to_text({"kind": "parity", "d": 3})
    parsed, extras = FieldMatrix.from_text(text)
    assert parsed == m
    assert extras == {"kind": "parity", "d": "3"}


def test_text_parse_errors():
    with pytest.raises(ParseError):
        FieldMatrix.from_text("field=4 rows=1 cols=2\n1 x\n")
    with pytest.raises(ParseError):
        FieldMatrix.from_text("field=4 rows=1 cols=2 bogus=1\n1 w\n")
    with pytest.raises(ParseError):
        FieldMatrix.from_text("field=4 rows=2 cols=2\n1 w\n")
    with pytest.raises(ParseError):
        FieldMatrix.from_text("field=3 rows=1 cols=1\n1\n")
    with pytest.raises(ParseError):
        FieldMatrix.from_text("field=2 rows=1 cols=2\n1 w\n")


def rows_by_symbol(q: int, ncols: int, body: list[str]):
    """Each row parsed one symbol at a time: the packed rows, or the
    message of the first row error."""
    rows = []
    for ln in body:
        syms = ln.split()
        if len(syms) != ncols:
            return f"expected {ncols} symbols, found {len(syms)}"
        try:
            rows.append(pack_row(q, [gf4.symbol_to_value(sym, q) for sym in syms]))
        except ValueError as exc:
            return str(exc)
    return tuple(rows)


tokens = st.sampled_from(["0", "1", "w", "W", "0", "1", "w", "W", "x", "2", "10", "1w", "-1"])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(1, 9), st.data())
def test_text_rows_parse_as_symbol_by_symbol(q, ncols, data):
    lengths = st.sampled_from([ncols, ncols, ncols, max(1, ncols - 1), ncols + 1])
    body = data.draw(st.lists(lengths.flatmap(lambda m: st.lists(tokens, min_size=m,
                                                                  max_size=m)),
                              min_size=1, max_size=4))
    lines = [" ".join(row) for row in body]
    text = "\n".join([f"field={q} rows={len(lines)} cols={ncols}"] + lines) + "\n"
    expected = rows_by_symbol(q, ncols, lines)
    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc_info:
            FieldMatrix.from_text(text)
        assert str(exc_info.value) == expected
    else:
        assert FieldMatrix.from_text(text)[0].rows == expected


@pytest.mark.parametrize("q", [2, 4])
def test_text_rejects_negative_shape(q):
    with pytest.raises(ParseError):
        FieldMatrix.from_text(f"field={q} rows=0 cols=-3\n")
