"""The XOR-basis kernel against the scalar elimination it replaced.

``scalar_elimination`` keeps the former ``rows_rank``, ``rref`` and
``nullspace``, which normalize GF(4) pivots one symbol at a time.  RREF is
unique, so the kernel's results must be identical, not merely equivalent:
the same reduced rows, rank, pivot columns and nullspace basis.  The
nullspace, one pass over the columns, is checked again on wider matrices
whose columns are built dependent, and as the H of ``from_generator``.
The packed ``transpose`` is checked against the entry-by-entry one it
replaced.
"""

from functools import reduce
from operator import xor

from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_elimination as scalar
from gf4lrc import gf4
from gf4lrc.code import LinearCode
from gf4lrc.concat import concatenate
from gf4lrc.matrix import FieldMatrix, pack_row, rows_rank, xor_insert, xor_reduce


@st.composite
def matrices(draw):
    """GF(2)/GF(4) matrices with ncols >= 0, some zero and duplicate rows."""
    q = draw(st.sampled_from([2, 4]))
    ncols = draw(st.integers(0, 7))
    row = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    extra = st.one_of(st.just([0] * ncols), st.sampled_from(rows)) if rows else st.just([0] * ncols)
    rows = draw(st.permutations(rows + draw(st.lists(extra, max_size=3))))
    return FieldMatrix(q, len(rows), ncols, [pack_row(q, r) for r in rows])


@st.composite
def column_matrices(draw):
    """GF(2)/GF(4) matrices of up to 16 rows and 24 columns, built column
    by column: random, zero, a repeat, or a combination of those before."""
    q = draw(st.sampled_from([2, 4]))
    nrows = draw(st.integers(0, 16))
    symbol = st.integers(0, q - 1)
    cols: list[list[int]] = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "random" and not cols):
            col = [0] * nrows
        elif kind == "repeat":
            col = list(draw(st.sampled_from(cols)))
        elif kind == "combination":
            col = [0] * nrows
            for other in draw(st.lists(st.sampled_from(cols), min_size=1, max_size=4)):
                c = draw(symbol)
                col = [a ^ gf4.gf4_mul(c, b) for a, b in zip(col, other)]
        else:
            col = draw(st.lists(symbol, min_size=nrows, max_size=nrows))
        cols.append(col)
    cols = draw(st.permutations(cols))
    rows = [[col[i] for col in cols] for i in range(nrows)]
    return FieldMatrix(q, nrows, len(cols), [pack_row(q, r) for r in rows])


def assert_matches_scalar(m: FieldMatrix) -> None:
    expected = scalar.rref(m)
    assert m.rref() == expected
    assert rows_rank(m.q, m.rows, m.ncols) == expected[1]
    assert expected[1] == scalar.rows_rank(m.q, m.rows, m.ncols)
    assert m.nullspace() == scalar.nullspace(m)


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_kernel_matches_scalar_elimination(m):
    assert_matches_scalar(m)


@settings(max_examples=400, deadline=None)
@given(matrices())
@example(FieldMatrix(2, 0, 5, []))
@example(FieldMatrix(4, 0, 3, []))
@example(FieldMatrix(2, 4, 0, [0] * 4))
@example(FieldMatrix(4, 2, 0, [0] * 2))
def test_transpose_matches_entrywise_transpose(m):
    t = m.transpose()
    assert t == scalar.transpose(m)
    assert (t.q, t.nrows, t.ncols) == (m.q, m.ncols, m.nrows)
    assert t.transpose() == m


@settings(max_examples=300, deadline=None)
@given(column_matrices())
@example(FieldMatrix(4, 16, 24, [0] * 16))
@example(FieldMatrix.from_rows(4, [[1, 2, 3, 1, 2, 3], [2, 1, 1, 2, 1, 1]]))
def test_nullspace_pass_matches_scalar_elimination_on_wide_matrices(m):
    columns, null = m.kernel()
    assert null == m.nullspace() == scalar.nullspace(m)
    # The pass's vectors: each column c, and over GF(4) then w*c.
    pairs = []
    for j in range(m.ncols):
        col = scalar.col_tuple(m, j)
        pairs.append(pack_row(m.q, col))
        if m.q == 4:
            pairs.append(pack_row(4, [gf4.gf4_mul(gf4.W, c) for c in col]))
    assert columns == pairs


def test_from_generator_parity_check_is_the_scalar_nullspace(outer_corpus):
    for outer in outer_corpus:
        code = LinearCode.from_generator(outer.generator)
        assert code.parity_check == scalar.nullspace(outer.generator)


def test_kernel_matches_scalar_elimination_on_code_corpus(outer_corpus):
    for outer in outer_corpus:
        assert_matches_scalar(outer.generator)
        assert_matches_scalar(outer.parity_check)
        assert_matches_scalar(outer.parity_check.transpose())
    for outer in outer_corpus[:40]:
        assert_matches_scalar(concatenate(outer).code.parity_check)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=10), st.integers(0, 255))
def test_provenance_names_the_inputs(vecs, target):
    """An entry, a dependency and a reduced vector each equal the XOR of the
    inputs their provenance mask names."""

    def combine(mask):
        return reduce(xor, (v for i, v in enumerate(vecs) if mask >> i & 1), 0)

    basis: list = []
    for i, v in enumerate(vecs):
        reduced, mask = xor_insert(basis, v, 1 << i)
        assert combine(mask) == reduced
        assert mask >> i & 1
    assert all(combine(mask) == p for _, p, mask in basis)
    assert all(p & -p == low for low, p, _ in basis)
    residual, mask = xor_reduce(basis, target)
    assert combine(mask) == residual ^ target
    assert residual == 0 or all(not residual & low for low, _, _ in basis)
