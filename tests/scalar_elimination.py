"""The scalar GF(2)/GF(4) elimination that the XOR-basis kernel replaced.

These are the former ``matrix.leading_column``, ``matrix.rows_rank``,
``FieldMatrix.rref`` and ``FieldMatrix.nullspace``: pivots are found one
symbol at a time and normalized with GF(4) scalars.  ``transpose`` is the
former entry-by-entry ``FieldMatrix.transpose``, on the former one-symbol
accessors ``matrix.row_entry``, ``FieldMatrix.entry`` and
``FieldMatrix.col_tuple``.  They stay here as the reference the kernel is
checked against.

``gf4_inv`` is the former ``gf4.gf4_inv``, the scalar inverse that
normalizes pivots here, and ``poly_divmod`` the former
``families.poly_divmod``, GF(4)[x] division one coefficient at a time:
the reference for ``cyclic4``'s division of x^n - 1 by g on packed rows,
whose remainder decides divisibility and whose quotient writes H, which
is tested against ``nullspace`` here.
"""

from gf4lrc import gf4
from gf4lrc.matrix import FieldMatrix, _lo_for, lo_mask, pack_row, scale_row

#: The inverse of each nonzero GF(4) element (w^-1 = w^2, since w^3 = 1).
_INVERSE = {1: 1, gf4.W: gf4.W2, gf4.W2: gf4.W}


def gf4_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero GF(4) element."""
    return _INVERSE[a]


def poly_divmod(a, b) -> tuple[list[int], list[int]]:
    """Quotient and remainder of GF(4)[x] division (ascending coefficients)."""
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = poly_trim(a)
    if len(rem) < len(b):
        return [], rem
    quot = [0] * (len(rem) - len(b) + 1)
    inv_lead = gf4_inv(b[-1])
    for shift in range(len(rem) - len(b), -1, -1):
        coeff = gf4.gf4_mul(rem[shift + len(b) - 1], inv_lead)
        if coeff:
            quot[shift] = coeff
            for i, bc in enumerate(b):
                rem[shift + i] ^= gf4.gf4_mul(coeff, bc)
    return quot, poly_trim(rem)


def poly_trim(p) -> list[int]:
    """The coefficient list without its trailing zeros."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def row_entry(q: int, row: int, j: int) -> int:
    """Symbol j of a packed row."""
    if q == 2:
        return (row >> j) & 1
    return (row >> (2 * j)) & 3


def entry(m: FieldMatrix, i: int, j: int) -> int:
    return row_entry(m.q, m.rows[i], j)


def col_tuple(m: FieldMatrix, j: int) -> tuple[int, ...]:
    return tuple(entry(m, i, j) for i in range(m.nrows))


def leading_column(q: int, row: int, lo: int | None = None) -> int:
    """Index of the first (lowest) nonzero symbol; row must be nonzero."""
    if q == 2:
        return (row & -row).bit_length() - 1
    if lo is None:
        lo = _lo_for(row)
    support = (row | (row >> 1)) & lo
    return ((support & -support).bit_length() - 1) // 2


def rows_rank(q: int, rows, ncols: int) -> int:
    """Rank of packed rows via incremental elimination."""
    lo = lo_mask(ncols) if q == 4 else None
    basis = []  # (pivot column, normalized row)
    for row in rows:
        for col, pivot in basis:
            e = row_entry(q, row, col)
            if e:
                row ^= scale_row(q, pivot, e, lo)
        if row:
            col = leading_column(q, row, lo)
            lead = row_entry(q, row, col)
            if lead != 1:
                row = scale_row(q, row, gf4_inv(lead), lo)
            basis.append((col, row))
    return len(basis)


def rref(m: FieldMatrix):
    """Reduced row-echelon form, rank, and pivot columns."""
    rows = list(m.rows)
    pivots = []
    r = 0
    for col in range(m.ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if row_entry(m.q, rows[i], col):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = row_entry(m.q, rows[r], col)
        if lead != 1:
            rows[r] = scale_row(m.q, rows[r], gf4_inv(lead), m._lo)
        for i in range(len(rows)):
            if i == r:
                continue
            e = row_entry(m.q, rows[i], col)
            if e:
                rows[i] ^= scale_row(m.q, rows[r], e, m._lo)
        pivots.append(col)
        r += 1
    return FieldMatrix(m.q, m.nrows, m.ncols, rows), r, tuple(pivots)


def nullspace(m: FieldMatrix) -> FieldMatrix:
    """Basis (as rows) of {x : m @ x^T = 0}; has ncols - rank rows."""
    reduced, _, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [0] * m.ncols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = entry(reduced, i, f)
        basis.append(pack_row(m.q, vec))
    return FieldMatrix(m.q, len(basis), m.ncols, basis)


def transpose(m: FieldMatrix) -> FieldMatrix:
    """The transpose, read one entry at a time."""
    cols = [pack_row(m.q, col_tuple(m, j)) for j in range(m.ncols)]
    return FieldMatrix(m.q, m.ncols, m.nrows, cols)
