"""Dense exact linear algebra over GF(2) and GF(4).

Rows are packed into Python ints: one bit per symbol over GF(2), two bits
per symbol over GF(4) (bit 2j = coordinate on 1, bit 2j+1 = coordinate on w
of column j).  Row addition is XOR in both cases, which keeps row
operations O(1) per machine word regardless of width.

All elimination (rank, RREF, the nullspace, the dependent-set search,
erasure decoding) runs on one binary XOR-basis kernel, ``xor_reduce`` and
``xor_insert``, over a list of ``(pivot bit, vector, provenance mask)``
entries: each vector has the pivots of the entries before it clear and its
lowest set bit as pivot, and its mask names the inputs that XOR to it, so
the nullspace is one pass over the columns: a free column's mask is its row.
The one dependent-set search, ``dependent_sets``, keeps its frames on a
list, not the call stack; every search for dependent sets runs it.
GF(4) enters through its binary pair expansion: the GF(4) span of packed
rows r is the GF(2) span of the pairs (r, w*r), so a GF(4) rank is half a
binary rank, and sum_i c_i r_i is one ``xor_combine``: the XOR of the pairs
over the packed coefficients' bits (bits 2i, 2i+1 select r_i and w*r_i).

Every change of layout (pack, unpack, transpose, text) goes through one
digit-string codec, ``row_digits``: a packed row is the base-q numeral of
its symbols, so ``format`` writes its digits and ``int(digits[::-1], q)``
reads them back, each in one C call rather than one step per symbol.

Matrix text format (strict): a header line

    field=<2|4> rows=<r> cols=<c> [kind=...] [n=...] [k=...] [d=...]

followed by r lines of c whitespace-separated symbols from the alphabet
``0 1 w W`` (GF(2) uses only ``0`` and ``1``), read by ``read_symbol_rows``,
which also reads the points of a cap file: a canonical body in one pass,
any other line by line.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from . import gf4
from .errors import BudgetExceeded, FieldMismatch, ParseError, ShapeMismatch

_HEADER_EXTRA_KEYS = ("kind", "n", "k", "d")

#: The symbols w, W as the base-4 digits of their values, and back.
_DIGITS = str.maketrans("wW", "23")
_SYMBOLS = str.maketrans("23", "wW")
#: A hex digit as its two base-4 digits, high first.
_HEX_TO_BASE4 = str.maketrans({f"{v:x}": f"{v >> 2}{v & 3}" for v in range(16)})
#: Symbol values as base-q digit bytes, and back.
_VALUE_TO_DIGIT = bytes.maketrans(b"\0\1\2\3", b"0123")
_DIGIT_TO_VALUE = bytes.maketrans(b"0123", b"\0\1\2\3")
#: Each field's symbols, which ``bytes.translate`` deletes, and the symbols
#: as bytes of their base-4 digits.
_ALPHABETS = {2: b"01", 4: b"01wW"}
_SYMBOL_BYTE_DIGITS = bytes.maketrans(b"wW", b"23")


def lo_mask(ncols: int) -> int:
    """0b...0101 with ncols pairs; selects the low bit of every GF(4) slot."""
    return ((1 << (2 * ncols)) - 1) // 3


def _lo_for(row: int) -> int:
    return lo_mask((row.bit_length() + 1) // 2)


def row_digits(q: int, row: int, ncols: int) -> str:
    """A packed row as ncols base-q digits, symbol j at index j.

    Bits beyond ncols symbols are dropped.  ``int(digits[::-1], q)`` is the
    inverse: the digits are the row's base-q numeral, lowest digit first.
    """
    if q == 2:
        return format(row, f"0{ncols}b")[::-1][:ncols]
    # Each hex digit holds two symbols; an odd ncols pads one high 0.
    return format(row, f"0{(ncols + 1) // 2}x").translate(_HEX_TO_BASE4)[::-1][:ncols]


def row_text(q: int, row: int, ncols: int) -> str:
    """A packed row as one line of the text format: ncols symbols."""
    return " ".join(row_digits(q, row, ncols).translate(_SYMBOLS))


def pack_row(q: int, symbols: Sequence[int]) -> int:
    """Symbols (each in 0..q-1, which callers check) as a packed row."""
    return int(bytes(symbols).translate(_VALUE_TO_DIGIT)[::-1] or b"0", q)


def unpack_row(q: int, row: int, ncols: int) -> tuple[int, ...]:
    return tuple(row_digits(q, row, ncols).encode().translate(_DIGIT_TO_VALUE))


def scale_row(q: int, row: int, scalar: int, lo: int | None = None) -> int:
    """Packed row times a field scalar."""
    if scalar == 0:
        return 0
    if scalar == 1 or q == 2:
        return row
    if lo is None:
        lo = _lo_for(row)
    lo_part = row & lo
    hi_part = (row >> 1) & lo
    if scalar == gf4.W:
        return hi_part | ((lo_part ^ hi_part) << 1)
    return (lo_part ^ hi_part) | (lo_part << 1)


def row_support(q: int, row: int) -> Iterator[tuple[int, int]]:
    """``(j, symbol)`` for each nonzero symbol of a packed row, by column."""
    width = 1 if q == 2 else 2
    support = row if q == 2 else (row | row >> 1) & _lo_for(row)
    while support:
        low = support & -support
        bit = low.bit_length() - 1
        yield bit // width, row >> bit & (q - 1)
        support ^= low


def xor_combine(vectors: Sequence[int], bits: int) -> int:
    """The XOR of ``vectors[b]`` over the set bits b of ``bits``."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= vectors[low.bit_length() - 1]
        bits ^= low
    return acc


def xor_reduce(basis: list, v: int, mask: int = 0) -> tuple[int, int]:
    """``v`` reduced against a kernel basis, and its provenance ``mask``."""
    for low, p, pmask in basis:
        if v & low:
            v ^= p
            mask ^= pmask
    return v, mask


def xor_insert(basis: list, v: int, mask: int = 0) -> tuple[int, int]:
    """Reduce ``v`` and append it to the basis unless it reduces to 0.

    Returns the reduced ``(v, mask)``: ``v == 0`` reports that the input
    was dependent, and ``mask`` is then the provenance of the dependency.
    """
    v, mask = xor_reduce(basis, v, mask)
    if v:
        basis.append((v & -v, v, mask))
    return v, mask


def xor_basis(vecs: Iterable[int], independent: bool = False) -> list | None:
    """The kernel basis of ``vecs`` inserted in order; when they must be
    ``independent``, None at the first that depends on those before it."""
    basis: list = []
    for v in vecs:
        if not xor_insert(basis, v)[0] and independent:
            return None
    return basis


def binary_expansion(q: int, rows: Iterable[int], lo: int | None = None) -> list[int]:
    """Packed GF(2) vectors spanning the rows' GF(q) span: r, or r and w*r."""
    if q == 2:
        return list(rows)
    return [v for r in rows for v in (r, scale_row(4, r, gf4.W, lo))]


def rows_rank(q: int, rows: Iterable[int], ncols: int) -> int:
    """Rank of packed rows; over GF(4), half the rank of the pair expansion."""
    basis = xor_basis(binary_expansion(q, rows, lo_mask(ncols) if q == 4 else None))
    return len(basis) if q == 2 else len(basis) // 2


def read_symbol_rows(q: int, lines: Sequence[str], ncols: int) -> list[int]:
    """Packed rows of text lines of exactly ncols symbols each (strict).

    A body whose every line is as ``row_text`` writes it, symbols at the
    even indices and one space between each two, is read in one pass:
    joined by single spaces, its odd characters are compared once, its
    symbols are checked against the alphabet by one ``bytes.translate``
    and turned into base-q digits by another, and each row is one ``int``
    of its slice of the reversed digits.  Any other body, and a canonical one
    holding a foreign symbol, is split line by line (``_read_lines``),
    which names the first fault.
    """
    width = 2 * ncols - 1
    if lines and set(map(len, lines)) == {width}:
        body = " ".join(lines)
        symbols = body[::2]
        if body[1::2] == " " * (len(symbols) - 1) and symbols.isascii():
            digits = symbols.encode()
            if not digits.translate(None, _ALPHABETS[q]):
                # The symbols are base-q digits, symbol j the one of weight q^j:
                # reversed, the body is the rows' numerals, last row first.
                numerals = digits.translate(_SYMBOL_BYTE_DIGITS)[::-1]
                ends = range(len(numerals), 0, -ncols)
                return [int(numerals[end - ncols : end], q) for end in ends]
    return _read_lines(q, lines, ncols)


def _read_lines(q: int, lines: Sequence[str], ncols: int) -> list[int]:
    """``read_symbol_rows`` one line at a time, each line split."""
    rows = []
    alphabet = set(gf4.SYMBOLS[:q])
    for ln in lines:
        syms = ln.split()
        if len(syms) != ncols:
            raise ParseError(f"expected {ncols} symbols, found {len(syms)}")
        joined = "".join(syms)
        if len(joined) != ncols or not alphabet.issuperset(joined):
            try:  # some symbol is not in the alphabet: name the first
                for sym in syms:
                    gf4.symbol_to_value(sym, q)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        # The symbols are base-q digits, symbol j the one of weight q^j.
        rows.append(int(joined.translate(_DIGITS)[::-1], q))
    return rows


class FieldMatrix:
    """Immutable dense matrix over GF(2) or GF(4)."""

    __slots__ = ("q", "nrows", "ncols", "rows", "_lo")

    def __init__(self, q: int, nrows: int, ncols: int, rows: Sequence[int]):
        if q not in (2, 4):
            raise ValueError(f"unsupported field GF({q})")
        if len(rows) != nrows:
            raise ShapeMismatch(f"expected {nrows} rows, got {len(rows)}")
        self.rows = tuple(rows)
        if self.rows and (min(self.rows) < 0 or max(self.rows) >> (q // 2) * ncols):
            raise ShapeMismatch(f"a packed row is negative or wider than {ncols} columns")
        self.q = q
        self.nrows = nrows
        self.ncols = ncols
        self._lo = lo_mask(ncols) if q == 4 else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, q: int, rows: Sequence[Sequence[int]]) -> "FieldMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        packed = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
            for v in r:
                if not 0 <= v < q:
                    raise ValueError(f"symbol {v} invalid over GF({q})")
            packed.append(pack_row(q, r))
        return cls(q, nrows, ncols, packed)

    @classmethod
    def from_cols(cls, q: int, cols: Sequence[Sequence[int]]) -> "FieldMatrix":
        return cls.from_rows(q, cols).transpose()

    @classmethod
    def identity(cls, q: int, n: int) -> "FieldMatrix":
        shift = 1 if q == 2 else 2
        return cls(q, n, n, [1 << (shift * i) for i in range(n)])

    # -- element access ----------------------------------------------------

    def row_tuple(self, i: int) -> tuple[int, ...]:
        return unpack_row(self.q, self.rows[i], self.ncols)

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "FieldMatrix":
        """The transpose, each column one strided slice of one digit string.

        The rows' digits, joined and reversed, are the rows' base-q numerals
        (highest symbol first), last row first, so every ncols-th digit from
        ncols - 1 - j is column j's numeral, highest row first.
        """
        q, n = self.q, self.ncols
        text = "".join([row_digits(q, row, n) for row in self.rows])[::-1]
        cols = [int(text[n - 1 - j :: n] or "0", q) for j in range(n)]
        return FieldMatrix(q, n, self.nrows, cols)

    def mat_mul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.q != other.q:
            raise FieldMismatch(f"GF({self.q}) times GF({other.q})")
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
            )
        vectors = binary_expansion(self.q, other.rows, other._lo)
        out = [xor_combine(vectors, row) for row in self.rows]
        return FieldMatrix(self.q, self.nrows, other.ncols, out)

    def rref(self) -> tuple["FieldMatrix", int, tuple[int, ...]]:
        """Reduced row-echelon form, rank, and pivot columns.

        The fully reduced kernel basis of the pair expansion is the unique
        binary RREF; over GF(4) it holds each RREF row R (pivot bit 2j) and
        w*R (pivot bit 2j + 1), so the GF(4) RREF is its even-pivot rows.
        """
        basis = xor_basis(binary_expansion(self.q, self.rows, self._lo))
        # An entry holds no pivot bit of the entries before it, so reducing
        # from the last entry back clears every other pivot from each one.
        reduced: list = []
        for low, v, _ in reversed(basis):
            reduced.append((low, xor_reduce(reduced, v)[0], 0))
        rows = sorted((low, v) for low, v, _ in reduced if self.q == 2 or low & self._lo)
        width = 1 if self.q == 2 else 2
        pivots = tuple((low.bit_length() - 1) // width for low, _ in rows)
        packed = [v for _, v in rows] + [0] * (self.nrows - len(rows))
        return FieldMatrix(self.q, self.nrows, self.ncols, packed), len(rows), pivots

    def nullspace(self) -> "FieldMatrix":
        """Basis (as rows) of {x : self @ x^T = 0}; has ncols - rank rows."""
        return self.kernel()[1]

    def kernel(self) -> tuple[list[int], "FieldMatrix"]:
        """The columns' pair expansion (c, or c and w*c) and the nullspace, by
        one ``xor_insert`` pass over it in column order, a vector's mask its
        bit of a packed x: column f reduces to 0 exactly when f is free, and its
        mask is nullspace row f, 1 at f and nonzero only at pivot columns."""
        width = 1 if self.q == 2 else 2
        cols = binary_expansion(self.q, self.transpose().rows, lo_mask(self.nrows))
        basis, free = [], []
        for at in range(0, len(cols), width):
            v, mask = xor_insert(basis, cols[at], 1 << at)
            if not v:
                free.append(mask)
            elif width == 2:  # a free c's w*c is in the span too: skipped
                xor_insert(basis, cols[at + 1], 2 << at)
        return cols, FieldMatrix(self.q, len(free), self.ncols, free)

    # -- text format -------------------------------------------------------

    def to_text(self, extras: dict | None = None) -> str:
        header = f"field={self.q} rows={self.nrows} cols={self.ncols}"
        if extras:
            for key in _HEADER_EXTRA_KEYS:
                if key in extras:
                    header += f" {key}={extras[key]}"
        lines = [header] + [row_text(self.q, row, self.ncols) for row in self.rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> tuple["FieldMatrix", dict]:
        """Parse the strict matrix format; returns (matrix, extra header fields)."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty matrix text")
        fields: dict[str, str] = {}
        for token in lines[0].split():
            if "=" not in token:
                raise ParseError(f"bad header token {token!r}")
            key, _, value = token.partition("=")
            if key not in ("field", "rows", "cols") + _HEADER_EXTRA_KEYS:
                raise ParseError(f"unknown header key {key!r}")
            if key in fields:
                raise ParseError(f"duplicate header key {key!r}")
            fields[key] = value
        for key in ("field", "rows", "cols"):
            if key not in fields:
                raise ParseError(f"missing header key {key!r}")
        try:
            q = int(fields["field"])
            nrows = int(fields["rows"])
            ncols = int(fields["cols"])
        except ValueError as exc:
            raise ParseError(f"non-integer header value: {exc}") from exc
        if q not in (2, 4):
            raise ParseError(f"unsupported field={q}")
        if nrows < 0 or ncols < 0:
            raise ParseError(f"negative shape rows={nrows} cols={ncols}")
        if len(lines) - 1 != nrows:
            raise ParseError(f"expected {nrows} matrix rows, found {len(lines) - 1}")
        rows = read_symbol_rows(q, lines[1:], ncols)
        extras = {k: v for k, v in fields.items() if k in _HEADER_EXTRA_KEYS}
        return cls(q, nrows, ncols, rows), extras

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.q == other.q
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.q, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"FieldMatrix(GF({self.q}), {self.nrows}x{self.ncols})"


def dependent_sets(
    blocks: Sequence[Sequence[int]],
    size: int,
    spend: Callable[[int], None],
    anchor: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """In lexicographic order, every set T of ``size`` blocks other than
    ``anchor`` that is dependent together with the anchor while its proper
    subsets are not, and no T independent together with it.  ``spend(m)``
    is called as m sets of ``size`` blocks are passed: at a yield the sum
    spent is T's rank, and at the end C(m, size) for m blocks.

    A block is a tuple of packed GF(2) vectors, all of one width: a repair
    group as its pair (e1, e2), a GF(4) column c as (c, w*c), a binary
    column as (c,).  A frame's candidate p has its vector b, reduced
    against the anchor and the prefix, at ``cols[b][p]``: a combination
    lies in their span exactly when it reduces to 0.  The reduced vectors
    fit in the bits their pivots leave; when they are all independent, the
    frame's sets are passed unvisited.  A candidate dependent on its own is
    a set when one block is needed, and completes no minimal set otherwise.
    """
    bits = max((v.bit_length() for b in blocks for v in b), default=0)
    basis = xor_basis(blocks[anchor] if anchor is not None else ())
    idx = [i for i in range(len(blocks)) if i != anchor]
    cols = [list(col) for col in zip(*[blocks[i] for i in idx])]
    for low, p, _ in basis:
        cols = [[v ^ p if v & low else v for v in col] for col in cols]
    # A frame: (next candidate, candidates, their reduced cols, chosen prefix).
    stack = [(0, idx, cols, ())]
    while stack:
        pos, idx, cols, prefix = stack.pop()
        need = size - len(prefix)
        if pos == 0:  # the frame is entered; each prefix block took len(cols) pivots
            fits = len(cols) * (len(idx) + len(prefix)) <= bits - len(basis)
            if fits and xor_basis([v for col in cols for v in col], True) is not None:
                spend(math.comb(len(idx), need))
                continue
            if need == 2:
                # Two candidates, each independent on its own, are dependent
                # together exactly when their reduced spans share a nonzero
                # vector; one dependent on its own is skipped.
                spans = [[0] * len(idx)]
                for col in cols:
                    spans += [[x ^ y for x, y in zip(s, col)] for s in spans]
                own = [span if 0 not in span else () for span in zip(*spans[1:])]
                carriers: dict[int, list[int]] = {}
                for p, span in enumerate(own):
                    for v in span:
                        carriers.setdefault(v, []).append(p)
                passed = 0
                for p in sorted({p for ps in carriers.values() for p in ps[:-1]}):
                    for q in sorted({q for v in own[p] for q in carriers[v] if q > p}):
                        rank = p * (len(idx) - 1) - p * (p - 1) // 2 + q - p  # of (p, q)
                        spend(rank - passed)
                        passed = rank
                        yield prefix + (idx[p], idx[q])
                spend(math.comb(len(idx), 2) - passed)
                continue
        if pos > len(idx) - need:
            continue
        stack.append((pos + 1, idx, cols, prefix))
        head = xor_basis([col[pos] for col in cols], independent=True)
        if head is None or need == 1:
            spend(math.comb(len(idx) - pos - 1, need - 1))
            if head is None and need == 1:
                yield prefix + (idx[pos],)
            continue
        rest = [col[pos + 1 :] for col in cols]
        for low, p, _ in head:
            rest = [[v ^ p if v & low else v for v in col] for col in rest]
        stack.append((0, idx[pos + 1 :], rest, prefix + (idx[pos],)))


def smallest_dependent_set(
    blocks: Sequence[Sequence[int]], budget: int, start: int = 1, stop: int | None = None
) -> tuple[tuple[int, ...], int] | None:
    """The first set ``dependent_sets`` yields, sizes from ``start`` to
    ``stop`` (default: every block) in increasing order; a ``start`` above
    1 must be proven, every smaller set independent.  A unit of ``budget``
    is spent per full-size set passed; BudgetExceeded (``lower`` = the
    size searched) is raised instead of passing set budget + 1.  Returns
    ``(indices, mask)``, bit width*j + b of ``mask`` the coefficient of
    vector b of block indices[j] in the dependency found by eliminating the
    set's vectors in order, or None if no set is dependent.
    """
    examined = 0

    def spend(sets: int) -> None:
        nonlocal examined
        examined += sets
        if examined > budget:
            raise BudgetExceeded(f"dependent-set search exceeded {budget} sets", lower=size)

    for size in range(start, (len(blocks) if stop is None else stop) + 1):
        for chosen in dependent_sets(blocks, size, spend):
            basis: list = []
            for t, v in enumerate([v for i in chosen for v in blocks[i]]):
                v, mask = xor_insert(basis, v, 1 << t)
                if not v:
                    return chosen, mask
    return None
