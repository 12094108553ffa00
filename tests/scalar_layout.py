"""The per-symbol matrix layout that the digit-string codec replaced.

These are the former ``matrix.pack_row`` and ``matrix.unpack_row``, the
former ``FieldMatrix.transpose`` (one symbol at a time, over every column),
and the former ``FieldMatrix.to_text`` and ``CapSet.to_text``, one symbol
lookup per entry.  They use nothing of the codec, so they stay here as the
reference it is checked against.  ``split_symbol_rows`` is the former
``matrix.read_symbol_rows``, which splits every line.
"""

from gf4lrc.errors import ParseError
from gf4lrc.gf4 import SYMBOLS, symbol_to_value


def pack_row(q: int, symbols) -> int:
    row = 0
    if q == 2:
        for j, v in enumerate(symbols):
            if v:
                row |= 1 << j
    else:
        for j, v in enumerate(symbols):
            row |= v << (2 * j)
    return row


def unpack_row(q: int, row: int, ncols: int) -> tuple[int, ...]:
    if q == 2:
        return tuple((row >> j) & 1 for j in range(ncols))
    return tuple((row >> (2 * j)) & 3 for j in range(ncols))


def transpose(q: int, rows, ncols: int) -> list[int]:
    """The packed columns of packed rows of ncols symbols."""
    width = 1 if q == 2 else 2
    cols = [0] * ncols
    for i, row in enumerate(rows):
        for j, value in enumerate(unpack_row(q, row, ncols)):
            cols[j] |= value << (width * i)
    return cols


def row_text(q: int, row: int, ncols: int) -> str:
    return " ".join(SYMBOLS[v] for v in unpack_row(q, row, ncols))


def matrix_text(q: int, rows, ncols: int) -> str:
    """``FieldMatrix.to_text()`` with no header extras."""
    lines = [f"field={q} rows={len(rows)} cols={ncols}"]
    lines += [row_text(q, row, ncols) for row in rows]
    return "\n".join(lines) + "\n"


def cap_text(ambient: int, points) -> str:
    lines = [f"pg={ambient} q=4 size={len(points)}"]
    lines += [" ".join(SYMBOLS[v] for v in p) for p in points]
    return "\n".join(lines) + "\n"


def split_symbol_rows(q: int, lines, ncols: int) -> list[int]:
    """Packed rows of text lines of exactly ncols symbols each, each line split."""
    rows = []
    alphabet = set(SYMBOLS[:q])
    for ln in lines:
        syms = ln.split()
        if len(syms) != ncols:
            raise ParseError(f"expected {ncols} symbols, found {len(syms)}")
        joined = "".join(syms)
        if len(joined) != ncols or not alphabet.issuperset(joined):
            try:  # some symbol is not in the alphabet: name the first
                for sym in syms:
                    symbol_to_value(sym, q)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        rows.append(pack_row(q, [symbol_to_value(sym, q) for sym in syms]))
    return rows
