"""The GF(4) symbol alphabet and its scalar product table.

Elements of GF(4) are the integers 0..3 encoding {0, 1, w, w^2}, where w is
the primitive element with w^2 = w + 1.  Bit 0 of the encoding is the
coordinate on 1 and bit 1 the coordinate on w in the fixed basis {1, w}, so
field addition is bitwise XOR and the 2-bit encoding is the additive map
g: GF(4) -> GF(2)^2 itself; a packed GF(4) row is its own g-expansion.  The
basis is fixed everywhere; it is not a parameter.

The package computes over GF(4) only on packed rows (``matrix``).  The
scalar product ``gf4_mul``, its table and ``NONZERO`` are kept only for the
benchmark's input generator, which scales columns one symbol at a time.
"""

from __future__ import annotations

W = 2  # the primitive element w
W2 = 3  # w^2 = w + 1

NONZERO = (1, 2, 3)

# 4x4 product table, row a, column b.  Forced by w^2 = w + 1.
MUL_TABLE = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

# Symbol alphabet for text I/O.  GF(2) uses only '0' and '1'.
SYMBOLS = ("0", "1", "w", "W")
_SYMBOL_TO_VALUE = {"0": 0, "1": 1, "w": 2, "W": 3}


def gf4_mul(a: int, b: int) -> int:
    """Field product under w^2 = w + 1."""
    return MUL_TABLE[a][b]


def symbol_to_value(sym: str, q: int) -> int:
    """Parse one alphabet symbol; raises ValueError on unknown symbols."""
    v = _SYMBOL_TO_VALUE.get(sym)
    if v is None or v >= q:
        raise ValueError(f"invalid GF({q}) symbol {sym!r}")
    return v

