"""GF(2) and GF(4) scalar arithmetic and the GF(4) -> GF(2) structure maps.

Elements of GF(4) are the integers 0..3 encoding {0, 1, w, w^2}, where w is
the primitive element with w^2 = w + 1.  Bit 0 of the encoding is the
coordinate on 1 and bit 1 the coordinate on w in the fixed basis {1, w}, so
field addition is bitwise XOR.  The basis is fixed everywhere; it is not a
parameter.
"""

from __future__ import annotations

from .errors import ZeroInverse

W = 2  # the primitive element w
W2 = 3  # w^2 = w + 1

ELEMENTS = (0, 1, 2, 3)
NONZERO = (1, 2, 3)

# 4x4 product table, row a, column b.  Forced by w^2 = w + 1.
MUL_TABLE = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

INV_TABLE = (None, 1, 3, 2)

# Symbol alphabet for text I/O.  GF(2) uses only '0' and '1'.
SYMBOLS = ("0", "1", "w", "W")
_SYMBOL_TO_VALUE = {"0": 0, "1": 1, "w": 2, "W": 3}


def gf4_add(a: int, b: int) -> int:
    """Field sum; XOR of the 2-bit encodings."""
    return a ^ b


def gf4_mul(a: int, b: int) -> int:
    """Field product under w^2 = w + 1."""
    return MUL_TABLE[a][b]


def gf4_inv(a: int) -> int:
    """Multiplicative inverse; raises ZeroInverse for a = 0."""
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse in GF(4)")
    return INV_TABLE[a]


def g_map(a: int) -> tuple[int, int]:
    """Additive bijection GF(4) -> GF(2)^2 in the basis {1, w}.

    g(0)=(0,0), g(1)=(1,0), g(w)=(0,1), g(w^2)=(1,1).
    """
    return (a & 1, a >> 1)


def g_unmap(pair: tuple[int, int]) -> int:
    """Inverse of :func:`g_map`."""
    return pair[0] | (pair[1] << 1)


def vector_map(x) -> tuple[int, ...]:
    """Componentwise g over a GF(4) vector: length m -> length 2m over GF(2)."""
    out = []
    for a in x:
        out.append(a & 1)
        out.append(a >> 1)
    return tuple(out)


def vector_unmap(bits) -> tuple[int, ...]:
    """Inverse of :func:`vector_map`; input length must be even."""
    if len(bits) % 2:
        raise ValueError("bit vector length must be even")
    return tuple(bits[i] | (bits[i + 1] << 1) for i in range(0, len(bits), 2))


def mul_matrix(a: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """2x2 GF(2) matrix of multiplication-by-a in the basis {1, w}.

    Column j holds the basis coordinates of (basis_j * a), so the map is a
    ring homomorphism: mul_matrix(a*b) is the matrix product, and
    mul_matrix(a+b) the matrix sum.
    """
    c0 = g_map(a)  # coordinates of 1*a
    c1 = g_map(gf4_mul(W, a))  # coordinates of w*a
    return ((c0[0], c1[0]), (c0[1], c1[1]))


def symbol_to_value(sym: str, q: int) -> int:
    """Parse one alphabet symbol; raises ValueError on unknown symbols."""
    v = _SYMBOL_TO_VALUE.get(sym)
    if v is None or v >= q:
        raise ValueError(f"invalid GF({q}) symbol {sym!r}")
    return v


def value_to_symbol(v: int, q: int) -> str:
    if not 0 <= v < q:
        raise ValueError(f"value {v} out of range for GF({q})")
    return SYMBOLS[v]
