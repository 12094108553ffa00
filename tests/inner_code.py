"""The inner-code context and the tuple-based concatenation it replaced.

``g_map``, ``g_unmap``, ``vector_map``, ``vector_unmap`` and ``mul_matrix``
are the former GF(4) -> GF(2) structure maps of ``gf4lrc.gf4``, one scalar
or tuple at a time; the packed layout of ``gf4lrc.matrix`` is checked
against them.  ``InnerCode``, ``INNER`` and ``encode_outer_word`` are the
former symbolwise [3,2,2] inner encoding of ``gf4lrc.concat``.
``reference_concatenate`` is the former assembly of ``concatenate``: each
outer parity-check column is read entry by entry, expanded with
``vector_map``, and the binary parity check is assembled column by column
from symbol lists; d is twice the outer d of a cached certificate, or else
of cached weights.  They stay here as the reference the packed
construction is checked against.
"""

from dataclasses import dataclass
from typing import Sequence

from scalar_elimination import col_tuple
from gf4lrc import gf4
from gf4lrc.matrix import FieldMatrix


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
    return tuple(bit for a in x for bit in g_map(a))


def vector_unmap(bits) -> tuple[int, ...]:
    """Inverse of :func:`vector_map`; input length must be even."""
    if len(bits) % 2:
        raise ValueError("bit vector length must be even")
    return tuple(g_unmap(bits[i : i + 2]) for i in range(0, len(bits), 2))


def mul_matrix(a: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """2x2 GF(2) matrix of multiplication-by-a in the basis {1, w}.

    Column j holds the basis coordinates of (basis_j * a), so the map is a
    ring homomorphism: mul_matrix(a*b) is the matrix product, and
    mul_matrix(a+b) the matrix sum.
    """
    c0 = g_map(a)  # coordinates of 1*a
    c1 = g_map(gf4.gf4_mul(gf4.W, a))  # coordinates of w*a
    return ((c0[0], c1[0]), (c0[1], c1[1]))


@dataclass(frozen=True)
class InnerCode:
    """The fixed [3,2,2] binary inner code and its encoding context."""

    generator: tuple[tuple[int, ...], ...]
    parity: tuple[int, ...]
    right_inverse: tuple[tuple[int, ...], ...]  # Q with Q * generator^T = I

    def encode_symbol(self, a: int) -> tuple[int, int, int]:
        """Inner codeword for one GF(4) symbol; nonzero symbols get weight 2."""
        x0, x1 = g_map(a)
        return (x0 ^ x1, x0, x1)


INNER = InnerCode(
    generator=((1, 1, 0), (1, 0, 1)),
    parity=(1, 1, 1),
    right_inverse=((0, 1, 0), (0, 0, 1)),
)


def encode_outer_word(word: Sequence[int]) -> tuple[int, ...]:
    """Symbolwise inner encoding of a GF(4) word."""
    out: list[int] = []
    for a in word:
        out.extend(INNER.encode_symbol(a))
    return tuple(out)


def reference_concatenate(outer):
    """(parity check, groups, d, e-vector tuples) of the concatenation."""
    n1, k1 = outer.n, outer.k
    ell, u = n1, 2 * (n1 - k1)
    e_vectors = []
    cols = []
    for i in range(ell):
        h_col = col_tuple(outer.parity_check, i)
        e1 = vector_map(h_col)
        e2 = vector_map(tuple(gf4.gf4_mul(gf4.W, c) for c in h_col))
        e_vectors.append((e1, e2))
        top = [int(j == i) for j in range(ell)]
        cols += [top + [0] * u, top + list(e1), top + list(e2)]
    rows = [[col[r] for col in cols] for r in range(ell + u)]
    parity = FieldMatrix.from_rows(2, rows)
    cached, weights = outer.cached_distance, outer._cheapest
    d1 = cached.d if cached is not None else weights.distance() if weights is not None else None
    d = 2 * d1 if d1 is not None else None
    groups = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(ell))
    return parity, groups, d, tuple(e_vectors)
