"""The inner-code context and the tuple-based concatenation it replaced.

``InnerCode``, ``INNER`` and ``encode_outer_word`` are the former symbolwise
[3,2,2] inner encoding of ``gf4lrc.concat``.  ``reference_concatenate`` is
the former assembly of ``concatenate``: each outer parity-check column is
read entry by entry, expanded with ``gf4.vector_map``, and the binary parity
check is assembled column by column from symbol lists.  They stay here as
the reference the packed construction is checked against.
"""

from dataclasses import dataclass
from typing import Sequence

from gf4lrc import gf4
from gf4lrc.matrix import FieldMatrix


@dataclass(frozen=True)
class InnerCode:
    """The fixed [3,2,2] binary inner code and its encoding context."""

    generator: tuple[tuple[int, ...], ...]
    parity: tuple[int, ...]
    right_inverse: tuple[tuple[int, ...], ...]  # Q with Q * generator^T = I

    def encode_symbol(self, a: int) -> tuple[int, int, int]:
        """Inner codeword for one GF(4) symbol; nonzero symbols get weight 2."""
        x0, x1 = gf4.g_map(a)
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
        h_col = outer.parity_check.col_tuple(i)
        e1 = gf4.vector_map(h_col)
        e2 = gf4.vector_map(tuple(gf4.gf4_mul(gf4.W, c) for c in h_col))
        e_vectors.append((e1, e2))
        top = [int(j == i) for j in range(ell)]
        cols += [top + [0] * u, top + list(e1), top + list(e2)]
    rows = [[col[r] for col in cols] for r in range(ell + u)]
    parity = FieldMatrix.from_rows(2, rows)
    cached = outer.cached_distance
    d = 2 * cached.d if cached is not None else None
    groups = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(ell))
    return parity, groups, d, tuple(e_vectors)
