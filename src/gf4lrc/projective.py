"""Projective geometry over GF(4): point enumeration and caps.

Points of PG(n, 4) are scalar classes of nonzero vectors in GF(4)^(n+1),
canonically represented with first nonzero coordinate 1 and enumerated in
lexicographic order of the coordinate sequence read last-to-first (symbols
ordered 0 < 1 < w < w^2).  Unit points lead, and the points of the span of
the first few coordinates form a prefix, so every consumer sees the same
column order.

Cap file format: a header line ``pg=<n> q=4 size=<k>`` followed by one
normalized point per line, coordinates whitespace-separated in the
``0 1 w W`` alphabet, read by the matrix text format's row reader.  A cap
is checked by the one dependent-set search, so this module holds no line
geometry; the test-only cap search carries its own.  ``families.cap_code``
proves a cap by its code's weights instead, and runs the search only where
the weights do not prove it, or to name a collinear triple.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass
from itertools import product

from . import gf4
from .errors import NotACap, ParseError
from .matrix import (
    pack_row,
    read_symbol_rows,
    scale_row,
    smallest_dependent_set,
    unpack_row,
)

Point = tuple[int, ...]


def point_sort_key(p: Point) -> Point:
    return p[::-1]


def pg_points(n: int) -> list[Point]:
    """All (4^(n+1)-1)/3 points of PG(n, 4) in canonical order."""
    if n < 0:
        raise ValueError("ambient dimension must be >= 0")
    pts = []
    for lead in range(n + 1):
        # first nonzero coordinate at position `lead`, normalized to 1
        for tail in product(range(4), repeat=n - lead):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort(key=point_sort_key)
    return pts


def subspace_points(total_coords: int, offset: int, dim: int) -> list[Point]:
    """Points supported on the coordinate block [offset, offset+dim)."""
    pts = []
    for p in pg_points(dim - 1):
        vec = (0,) * offset + p + (0,) * (total_coords - offset - dim)
        pts.append(vec)
    return pts


@dataclass(frozen=True)
class CapSet:
    """A set of PG(ambient, 4) points with no three collinear."""

    ambient: int
    points: tuple[Point, ...]

    def size(self) -> int:
        return len(self.points)

    def verify(self) -> None:
        """Recheck the cap property; raises NotACap with a violating triple."""
        self.check_points()
        # Distinct normalized points are pairwise independent, so a dependent
        # set of three points, each as its pair (p, w*p), is a collinear
        # triple: the size-3 search finds the first, or passes all C(m, 3).
        packed = [pack_row(4, p) for p in self.points]
        blocks = [(v, scale_row(4, v, gf4.W)) for v in packed]
        found = smallest_dependent_set(blocks, math.comb(len(blocks), 3), start=3, stop=3)
        if found is not None:
            raise NotACap(f"collinear triple at indices {found[0]}", triple=found[0])

    def check_points(self) -> None:
        """Check each point: of the right length over GF(4), nonzero,
        normalized and new; raises NotACap naming the first that is not."""
        seen = set()
        for i, p in enumerate(self.points):
            if len(p) != self.ambient + 1:
                raise NotACap(f"point {i} has wrong length", triple=None)
            if any(c not in range(4) for c in p):
                raise NotACap(f"point {i} has a coordinate outside GF(4)", triple=None)
            if not any(p):
                raise NotACap(f"point {i} is the zero vector", triple=None)
            if next(c for c in p if c) != 1:
                raise NotACap(f"point {i} is not normalized", triple=None)
            if p in seen:
                raise NotACap(f"duplicate point {p}", triple=None)
            seen.add(p)

    @classmethod
    def from_text(cls, text: str) -> "CapSet":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty cap text")
        tokens = [token.partition("=") for token in lines[0].split()]
        header = {key: value for key, _, value in tokens}
        if len(tokens) != 3 or set(header) != {"pg", "q", "size"}:
            raise ParseError(f"bad cap header {lines[0]!r}")
        if header["q"] != "4":
            raise ParseError("only q=4 caps supported")
        try:
            ambient = int(header["pg"])
            size = int(header["size"])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if ambient < 0:
            raise ParseError(f"ambient dimension pg={ambient} must be >= 0")
        if len(lines) - 1 != size:
            raise ParseError(f"expected {size} points, found {len(lines) - 1}")
        rows = read_symbol_rows(4, lines[1:], ambient + 1)
        return cls(ambient, tuple(unpack_row(4, row, ambient + 1) for row in rows))


@functools.cache
def bundled_cap_pg3_17() -> CapSet:
    """The shipped 17-point cap in PG(3, 4) (one representative), read and
    parsed once per process: a ``CapSet`` is frozen and holds its points as
    tuples, so every caller may share it.  Reading it proves nothing;
    ``families.cap_code`` checks and proves the cap on each build."""
    text = (
        importlib.resources.files("gf4lrc")
        .joinpath("data/cap_pg3_size17.txt")
        .read_text()
    )
    return CapSet.from_text(text)
