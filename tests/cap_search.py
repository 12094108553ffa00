"""Deterministic backtracking cap search in PG(n, 4), kept as a test oracle.

The package ships its 17-cap in PG(3, 4) as a data file; this search is
the one way to see that the bundled cap is the search's first completion.
It runs on the package's point enumeration and GF(4) arithmetic, and
carries its own line geometry (normalization and the companions of a
pair), since the package checks a cap by its dependent-set search instead.
It also holds ``cap_text``, the cap file writer: the package only reads
cap files.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from gf4lrc import gf4
from gf4lrc.errors import BudgetExceeded, Gf4LrcError
from gf4lrc.matrix import pack_row, row_text
from gf4lrc.projective import CapSet, Point, pg_points, point_sort_key


def cap_text(cap: CapSet) -> str:
    """The cap file text that ``CapSet.from_text`` reads back, each point
    one row of the matrix codec."""
    lines = [f"pg={cap.ambient} q=4 size={len(cap.points)}"]
    lines += [row_text(4, pack_row(4, p), len(p)) for p in cap.points]
    return "\n".join(lines) + "\n"


class SearchExhausted(Gf4LrcError):
    """A complete search proved that no object of the requested size exists."""


def normalize_point(vec: Sequence[int]) -> Point:
    """Canonical representative: first nonzero coordinate scaled to 1."""
    for c in vec:
        if c:
            inv = gf4.gf4_inv(c)
            return tuple(gf4.gf4_mul(inv, v) for v in vec)
    raise ValueError("zero vector has no projective class")


def _point_add(p: Point, scalar: int, r: Point) -> tuple[int, ...]:
    return tuple(a ^ gf4.gf4_mul(scalar, b) for a, b in zip(p, r))


def collinear_companions(p: Point, r: Point) -> list[Point]:
    """The three remaining points of the line through distinct points p, r."""
    return [normalize_point(_point_add(p, s, r)) for s in gf4.NONZERO]


def _auto_seed(ambient: int, target: int) -> list[Point]:
    """Canonical independent seed points the search may fix.

    Any cap's triples are independent, so every cap of size >= 3 maps under
    the projective group onto one through three unit points; a cap in
    PG(3, 4) of size >= 7 cannot lie in a plane (planar caps max out at the
    6-point hyperoval), so it contains four independent points.
    """
    m = min(target, 3)
    if ambient == 3 and target >= 7:
        m = 4
    m = min(m, ambient + 1)
    seed = []
    for i in range(m):
        vec = [0] * (ambient + 1)
        vec[i] = 1
        seed.append(tuple(vec))
    return seed


def cap_search(
    ambient: int,
    target: int,
    effort: int = 2_000_000,
    seed: Optional[Sequence[Point]] = None,
) -> CapSet:
    """Deterministic lexicographic backtracking search for a `target`-cap.

    Fixes a canonical seed of independent unit points, then extends with
    points in increasing lexicographic order; the first completion found is
    returned (points sorted).  Raises SearchExhausted when the full tree
    proves no such cap exists, BudgetExceeded after `effort` nodes.
    """
    points = pg_points(ambient)
    index = {p: i for i, p in enumerate(points)}
    npts = len(points)
    if target > npts:
        raise SearchExhausted(f"PG({ambient},4) has only {npts} points")
    seed_pts = list(seed) if seed is not None else _auto_seed(ambient, target)
    if len(seed_pts) > target:
        seed_pts = seed_pts[:target]
    chosen = [normalize_point(p) for p in seed_pts]
    forbidden = 0
    for p in chosen:
        forbidden |= 1 << index[p]
    for a, b in combinations(chosen, 2):
        for c in collinear_companions(a, b):
            forbidden |= 1 << index[c]
    nodes = 0

    def extend(chosen: list[Point], start: int, forbidden: int):
        nonlocal nodes
        if len(chosen) == target:
            return list(chosen)
        need = target - len(chosen)
        for idx in range(start, npts - need + 1):
            if forbidden & (1 << idx):
                continue
            nodes += 1
            if nodes > effort:
                raise BudgetExceeded(
                    f"cap search exceeded {effort} nodes; retry with more effort"
                )
            cand = points[idx]
            new_forbidden = forbidden | (1 << idx)
            for p in chosen:
                for c in collinear_companions(p, cand):
                    new_forbidden |= 1 << index[c]
            chosen.append(cand)
            result = extend(chosen, idx + 1, new_forbidden)
            if result is not None:
                return result
            chosen.pop()
        return None

    result = extend(chosen, 0, forbidden)
    if result is None:
        raise SearchExhausted(
            f"no {target}-cap in PG({ambient},4) extends the canonical seed"
        )
    return CapSet(ambient, tuple(sorted(result, key=point_sort_key)))
