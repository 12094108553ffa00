"""Concatenation of a GF(4) outer code with the fixed [3,2,2] inner code.

A GF(4) symbol a with basis coordinates (x0, x1) encodes to the inner
codeword (x0+x1, x0, x1), so every nonzero symbol occupies exactly two of
its group's three binary coordinates.  The assembled parity check has the
disjoint-repair-group block form: one all-ones row per group on top, and
below it each group contributes the columns (0, e1, e2) where e1, e2 are
the GF(2) expansions of the outer parity-check column h and of w*h.  A
packed GF(4) vector is its own GF(2) expansion (bit 2j is the coordinate
on 1 and bit 2j+1 the coordinate on w of symbol j), so (e1, e2) is the
pair the outer code's ``bit_columns`` holds for h, as plain ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .code import (
    DEFAULT_ENUM_BUDGET,
    METHOD_GROUP_RANK,
    DistanceCertificate,
    LinearCode,
    WeightDistribution,
)
from .errors import BudgetExceeded, FieldMismatch, Mismatch, ParseError, SubsetBudgetExceeded
from .matrix import (
    FieldMatrix,
    binary_expansion,
    lo_mask,
    smallest_dependent_set,
    unpack_row,
    xor_insert,
)

#: Default cap on repair-group subsets examined by the distance certifier.
DEFAULT_SUBSET_BUDGET = 10_000_000


class BinaryLrc:
    """A binary code with disjoint 3-coordinate repair groups (locality 2).

    It is fixed by its parity check and its groups: the top ``ell`` rows
    are the group parities, and in the ``u`` rows below, group i's columns
    are (0, e1, e2).  ``e_vectors[i]`` is that pair, packed, and
    ``group_masks[p]`` has the bits of the group holding position p.
    """

    def __init__(
        self, code: LinearCode, groups: Sequence[tuple[int, int, int]], d: Optional[int] = None
    ):
        if code.q != 2:
            raise FieldMismatch("BinaryLrc requires a GF(2) code")
        self.code = code
        self.ell = len(groups)
        self.u = code.n - code.k - self.ell
        self.groups = tuple(tuple(g) for g in groups)
        self.d = d
        self._validate()
        lower = [col >> self.ell for col in code.bit_columns]
        self.e_vectors = tuple((lower[b], lower[c]) for _, b, c in self.groups)
        masks = [0] * code.n
        for g in self.groups:
            mask = 1 << g[0] | 1 << g[1] | 1 << g[2]
            for p in g:
                masks[p] = mask
        self.group_masks = tuple(masks)

    def _validate(self) -> None:
        if self.code.n != 3 * self.ell:
            raise ValueError("length must be 3 * group count")
        if self.u < 0:
            raise ValueError("negative auxiliary row count")
        seen: set[int] = set()
        for g in self.groups:
            if len(g) != 3:
                raise ValueError("groups must have exactly 3 coordinates")
            seen.update(g)
        if seen != set(range(self.code.n)):
            raise ValueError("groups must partition the coordinates")
        cols = self.code.bit_columns
        top = (1 << self.ell) - 1
        for i, g in enumerate(self.groups):
            for pos in g:
                if cols[pos] & top != 1 << i:
                    raise ValueError(f"top rows at coordinate {pos} are not the group-{i} parity")
            if cols[g[0]] >> self.ell:
                raise ValueError(f"lower block under group {i} position 0 not zero")

    @cached_property
    def outer(self) -> Optional[LinearCode]:
        """The GF(4) outer code this LRC concatenates, or None.

        Its parity check's columns are the e1s when every group's pair is
        (h, w*h).  ``concatenate`` sets the outer code it was given, so the
        weights that code has cached serve the LRC.
        """
        if self.u % 2:
            return None
        lo = lo_mask(self.u // 2)
        if any([e1, e2] != binary_expansion(4, [e1], lo) for e1, e2 in self.e_vectors):
            return None
        h = FieldMatrix(4, self.ell, self.u // 2, [e1 for e1, _ in self.e_vectors])
        return LinearCode.from_parity(h.transpose())

    def cheapest_weights(self, budget: int = DEFAULT_ENUM_BUDGET) -> WeightDistribution:
        """Exact weights: the outer code's, lifted (A'_{2j} = A_j), which never
        enumerates more words than the LRC (4^k1 = 2^k); else the binary
        code's ``LinearCode.cheapest_weights``."""
        if self.outer is None:
            return self.code.cheapest_weights(budget)
        return lrc_weights_from_outer(self.outer.cheapest_weights(budget))

    def min_distance(
        self, budget: int = DEFAULT_ENUM_BUDGET, subset_budget: int = DEFAULT_SUBSET_BUDGET
    ) -> DistanceCertificate:
        """Exact distance by ``certify_distance``, started at d/2 groups when
        the weights fit ``budget`` (they prove no smaller set dependent), as
        ``LinearCode.min_distance`` starts at d; else at 1 group."""
        try:
            d = self.cheapest_weights(budget).distance()
        except BudgetExceeded:  # nothing proven below one group
            d = None
        return certify_distance(self, subset_budget, start=d // 2 if d else 1)

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    @property
    def r(self) -> int:
        return 2

    def params(self) -> tuple[int, int, Optional[int], int]:
        return (self.n, self.k, self.d, 2)

    def __repr__(self) -> str:
        return f"BinaryLrc([{self.n},{self.k},{self.d};2], ell={self.ell})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "r": 2,
            "ell": self.ell,
            "u": self.u,
            "groups": [list(g) for g in self.groups],
            "H": self.code.parity_check.to_text(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BinaryLrc":
        if not isinstance(obj, dict) or not isinstance(obj.get("H"), str):
            raise ParseError('LRC JSON must be an object with matrix text under "H"')
        groups = obj.get("groups")
        if not isinstance(groups, list) or not all(
            isinstance(g, list) and len(g) == 3 and all(type(i) is int and i >= 0 for i in g)
            for g in groups
        ):
            raise ParseError('"groups" must be a list of three-coordinate lists')
        if obj.get("d") is not None and type(obj["d"]) is not int:
            raise ParseError('"d" must be an integer or null')
        h, _ = FieldMatrix.from_text(obj["H"])
        code = LinearCode.from_parity(h)
        try:
            lrc = cls(code, groups, d=obj.get("d"))
        except ValueError as exc:
            raise ParseError(f"not a locality-2 LRC: {exc}") from exc
        if obj.get("n") != lrc.n or obj.get("k") != lrc.k:
            raise ParseError("stored n/k disagree with the parity-check matrix")
        return lrc


def concatenate(outer: LinearCode) -> BinaryLrc:
    """Concatenate a GF(4) outer code with the [3,2,2] inner code.

    Produces the [3*n1, 2*k1, 2*d1; r=2] code whose codewords are the
    symbolwise inner encodings of outer codewords.  The distance field is
    filled from the outer code's cached distance certificate when present,
    and the LRC's ``outer`` is ``outer`` itself.
    """
    if outer.q != 4:
        raise FieldMismatch("outer code must be over GF(4)")
    ell, u = outer.n, 2 * (outer.n - outer.k)
    pairs = outer.bit_columns
    cols = []
    for i, (e1, e2) in enumerate(zip(pairs[::2], pairs[1::2])):
        top = 1 << i
        cols += [top, top | e1 << ell, top | e2 << ell]
    code = LinearCode.from_parity(FieldMatrix(2, 3 * ell, ell + u, cols).transpose())
    cached = outer.cached_distance
    d = 2 * cached.d if cached is not None else None
    groups = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(ell)]
    lrc = BinaryLrc(code, groups, d=d)
    lrc.outer = outer
    return lrc


def group_subspaces(lrc: BinaryLrc) -> list[list[tuple[int, ...]]]:
    """Per group, a basis of the span of its two lower-block columns."""
    bases = []
    for pair in lrc.e_vectors:
        kernel: list = []
        bases.append([unpack_row(2, v, lrc.u) for v in pair if xor_insert(kernel, v)[0]])
    return bases


def certify_distance(
    lrc: BinaryLrc, subset_budget: int = DEFAULT_SUBSET_BUDGET, start: int = 1
) -> DistanceCertificate:
    """Exact distance from repair-group subspace ranks.

    The distance is 2s where s is the smallest number of groups whose 2s
    lower-block columns are dependent; the certificate carries a weight-2s
    codeword built from the lexicographically first such set, found by
    ``smallest_dependent_set`` over the groups' (e1, e2) pairs.  Every
    set of ``start`` or more groups and below s is examined to prove the
    lower bound, one unit of ``subset_budget`` per set; a ``start`` above 1
    must come from a proof that no codeword has weight below 2 * start,
    such as the weight distribution's d (start = d/2).  On exhaustion the
    bracket holds only the proven lower bound; its upper end is None.
    """
    if lrc.k == 0:
        raise ValueError("zero-dimensional code has no nonzero codeword")
    try:
        found = smallest_dependent_set(lrc.e_vectors, subset_budget, start)
    except BudgetExceeded as exc:
        raise SubsetBudgetExceeded(
            f"group-subset enumeration exceeded {subset_budget}", lower=2 * exc.lower
        ) from exc
    if found is None:
        raise AssertionError("no deficient group subset in a k>0 code")
    subset, mask = found
    word = [0] * lrc.n
    # A group's coefficients (a, b) on (e1, e2) are met by its inner
    # codeword (a+b, a, b), whose top-row parity cancels.
    for j, i in enumerate(subset):
        alpha = (mask >> (2 * j)) & 3
        if alpha == 0:
            raise AssertionError("dependency skips a group; smaller subset missed")
        a, b = alpha & 1, alpha >> 1
        for pos, bit in zip(lrc.groups[i], (a ^ b, a, b)):
            word[pos] = bit
    witness = tuple(word)
    if not lrc.code.contains(witness):
        raise AssertionError("group-rank witness is not a codeword")
    return DistanceCertificate(2 * len(subset), witness, METHOD_GROUP_RANK)


@dataclass(frozen=True)
class CoverageReport:
    """Per-coordinate repair coverage by low-weight dual codewords."""

    r: int
    covering: tuple[Optional[tuple[int, ...]], ...]
    ok: bool

    def uncovered(self) -> list[int]:
        return [i for i, c in enumerate(self.covering) if c is None]


def locality_check(
    code: LinearCode | BinaryLrc, r: int, budget: int = DEFAULT_ENUM_BUDGET
) -> CoverageReport:
    """Check that every coordinate is covered by a dual word of weight <= r+1.

    For a BinaryLrc with r >= 2 the group parity rows cover structurally;
    otherwise the dual code is enumerated within budget.
    """
    if isinstance(code, BinaryLrc):
        if r >= 2:
            covering: list[Optional[tuple[int, ...]]] = [None] * code.n
            for i, g in enumerate(code.groups):
                row = code.code.parity_check.row_tuple(i)
                for pos in g:
                    covering[pos] = row
            return CoverageReport(r, tuple(covering), True)
        code = code.code
    total = code.q ** (code.n - code.k)
    if total > budget:
        raise BudgetExceeded(f"dual enumeration of {total} words exceeds {budget}")
    dual = code.dual()
    covering = [None] * code.n
    remaining = code.n
    # Each coordinate takes the first dual word in step order of weight
    # 1..r+1 whose support holds it.
    for base, planes, nonzero in dual._weight_planes():
        short = 0
        for w in range(1, min(r + 1, code.n) + 1):
            short |= planes[w]
        if not short:
            continue
        for j in range(code.n):
            if covering[j] is None:
                hit = short & nonzero[j]
                if hit:
                    covering[j] = dual._step_word(base + (hit & -hit).bit_length() - 1)
                    remaining -= 1
        if remaining == 0:
            break
    return CoverageReport(r, tuple(covering), remaining == 0)


def lrc_weights_from_outer(outer_weights: WeightDistribution) -> WeightDistribution:
    """Weight distribution of the concatenation: A'_{2j} = A_j, odd counts 0."""
    n1 = outer_weights.n
    counts = [0] * (3 * n1 + 1)
    for j, a in enumerate(outer_weights.counts):
        counts[2 * j] = a
    return WeightDistribution(3 * n1, 2 * outer_weights.k, 2, tuple(counts))


def weight_map_check(
    outer: LinearCode, lrc: BinaryLrc, budget: int = DEFAULT_ENUM_BUDGET
) -> bool:
    """Verify A_{2j}(concatenation) = A_j(outer) with all odd counts zero.

    Both distributions are enumerated exhaustively; a Mismatch carrying the
    first differing weight index signals an implementation bug.
    """
    wo = outer.weight_distribution(budget)
    wl = lrc.code.weight_distribution(budget)
    expected = lrc_weights_from_outer(wo)
    for i in range(lrc.n + 1):
        if wl.counts[i] != expected.counts[i]:
            raise Mismatch(
                f"A_{i} = {wl.counts[i]} but the outer distribution implies "
                f"{expected.counts[i]}",
                index=i,
            )
    return True
