"""Concatenation of a GF(4) outer code with the fixed [3,2,2] inner code.

A GF(4) symbol a with basis coordinates (x0, x1) encodes to the inner
codeword (x0+x1, x0, x1), so every nonzero symbol occupies exactly two of
its group's three binary coordinates.  The assembled parity check has the
disjoint-repair-group block form: one all-ones row per group on top, and
below it each group contributes the columns (0, e1, e2) where e1, e2 are
the GF(2) expansions of the outer parity-check column h and of w*h.  A
packed GF(4) vector is its own GF(2) expansion (bit 2j is the coordinate
on 1 and bit 2j+1 the coordinate on w of symbol j), so (e1, e2) is the
pair the outer code's ``bit_columns`` holds for h, as plain ints.  The
concatenation holds these columns as its code's ``bit_columns`` and checks
H's rank as the outer H's; H's rows are derived only when first read.
An LRC's distance takes a plain code's route (see ``code``) over its pair code,
and a concatenation keeps its outer code's column certificate, lifted.  A
loaded LRC holds H as read and checks it by rows: its groups in bulk as a
partition, top row i against group i's indicator, and its lower rows
against the mask of each group's first position.  It assembles H's columns
from the lower block's u rows by ``_lrc_columns``, as a concatenation
assembles them from its outer columns; a column scan runs only to name the
position at fault.  Once its groups check, the
group parities are independent of the rest, so only the u lower rows are
ranked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import or_
from typing import Optional, Sequence

from .code import (
    DEFAULT_ENUM_BUDGET,
    METHOD_COLUMN,
    METHOD_EXHAUSTIVE,
    METHOD_GROUP_RANK,
    DistanceCertificate,
    LinearCode,
    WeightDistribution,
    certify_dependent_set,
    side_weights,
    step_word,
    weight_planes,
)
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    ParseError,
    RankDeficient,
    SubsetBudgetExceeded,
)
from .matrix import (
    FieldMatrix,
    binary_expansion,
    pack_row,
    rows_rank,
    unpack_row,
    xor_combine,
    xor_insert,
    xor_reduce,
)

#: Default cap on repair-group subsets examined by the distance certifier.
DEFAULT_SUBSET_BUDGET = 10_000_000


class BinaryLrc:
    """A binary code with disjoint 3-coordinate repair groups (locality 2).

    It is fixed by its parity check and its groups: the top ``ell`` rows
    are the group parities, and in the ``u`` rows below, group i's columns
    are (0, e1, e2).  ``e_vectors[i]`` is that pair, packed.  A codeword
    is 0 or (a+b, a, b) on group i, (a, b) its bits at the 2nd and 3rd
    listed positions, so it weighs twice its pair word's symbol weight.
    The pair words form the pair code P: sum_i a_i e1_i + b_i e2_i = 0.
    The lower block's u rows (group i at bits 2i, 2i+1) span P's dual.
    """

    def __init__(
        self, code: LinearCode, groups: Sequence[tuple[int, int, int]], d: Optional[int] = None
    ):
        self._hold(code, groups, d)
        self._check_groups()
        self._check_columns()
        lower = [col >> self.ell for col in code.bit_columns]
        self.e_vectors = tuple((lower[b], lower[c]) for _, b, c in self.groups)

    def _hold(self, code: LinearCode, groups, d: Optional[int]) -> None:
        if code.q != 2:
            raise FieldMismatch("BinaryLrc requires a GF(2) code")
        self.code, self.n, self.k = code, code.n, code.k
        self.ell = len(groups)
        self.u = code.n - code.k - self.ell
        self.groups = tuple(map(tuple, groups))
        self.d = d
        self._weights: Optional[WeightDistribution] = None
        self._walk: Optional[tuple] = None  # the weights' walk of P itself: rows, first steps
        self._distance: Optional[DistanceCertificate] = None  # carried from an outer code

    def _check_groups(self) -> None:
        """The groups partition the coordinates, checked in bulk: every
        coordinate in range first, so that no check builds a mask of a
        coordinate beyond n, then no coordinate twice."""
        if not self.groups:
            raise ValueError("at least one repair group is required")
        if self.code.n != 3 * self.ell:
            raise ValueError("length must be 3 * group count")
        if self.u < 0:
            raise ValueError("negative auxiliary row count")
        if set(map(len, self.groups)) != {3}:
            raise ValueError("groups must have exactly 3 coordinates")
        flat = list(chain.from_iterable(self.groups))
        if min(flat) < 0 or max(flat) >= self.n or len(set(flat)) != self.n:
            raise ValueError("groups must partition the coordinates")

    def _check_columns(self) -> None:
        """Group by group, each position's top rows are the group's parity and
        the lower block under its first position is 0, read from H's columns:
        the scan that names the first position at fault."""
        cols = self.code.bit_columns
        top = (1 << self.ell) - 1
        for i, g in enumerate(self.groups):
            for pos in g:
                if cols[pos] & top != 1 << i:
                    raise ValueError(f"top rows at coordinate {pos} are not the group-{i} parity")
            if cols[g[0]] >> self.ell:
                raise ValueError(f"lower block under group {i} position 0 not zero")

    def _take_rows(self, h: FieldMatrix) -> None:
        """The column checks of ``_check_columns`` on H's rows: top row i is
        group i's indicator, and no lower row meets a group's first position.
        Then H's columns are assembled (``_lrc_columns``) from the u lower rows."""
        ell, groups = self.ell, self.groups
        lower = h.rows[ell:]
        indicators = tuple(1 << a | 1 << b | 1 << c for a, b, c in groups)
        firsts = sum(1 << g[0] for g in groups)
        if h.rows[:ell] != indicators or reduce(or_, lower, 0) & firsts:
            self._check_columns()
            raise AssertionError("the row checks fail where the column scan passes")
        columns = FieldMatrix(2, self.u, self.n, lower).transpose().rows
        self.code.bit_columns, self.e_vectors = _lrc_columns(groups, columns, ell)

    def cheapest_weights(self, budget: int = DEFAULT_ENUM_BUDGET) -> WeightDistribution:
        """Exact weights from P by ``side_weights`` over the lower block, and
        its walk of P itself: A'_{2j} = A_j, P's words of symbol weight j; a
        cached result is read whatever the budget."""
        if self._weights is None:
            dual = FieldMatrix(2, 2 * self.ell, self.u, sum(self.e_vectors, ())).transpose()
            counts, self._walk = side_weights(dual.rows, self.ell, 2, self.k, budget)
            self._weights = _lifted(counts, self.k)
        return self._weights

    def min_distance(
        self, budget: int = DEFAULT_ENUM_BUDGET, subset_budget: int = DEFAULT_SUBSET_BUDGET
    ) -> DistanceCertificate:
        """Exact distance by ``certify_distance``, started at d/2 groups when
        the weights fit ``budget`` (they prove no smaller set dependent), else
        at 1 group.  Out of ``subset_budget``, a walk of P itself gives the
        witness, as a plain code's does: its first word of weight d/2, lifted.
        A certificate carried from the outer code is read whatever the budgets."""
        if self._distance is not None:
            return self._distance
        try:
            d = self.cheapest_weights(budget).distance()
        except BudgetExceeded:  # nothing proven below one group
            d = None
        try:
            return certify_distance(self, subset_budget, start=d // 2 if d else 1)
        except SubsetBudgetExceeded:
            if self._walk is None:
                raise
        rows, first = self._walk
        word = self.lift(step_word(4, rows, first[d // 2], self.ell))
        return DistanceCertificate(d, word, METHOD_EXHAUSTIVE)

    def lift(self, symbols: Sequence[int]) -> tuple[int, ...]:
        """The codeword of a pair word: a group's coefficients (a, b) on (e1, e2)
        are met by its inner codeword (a+b, a, b), whose top-row parity cancels."""
        word = [0] * self.n
        for group, alpha in zip(self.groups, symbols):
            a, b = alpha & 1, alpha >> 1
            for pos, bit in zip(group, (a ^ b, a, b)):
                word[pos] = bit
        return tuple(word)

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
        listed = isinstance(groups, list) and all(map(isinstance, groups, repeat(list)))
        flat = list(chain.from_iterable(groups)) if listed else []
        if not listed or set(map(len, groups)) - {3} or set(map(type, flat)) - {int} or (
            min(flat, default=0) < 0
        ):
            raise ParseError('"groups" must be a list of three-coordinate lists')
        if type(obj.get("n")) is not int or type(obj.get("k")) is not int:
            raise ParseError('"n" and "k" must be integers')
        if obj.get("d") is not None and type(obj["d"]) is not int:
            raise ParseError('"d" must be an integer or null')
        h, _ = FieldMatrix.from_text(obj["H"])
        lrc = cls.__new__(cls)
        try:
            lrc._hold(LinearCode._holding(h), groups, obj.get("d"))
            lrc._check_groups()
            lrc._take_rows(h)
        except ValueError as exc:
            LinearCode.from_parity(h)  # a dependent H is named first, whatever else is wrong
            raise ParseError(f"not a locality-2 LRC: {exc}") from exc
        # The group checks make column g[0] of group i the unit vector of top
        # row i, so a dependency among H's rows holds no top row: H has full
        # rank exactly when the lower block's u rows do.
        if rows_rank(2, h.rows[lrc.ell :], lrc.n) != lrc.u:
            raise RankDeficient("parity-check rows are linearly dependent")
        if obj.get("n") != lrc.n or obj.get("k") != lrc.k:
            raise ParseError("stored n/k disagree with the parity-check matrix")
        # The other stored fields are optional; one that is present must hold.
        for key, value in (("r", 2), ("ell", lrc.ell), ("u", lrc.u)):
            if key in obj and (type(obj[key]) is not int or obj[key] != value):
                raise ParseError(f'stored "{key}" disagrees with the LRC ({key} = {value})')
        return lrc


def _lrc_columns(groups, lower: Sequence[int], ell: int) -> tuple[list[int], tuple]:
    """H's columns and the groups' (e1, e2) pairs, from ``lower[j]``, the
    lower-block column at coordinate j: each column is its group's top bit
    over its lower column."""
    cols = [col << ell for col in lower]
    for i, g in enumerate(groups):
        for pos in g:
            cols[pos] |= 1 << i
    return cols, tuple((lower[b], lower[c]) for _, b, c in groups)


def concatenate(outer: LinearCode) -> BinaryLrc:
    """Concatenate a GF(4) outer code with the [3,2,2] inner code.

    Produces the [3*n1, 2*k1, 2*d1; r=2] code whose codewords are the
    symbolwise inner encodings of outer codewords, so its pair code is the
    outer code and its weights walk the outer code's smaller side.  The
    distance field is filled from the outer code's cached distance
    certificate when present; the outer code's cached weights (lifted) and walk are P's.
    A column certificate is the LRC's too, lifted: the group search runs over
    the same blocks (``e_vectors`` are the outer ``bit_columns`` pairs) from
    the same start d1, so it would find the same set.
    """
    if outer.q != 4:
        raise FieldMismatch("outer code must be over GF(4)")
    # The group rows are independent of the lower block, which is 0 at
    # each group's first position, and the lower block is the pair
    # expansion of the outer H: the LRC's H has full rank exactly when
    # the outer H does.
    ell = outer.n
    if rows_rank(4, outer.parity_check.rows, ell) != ell - outer.k:
        raise RankDeficient("parity-check rows are linearly dependent")
    pairs = outer.bit_columns
    lower = []
    for e1, e2 in zip(pairs[::2], pairs[1::2]):
        lower += [0, e1, e2]
    groups = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(ell)]
    # The code holds H's columns; H's rows are derived when first read.
    code = LinearCode.__new__(LinearCode)
    code._hold(2, 3 * ell, 2 * outer.k)
    code.bit_columns, _ = _lrc_columns(groups, lower, ell)
    cached = outer.cached_distance
    d = 2 * cached.d if cached is not None else None
    lrc = BinaryLrc(code, groups, d=d)
    if cached is not None and cached.method == METHOD_COLUMN:
        word = lrc.lift(cached.witness)
        if not code.contains(word):
            raise AssertionError("carried witness is not a codeword")
        lrc._distance = DistanceCertificate(d, word, METHOD_GROUP_RANK)
    if outer._cheapest is not None:  # P is the outer code, walked in the same steps
        lrc._weights = lrc_weights_from_outer(outer._cheapest)
        if outer._pass is not None:
            lrc._walk = outer.bit_rows, outer._pass[1]
    return lrc


def group_bases(lrc: BinaryLrc) -> list[list[int]]:
    """Per group, a basis of the span of its two lower-block columns, packed."""
    bases = []
    for pair in lrc.e_vectors:
        kernel: list = []
        bases.append([v for v in pair if xor_insert(kernel, v)[0]])
    return bases


def group_subspaces(lrc: BinaryLrc) -> list[list[tuple[int, ...]]]:
    """``group_bases``, each vector unpacked to its u bits."""
    return [[unpack_row(2, v, lrc.u) for v in basis] for basis in group_bases(lrc)]


def certify_distance(
    lrc: BinaryLrc, subset_budget: int = DEFAULT_SUBSET_BUDGET, start: int = 1
) -> DistanceCertificate:
    """Exact distance 2s, s the fewest groups whose (e1, e2) pairs are dependent
    (``certify_dependent_set``).  Each set of ``start`` to s groups spends one
    unit of ``subset_budget``; a ``start`` above 1 must be proven, as the weights'
    d proves d/2.  The bracket on exhaustion holds only the proven lower bound."""
    if lrc.k == 0:
        raise ValueError("zero-dimensional code has no nonzero codeword")
    try:
        return certify_dependent_set(
            lrc.code, lrc.e_vectors, lrc.lift, subset_budget, start, METHOD_GROUP_RANK
        )
    except BudgetExceeded as exc:
        raise SubsetBudgetExceeded(
            f"group-subset enumeration exceeded {subset_budget}", lower=2 * exc.lower
        ) from exc


@dataclass(frozen=True)
class CoverageReport:
    """Per-coordinate repair coverage by low-weight dual codewords."""

    r: int
    covering: tuple[Optional[tuple[int, ...]], ...]
    ok: bool

    def uncovered(self) -> list[int]:
        return [i for i, c in enumerate(self.covering) if c is None]


def locality_check(
    code: LinearCode | BinaryLrc,
    r: int,
    budget: int = DEFAULT_ENUM_BUDGET,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
) -> CoverageReport:
    """Check that every coordinate is covered by a dual word of weight <= r+1.

    For a BinaryLrc with r >= 2 the group parity rows cover structurally:
    top row i of H is group i's indicator, as the LRC's checks prove.
    Otherwise it walks the words H's pair rows span, within ``budget``;
    when they exceed it, each coordinate is decided by ``_covering_sets``
    within ``subset_budget``.
    """
    if isinstance(code, BinaryLrc):
        if r >= 2:
            covering: list[Optional[tuple[int, ...]]] = [None] * code.n
            for g in code.groups:
                row = [0] * code.n
                for pos in g:
                    row[pos] = 1
                row = tuple(row)
                for pos in g:
                    covering[pos] = row
            return CoverageReport(r, tuple(covering), True)
        code = code.code
    if code.q ** (code.n - code.k) > budget:
        return _covering_sets(code, r, subset_budget)
    rows = code.check_rows
    covering = [None] * code.n
    remaining = code.n
    # Each coordinate takes the first dual word in step order of weight
    # 1..r+1 whose support holds it.
    for base, planes, nonzero in weight_planes(rows, code.n, 1 if code.q == 2 else 2):
        short = 0
        for w in range(1, min(r + 1, code.n) + 1):
            short |= planes[w]
        if not short:
            continue
        for j in range(code.n):
            if covering[j] is None:
                hit = short & nonzero[j]
                if hit:
                    step = base + (hit & -hit).bit_length() - 1
                    covering[j] = step_word(code.q, rows, step, code.n)
                    remaining -= 1
        if remaining == 0:
            break
    return CoverageReport(r, tuple(covering), remaining == 0)


def _covering_sets(code: LinearCode, r: int, budget: int) -> CoverageReport:
    """``locality_check`` without the dual walk.  A dual word of weight at
    most r+1 holding coordinate j is a dependency among at most r+1 of G's
    columns that holds column j.  So coordinate j takes the first set T of
    at most r other coordinates, by size and then in lexicographic order,
    whose G-columns span j's, and its word is 1 at j and, at each t in T,
    t's coefficient in that span.  Such a T is independent, else a subset
    would span as much and come first, so a set with a dependent prefix is
    skipped, and every coefficient is nonzero.  One unit of ``budget`` is
    spent per set of full size examined; BudgetExceeded is raised instead
    of examining set budget + 1."""
    width = 1 if code.q == 2 else 2
    # G's columns, a GF(4) column as its pair (c, w*c): a word x is in the
    # dual when the XOR of the pairs over x's packed bits is 0.
    cols = binary_expansion(code.q, code.generator.transpose().rows)
    blocks = [cols[t : t + width] for t in range(0, len(cols), width)]
    examined = 0

    def first_span(j: int, start: int, basis: list, chosen: tuple, need: int):
        nonlocal examined
        for t in range(start, code.n):
            if t == j:
                continue
            grown = basis.copy()
            shift = width * len(chosen)
            if not all(xor_insert(grown, v, 1 << (shift + b))[0] for b, v in enumerate(blocks[t])):
                continue  # t's column lies in the span of the chosen ones
            if need > 1:
                found = first_span(j, t + 1, grown, chosen + (t,), need - 1)
                if found is not None:
                    return found
                continue
            examined += 1
            if examined > budget:
                raise BudgetExceeded(f"covering-set search exceeded {budget} sets")
            rest, mask = xor_reduce(grown, blocks[j][0])
            if not rest:
                return chosen + (t,), mask
        return None

    covering: list[Optional[tuple[int, ...]]] = []
    for j in range(code.n):
        found = None if blocks[j][0] else ((), 0)  # a zero column: e_j is a dual word
        for size in range(1, r + 1):
            if found is None:
                found = first_span(j, 0, [], (), size)
        if found is None:
            covering.append(None)
            continue
        word = [0] * code.n
        word[j] = 1
        chosen, mask = found
        for at, t in enumerate(chosen):
            word[t] = mask >> width * at & (1 << width) - 1
        word = tuple(word)
        if xor_combine(cols, pack_row(code.q, word)) or sum(1 for x in word if x) > r + 1:
            raise AssertionError("covering word is not a light dual word")
        covering.append(word)
    return CoverageReport(r, tuple(covering), None not in covering)


def lrc_weights_from_outer(outer_weights: WeightDistribution) -> WeightDistribution:
    """Weight distribution of the concatenation: A'_{2j} = A_j, odd counts 0."""
    return _lifted(outer_weights.counts, 2 * outer_weights.k)


def _lifted(pair_counts: Sequence[int], k: int) -> WeightDistribution:
    """The [3*ell, k] LRC's weights from its pair words' symbol weights."""
    counts = [0] * (3 * len(pair_counts) - 2)
    counts[: 2 * len(pair_counts) : 2] = pair_counts
    return WeightDistribution(len(counts) - 1, k, 2, tuple(counts))
