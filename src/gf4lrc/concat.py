"""Concatenation of a GF(4) outer code with the fixed [3,2,2] inner code.

A GF(4) symbol a with basis coordinates (x0, x1) encodes to the inner
codeword (x0+x1, x0, x1), so every nonzero symbol occupies exactly two of
its group's three binary coordinates.  An LRC is fixed by its groups and
by the dual of its pair code P: the u rows below the group parities of its
parity check H, each group's 2nd and 3rd bits gathered into bits 2i and
2i+1.  ``BinaryLrc`` holds those two things and derives the rest on first
read: the groups' pairs (e1, e2) (``e_vectors``) are the columns of the
gathered rows, and H's columns are each group's top bit over (0, e1, e2).
H's text is written from the groups and the gathered rows alone
(``to_json``), by byte-slice assignment, with no column built.  A packed
GF(4) vector is its own GF(2) expansion (bit 2j is the coordinate on 1 and
bit 2j+1 the coordinate on w of symbol j), so a concatenation's gathered
rows are its outer code's ``check_rows``: (h, w*h) for each row h of the
outer H, whose rank is the LRC's.  Its pairs are derived from them when
first read, as any LRC's are, and equal the outer ``bit_columns`` pairs.
A loaded LRC checks H by rows (``_read``); once its groups check, the
group parities are independent of the rest, so only the u gathered rows
are ranked.  An LRC's distance takes a plain code's route (see ``code``)
over P, and a concatenation takes its outer code's d, and any column
certificate, lifted.  A witness is checked on P too (``contains``), so no
certificate builds H's columns.  A plain code's locality past its dual
walk runs the same search, at each coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import or_, xor
from typing import Iterator, Optional, Sequence

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
    ShapeMismatch,
    SubsetBudgetExceeded,
    UnsupportedLocality,
)
from .matrix import (
    FieldMatrix,
    binary_expansion,
    dependent_sets,
    pack_row,
    row_digits,
    rows_rank,
    xor_combine,
    xor_insert,
)

#: Default cap on repair-group subsets examined by the distance certifier.
DEFAULT_SUBSET_BUDGET = 10_000_000


class BinaryLrc:
    """A binary code with disjoint 3-coordinate repair groups (locality 2).

    It holds its groups and ``dual_rows``, H's lower rows gathered (see the
    module docstring).  A codeword is 0 or (a+b, a, b) on group i, (a, b)
    its bits at the 2nd and 3rd listed positions, so it weighs twice its
    pair word's symbol weight.  The pair words form the pair code P, whose
    dual ``dual_rows`` span.  ``e_vectors`` and ``code`` are derived from
    them on first read.
    """

    q = 2

    def __init__(
        self, code: LinearCode, groups: Sequence[tuple[int, int, int]], d: Optional[int] = None
    ):
        self._hold(code.n, code.k, groups, d)
        self._read(code.parity_check)
        self.code = code

    def _hold(self, n: int, k: int, groups, d: Optional[int]) -> None:
        self.n, self.k = n, k
        self.ell = len(groups)
        self.u = n - k - self.ell
        self.groups = tuple(map(tuple, groups))
        self.d = d
        self._weights: Optional[WeightDistribution] = None
        self._walk: Optional[tuple] = None  # the weights' walk of P itself: rows, first steps
        self._distance: Optional[DistanceCertificate] = None  # carried from an outer code

    def _read(self, h: FieldMatrix) -> None:
        """Check the groups and H, and hold H's lower rows, gathered, as
        ``dual_rows``.  The groups must partition the coordinates, checked
        in bulk: every coordinate in range first, so that no check builds a
        mask of a coordinate beyond n, then no coordinate twice.  Top row i
        must be group i's indicator, and no lower row may meet a group's
        first position: a fault is named at the first group, in group
        order, that holds a bit of either mask."""
        rows, ell, n, groups = h.rows, self.ell, self.n, self.groups
        if h.q != 2:
            raise FieldMismatch("BinaryLrc requires a GF(2) code")
        if not groups:
            raise ValueError("at least one repair group is required")
        if n != 3 * ell:
            raise ValueError("length must be 3 * group count")
        if self.u < 0:
            raise ValueError("negative auxiliary row count")
        if set(map(len, groups)) != {3}:
            raise ValueError("groups must have exactly 3 coordinates")
        flat = list(chain.from_iterable(groups))
        if min(flat) < 0 or max(flat) >= n or len(set(flat)) != n:
            raise ValueError("groups must partition the coordinates")
        lower = rows[ell:]
        indicators = [1 << a | 1 << b | 1 << c for a, b, c in groups]
        bad_top = reduce(or_, map(xor, rows[:ell], indicators), 0)
        bad_first = reduce(or_, lower, 0) & sum(1 << g[0] for g in groups)
        if bad_top | bad_first:
            for i, g in enumerate(groups):
                for pos in g:
                    if bad_top >> pos & 1:
                        raise ValueError(
                            f"top rows at coordinate {pos} are not the group-{i} parity"
                        )
                if bad_first >> g[0] & 1:
                    raise ValueError(f"lower block under group {i} position 0 not zero")
        # Lower row t's digits are text[t*n : (t+1)*n], so the gathered
        # rows' digit j, the listed position p, is the strided slice text[p::n].
        text = "".join([row_digits(2, row, n) for row in lower]).encode()
        width = 2 * ell
        gathered = bytearray(len(lower) * width)
        for j, pos in enumerate(_pair_positions(groups)):
            gathered[j::width] = text[pos::n]
        numerals = gathered[::-1]  # the rows' base-2 numerals, last row first
        ends = range(len(numerals), 0, -width)
        self.dual_rows = tuple(int(numerals[end - width : end], 2) for end in ends)

    @cached_property
    def e_vectors(self) -> tuple[tuple[int, int], ...]:
        """Group i's pair (e1, e2): columns 2i and 2i+1 of ``dual_rows``."""
        cols = FieldMatrix(2, self.u, 2 * self.ell, self.dual_rows).transpose().rows
        return tuple(zip(cols[::2], cols[1::2]))

    @cached_property
    def code(self) -> LinearCode:
        """The LRC as a binary code holding H's columns, each its group's top
        bit over its lower column: 0 at the group's first position, e1 and e2
        at the others.  H's rows are derived when first read."""
        cols = [0] * self.n
        for i, ((a, b, c), (e1, e2)) in enumerate(zip(self.groups, self.e_vectors)):
            cols[a], cols[b], cols[c] = 1 << i, e1 << self.ell | 1 << i, e2 << self.ell | 1 << i
        return LinearCode.__new__(LinearCode)._hold(2, self.n, self.k, bit_columns=cols)

    def cheapest_weights(self, budget: int = DEFAULT_ENUM_BUDGET) -> WeightDistribution:
        """Exact weights from P by ``side_weights`` over ``dual_rows``, and
        its walk of P itself: A'_{2j} = A_j, P's words of symbol weight j; a
        cached result is read whatever the budget."""
        if self._weights is None:
            counts, self._walk = side_weights(self.dual_rows, self.ell, 2, self.k, budget)
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

    def light_words(self, t: int) -> Iterator[tuple[tuple[int, int], ...]]:
        """The nonzero codewords of weight at most t, each as its (group, α)
        pairs, α its nonzero pair symbol: P's words of symbol weight j with
        2j <= t, yielded in step order from one walk of P's rows, the held
        walk's or else the nullspace of ``dual_rows``."""
        if self._walk is not None:
            rows = self._walk[0]
        else:
            rows = FieldMatrix(2, self.u, 2 * self.ell, self.dual_rows).nullspace().rows
        for base, planes, _ in weight_planes(rows, self.ell, 2):
            light = reduce(or_, [plane for j, plane in enumerate(planes) if 0 < 2 * j <= t], 0)
            while light:
                low = light & -light
                symbols = step_word(4, rows, base + low.bit_length() - 1, self.ell)
                yield tuple((g, alpha) for g, alpha in enumerate(symbols) if alpha)
                light ^= low

    def lift(self, symbols: Sequence[int]) -> tuple[int, ...]:
        """The codeword of a pair word: a group's coefficients (a, b) on (e1, e2)
        are met by its inner codeword (a+b, a, b), whose top-row parity cancels."""
        word = [0] * self.n
        for group, alpha in zip(self.groups, symbols):
            a, b = alpha & 1, alpha >> 1
            for pos, bit in zip(group, (a ^ b, a, b)):
                word[pos] = bit
        return tuple(word)

    def contains(self, word: Sequence[int]) -> bool:
        """Whether a bit list is a codeword, checked on P: each group's three
        bits sum to 0, and the pair word, group i's bits at its 2nd and 3rd
        positions in bits 2i and 2i+1, is orthogonal to ``dual_rows``.  That
        is H's check, since no lower row meets a group's first position."""
        if set(word) - {0, 1}:
            bad = next(v for v in word if v not in (0, 1))
            raise ValueError(f"symbol {bad} invalid over GF(2)")
        if len(word) != self.n:
            raise ShapeMismatch(f"{self.n - self.k}x{self.n} times {len(word)}x1")
        if any(word[a] ^ word[b] ^ word[c] for a, b, c in self.groups):
            return False
        pair = pack_row(2, [word[p] for p in _pair_positions(self.groups)])
        return not any((row & pair).bit_count() & 1 for row in self.dual_rows)

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
            "H": self._h_text(),
        }

    def _h_text(self) -> str:
        """H as ``FieldMatrix.to_text`` writes it, from the groups and
        ``dual_rows``, by byte-slice assignment into one buffer of lines of
        "0".  A line is n digits, each followed by a space or the newline,
        so H's digit (row, p) sits at row * 2n + 2p past the header.  Top
        row i is 1 at group i's positions.  Below, the gathered rows' digits
        are one string, digit j of row t at x = t * 2ell + j, and it goes to
        H's lower row t at byte P_j = 2 * (pair position j) of the line:
        offset 3x + (P_j - 3j) past the lower block's start, since a line,
        2n = 6ell bytes, is three gathered rows long.  So when P_j - 3j
        repeats with period s, the digits of each residue j < s are one
        slice assignment with stride 3s: s = 2 for a concatenation's groups,
        and at most 2ell for any."""
        n, ell, width = self.n, self.ell, 2 * self.ell
        header = f"field=2 rows={n - self.k} cols={n}\n".encode()
        text = bytearray(b"0 " * (n - 1) + b"0\n") * (n - self.k)
        text[:0] = header
        top = len(header)
        for i, group in enumerate(self.groups):
            for pos in group:
                text[top + 2 * (i * n + pos)] = ord("1")
        digits = "".join([row_digits(2, row, width) for row in self.dual_rows]).encode()
        lower = top + 2 * ell * n
        places = [2 * pos for pos in _pair_positions(self.groups)]
        shifts = [place - 3 * j for j, place in enumerate(places)]
        period = next(s for s in range(1, width + 1) if shifts == shifts[:s] * (width // s))
        for j in range(period):
            text[lower + places[j] :: 3 * period] = digits[j::period]
        return text.decode("ascii")

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
            lrc._hold(h.ncols, h.ncols - h.nrows, groups, obj.get("d"))
            lrc._read(h)
        except ValueError as exc:
            LinearCode.from_parity(h)  # a dependent H is named first, whatever else is wrong
            raise ParseError(f"not a locality-2 LRC: {exc}") from exc
        # The group checks make column g[0] of group i the unit vector of top
        # row i, so a dependency among H's rows holds no top row: H has full
        # rank exactly when its u lower rows do, and so their gathered bits.
        if rows_rank(2, lrc.dual_rows, 2 * lrc.ell) != lrc.u:
            raise RankDeficient("parity-check rows are linearly dependent")
        if obj.get("n") != lrc.n or obj.get("k") != lrc.k:
            raise ParseError("stored n/k disagree with the parity-check matrix")
        # The other stored fields are optional; one that is present must hold.
        for key, value in (("r", 2), ("ell", lrc.ell), ("u", lrc.u)):
            if key in obj and (type(obj[key]) is not int or obj[key] != value):
                raise ParseError(f'stored "{key}" disagrees with the LRC ({key} = {value})')
        return lrc


def _pair_positions(groups) -> list[int]:
    """Each group's 2nd and 3rd listed positions, in group order: where a
    pair word's bits 2i and 2i+1 sit in a word of the LRC."""
    return [p for _, b, c in groups for p in (b, c)]


def concatenate(outer: LinearCode) -> BinaryLrc:
    """Concatenate a GF(4) outer code with the [3,2,2] inner code.

    Produces the [3*n1, 2*k1, 2*d1; r=2] code whose codewords are the
    symbolwise inner encodings of outer codewords, so its pair code is the
    outer code: its ``dual_rows`` are the outer ``check_rows``, and its
    weights walk the outer code's smaller side.  Its ``e_vectors``, derived
    from those rows when a search or a repair first reads them, are the
    outer ``bit_columns`` pairs.  Its H has full rank as the outer H has: a
    group's row is alone at its first position, and the lower block is the
    outer H's pair expansion.  The distance field is twice the outer d of
    a cached certificate, else of cached weights, else None; the outer
    code's cached weights (lifted) and walk are P's.  A column certificate
    is the LRC's too, lifted: the group search runs over the same blocks,
    the outer ``bit_columns`` pairs, from the same start d1, so it finds
    the same set.
    """
    if outer.q != 4:
        raise FieldMismatch("outer code must be over GF(4)")
    cached, weights = outer.cached_distance, outer._cheapest
    d1 = cached.d if cached is not None else weights.distance() if weights else None
    lrc = BinaryLrc.__new__(BinaryLrc)
    groups = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(outer.n)]
    lrc._hold(3 * outer.n, 2 * outer.k, groups, 2 * d1 if d1 is not None else None)
    lrc.dual_rows = tuple(outer.check_rows)
    if cached is not None and cached.method == METHOD_COLUMN:
        word = lrc.lift(cached.witness)
        if not lrc.contains(word):
            raise AssertionError("carried witness is not a codeword")
        lrc._distance = DistanceCertificate(lrc.d, word, METHOD_GROUP_RANK)
    if weights is not None:  # P is the outer code, walked in the same steps
        lrc._weights = lrc_weights_from_outer(weights)
        if outer._pass is not None:
            lrc._walk = outer.bit_rows, outer._pass[1]
    return lrc


def pair_masks(rows: Sequence[int], ell: int) -> tuple[int, int, int]:
    """Of an LRC whose ``dual_rows`` are ``rows``, three masks whose bit 2g
    is set when group g's pair (e1, e2), bits 2g and 2g + 1 of the rows,
    has e1 != 0, e2 != 0 and e1 != e2 respectively: bit 2g of the OR of
    the rows, of that OR shifted down by one, and of the OR of r ^ r >> 1."""
    ones = int("01" * ell, 2)
    either = reduce(or_, rows, 0)
    differ = reduce(or_, [r ^ r >> 1 for r in rows], 0)
    return either & ones, either >> 1 & ones, differ & ones


def group_subspace_dims(lrc: BinaryLrc) -> list[int]:
    """Per group, the dimension of the span of its pair (e1, e2): 2 when
    e1 and e2 are nonzero and differ, 0 when both are 0, else 1."""
    e1, e2, differ = pair_masks(lrc.dual_rows, lrc.ell)
    # s[::-2] of a 2*ell-digit numeral puts bit 2g at position g.
    some = format(e1 | e2, f"0{2 * lrc.ell}b")[::-2]
    full = format(e1 & e2 & differ, f"0{2 * lrc.ell}b")[::-2]
    return [int(a) + int(b) for a, b in zip(some, full)]


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
            lrc, lrc.e_vectors, lrc.lift, subset_budget, start, METHOD_GROUP_RANK
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

    For a BinaryLrc the group parity rows cover structurally at r >= 2:
    top row i of H is group i's indicator, as the LRC's checks prove.  An
    r below its locality 2 is refused with ``UnsupportedLocality``, as
    ``analyze`` refuses it.  A plain code walks the words H's pair rows
    span, within ``budget``; when they exceed it, each coordinate is
    decided by ``_covering_sets`` within ``subset_budget``.
    """
    if isinstance(code, BinaryLrc):
        if r < 2:
            raise UnsupportedLocality(f"an LRC has locality 2, got r = {r}")
        covering: list[Optional[tuple[int, ...]]] = [None] * code.n
        for a, b, c in code.groups:
            row = [0] * code.n
            row[a] = row[b] = row[c] = 1
            covering[a] = covering[b] = covering[c] = tuple(row)
        return CoverageReport(r, tuple(covering), True)
    if code.q ** (code.n - code.k) > budget:
        return _covering_sets(code, r, subset_budget)
    rows = code.check_rows
    covering = [None] * code.n
    remaining = code.n
    # Each coordinate takes the first dual word in step order of weight
    # 1..r+1 whose support holds it.
    for base, planes, nonzero in weight_planes(rows, code.n, 1 if code.q == 2 else 2):
        short = reduce(or_, planes[1 : r + 2], 0)  # planes runs past weight n
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
    columns that holds column j.  So j takes the first set T of at most r
    other coordinates, by size and then lexicographically, whose columns
    span j's: of the sets ``dependent_sets`` yields with j as anchor, the
    first whose elimination, T's vectors and then j's column, first becomes
    dependent at j's column.  Its word is 1 at j and each t's coefficient
    on T.  ``budget`` counts the full-size sets passed, as the search does."""
    width = 1 if code.q == 2 else 2
    # G's columns, a GF(4) column as its pair (c, w*c): a word x is in the
    # dual when the XOR of the pairs over x's packed bits is 0.
    cols = binary_expansion(code.q, code.generator.transpose().rows)
    blocks = [cols[t : t + width] for t in range(0, len(cols), width)]
    examined = 0

    def spend(sets: int) -> None:
        nonlocal examined
        examined += sets
        if examined > budget:
            raise BudgetExceeded(f"covering-set search exceeded {budget} sets")

    def first_cover(j: int) -> Optional[tuple[tuple[int, ...], int]]:
        for size in range(1, r + 1):
            for chosen in dependent_sets(blocks, size, spend, anchor=j):
                basis: list = []
                for at, v in enumerate([v for t in chosen for v in blocks[t]] + [blocks[j][0]]):
                    v, mask = xor_insert(basis, v, 1 << at)
                    if not v:
                        break
                if not v and at == width * size:
                    return chosen, mask
        return None

    covering: list[Optional[tuple[int, ...]]] = []
    for j in range(code.n):
        found = first_cover(j) if blocks[j][0] else ((), 0)  # a zero column: e_j is a dual word
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
