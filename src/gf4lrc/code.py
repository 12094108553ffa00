"""Linear codes over GF(2)/GF(4): distance, weight enumerator, duality.

A code keeps one binary view: ``bit_rows`` and ``bit_columns`` are the
pair expansions (r, w*r over GF(4), r over GF(2)) of G's rows and H's
columns, over which a packed message or word is a bit vector, so encoding
and the syndrome are each one ``xor_combine``.  Codewords are enumerated
in binary-reflected Gray-step order: step m stands for the message bits
gray(m) = m ^ (m >> 1).  Since sum_i gray(m)_i r_i equals
sum_i m_i (r_i ^ r_(i-1)), step m's codeword is the XOR of the step rows
r_i ^ r_(i-1) over the set bits of m.

The enumerator is bit-sliced (Biham 1997): it handles aligned blocks of
2^BLOCK_BITS steps, one big-int bit plane per codeword bit, where bit x of
a plane is that codeword bit at step base + x.  A plane is a fixed truth
table of the low step bits, complemented when the block's high bits flip
it.  The coordinates' nonzero planes are summed into a bit-sliced counter,
which splits into one plane per weight.  Every caller reads the whole
code, so a pass walks all q^k steps, and one cached pass serves both
exhaustive distance and the weight distribution, whichever is asked for
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded, NonIntegerResult, RankDeficient, ShapeMismatch
from .matrix import (
    FieldMatrix,
    binary_expansion,
    pack_row,
    smallest_dependent_set,
    unpack_row,
    xor_combine,
)

#: Default cap on enumerated codewords and on min_distance's column sets.
DEFAULT_ENUM_BUDGET = 1 << 26

#: log2 of the steps handled per bit-sliced block; a bit plane is a
#: 2^14-bit big int, small enough to stay in cache.
BLOCK_BITS = 14

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_COLUMN = "column_dependence"
METHOD_GROUP_RANK = "group_rank"


@dataclass(frozen=True)
class DistanceCertificate:
    """Exact minimum distance with a witness codeword of that weight."""

    d: int
    witness: tuple[int, ...]
    method: str


@dataclass(frozen=True)
class WeightDistribution:
    """Codeword counts by Hamming weight, A_0..A_n."""

    n: int
    k: int
    q: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("counts must have length n+1")
        if self.counts[0] != 1:
            raise ValueError("A_0 must be 1")
        if sum(self.counts) != self.q**self.k:
            raise ValueError("counts must sum to q^k")

    def distance(self) -> Optional[int]:
        for i in range(1, self.n + 1):
            if self.counts[i]:
                return i
        return None

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "q": self.q, "A": list(self.counts)}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightDistribution":
        return cls(obj["n"], obj["k"], obj["q"], tuple(obj["A"]))


class LinearCode:
    """An [n, k] linear code holding generator and parity-check matrices."""

    def __init__(self, generator: FieldMatrix, parity_check: FieldMatrix):
        if generator.q != parity_check.q:
            raise ValueError("generator and parity check over different fields")
        if generator.ncols != parity_check.ncols:
            raise ValueError("generator and parity check lengths differ")
        self.q = generator.q
        self.n = generator.ncols
        self.k = generator.nrows
        self.generator = generator
        self.parity_check = parity_check
        if parity_check.nrows != self.n - self.k:
            raise RankDeficient("parity check must have n-k rows")
        #: The binary view; over GF(2), G's rows and H's columns themselves.
        self.bit_rows = binary_expansion(self.q, generator.rows, generator._lo)
        self.bit_columns = binary_expansion(self.q, parity_check.transpose().rows)
        if any(self.syndrome(g) for g in generator.rows):
            raise ValueError("generator rows are not orthogonal to parity check")
        self._distance: Optional[DistanceCertificate] = None
        self._cheapest: Optional[WeightDistribution] = None
        #: The one enumeration pass, read by distance and weights.
        self._pass: Optional[tuple[tuple[int, ...], tuple[Optional[int], ...]]] = None

    # -- construction --------------------------------------------------------

    # A nullspace has ncols - rank rows: one elimination also checks the rank.
    @classmethod
    def from_generator(cls, generator: FieldMatrix) -> "LinearCode":
        parity_check = generator.nullspace()
        if parity_check.nrows != generator.ncols - generator.nrows:
            raise RankDeficient("generator rows are linearly dependent")
        return cls(generator, parity_check)

    @classmethod
    def from_parity(cls, parity_check: FieldMatrix) -> "LinearCode":
        generator = parity_check.nullspace()
        if generator.nrows != parity_check.ncols - parity_check.nrows:
            raise RankDeficient("parity-check rows are linearly dependent")
        return cls(generator, parity_check)

    def dual(self) -> "LinearCode":
        return LinearCode(self.parity_check, self.generator)

    @property
    def cached_distance(self) -> Optional[DistanceCertificate]:
        return self._distance

    def params(self) -> tuple[int, int]:
        return (self.n, self.k)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"

    # -- codeword enumeration --------------------------------------------------

    def codeword_count(self) -> int:
        return self.q**self.k

    def _packed(self, symbols: Sequence[int], length: int, shape: str) -> int:
        """A symbol list packed, after checking each symbol, then its length."""
        for x in symbols:
            if not 0 <= x < self.q:
                raise ValueError(f"symbol {x} invalid over GF({self.q})")
        if len(symbols) != length:
            raise ShapeMismatch(shape)
        return pack_row(self.q, symbols)

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """Codeword for a length-k message vector."""
        packed = self._packed(message, self.k, "coefficient count != row count")
        return unpack_row(self.q, xor_combine(self.bit_rows, packed), self.n)

    def contains(self, word: Sequence[int]) -> bool:
        """Whether a symbol list is a codeword: its syndrome is 0."""
        shape = f"{self.n - self.k}x{self.n} times {len(word)}x1"
        return not self.syndrome(self._packed(word, self.n, shape))

    def syndrome(self, word: int) -> int:
        """The syndrome of a packed word: sum_j x_j h_j as one XOR."""
        return xor_combine(self.bit_columns, word)

    def _step_rows(self) -> list[int]:
        """Packed rows whose XOR over the set bits of m is step m's codeword."""
        return [r ^ prev for r, prev in zip(self.bit_rows, [0] + self.bit_rows)]

    def _step_word(self, m: int) -> tuple[int, ...]:
        """The codeword at step m, i.e. of the message bits gray(m)."""
        return unpack_row(self.q, xor_combine(self._step_rows(), m), self.n)

    def _weight_planes(self):
        """Bit-sliced enumeration of all q^k steps.

        Yields ``(base, planes, nonzero)`` per aligned block of steps: bit x
        of ``planes[w]`` is set when step base + x has a codeword of weight
        w (``planes`` runs past n with empty planes), and ``nonzero[j]`` is
        the plane of the block's steps whose codeword is nonzero at
        coordinate j.
        """
        steps = self._step_rows()
        low = min(len(steps), BLOCK_BITS)
        full = (1 << (1 << low)) - 1
        ones = [(1 << (1 << i)) - 1 for i in range(low)]
        width = 1 if self.q == 2 else 2
        columns = []
        for c in range(width * self.n):
            col = 0
            for i, row in enumerate(steps):
                col |= (row >> c & 1) << i
            # Doubling: bit x of the table is parity(x & col) for x < 2^i.
            table = 0
            for i in range(low):
                table |= (table ^ (ones[i] if col >> i & 1 else 0)) << (1 << i)
            columns.append((table, col >> low))
        # A symbol is nonzero where either of its two bits is (over GF(2)
        # both are its one bit), and a block complements a bit's table when
        # the block's high bits flip it: one plane per pair of flips.
        symbols = []
        for (t0, h0), (t1, h1) in zip(columns[::width], columns[width - 1 :: width]):
            n0, n1 = t0 ^ full, t1 ^ full
            symbols.append(((t0 | t1, n0 | t1, t0 | n1, n0 | n1), h0, h1))
        levels = self.n.bit_length()
        for h in range(self.codeword_count() >> low):
            nonzero = [
                by_flips[(h & h0).bit_count() & 1 | ((h & h1).bit_count() & 1) << 1]
                for by_flips, h0, h1 in symbols
            ]
            counter = [0] * levels
            for carry in nonzero:
                for level in range(levels):
                    held = counter[level]
                    counter[level] = held ^ carry
                    carry &= held
                    if not carry:
                        break
            planes = [full]
            for held in reversed(counter):
                split = []
                for plane in planes:
                    high = plane & held
                    split += (plane ^ high, high)
                planes = split
            yield h << low, planes, nonzero

    def _enumerate(self) -> tuple[tuple[int, ...], tuple[Optional[int], ...]]:
        """A_0..A_n and the first step of each weight (None if absent).

        One pass serves both exhaustive distance and the weight
        distribution, whichever is asked for first.
        """
        if self._pass is None:
            counts = [0] * (self.n + 1)
            first: list[Optional[int]] = [None] * (self.n + 1)
            for base, planes, _ in self._weight_planes():
                for w in range(self.n + 1):
                    plane = planes[w]
                    if plane:
                        counts[w] += plane.bit_count()
                        if first[w] is None:
                            first[w] = base + (plane & -plane).bit_length() - 1
            self._pass = (tuple(counts), tuple(first))
        return self._pass

    def weight_distribution(self, budget: int = DEFAULT_ENUM_BUDGET) -> WeightDistribution:
        """Exact weight distribution by enumerating C itself."""
        total = self.codeword_count()
        if total > budget:
            raise BudgetExceeded(f"{total} codewords exceed enumeration budget {budget}")
        counts, _ = self._enumerate()
        weights = WeightDistribution(self.n, self.k, self.q, counts)
        if self._distance is not None and weights.distance() != self._distance.d:
            raise AssertionError("weight distribution contradicts cached distance")
        return weights

    def cheapest_weights(self, budget: int = DEFAULT_ENUM_BUDGET) -> WeightDistribution:
        """Exact weights from a cached pass, else C when k <= n-k, else its
        dual through ``macwilliams``, within ``budget`` words on either side;
        a cached pass or result is read whatever the budget."""
        if self._cheapest is None:
            if self._pass is not None:
                self._cheapest = self.weight_distribution(budget=self.codeword_count())
            elif self.k <= self.n - self.k:
                self._cheapest = self.weight_distribution(budget)
            else:
                total = self.q ** (self.n - self.k)  # checked before the dual is built
                if total > budget:
                    raise BudgetExceeded(f"{total} codewords exceed enumeration budget {budget}")
                weights = self.dual().weight_distribution(budget)
                self._cheapest = macwilliams(weights, total, self.n, self.q)
        return self._cheapest

    # -- minimum distance --------------------------------------------------

    def min_distance(self, budget: int = DEFAULT_ENUM_BUDGET) -> DistanceCertificate:
        """Exact minimum distance with witness, d from ``cheapest_weights``.

        The witness is C's first minimum-weight word when C was enumerated,
        else the first dependent set of d parity-check columns.  When neither
        side fits the budget, the column search examines at most ``budget``
        full-size sets from size 1; BudgetExceeded's ``lower`` is the proven
        lower bound and ``upper`` None.
        """
        if self._distance is not None:
            return self._distance
        if self.k == 0:
            raise ValueError("zero-dimensional code has no nonzero codeword")
        try:
            start = self.cheapest_weights(budget).distance()
        except BudgetExceeded:  # neither side fits: nothing proven below 1
            start = 1
        if self._pass is not None:
            cert = self._min_distance_exhaustive()
        else:
            cert = self._min_distance_columns(budget, start)
        self._distance = cert
        return cert

    def _min_distance_exhaustive(self) -> DistanceCertificate:
        """The first minimum-weight codeword in step order."""
        counts, first = self._enumerate()
        d = next(w for w in range(1, self.n + 1) if counts[w])
        return DistanceCertificate(d, self._step_word(first[d]), METHOD_EXHAUSTIVE)

    def _min_distance_columns(self, set_budget: int, start: int = 1) -> DistanceCertificate:
        """Smallest dependent parity-check column set, as a codeword."""
        width, cols = (1 if self.q == 2 else 2), self.bit_columns
        blocks = [cols[i : i + width] for i in range(0, len(cols), width)]
        found = smallest_dependent_set(blocks, set_budget, start)
        if found is None:
            raise AssertionError("no dependent column set found in a k>0 code")
        indices, mask = found
        word = [0] * self.n
        for j, i in enumerate(indices):
            word[i] = (mask >> (width * j)) & (self.q - 1)
        witness = tuple(word)
        if not self.contains(witness):
            raise AssertionError("column-search witness is not a codeword")
        d = sum(1 for c in witness if c)
        return DistanceCertificate(d, witness, METHOD_COLUMN)


def krawtchouk_column(i: int, n: int, q: int) -> list[int]:
    """K_0(i)..K_n(i) of K_j(i; n; q) by the three-term recurrence (j+1) K_(j+1)
    = ((q-1)(n-j) + j - q*i) K_j - (q-1)(n-j+1) K_(j-1), dividing exactly."""
    column, before = [1], 0
    for j in range(n):
        step = ((q - 1) * (n - j) + j - q * i) * column[j] - (q - 1) * (n - j + 1) * before
        before = column[j]
        column.append(step // (j + 1))
    return column


def krawtchouk(j: int, i: int, n: int, q: int) -> int:
    """K_j(i; n; q) = sum_a (-1)^a (q-1)^(j-a) C(i,a) C(n-i, j-a), exact."""
    if not 0 <= j <= n:
        raise ValueError(f"degree {j} out of range [0, {n}]")
    return krawtchouk_column(i, n, q)[j]


def macwilliams(
    dual_weights: WeightDistribution, dual_size: int, n: int, q: int
) -> WeightDistribution:
    """Weight distribution of the primal code from its dual's, exactly.

    A_j = (1/dual_size) * sum_i A_i(dual) K_j(i; n; q).  Raises
    ShapeMismatch when ``dual_weights`` is not of length n over GF(q), and
    NonIntegerResult when it cannot be a valid dual distribution.
    """
    if (dual_weights.n, dual_weights.q) != (n, q):
        raise ShapeMismatch(f"dual weights are not of length {n} over GF({q})")
    if sum(dual_weights.counts) != dual_size:
        raise NonIntegerResult("dual weight counts do not sum to dual size")
    log = 0
    size = dual_size
    while size > 1:
        size, rem = divmod(size, q)
        log += 1
        if rem:
            raise NonIntegerResult(f"dual size {dual_size} is not a power of {q}")
    k = n - log
    columns = [
        [a_i * value for value in krawtchouk_column(i, n, q)]
        for i, a_i in enumerate(dual_weights.counts)
        if a_i
    ]
    counts = []
    for j, total in enumerate(map(sum, zip(*columns))):
        value, rem = divmod(total, dual_size)
        if rem or value < 0:
            raise NonIntegerResult(f"transform gives non-integer A_{j}")
        counts.append(value)
    return WeightDistribution(n, k, q, tuple(counts))
