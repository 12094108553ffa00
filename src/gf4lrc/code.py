"""Linear codes over GF(2)/GF(4): distance, weight enumerator, duality.

A code keeps what it was built with and derives the rest on first read;
its G and H have full rank, proven once by the entry that builds it.
``from_parity`` proves H's by one elimination (``rows_rank``) and derives
G as H's nullspace only when G is first read, checking there that G is
orthogonal to H; ``from_generator`` derives H at once, since every caller
needs it, by one kernel pass over G's pair columns, which proves G's rank
and against which H's rows are checked.  ``cyclic4``
proves both by construction and ``LinearCode(G, H)`` by eliminating both.
A dual holds its code's two proven matrices swapped.  An LRC's code holds
only H's columns, ``bit_columns``, and derives H's rows from them.
The binary view is derived the same way: ``bit_rows``, ``check_rows`` and
``bit_columns`` are the pair expansions (r, w*r over GF(4), r over GF(2))
of G's rows, H's rows and H's columns, over which a packed message or word
is a bit vector, so encoding and the syndrome are each one
``xor_combine``.  Codewords are enumerated in binary-reflected Gray-step
order: step m stands for the message bits gray(m) = m ^ (m >> 1).  Since
sum_i gray(m)_i r_i equals sum_i m_i (r_i ^ r_(i-1)), step m's codeword is
the XOR of the step rows r_i ^ r_(i-1) over the set bits of m.

The enumerator is bit-sliced (Biham 1997): it handles aligned blocks of
2^BLOCK_BITS steps, one big-int bit plane per codeword bit, where bit x of
a plane is that codeword bit at step base + x.  A plane is a fixed truth
table of the low step bits, complemented when the block's high bits flip
it.  The step rows' columns come from one ``transpose``, and a column's
table is the XOR of the cached planes of the low step bits it holds
(plane i has bit x set when bit i of x is), read as one entry from each of
two tables of such XORs, over the low and the high half of those bits.
The coordinates' nonzero planes are summed into a bit-sliced counter,
which splits into one plane per weight.  A pass walks every step of the
rows it is given: a code's q^k, whose one cached pass serves both
exhaustive distance and the weight distribution, or the smaller side that
``side_weights`` picks.  The weights of a dual side come from its walk by
the MacWilliams identity, in one Horner pass over a polynomial
(``krawtchouk_transform``).  A plain code and an LRC's pair code take d
from those weights, and a witness from a walk or from the one certifier,
``certify_dependent_set``, lifted to a word of the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence

from .errors import BudgetExceeded, FieldMismatch, NonIntegerResult, RankDeficient, ShapeMismatch
from .matrix import (
    FieldMatrix,
    binary_expansion,
    rows_rank,
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
        return next((w for w in range(1, self.n + 1) if self.counts[w]), None)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "q": self.q, "A": list(self.counts)}


class LinearCode:
    """An [n, k] linear code: it holds its parity-check matrix H, or H's
    columns, and its generator G once given or derived on first read (see
    the module docstring).  The constructor ranks both and checks that they
    are orthogonal."""

    def __init__(self, generator: FieldMatrix, parity_check: FieldMatrix):
        if generator.q != parity_check.q:
            raise FieldMismatch("generator and parity check over different fields")
        if generator.ncols != parity_check.ncols:
            raise ShapeMismatch("generator and parity check lengths differ")
        if parity_check.nrows != generator.ncols - generator.nrows:
            raise RankDeficient("parity check must have n-k rows")
        for matrix, rows in ((parity_check, "parity-check rows"), (generator, "generator rows")):
            if rows_rank(matrix.q, matrix.rows, matrix.ncols) != matrix.nrows:
                raise RankDeficient(f"{rows} are linearly dependent")
        self._keep(generator, parity_check)

    def _keep(self, generator: FieldMatrix, parity_check: FieldMatrix) -> "LinearCode":
        """Holds G and H of proven full rank, checking only that they are orthogonal."""
        q, n, k = generator.q, generator.ncols, generator.nrows
        self._hold(q, n, k, generator=generator, parity_check=parity_check)
        self._check_orthogonal(generator)
        return self

    def _hold(self, q: int, n: int, k: int, **sides) -> "LinearCode":
        """Holds [n, k] over GF(q) and the proven ``sides`` by name, nothing cached."""
        self.q, self.n, self.k = q, n, k
        self._distance: Optional[DistanceCertificate] = None
        self._cheapest: Optional[WeightDistribution] = None
        #: The one enumeration pass, read by distance and weights.
        self._pass: Optional[tuple[tuple[int, ...], tuple[Optional[int], ...]]] = None
        vars(self).update(sides)
        return self

    def _check_orthogonal(self, generator: FieldMatrix) -> None:
        if any(self.syndrome(g) for g in generator.rows):
            raise ValueError("generator rows are not orthogonal to parity check")

    # -- construction --------------------------------------------------------

    # A nullspace has ncols - rank rows: one pass also checks the rank.
    @classmethod
    def from_generator(cls, generator: FieldMatrix) -> "LinearCode":
        columns, parity_check = generator.kernel()
        if parity_check.nrows != generator.ncols - generator.nrows:
            raise RankDeficient("generator rows are linearly dependent")
        if any(xor_combine(columns, h) for h in parity_check.rows):  # H's rows, G's columns
            raise ValueError("generator rows are not orthogonal to parity check")
        q, n, k = generator.q, generator.ncols, generator.nrows
        return cls.__new__(cls)._hold(q, n, k, generator=generator, parity_check=parity_check)

    @classmethod
    def from_parity(cls, parity_check: FieldMatrix) -> "LinearCode":
        n = parity_check.ncols
        if rows_rank(parity_check.q, parity_check.rows, n) != parity_check.nrows:
            raise RankDeficient("parity-check rows are linearly dependent")
        k = n - parity_check.nrows
        return cls.__new__(cls)._hold(parity_check.q, n, k, parity_check=parity_check)

    def dual(self) -> "LinearCode":
        """The dual, holding this code's G and H (read here) swapped."""
        sides = {"generator": self.parity_check, "parity_check": self.generator}
        return LinearCode.__new__(LinearCode)._hold(self.q, self.n, self.n - self.k, **sides)

    # -- the sides and their binary views, each derived on first read -------

    @cached_property
    def generator(self) -> FieldMatrix:
        """G, when not held: H's nullspace, checked here."""
        generator = self.parity_check.nullspace()
        self._check_orthogonal(generator)
        return generator

    @cached_property
    def parity_check(self) -> FieldMatrix:
        """H, when only its columns are held: their transpose."""
        cols = self.bit_columns[:: 1 if self.q == 2 else 2]  # the pairs' c of (c, w*c)
        return FieldMatrix(self.q, self.n, self.n - self.k, cols).transpose()

    @cached_property
    def bit_rows(self) -> list[int]:
        """G's rows as binary vectors; over GF(2), the rows themselves."""
        return binary_expansion(self.q, self.generator.rows, self.generator._lo)

    @cached_property
    def check_rows(self) -> list[int]:
        """H's rows as binary vectors; over GF(2), the rows themselves."""
        return binary_expansion(self.q, self.parity_check.rows, self.parity_check._lo)

    @cached_property
    def bit_columns(self) -> list[int]:
        """H's columns as binary vectors; over GF(2), the columns themselves."""
        return binary_expansion(self.q, self.parity_check.transpose().rows)

    @property
    def cached_distance(self) -> Optional[DistanceCertificate]:
        return self._distance

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.q}))"

    # -- codeword enumeration --------------------------------------------------

    def codeword_count(self) -> int:
        return self.q**self.k

    def _packed(self, symbols: Sequence[int], length: int, shape: str) -> int:
        """A symbol list packed, after checking each symbol, then its length."""
        packed = FieldMatrix.from_rows(self.q, [symbols]).rows[0]  # checks every symbol
        if len(symbols) != length:
            raise ShapeMismatch(shape)
        return packed

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

    def _enumerate(self) -> tuple[tuple[int, ...], tuple[Optional[int], ...]]:
        """The ``weight_histogram`` of the one cached pass over the q^k steps."""
        if self._pass is None:
            walk = weight_planes(self.bit_rows, self.n, 1 if self.q == 2 else 2)
            self._pass = weight_histogram(walk, self.n)
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
        """Exact weights from a cached pass, else C when k <= n-k, else by
        ``side_weights`` over H's rows, within ``budget`` words on either
        side; a cached pass or result is read whatever the budget."""
        if self._cheapest is None:
            if self._pass is not None:
                self._cheapest = self.weight_distribution(budget=self.codeword_count())
            elif self.k <= self.n - self.k:
                self._cheapest = self.weight_distribution(budget)
            else:
                width = 1 if self.q == 2 else 2
                counts, _ = side_weights(self.check_rows, self.n, width, width * self.k, budget)
                self._cheapest = WeightDistribution(self.n, self.k, self.q, counts)
        return self._cheapest

    # -- minimum distance --------------------------------------------------

    def exact_distance(self, budget: int = DEFAULT_ENUM_BUDGET) -> int:
        """d from ``cheapest_weights``, no witness; else ``min_distance``'s (it refuses k = 0)."""
        try:
            d = self.cheapest_weights(budget).distance()
        except BudgetExceeded:
            d = None
        return self.min_distance(budget).d if d is None else d

    def min_distance(self, budget: int = DEFAULT_ENUM_BUDGET) -> DistanceCertificate:
        """Exact minimum distance with witness, d from ``cheapest_weights``.

        The witness is C's first minimum-weight word when C was enumerated,
        else the first dependent set of d parity-check columns, each symbol
        its own digit.  When neither side fits the budget, the column search
        examines at most ``budget`` full-size sets from size 1;
        BudgetExceeded's ``lower`` is the proven lower bound and ``upper`` None.
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
            width, cols = (1 if self.q == 2 else 2), self.bit_columns
            blocks = [cols[i : i + width] for i in range(0, len(cols), width)]
            cert = certify_dependent_set(self, blocks, tuple, budget, start, METHOD_COLUMN)
        self._distance = cert
        return cert

    def _min_distance_exhaustive(self) -> DistanceCertificate:
        """The first minimum-weight codeword in step order."""
        counts, first = self._enumerate()
        d = next(w for w in range(1, self.n + 1) if counts[w])
        word = step_word(self.q, self.bit_rows, first[d], self.n)
        return DistanceCertificate(d, word, METHOD_EXHAUSTIVE)


def step_word(q: int, rows: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """The word at step m of a walk over ``rows``: of the row bits gray(m)."""
    return unpack_row(q, xor_combine(rows, m ^ m >> 1), n)


def certify_dependent_set(code, blocks, lift, budget: int, start: int, method: str):
    """The first smallest dependent set of width-bit symbol ``blocks`` from
    ``start``, its coefficients (block i's at symbol i) lifted by ``lift`` to a
    word of ``code``, which ``code.contains`` checks: ``tuple`` for a plain
    code, ``BinaryLrc.lift`` for an LRC."""
    found = smallest_dependent_set(blocks, budget, start)
    if found is None:
        raise AssertionError("no dependent set found in a k>0 code")
    (indices, mask), width = found, len(blocks[0])
    placed = {i: mask >> width * j & (1 << width) - 1 for j, i in enumerate(indices)}
    if not all(placed.values()):
        raise AssertionError("dependency skips a block; smaller set missed")
    witness = tuple(lift([placed.get(i, 0) for i in range(len(blocks))]))
    if not code.contains(witness):
        raise AssertionError(f"{method} witness is not a codeword")
    return DistanceCertificate(sum(1 for c in witness if c), witness, method)


def side_weights(dual_rows: Sequence, n: int, width: int, k: int, budget: int) -> tuple:
    """A_0..A_n of the binary dimension-k code of n width-bit symbols whose
    dual the c independent ``dual_rows`` span (H's in pair expansion, or an
    LRC's lower block), from its smaller side: their nullspace when k <= c,
    else their 2^c words by ``krawtchouk_transform`` at q = 2^width; and
    the walk of the code itself, its rows and each weight's first step, or None."""
    c = len(dual_rows)
    total = 1 << min(k, c)
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed enumeration budget {budget}")
    rows = FieldMatrix(2, c, width * n, dual_rows).nullspace().rows if k <= c else dual_rows
    counts, first = weight_histogram(weight_planes(rows, n, width), n)
    if k <= c:
        return counts, (rows, first)
    return krawtchouk_transform(counts, total, n, 1 << width), None


@cache
def _step_bit_planes(low: int) -> tuple[int, ...]:
    """Plane i, for i < low: bit x is set, for x < 2^low, when bit i of x is."""
    full = (1 << (1 << low)) - 1
    # The pattern of 2^i clear bits then 2^i set bits, repeated 2^(low-i-1)
    # times: ``full`` over 2^(2^(i+1)) - 1 has a 1 at each repeat's start.
    return tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i in range(low)
    )


def _subset_xors(planes: Sequence[int]) -> list[int]:
    """Entry m is the XOR of ``planes[i]`` over the set bits i of m."""
    table = [0]
    for plane in planes:
        table += [entry ^ plane for entry in table]
    return table


def weight_planes(rows: Sequence[int], n: int, width: int):
    """Bit-sliced enumeration of the 2^len(rows) steps over packed binary
    rows of n symbols, each ``width`` bits wide.

    Yields ``(base, planes, nonzero)`` per aligned block of steps: bit x
    of ``planes[w]`` is set when step base + x has a word of weight w
    (``planes`` runs past n with empty planes), and ``nonzero[j]`` is the
    plane of the block's steps whose word is nonzero at symbol j.
    """
    steps = [r ^ prev for r, prev in zip(rows, (0, *rows))]
    low = min(len(steps), BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    bit_planes, below = _step_bit_planes(low), (1 << low) - 1
    # Bit i of column c is bit c of step row i; bit x of its table is
    # parity(x & col) for x < 2^low, the XOR of the planes of col's bits.
    cols = FieldMatrix(2, len(steps), width * n, steps).transpose().rows
    # That XOR is one entry of each of two tables, over the planes of the
    # low and the high half of the low bits, each built by doubling.
    half = low // 2
    lo_table, hi_table = _subset_xors(bit_planes[:half]), _subset_xors(bit_planes[half:])
    lo_bits = (1 << half) - 1
    columns = [
        (lo_table[col & lo_bits] ^ hi_table[(col & below) >> half], col >> low) for col in cols
    ]
    # A symbol is nonzero where either of its two bits is (at width 1
    # both are its one bit), and a block complements a bit's table when
    # the block's high bits flip it: one plane per pair of flips.  A walk
    # of one block flips nothing.
    blocks = 1 << (len(steps) - low)
    symbols = []
    for (t0, h0), (t1, h1) in zip(columns[::width], columns[width - 1 :: width]):
        if blocks == 1:
            symbols.append(((t0 | t1,), h0, h1))
        else:
            n0, n1 = t0 ^ full, t1 ^ full
            symbols.append(((t0 | t1, n0 | t1, t0 | n1, n0 | n1), h0, h1))
    levels = n.bit_length()
    for h in range(blocks):
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


def weight_histogram(walk, n: int) -> tuple[tuple[int, ...], tuple[Optional[int], ...]]:
    """A_0..A_n of a ``weight_planes`` walk, and each weight's first step or None."""
    counts = [0] * (n + 1)
    first: list[Optional[int]] = [None] * (n + 1)
    for base, planes, _ in walk:
        for w in range(n + 1):
            plane = planes[w]
            if plane:
                counts[w] += plane.bit_count()
                if first[w] is None:
                    first[w] = base + (plane & -plane).bit_length() - 1
    return tuple(counts), tuple(first)


def macwilliams(
    dual_weights: WeightDistribution, dual_size: int, n: int, q: int
) -> WeightDistribution:
    """Weight distribution of the primal code from its dual's, exactly, by
    ``krawtchouk_transform``.  Raises ShapeMismatch when ``dual_weights`` is
    not of length n over GF(q), and NonIntegerResult when it cannot be a
    valid dual distribution.
    """
    if (dual_weights.n, dual_weights.q) != (n, q):
        raise ShapeMismatch(f"dual weights are not of length {n} over GF({q})")
    if sum(dual_weights.counts) != dual_size:
        raise NonIntegerResult("dual weight counts do not sum to dual size")
    log = 0
    while q**log < dual_size:
        log += 1
    if q**log != dual_size:
        raise NonIntegerResult(f"dual size {dual_size} is not a power of {q}")
    counts = krawtchouk_transform(dual_weights.counts, dual_size, n, q)
    return WeightDistribution(n, n - log, q, counts)


def krawtchouk_transform(
    dual_counts: Sequence[int], dual_size: int, n: int, q: int
) -> tuple[int, ...]:
    """A_j = (1/dual_size) * sum_i B_i K_j(i; n; q), exactly, or NonIntegerResult,
    from the dual's counts B_0..B_n.  Over GF(4) dual_size may be any power
    of 2: an additive code and its dual under the binary dot product on
    symbol pairs obey the same identity.

    Since sum_j K_j(i) y^j = (1 - y)^i (1 + (q-1) y)^(n-i), dual_size * A_j
    is the y^j coefficient of P(y) = sum_i B_i (1 - y)^i (1 + (q-1) y)^(n-i),
    which one Horner pass from i = n down evaluates at y = 2^s: one int
    whose s-bit slots hold P's signed coefficients.  No coefficient exceeds
    q^n * sum_i B_i in size, so while the slots below are nonnegative, a
    slot read low first is its coefficient, or that plus 2^s, with the top
    bit set, when the coefficient is negative.  The first negative one
    ends the decode, so no borrow reaches a slot that is read.
    """
    s = (q**n * sum(dual_counts)).bit_length() + 2
    acc, power = 0, 1  # power = (1 + (q-1) y)^(n-i)
    for b_i in reversed(dual_counts):
        acc = acc - (acc << s) + b_i * power
        power += (q - 1) * power << s
    mask, sign = (1 << s) - 1, 1 << (s - 1)
    counts = []
    for j in range(n + 1):
        total = acc & mask
        acc >>= s
        value, rem = divmod(total, dual_size)
        if rem or total & sign:
            raise NonIntegerResult(f"transform gives non-integer A_{j}")
        counts.append(value)
    return tuple(counts)
