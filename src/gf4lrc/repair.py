"""Erasure repair on locality-2 LRCs and a reproducible failure simulator.

Decoding runs on packed words: the intact bits as one int and the erased
positions as a bit mask.  A group with a single erasure gets it back as
the XOR of its three bits (the erased one reads 0).  The rest is one pass
of the XOR-basis kernel of ``gf4lrc.matrix``: the syndrome of the known
bits (``LinearCode.syndrome``, an XOR of the code's ``bit_columns``)
reduced against the still-erased columns leaves a residual, meaning no
codeword fits, or a provenance mask holding the erased values.  It is
exact and succeeds iff the erased columns are linearly independent
(guaranteed for up to d-1 erasures).

Randomness comes from SplitMix64 so runs are reproducible across
implementations.  State update per draw, all mod 2^64:

    state += 0x9E3779B97F4A7C15
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Trial i of a simulation uses an independent stream seeded with seed + i, so
statistics do not depend on scheduling or trial order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .concat import BinaryLrc
from .errors import AmbiguousDecode, GroupDamaged
from .matrix import pack_row, row_support, unpack_row, xor_combine, xor_insert, xor_reduce

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator; see the module docstring for the recurrence."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) as next_u64() mod n."""
        return self.next_u64() % n

    def unit(self) -> float:
        """Uniform draw in [0, 1) with 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class RepairOutcome:
    """Result of decoding one erasure pattern.

    ``methods`` maps each erased position to "local" or "global"; ``accessed``
    to the number of intact symbols read for it (2 for local repair, all
    remaining intact symbols for a global solve).
    """

    word: tuple[int, ...]
    methods: dict[int, str]
    accessed: dict[int, int]


def local_repair(lrc: BinaryLrc, word: Sequence[Optional[int]], pos: int) -> int:
    """Repair one erased symbol from its two group partners."""
    if len(word) != lrc.n:
        raise ValueError(f"word length {len(word)} != n = {lrc.n}")
    if not 0 <= pos < lrc.n:
        raise ValueError(f"position {pos} outside 0..{lrc.n - 1}")
    if word[pos] is not None:
        raise ValueError(f"position {pos} is not erased")
    group = next(g for g in lrc.groups if pos in g)
    partners = [p for p in group if p != pos]
    if any(word[p] is None for p in partners):
        raise GroupDamaged(f"group {group} has another erasure besides {pos}")
    return word[partners[0]] ^ word[partners[1]]


def global_decode(lrc: BinaryLrc, word: Sequence[Optional[int]]) -> RepairOutcome:
    """Recover all erasures (``None`` symbols); local repairs first, then
    one linear solve.

    Raises AmbiguousDecode (with the solution-space dimension) when the
    parity-check columns at the still-erased positions are dependent.
    """
    n = lrc.n
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != n = {n}")
    known = erased = 0
    for i, x in enumerate(word):
        if x is None:
            erased |= 1 << i
        elif x == 1:
            known |= 1 << i
        elif x != 0:
            raise ValueError(f"symbol {x} invalid over GF(2)")
    recovered, solution_dim, local = _decode(lrc, known, erased)
    if solution_dim:
        raise AmbiguousDecode(
            f"erased columns are dependent; 2^{solution_dim} candidate words",
            solution_dim,
        )
    methods: dict[int, str] = {}
    accessed: dict[int, int] = {}
    for g in lrc.groups:
        for p in g:
            if local >> p & 1:
                methods[p], accessed[p] = "local", 2
    intact = n - erased.bit_count()
    for p, _ in row_support(2, erased ^ local):
        methods[p], accessed[p] = "global", intact
    return RepairOutcome(unpack_row(2, recovered, n), methods, accessed)


def _decode(lrc: BinaryLrc, known: int, erased: int) -> tuple[Optional[int], int, int]:
    """(recovered word or None, solution-space dim, mask of local repairs).

    Words are packed: ``known`` holds the intact bits (0 at the erasures),
    ``erased`` has bit p set for each erased position p.
    """
    local = 0
    for a, b, c in lrc.groups:
        group = 1 << a | 1 << b | 1 << c
        hit = erased & group
        if hit.bit_count() == 1:
            # The erased bit reads 0, so the group's parity is its value.
            local |= hit
            if (known & group).bit_count() & 1:
                known |= hit
    rest = erased & ~local
    if rest:
        # Column p enters with provenance bit p: the solution is in place.
        cols = lrc.code.bit_columns
        basis: list = []
        dependent = 0
        while rest:
            low = rest & -rest
            dependent += not xor_insert(basis, cols[low.bit_length() - 1], low)[0]
            rest ^= low
        residual, solution = xor_reduce(basis, lrc.code.syndrome(known))
        if residual:
            raise ValueError("word is not consistent with any codeword")
        if dependent:
            return None, dependent, local
        return known | solution, 0, local  # the zero residual makes its syndrome 0
    if lrc.code.syndrome(known):
        raise ValueError("word is not consistent with any codeword")
    return known, 0, local


# -- failure models ----------------------------------------------------------


@dataclass(frozen=True)
class RandomErasures:
    """Erase exactly t positions chosen uniformly without replacement."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("erasure count must be >= 0")

    def draw(self, rng: SplitMix64, n: int) -> frozenset[int]:
        if self.t > n:
            raise ValueError(f"cannot erase {self.t} of {n} positions")
        pool = list(range(n))
        for i in range(self.t):
            j = i + rng.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return frozenset(pool[: self.t])

    def to_json(self) -> dict:
        return {"name": "random_t_erasures", "t": self.t}


@dataclass(frozen=True)
class PerSymbolErasures:
    """Erase each position independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("erasure probability must lie in [0, 1]")

    def draw(self, rng: SplitMix64, n: int) -> frozenset[int]:
        return frozenset(i for i in range(n) if rng.unit() < self.p)

    def to_json(self) -> dict:
        return {"name": "per_symbol_prob", "p": self.p}


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    model: dict
    seed: int
    success_rate: float
    local_fraction: float
    mean_accessed: float

    def to_json(self) -> dict:
        return asdict(self)


def simulate(lrc: BinaryLrc, trials: int, model, seed: int = 0) -> SimulationReport:
    """Batch failure injection; deterministic under a fixed seed.

    Per trial a random codeword is drawn, the model erases positions, and
    decoding is attempted.  local_fraction counts locally repaired symbols
    over all erased symbols; mean_accessed averages the per-symbol access
    counts over all repaired symbols.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = lrc.n
    successes = 0
    erased_total = 0
    local_total = 0
    accessed_total = 0
    repaired_total = 0
    for trial in range(trials):
        rng = SplitMix64(seed + trial)
        message = pack_row(2, [rng.next_u64() & 1 for _ in range(lrc.k)])
        codeword = xor_combine(lrc.code.bit_rows, message)
        erased = 0
        for p in model.draw(rng, n):
            erased |= 1 << p
        t = erased.bit_count()
        erased_total += t
        recovered, solution_dim, local = _decode(lrc, codeword & ~erased, erased)
        local_count = local.bit_count()
        local_total += local_count
        accessed_total += 2 * local_count
        if solution_dim:
            repaired_total += local_count
            continue
        repaired_total += t
        accessed_total += (t - local_count) * (n - t)
        if recovered != codeword:
            raise AssertionError("decode returned a different codeword")
        successes += 1
    return SimulationReport(
        trials=trials,
        model=model.to_json(),
        seed=seed,
        success_rate=successes / trials,
        local_fraction=local_total / erased_total if erased_total else 1.0,
        mean_accessed=accessed_total / repaired_total if repaired_total else 0.0,
    )
