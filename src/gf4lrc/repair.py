"""Erasure repair on locality-2 LRCs and a reproducible failure simulator.

Local repair of a single erasure XORs the two group partners.  Global
decoding is one pass of the XOR-basis kernel of ``gf4lrc.matrix``: the
syndrome (XOR of the parity-check columns at the known ones) reduced
against the still-erased columns leaves a residual, meaning no codeword
fits, or a provenance mask holding the erased values.  It is exact and
succeeds iff the erased columns are linearly independent (guaranteed for
up to d-1 erasures).

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

from dataclasses import dataclass
from typing import Optional, Sequence

from .concat import BinaryLrc
from .errors import AmbiguousDecode, GroupDamaged
from .matrix import xor_insert, xor_reduce

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
class ErasurePattern:
    """A set of erased coordinate indices."""

    positions: frozenset[int]

    @classmethod
    def of(cls, positions) -> "ErasurePattern":
        return cls(frozenset(int(p) for p in positions))

    def __len__(self) -> int:
        return len(self.positions)

    def per_group_counts(self, lrc: BinaryLrc) -> list[int]:
        counts = [0] * lrc.ell
        for i, g in enumerate(lrc.groups):
            counts[i] = sum(1 for p in g if p in self.positions)
        return counts


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
    if word[pos] is not None:
        raise ValueError(f"position {pos} is not erased")
    group = next(g for g in lrc.groups if pos in g)
    partners = [p for p in group if p != pos]
    if any(word[p] is None for p in partners):
        raise GroupDamaged(f"group {group} has another erasure besides {pos}")
    return word[partners[0]] ^ word[partners[1]]


def global_decode(
    lrc: BinaryLrc,
    word: Sequence[Optional[int]],
    pattern: Optional[ErasurePattern] = None,
) -> RepairOutcome:
    """Recover all erasures; local repairs first, then one linear solve.

    Raises AmbiguousDecode (with the solution-space dimension) when the
    parity-check columns at the still-erased positions are dependent.
    """
    word_out, solution_dim, methods, accessed = _decode(lrc, word, pattern)
    if solution_dim:
        raise AmbiguousDecode(
            f"erased columns are dependent; 2^{solution_dim} candidate words",
            solution_dim,
        )
    return RepairOutcome(word_out, methods, accessed)


def _decode(lrc, word, pattern):
    """(recovered word or None, solution-space dim, methods, accessed)."""
    n = lrc.n
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != n = {n}")
    erased = frozenset(i for i in range(n) if word[i] is None)
    if pattern is not None and pattern.positions != erased:
        raise ValueError("pattern disagrees with the erased positions")
    values = list(word)
    methods: dict[int, str] = {}
    accessed: dict[int, int] = {}
    for g in lrc.groups:
        missing = [p for p in g if p in erased]
        if len(missing) == 1:
            p = missing[0]
            partners = [x for x in g if x != p]
            values[p] = values[partners[0]] ^ values[partners[1]]
            methods[p] = "local"
            accessed[p] = 2
    rest = sorted(p for p in erased if p not in methods)
    if rest:
        cols = lrc.code.parity_columns
        syndrome = 0
        for col, v in zip(cols, values):
            if v:
                syndrome ^= col
        basis: list = []
        dependent = 0
        for i, p in enumerate(rest):
            dependent += not xor_insert(basis, cols[p], 1 << i)[0]
        residual, solution = xor_reduce(basis, syndrome)
        if residual:
            raise ValueError("word is not consistent with any codeword")
        if dependent:
            return None, dependent, methods, accessed
        for i, p in enumerate(rest):
            values[p] = (solution >> i) & 1
            methods[p] = "global"
            accessed[p] = n - len(erased)
    recovered = tuple(values)
    if not lrc.code.contains(recovered):
        raise ValueError("word is not consistent with any codeword")
    return recovered, 0, methods, accessed


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
        return {
            "trials": self.trials,
            "model": self.model,
            "seed": self.seed,
            "success_rate": self.success_rate,
            "local_fraction": self.local_fraction,
            "mean_accessed": self.mean_accessed,
        }


def simulate(lrc: BinaryLrc, trials: int, model, seed: int = 0) -> SimulationReport:
    """Batch failure injection; deterministic under a fixed seed.

    Per trial a random codeword is drawn, the model erases positions, and
    decoding is attempted.  local_fraction counts locally repaired symbols
    over all erased symbols; mean_accessed averages the per-symbol access
    counts over all repaired symbols.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    successes = 0
    erased_total = 0
    local_total = 0
    accessed_total = 0
    repaired_total = 0
    for trial in range(trials):
        rng = SplitMix64(seed + trial)
        message = [rng.next_u64() & 1 for _ in range(lrc.k)]
        codeword = lrc.code.encode(message)
        pattern = model.draw(rng, lrc.n)
        erased_total += len(pattern)
        word = [None if i in pattern else codeword[i] for i in range(lrc.n)]
        recovered, solution_dim, methods, accessed = _decode(lrc, word, None)
        for p, method in methods.items():
            repaired_total += 1
            accessed_total += accessed[p]
            if method == "local":
                local_total += 1
        if solution_dim:
            continue
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
