"""Erasure repair on locality-2 LRCs and a reproducible failure simulator.

Decoding runs on packed words: the intact bits as one int and the erased
positions as a bit mask.  A group with a single erasure gets it back as
the XOR of its three bits (the erased one reads 0); only the groups of
erased positions are visited, through ``BinaryLrc.group_masks``.  The
rest is one pass
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

A trial draws in bulk, with the stream of one output per draw unchanged.
``SplitMix64.lanes(m)`` returns the next m outputs in one int of m 128-bit
lanes, the (j+1)-th output u_j in bits 128j..128j+63 of lane j.  From
state s (already reduced mod 2^64), lane j starts as the state
(s + (j+1)*gamma) mod 2^64 of that draw, built as (s*L + gamma*J) & M64
with L = sum 2^(128j), J = sum (j+1)*2^(128j) and M64 = (2^64-1)*L.  Each
mixing step is then one shift, XOR, mask, multiply and mask over all
lanes.  This is exact because a lane holds at most 64 bits before each
step: a 64x64-bit product, and the bits a right shift brings in from the
next lane, both land in the lane's top half, which the mask clears.

The code is linear, so whether an erased set can be repaired, and which
of its positions are repaired locally, depends only on the set and not
on the codeword: a trial decodes the zero word.  Its stream still skips
its first k outputs, the bits of the random k-bit message that a trial
which encodes a real codeword draws first, by starting the state at
seed + i + k*gamma, what k draws add to it.  So the erased sets, and
every report, equal those of such a trial.  The model's ``draw`` takes
the outputs after the skipped ones:

- ``RandomErasures`` runs Fisher-Yates on ``lanes(t)``, swapping
  position i with i + u_i mod (n - i).
- ``PerSymbolErasures`` erases position i when u_i drawn as a float,
  (u_i >> 11) * 2^-53, is below p.  Scaling by 2^53 is exact for p in
  [0, 1], so for the integer u_i >> 11 the test is (u_i >> 11) < T with
  T = ceil(p*2^53), that is u_i < T*2^11 <= 2^64.  All n lanes compare in
  one subtraction: lane i of (T*2^11 + 2^64 - 1)*L - ``lanes(n)`` lies in
  [0, 2^65), so no lane borrows from the next, and its bit 64 is set
  exactly when u_i < T*2^11.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from itertools import compress
from typing import Optional, Sequence

from .concat import BinaryLrc
from .errors import AmbiguousDecode, GroupDamaged
from .matrix import row_support, unpack_row, xor_insert, xor_reduce

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@functools.cache
def _lane_constants(m: int) -> tuple[int, int, int]:
    """(L, J, M64) for m lanes; see the module docstring."""
    ones = sum(1 << 128 * j for j in range(m))
    steps = sum((j + 1) << 128 * j for j in range(m))
    return ones, steps, _MASK64 * ones


class SplitMix64:
    """The SplitMix64 generator; see the module docstring for the recurrence."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def lanes(self, m: int) -> int:
        """The next m outputs, the (j+1)-th in bits 128j..128j+63 of one int."""
        ones, steps, mask = _lane_constants(m)
        z = (self.state * ones + _GAMMA * steps) & mask
        self.state = (self.state + m * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        return (z ^ (z >> 31)) & mask


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
    others = lrc.group_masks[pos] ^ 1 << pos
    a, b = (others & -others).bit_length() - 1, others.bit_length() - 1
    x, y = word[a], word[b]
    if x is None or y is None:
        raise GroupDamaged(f"group {tuple(sorted((a, b, pos)))} has another erasure besides {pos}")
    for v in (x, y):
        if v != 0 and v != 1:
            raise ValueError(f"symbol {v} invalid over GF(2)")
    return x ^ y


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
    masks = lrc.group_masks
    rest = erased
    while rest:
        low = rest & -rest
        group = masks[low.bit_length() - 1]
        rest &= ~group
        if (erased & group) == low:
            # The erased bit reads 0, so the group's parity is its value.
            local |= low
            if (known & group).bit_count() & 1:
                known |= low
    rest = erased ^ local
    if rest:
        # Column p enters with provenance bit p: the solution is in place.
        cols = lrc.code.bit_columns
        basis: list = []
        dependent = 0
        while rest:
            low = rest & -rest
            dependent += not xor_insert(basis, cols[low.bit_length() - 1], low)[0]
            rest ^= low
        # The zero word, all that simulate passes, has syndrome 0: nothing to solve.
        residual, solution = xor_reduce(basis, lrc.code.syndrome(known)) if known else (0, 0)
        if residual:
            raise ValueError("word is not consistent with any codeword")
        if dependent:
            return None, dependent, local
        return known | solution, 0, local  # the zero residual makes its syndrome 0
    if known and lrc.code.syndrome(known):
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
        lanes = rng.lanes(self.t)
        for i in range(self.t):
            j = i + (lanes >> 128 * i & _MASK64) % (n - i)
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
        ones = _lane_constants(n)[0]
        top = (math.ceil(self.p * 2**53) << 11) + _MASK64
        # Byte 8 of lane i holds its bit 64: 1 exactly when unit() < p.
        below = (top * ones - rng.lanes(n)).to_bytes(16 * n, "little")[8::16]
        return frozenset(compress(range(n), below))

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

    Per trial the model erases positions and decoding is attempted.
    local_fraction counts locally repaired symbols over all erased
    symbols; mean_accessed averages the per-symbol access counts over all
    repaired symbols.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = lrc.n, lrc.k
    successes = 0
    erased_total = 0
    local_total = 0
    accessed_total = 0
    repaired_total = 0
    for trial in range(trials):
        rng = SplitMix64(seed + trial + k * _GAMMA)
        erased = 0
        for p in model.draw(rng, n):
            erased |= 1 << p
        t = erased.bit_count()
        erased_total += t
        _, solution_dim, local = _decode(lrc, 0, erased)
        local_count = local.bit_count()
        local_total += local_count
        accessed_total += 2 * local_count
        if solution_dim:
            repaired_total += local_count
            continue
        repaired_total += t
        accessed_total += (t - local_count) * (n - t)
        successes += 1
    return SimulationReport(
        trials=trials,
        model=model.to_json(),
        seed=seed,
        success_rate=successes / trials,
        local_fraction=local_total / erased_total if erased_total else 1.0,
        mean_accessed=accessed_total / repaired_total if repaired_total else 0.0,
    )
