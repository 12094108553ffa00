"""Erasure repair on locality-2 LRCs and a reproducible failure simulator.

Decoding runs on packed words: the intact bits as one int and the erased
positions as a bit mask.  It is one pass of the XOR-basis kernel of
``gf4lrc.matrix``: each erased column of ``bit_columns`` enters with its
position as provenance bit, and the syndrome of the known bits
(``LinearCode.syndrome``) reduced against that basis leaves a residual,
meaning no codeword fits, or a provenance mask holding the erased values.
It is exact and succeeds iff the erased columns are linearly independent
(guaranteed for up to d-1 erasures).  A group with one erasure is reported
as repaired locally, from its two partners.  The single solve gives what a
local pass first would: every codeword has even weight on each group, so a
codeword supported on the erased set is 0 at a group's lone erasure.  That
column is therefore independent of the other erased ones (the solution
space has the dimension of the others alone), and its solved value is the
XOR of its partners.

Randomness comes from SplitMix64 so runs are reproducible across
implementations.  State update per draw, all mod 2^64:

    state += 0x9E3779B97F4A7C15
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Trial i of a simulation uses an independent stream seeded with seed + i, so
statistics do not depend on scheduling or trial order.

Draws are made in bulk, with the stream of one output per draw unchanged.
``SplitMix64.lanes(layout, c)`` returns the next m = len(layout) outputs
of c streams, the generator's own and those seeded at its state + 1, ...,
+ c - 1, in one int of 128-bit lanes; ``layout``, a permutation of
range(m), says which output each lane of a stream holds: output
layout[j] + 1 of stream i, u_ij, in bits 128l..128l+63 of lane
l = i*m + j.  From state s (already reduced mod 2^64), lane l starts as
the state (s + i + (layout[j]+1)*gamma) mod 2^64 of that draw, built as
(s*L + S) & M64 with L = sum 2^(128l),
S = sum (i + (layout[j]+1)*gamma)*2^(128l) and M64 = (2^64-1)*L, so a
layout costs nothing per call: it is folded into S, cached per layout
and c.  Each mixing step is then one shift, XOR, mask, multiply and mask
over all lanes.  This is exact because a lane holds at most 64 bits
before each step: a 64x64-bit product, and the bits a right shift brings
in from the next lane, both land in the lane's top half, which the mask
clears.  ``lanes(range(m))``, one stream, is the next m outputs of the
generator.

The code is linear, so whether an erased set can be repaired, and which
of its positions are repaired locally, depends only on the set and not
on the codeword: a trial needs no word, only its erased set.  Its stream
still skips its first k outputs, the bits of the random k-bit message
that a trial which encodes a real codeword draws first, by starting the
state at seed + i + k*gamma, what k draws add to it.  So the erased sets,
and every report, equal those of such a trial.

``simulate`` takes a block of consecutive trials at a time, at most about
``_BLOCK_LANES`` lanes, and lays each trial out in slots: slot 3i + j
holds position groups[i][j], so group i fills slots 3i..3i+2 (for every
``concatenate`` output ``order``, the positions listed group by group, is
the identity).  The model's ``draw(rng, order, c)`` draws the erasures of
all c trials of a block from one ``lanes`` call, trial i of the block
taking stream i, its outputs after the skipped ones, and writes them
straight into flag bytes: byte i*n + s is 1 exactly when trial i erases
position order[s].  It returns them as an ``ErasureFlags``, whose ``len``
is the block's erasure count.

- ``RandomErasures`` runs Fisher-Yates on each trial's t lanes, in
  ``range(t)`` layout, swapping entry j with j + u_ij mod (n - j).  Its
  pool starts as the slot table, entry p the slot of position p, so each
  step flags the slot of the position it picks: the swaps move the same
  entries as over positions, only their labels differ.
- ``PerSymbolErasures`` erases position j of trial i when u_ij drawn as a
  float, (u_ij >> 11) * 2^-53, is below p.  Scaling by 2^53 is exact for
  p in [0, 1], so for the integer u_ij >> 11 the test is (u_ij >> 11) < T
  with T = ceil(p*2^53), that is u_ij < T*2^11 <= 2^64.  Its lanes come
  in ``order`` layout, so lane i*n + s holds the output of position
  order[s], and all c*n lanes compare in one subtraction: lane l of
  (T*2^11 + 2^64 - 1)*L, a constant cached per p, ``order`` and c, minus
  ``lanes(order, c)`` lies in [0, 2^65), so no lane borrows from the
  next, and its bit 64 is set exactly when its output is below T*2^11.
  Byte 8 of each lane is then the flag byte of its slot.

Each block is then tallied in a few big-int operations on its flag bytes
read as one int B.  With M0 the int of a 1 in each byte 3i, a = B & M0,
b = B >> 8 & M0 and c = B >> 16 & M0 hold the flags of each group's
three slots in bit 0 of its byte 3i, a ^ b ^ c ^ (a & b & c) marks the
groups with exactly one erasure, and its product with 0x10101 (the mark
copied to the group's three bytes), masked by B, is L, the locally
repaired cells of all trials.  ``len`` of the drawn flags and
``L.bit_count()`` count the erased and the locally repaired symbols.
Only trials whose still-erased flags B ^ L are nonzero, found with
``bytes.find``, are visited one by one: the still-erased flag bytes key a
memo of the XOR-basis rank check over ``bit_columns`` in slot order, so
each distinct set reaches the kernel once.
"""

from __future__ import annotations

import functools
import math
import struct
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

#: A block of ``simulate`` holds _BLOCK_LANES // n trials (at least one),
#: so a draw takes at most about this many lanes: n per trial for
#: ``PerSymbolErasures``, t <= n for ``RandomErasures``.  The lane ints of
#: a block, 16 bytes a lane, stay in cache.
_BLOCK_LANES = 1024


@functools.lru_cache(maxsize=64)
def _lane_constants(layout: Sequence[int], streams: int) -> tuple[int, int, int]:
    """(L, S, M64) for streams laid out as ``layout`` each; see the module
    docstring.  Bounded: the last, shorter block of each run adds a key."""
    count = len(layout) * streams
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * count, "little")
    starts = b"".join(
        (i + (j + 1) * _GAMMA).to_bytes(16, "little") for i in range(streams) for j in layout
    )
    return ones, int.from_bytes(starts, "little"), _MASK64 * ones


@functools.lru_cache(maxsize=64)
def _threshold_lanes(p: float, layout: Sequence[int], streams: int) -> int:
    """p's 2^64-scaled threshold plus 2^64 - 1 in every lane of
    ``_lane_constants(layout, streams)``; bounded like it."""
    return ((math.ceil(p * 2**53) << 11) + _MASK64) * _lane_constants(layout, streams)[0]


@functools.lru_cache(maxsize=64)
def _slot_table(order: Sequence[int]) -> list[int]:
    """Entry p is the slot s of position p, order[s] = p.  Cached, since
    building it per block cost more than the t draws of a block at n = 129;
    the list is shared, so callers copy it before writing."""
    return sorted(range(len(order)), key=order.__getitem__)


class SplitMix64:
    """The SplitMix64 generator; see the module docstring for the recurrence."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def lanes(self, layout: Sequence[int], streams: int = 1) -> int:
        """The next m = len(layout) outputs of this generator and of those
        seeded at its state + 1, ..., + streams - 1, ``layout`` a hashable
        permutation of range(m): output layout[j] + 1 of stream i in bits
        128l..128l+63 of one int, l = i*m + j.  The state moves on by m
        draws, as the first stream's does."""
        ones, starts, mask = _lane_constants(layout, streams)
        z = (self.state * ones + starts) & mask
        self.state = (self.state + len(layout) * _GAMMA) & _MASK64
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
    group = next(g for g in lrc.groups if pos in g)
    a, b = sorted(set(group) - {pos})
    x, y = word[a], word[b]
    if x is None or y is None:
        raise GroupDamaged(f"group {tuple(sorted(group))} has another erasure besides {pos}")
    for v in (x, y):
        if v != 0 and v != 1:
            raise ValueError(f"symbol {v} invalid over GF(2)")
    return x ^ y


def global_decode(lrc: BinaryLrc, word: Sequence[Optional[int]]) -> RepairOutcome:
    """Recover all erasures (``None`` symbols) in one linear solve.

    Raises AmbiguousDecode (with the solution-space dimension) when the
    parity-check columns at the erased positions are dependent.
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
    methods: dict[int, str] = {}
    accessed: dict[int, int] = {}
    for g in lrc.groups:
        hit = [p for p in g if erased >> p & 1]
        if len(hit) == 1:
            methods[hit[0]], accessed[hit[0]] = "local", 2
    # Column p enters with provenance bit p: the solution is in place.
    cols = lrc.code.bit_columns
    intact = n - erased.bit_count()
    basis: list = []
    dependent = 0
    for p, _ in row_support(2, erased):
        dependent += not xor_insert(basis, cols[p], 1 << p)[0]
        if p not in methods:
            methods[p], accessed[p] = "global", intact
    residual, solution = xor_reduce(basis, lrc.code.syndrome(known))
    if residual:
        raise ValueError("word is not consistent with any codeword")
    if dependent:
        raise AmbiguousDecode(
            f"erased columns are dependent; 2^{dependent} candidate words", dependent
        )
    # The zero residual makes the syndrome of known | solution 0.
    return RepairOutcome(unpack_row(2, known | solution, n), methods, accessed)


# -- failure models ----------------------------------------------------------


@dataclass(frozen=True)
class ErasureFlags:
    """A block's erasures as ``draw`` writes them: byte i*n + s is 1
    exactly when trial i erases the position at slot s, else 0.  Its
    ``len`` is the number of erasures."""

    flags: bytes

    def __len__(self) -> int:
        return self.flags.count(1)


@dataclass(frozen=True)
class RandomErasures:
    """Erase exactly t positions chosen uniformly without replacement."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("erasure count must be >= 0")

    def draw(self, rng: SplitMix64, order: Sequence[int], trials: int = 1) -> ErasureFlags:
        """The erasures of ``trials`` trials, trial i drawn from stream i of
        ``rng.lanes``, flagged at byte i*n + s for the position order[s]."""
        t, n = self.t, len(order)
        if t > n:
            raise ValueError(f"cannot erase {t} of {n} positions")
        count = t * trials
        lanes = rng.lanes(range(t), trials).to_bytes(16 * count, "little")
        # A lane's output is its low 8 bytes.
        draws = iter(struct.unpack("<" + "Q8x" * count, lanes))
        steps, sizes = range(t), range(n, n - t, -1)
        slots = _slot_table(order)
        flags = bytearray(n * trials)
        for base in range(0, n * trials, n):
            # Fisher-Yates over slot labels; entry r is final once step r
            # has run, so the swap only moves the old entry r to j.
            pool = slots.copy()
            for r, u, size in zip(steps, draws, sizes):
                j = r + u % size
                flags[base + pool[j]] = 1
                pool[j] = pool[r]
        return ErasureFlags(bytes(flags))

    def to_json(self) -> dict:
        return {"name": "random_t_erasures", "t": self.t}


@dataclass(frozen=True)
class PerSymbolErasures:
    """Erase each position independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("erasure probability must lie in [0, 1]")

    def draw(self, rng: SplitMix64, order: Sequence[int], trials: int = 1) -> ErasureFlags:
        """The erasures of ``trials`` trials, trial i drawn from stream i of
        ``rng.lanes``, flagged at byte i*n + s for the position order[s]."""
        count = len(order) * trials
        # Byte 8 of lane l holds its bit 64: 1 exactly when unit() < p.
        top = _threshold_lanes(self.p, order, trials)
        below = (top - rng.lanes(order, trials)).to_bytes(16 * count, "little")[8::16]
        return ErasureFlags(below)

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

    Each block of trials is one int of erasure flags: local repairs come
    from the group layout for all its trials at once, and the rank check
    runs once per distinct still-erased set.  local_fraction counts
    locally repaired symbols over all erased symbols; mean_accessed
    averages the per-symbol access counts over all repaired symbols.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = lrc.n, lrc.k
    block = max(1, _BLOCK_LANES // n)
    # Slot 3i + j holds position groups[i][j].
    order = tuple(p for g in lrc.groups for p in g)
    columns = [lrc.code.bit_columns[p] for p in order]
    firsts = int.from_bytes(b"\1\0\0" * (n // 3 * block), "little")
    solved: dict[bytes, int] = {}
    failures = erased_total = local_total = global_total = global_accessed = 0
    for first in range(0, trials, block):
        size = min(block, trials - first)
        drawn = model.draw(SplitMix64(seed + first + k * _GAMMA), order, size)
        flags = drawn.flags
        erased = int.from_bytes(flags, "little")
        a, b, c = erased & firsts, erased >> 8 & firsts, erased >> 16 & firsts
        # A group with exactly one erasure repairs it locally: a ^ b ^ c
        # flags an odd count, and a & b & c takes out the count 3.
        local = (a ^ b ^ c ^ (a & b & c)) * 0x10101 & erased
        erased_total += len(drawn)
        local_total += local.bit_count()
        rest = (erased ^ local).to_bytes(n * size, "little")
        start = rest.find(1)
        while start >= 0:
            start -= start % n
            end = start + n
            key = rest[start:end]
            still = solved.get(key)
            if still is None:
                still = solved[key] = _solved(columns, key)
            if still:
                global_total += still
                global_accessed += still * (n - flags.count(1, start, end))
            else:
                failures += 1
            start = rest.find(1, end)
    repaired_total = local_total + global_total
    accessed_total = 2 * local_total + global_accessed
    return SimulationReport(
        trials=trials,
        model=model.to_json(),
        seed=seed,
        success_rate=(trials - failures) / trials,
        local_fraction=local_total / erased_total if erased_total else 1.0,
        mean_accessed=accessed_total / repaired_total if repaired_total else 0.0,
    )


def _solved(columns: Sequence[int], flags: bytes) -> int:
    """How many slots are flagged if their columns are linearly independent,
    else 0: the global solve's count of repaired symbols."""
    basis: list = []
    for s in compress(range(len(flags)), flags):
        if not xor_insert(basis, columns[s])[0]:
            return 0
    return len(basis)
