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

``simulate`` takes a block of consecutive trials at a time and lays each
trial out in slots: slot 3i + j holds position groups[i][j], so group i
fills slots 3i..3i+2 (for every ``concatenate`` output ``order``, the
positions listed group by group, is the identity).  A block is sized by
the m lanes each of its trials draws, ``model.lanes_per_trial(n)``: t
for ``RandomErasures``, n for ``PerSymbolErasures``, taken as 1 when it
is 0.  It holds _BLOCK_LANES // m trials, at least one and at most the
run.  The model's ``draw(rng, order, c)`` draws the erasures of all c
trials of a block from one ``rng.lanes`` call, trial i of the block
taking stream i, its outputs after the skipped ones, and returns them as
bare flag bytes: byte i*n + s is 1 exactly when trial i erases position
order[s], else 0, so ``count(1)`` is the block's erasure count.

The rng of a run's draws carries one lane vector across its blocks.
Block b's trial i is the stream seeded at s + b*block + i, with
s = seed + k*gamma, so its pre-mix lanes are block b - 1's plus block in
every lane: the run builds (s*L + S) & M64 once, for a full block, and
each block after it adds the cached block*L and masks by M64.  The last
block of c < block trials takes the low 128*m*c bits of that vector,
since lanes are trial-major, and its other lanes, now 0, mix to 0.  Each
block's lanes are thus ``SplitMix64(s + b*block).lanes(layout, c)``, and
so the stream, and every report, equals a draw-by-draw generator's.

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
repaired cells of all trials.  ``count(1)`` of the drawn flags and
``L.bit_count()`` count the erased and the locally repaired symbols.

A ``RandomErasures`` run whose light words are known, the LRC's nonzero
codewords of weight at most t, is tallied with no per-trial work.  An
erased set is unrecoverable exactly when it holds the support of a
nonzero codeword (Wei 1991), and a codeword inside t positions is light;
the rank check of its still-erased set fails exactly then, as every
codeword is 0 at a group's lone erasure.  Each light word is held as its (group, α) pairs, and a
nonzero symbol α of group g lifts to two of slots 3g..3g+2: 3g and 3g+1
for α = 1, 3g and 3g+2 for α = 2, 3g+1 and 3g+2 for α = 3.  Byte i of
the int of the slice ``flags[s::n]`` is trial i's flag at slot s, so the
AND of two slots' ints flags the trials that erase both, and a block's
failing trials are the OR, over the light words, of the AND of each
word's pair masks.  This is exact at any t, also from τ = d + d/2 on,
where one erased set can hold two supports.  The block adds
(B ^ L).bit_count() global repairs, less the still-erased symbols of its
failing trials, each reading the n - t intact symbols.

The light words are none when t lies below the LRC's distance d.  Every
d is even and at least 2, so t <= 1 lies below it.  A weight-2 codeword
is one pair symbol alone, a word of P exactly when its group has e1 = 0,
e2 = 0 or e1 = e2, bits 2g and 2g + 1 of ``dual_rows``.  So with O the
OR of the rows, X the OR of r ^ r >> 1 over them and M = 0b0101...01,
there is none, and d >= 4, when O & M, O >> 1 & M and X & M all equal M:
a certificate of u big-int ORs, under which t <= 3 needs no walk either.
Otherwise d comes from the walk of ``cheapest_weights``, and at t >= d
the light words from ``BinaryLrc.light_words``, a walk of P's 2^k words.
Each walk is given as many words as the run draws lanes, trials * t, so
it is never longer than the draw it saves.  A k = 0 code has no nonzero
word, so every set decodes.  A file's "d" is a claim that loading does
not check and is never read.  Such a run never builds H's columns.

The tally ANDs each light word's pair masks in every block, so its cost
grows with their (group, α) symbols: they are read, in step order, only
while they hold at most _LIGHT_SYMBOLS = 1024.  Bulk over visiting time
was 0.74 at 90 symbols ([15,6,6;2], t = 6), 0.89-0.94 at 852, 1.04 at
1224, 1.3-1.4 at 4752, 10 at 68172 and 19 at 139995 (LRCs of 12 and 13
points of the bundled 17-cap, t = 8 to 14).

In every other run (a walk over budget, light words over that bound, and
``PerSymbolErasures``, whose trials can hold any of the 2^k - 1 nonzero
words) only trials whose still-erased flags B ^ L are nonzero, found
with ``bytes.find``, are visited one by one: the flag bytes key a memo
of the XOR-basis rank check over ``bit_columns`` in slot order, so each
distinct set reaches the kernel once.  H's columns are built for the
first rank check, so a run that ranks no set never builds them.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import asdict, dataclass
from itertools import compress
from operator import or_
from typing import Optional, Sequence

from .concat import BinaryLrc
from .errors import AmbiguousDecode, BudgetExceeded, GroupDamaged
from .matrix import row_support, unpack_row, xor_insert, xor_reduce

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: A block of ``simulate`` draws at most _BLOCK_LANES lanes, 16 bytes
#: each, so that its ints stay in cache: _BLOCK_LANES // m trials, m the
#: lanes a trial draws (see the module docstring).
_BLOCK_LANES = 1024
#: The most (group, α) symbols the light words of a bulk tally hold, the
#: measured crossover past which visiting the trials is cheaper.
_LIGHT_SYMBOLS = 1024


@functools.lru_cache(maxsize=64)
def _lane_constants(layout: Sequence[int], streams: int) -> tuple[int, int, int]:
    """(L, S, M64) for streams laid out as ``layout`` each; see the module
    docstring.  Bounded: a run shorter than a block adds a key."""
    count = len(layout) * streams
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * count, "little")
    starts = b"".join(
        (i + (j + 1) * _GAMMA).to_bytes(16, "little") for i in range(streams) for j in layout
    )
    return ones, int.from_bytes(starts, "little"), _MASK64 * ones


@functools.lru_cache(maxsize=64)
def _threshold_lanes(p: float, layout: Sequence[int], streams: int) -> int:
    """p's 2^64-scaled threshold plus 2^64 - 1 in every lane of
    ``_lane_constants(layout, streams)``.  Bounded: the last, shorter
    block of each run adds a key."""
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
        return _mix(z, mask)


class _RunStreams:
    """The rng of a run's blocks of ``block`` trials: call b of
    ``lanes(layout, c)``, c <= block, returns what
    ``SplitMix64(state + b*block).lanes(layout, c)`` does, for the one
    layout of the run.  Its pre-mix lanes are built on the first call and
    move on by ``block`` in every lane per call; see the module docstring."""

    def __init__(self, state: int, block: int):
        self.state, self.block, self.z = state, block, None

    def lanes(self, layout: Sequence[int], streams: int) -> int:
        if self.z is None:
            ones, starts, self.mask = _lane_constants(layout, self.block)
            self.z = (self.state * ones + starts) & self.mask
            self.step = self.block * ones
        z = self.z
        self.z = (z + self.step) & self.mask
        if streams < self.block:
            # Lanes are trial-major, so the first streams are the low lanes;
            # the high ones mix from 0 to 0.
            z &= (1 << 128 * len(layout) * streams) - 1
        return _mix(z, self.mask)


def _mix(z: int, mask: int) -> int:
    """SplitMix64's output function in every 128-bit lane of ``mask``."""
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
class RandomErasures:
    """Erase exactly t positions chosen uniformly without replacement."""

    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("erasure count must be >= 0")

    def draw(self, rng: SplitMix64, order: Sequence[int], trials: int = 1) -> bytes:
        """The erasures of ``trials`` trials, trial i drawn from stream i of
        ``rng.lanes``, flagged at byte i*n + s for the position order[s]."""
        n = len(order)
        t = self.lanes_per_trial(n)
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
        return bytes(flags)

    def lanes_per_trial(self, n: int) -> int:
        """The lanes ``draw`` takes per trial: one per erasure, t <= n."""
        if self.t > n:
            raise ValueError(f"cannot erase {self.t} of {n} positions")
        return self.t

    def to_json(self) -> dict:
        return {"name": "random_t_erasures", "t": self.t}


@dataclass(frozen=True)
class PerSymbolErasures:
    """Erase each position independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("erasure probability must lie in [0, 1]")

    def draw(self, rng: SplitMix64, order: Sequence[int], trials: int = 1) -> bytes:
        """The erasures of ``trials`` trials, trial i drawn from stream i of
        ``rng.lanes``, flagged at byte i*n + s for the position order[s]."""
        count = len(order) * trials
        # Byte 8 of lane l holds its bit 64: 1 exactly when unit() < p.
        top = _threshold_lanes(self.p, order, trials)
        return (top - rng.lanes(order, trials)).to_bytes(16 * count, "little")[8::16]

    def lanes_per_trial(self, n: int) -> int:
        """The lanes ``draw`` takes per trial: one per position."""
        return n

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
    from the group layout for all its trials at once.  A ``RandomErasures``
    run whose light words are known, none below the certified d or by the
    weight-2 certificate, takes its failures from them, the trials whose
    erasures hold a light word's support, with no rank check; any other
    run ranks each distinct still-erased set once.  A t > n is refused
    before any walk.  local_fraction counts locally repaired symbols over
    all erased symbols; mean_accessed averages the per-symbol access
    counts over all repaired symbols.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, k = lrc.n, lrc.k
    lanes = max(1, model.lanes_per_trial(n))
    block = min(max(1, _BLOCK_LANES // lanes), trials)
    # Slot 3i + j holds position groups[i][j].
    order = tuple(p for g in lrc.groups for p in g)
    columns: list[int] = []  # H's columns in slot order, built for the first rank check
    light = None  # the light words, when known: see _light_words
    if isinstance(model, RandomErasures):
        light = _light_words(lrc, model.t, trials * model.t)
    firsts = int.from_bytes(b"\1\0\0" * (n // 3 * block), "little")
    spread = int.from_bytes(b"\1" * n, "little")  # a trial's flag copied to its n bytes
    solved: dict[bytes, int] = {}
    failures = erased_total = local_total = global_total = global_accessed = 0
    streams = _RunStreams((seed + k * _GAMMA) & _MASK64, block)
    for first in range(0, trials, block):
        size = min(block, trials - first)
        flags = model.draw(streams, order, size)
        erased = int.from_bytes(flags, "little")
        a, b, c = erased & firsts, erased >> 8 & firsts, erased >> 16 & firsts
        # A group with exactly one erasure repairs it locally: a ^ b ^ c
        # flags an odd count, and a & b & c takes out the count 3.
        local = (a ^ b ^ c ^ (a & b & c)) * 0x10101 & erased
        erased_total += flags.count(1)
        local_total += local.bit_count()
        if light is not None:
            # A trial fails exactly when its erasures hold a light word's
            # support; every other trial's still-erased set is solved whole.
            still = erased ^ local
            if light:
                # Byte i of slot s's int is trial i's flag there.  Symbol α
                # of group g lifts to (a+b, a, b) on slots 3g..3g+2, so it
                # lies in a trial's erasures when both its slots do: 3g and
                # 3g+1 for α = 1, 3g and 3g+2 for α = 2, 3g+1 and 3g+2 for 3.
                slots = [int.from_bytes(flags[s::n], "little") for s in range(n)]
                triples = zip(slots[::3], slots[1::3], slots[2::3])
                pairs = [(x & y, x & z, y & z) for x, y, z in triples]
                failing = 0
                for word in light:
                    held = -1
                    for g, alpha in word:
                        held &= pairs[g][alpha - 1]
                    failing |= held
                if failing:
                    failures += failing.bit_count()
                    # Copy each failing trial's flag to its n bytes, and
                    # take its still-erased symbols out of the repaired ones.
                    lost = bytearray(n * size)
                    lost[::n] = failing.to_bytes(size, "little")
                    still &= ~(int.from_bytes(lost, "little") * spread)
            repaired = still.bit_count()
            global_total += repaired
            global_accessed += repaired * (n - model.t)
            continue
        rest = (erased ^ local).to_bytes(n * size, "little")
        start = rest.find(1)
        while start >= 0:
            start -= start % n
            end = start + n
            key = rest[start:end]
            still = solved.get(key)
            if still is None:
                columns = columns or [lrc.code.bit_columns[p] for p in order]
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


def _light_words(lrc: BinaryLrc, t: int, budget: int) -> Optional[list]:
    """``lrc.light_words(t)``, [] when t lies below the LRC's distance d,
    or None when deciding that takes a walk of more than ``budget`` words
    or the words hold more than _LIGHT_SYMBOLS symbols.  Every d is even
    and at least 2, and at least 4 under ``_weight_two_free``'s
    certificate, so such a t needs no walk; else d comes from the
    ``cheapest_weights`` walk, and the light words from P's 2^k words."""
    if t < 2 or t < 4 and _weight_two_free(lrc.dual_rows, lrc.ell):
        return []
    try:
        d = lrc.cheapest_weights(budget).distance()
    except BudgetExceeded:  # the walk is longer than the draw it would save
        return None
    if d is None or t < d:
        return []
    if 1 << lrc.k > budget:
        return None
    words, symbols = [], 0
    for word in lrc.light_words(t):
        symbols += len(word)
        if symbols > _LIGHT_SYMBOLS:  # visiting is cheaper than the tally
            return None
        words.append(word)
    return words


def _weight_two_free(rows: Sequence[int], ell: int) -> bool:
    """Whether the LRC whose ``dual_rows`` are ``rows`` has no codeword of
    weight 2, one pair symbol alone.  Symbol α of group g is a word of P
    exactly when α's combination of the group's columns (e1, e2), bits 2g
    and 2g + 1 of the rows, is 0: when e1 = 0, e2 = 0 or e1 = e2.  So there
    is none when every bit 2g is set in O, the OR of the rows (e1 != 0),
    in O >> 1 (e2 != 0) and in the OR of r ^ r >> 1 (e1 != e2)."""
    ones = int("01" * ell, 2)
    either = functools.reduce(or_, rows, 0)
    differ = functools.reduce(or_, [r ^ r >> 1 for r in rows], 0)
    return either & ones == either >> 1 & ones == differ & ones == ones


def _solved(columns: Sequence[int], flags: bytes) -> int:
    """How many slots are flagged if their columns are linearly independent,
    else 0: the global solve's count of repaired symbols."""
    basis: list = []
    for s in compress(range(len(flags)), flags):
        if not xor_insert(basis, columns[s])[0]:
            return 0
    return len(basis)
