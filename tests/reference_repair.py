"""The symbol-list repair path, kept as an independent oracle.

This is the decoder and simulator as they stood before decoding moved to
packed words: the word is a list with ``None`` at the erasures, the
erased set a ``frozenset``, each syndrome a per-symbol loop over the
parity-check columns, and each trial encodes, erases and checks a tuple.
Its erasure draws take one scalar ``next_u64`` output per step, as the
models drew them before ``SplitMix64.lanes``.  ``next_u64`` is written here
from the recurrence, so the oracle shares no draw code with the package.
The tests compare the packed path of ``gf4lrc.repair`` against it.
"""

from gf4lrc.errors import AmbiguousDecode, ShapeMismatch
from gf4lrc.matrix import lo_mask, scale_row, xor_insert, xor_reduce
from gf4lrc.repair import (
    PerSymbolErasures,
    RandomErasures,
    RepairOutcome,
    SimulationReport,
    SplitMix64,
)


_MASK64 = (1 << 64) - 1


def next_u64(rng: SplitMix64) -> int:
    """One scalar SplitMix64 output; advances ``rng.state`` by one draw."""
    rng.state = (rng.state + 0x9E3779B97F4A7C15) & _MASK64
    z = rng.state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def syndrome(code, word) -> int:
    """The XOR of x_j times column j of H, symbol by symbol."""
    total, lo = 0, lo_mask(code.n - code.k)
    for x, col in zip(word, code.parity_check.transpose().rows):
        if x:
            total ^= scale_row(code.q, col, x, lo)
    return total


def contains(code, word) -> bool:
    """Whether a symbol list's per-symbol syndrome is 0."""
    q = code.q
    for x in word:
        if not 0 <= x < q:
            raise ValueError(f"symbol {x} invalid over GF({q})")
    if len(word) != code.n:
        raise ShapeMismatch(f"{code.n - code.k}x{code.n} times {len(word)}x1")
    return not syndrome(code, word)


def decode(lrc, word):
    """(recovered word or None, solution-space dim, methods, accessed)."""
    n = lrc.n
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != n = {n}")
    erased = frozenset(i for i in range(n) if word[i] is None)
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
        cols = lrc.code.parity_check.transpose().rows
        basis: list = []
        dependent = 0
        for i, p in enumerate(rest):
            dependent += not xor_insert(basis, cols[p], 1 << i)[0]
        residual, solution = xor_reduce(basis, syndrome(lrc.code, values))
        if residual:
            raise ValueError("word is not consistent with any codeword")
        if dependent:
            return None, dependent, methods, accessed
        for i, p in enumerate(rest):
            values[p] = (solution >> i) & 1
            methods[p] = "global"
            accessed[p] = n - len(erased)
    recovered = tuple(values)
    if not contains(lrc.code, recovered):
        raise ValueError("word is not consistent with any codeword")
    return recovered, 0, methods, accessed


def global_decode(lrc, word) -> RepairOutcome:
    word_out, solution_dim, methods, accessed = decode(lrc, word)
    if solution_dim:
        raise AmbiguousDecode(
            f"erased columns are dependent; 2^{solution_dim} candidate words",
            solution_dim,
        )
    return RepairOutcome(word_out, methods, accessed)


def draw(model, rng, n: int) -> frozenset:
    """The model's erased positions, one ``next_u64`` per draw."""
    if isinstance(model, RandomErasures):
        if model.t > n:
            raise ValueError(f"cannot erase {model.t} of {n} positions")
        pool = list(range(n))
        for i in range(model.t):
            j = i + next_u64(rng) % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return frozenset(pool[: model.t])
    assert isinstance(model, PerSymbolErasures)
    return frozenset(i for i in range(n) if (next_u64(rng) >> 11) * 2.0**-53 < model.p)


def simulate(lrc, trials: int, model, seed: int = 0) -> SimulationReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    successes = 0
    erased_total = 0
    local_total = 0
    accessed_total = 0
    repaired_total = 0
    for trial in range(trials):
        rng = SplitMix64(seed + trial)
        message = [next_u64(rng) & 1 for _ in range(lrc.k)]
        codeword = lrc.code.encode(message)
        pattern = draw(model, rng, lrc.n)
        erased_total += len(pattern)
        word = [None if i in pattern else codeword[i] for i in range(lrc.n)]
        recovered, solution_dim, methods, accessed = decode(lrc, word)
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
