import collections
import itertools
import math
import sys

import pytest

from scalar_elimination import col_tuple
from gf4lrc import matrix, repair
from gf4lrc.code import LinearCode
from gf4lrc.concat import concatenate
from gf4lrc.errors import AmbiguousDecode, GroupDamaged
from gf4lrc.families import hamming4, hexacode
from gf4lrc.matrix import FieldMatrix, rows_rank
from gf4lrc.repair import (
    PerSymbolErasures,
    RandomErasures,
    SplitMix64,
    global_decode,
    local_repair,
    simulate,
)


@pytest.fixture(scope="module")
def lrc():
    return concatenate(hamming4(2))


def test_splitmix64_reference_stream():
    # first outputs for seed 0 of the reference SplitMix64
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_local_repair_parity_forced(lrc):
    cw = lrc.code.encode([1, 0, 0, 1, 1, 0])
    word = list(cw)
    word[4] = None
    assert local_repair(lrc, word, 4) == cw[4]
    zero = [0] * lrc.n
    zero[7] = None
    assert local_repair(lrc, zero, 7) == 0


def test_local_repair_group_damaged(lrc):
    word = [0] * lrc.n
    word[3] = None
    word[4] = None
    with pytest.raises(GroupDamaged):
        local_repair(lrc, word, 3)


def test_local_repair_rejects_position_and_length(lrc):
    word = [0] * lrc.n
    word[-1] = None
    for pos in (-1, lrc.n):
        with pytest.raises(ValueError, match="outside"):
            local_repair(lrc, word, pos)
    with pytest.raises(ValueError, match="length"):
        local_repair(lrc, word[:-1], 3)


def test_single_erasures_always_local(lrc):
    cw = lrc.code.encode([0, 1, 1, 0, 1, 1])
    for pos in range(lrc.n):
        word = list(cw)
        word[pos] = None
        out = global_decode(lrc, word)
        assert out.word == cw
        assert out.methods[pos] == "local"
        assert out.accessed[pos] == 2


def test_empty_pattern_returns_word(lrc):
    cw = lrc.code.encode([1, 1, 1, 0, 0, 0])
    out = global_decode(lrc, list(cw))
    assert out.word == cw and out.methods == {}


def test_all_five_erasure_patterns_decode(lrc):
    cw = lrc.code.encode([1, 0, 1, 1, 0, 1])
    for pattern in itertools.combinations(range(lrc.n), 5):
        word = list(cw)
        for p in pattern:
            word[p] = None
        out = global_decode(lrc, word)
        assert out.word == cw


def test_ambiguous_decode_dimension_matches_rank_deficiency(lrc):
    support = [i for i, v in enumerate(lrc.code.min_distance().witness) if v]
    cw = lrc.code.encode([0, 0, 1, 0, 1, 1])
    word = list(cw)
    for p in support:
        word[p] = None
    with pytest.raises(AmbiguousDecode) as exc_info:
        global_decode(lrc, word)
    h = lrc.code.parity_check
    cols = [FieldMatrix.from_rows(2, [col_tuple(h, p)]).rows[0] for p in support]
    rank = rows_rank(2, cols, h.nrows)
    assert exc_info.value.solution_dim == len(support) - rank == 1


def test_inconsistent_word_rejected(lrc):
    word = [0] * lrc.n
    word[0] = 1  # violates group parity with no erasures
    with pytest.raises(ValueError):
        global_decode(lrc, word)


def test_invalid_symbol_rejected(lrc):
    word = [0] * lrc.n
    word[0] = None
    word[4] = 2
    with pytest.raises(ValueError, match="symbol 2 invalid"):
        global_decode(lrc, word)


def test_simulate_trial_stays_packed(lrc, monkeypatch):
    """No trial goes through a symbol tuple or walks a word symbol by
    symbol: no encode, contains, unpack, scale_row or row_support."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(LinearCode, "encode", counted("encode", LinearCode.encode))
    monkeypatch.setattr(LinearCode, "contains", counted("contains", LinearCode.contains))
    monkeypatch.setattr(repair, "unpack_row", counted("unpack_row", repair.unpack_row))
    # Every module binding of a per-symbol helper gets the counted one.
    for name in ("scale_row", "row_support"):
        fn = getattr(matrix, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("gf4lrc")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    # Seven erasures in five groups always leave a group to the global solve.
    assert simulate(lrc, 50, RandomErasures(7), seed=3).local_fraction < 1
    simulate(lrc, 50, PerSymbolErasures(0.3), seed=3)
    assert calls == {}
    global_decode(lrc, [None] + [0] * (lrc.n - 1))
    assert calls == {"unpack_row": 1, "row_support": 1}


def test_simulate_computes_one_syndrome_per_trial(lrc, monkeypatch):
    """A global solve's zero residual stands for the final check; only a
    wholly local repair needs one."""
    calls = collections.Counter()
    syndrome = LinearCode.syndrome

    def counted(self, word):
        calls["syndrome"] += 1
        return syndrome(self, word)

    monkeypatch.setattr(LinearCode, "syndrome", counted)
    reports = {}
    for model in (RandomErasures(1), RandomErasures(5), RandomErasures(9), PerSymbolErasures(0.3)):
        calls.clear()
        reports[model] = simulate(lrc, 200, model, seed=7)
        assert calls["syndrome"] == 200, model
    # Wholly local, globally solved and ambiguous trials all ran.
    assert reports[RandomErasures(1)].local_fraction == 1
    assert reports[RandomErasures(5)].local_fraction < 1
    assert reports[RandomErasures(5)].success_rate == 1
    assert reports[RandomErasures(9)].success_rate < 1


def test_simulate_single_erasure(lrc):
    report = simulate(lrc, 300, RandomErasures(1), seed=11)
    assert report.success_rate == 1.0
    assert report.local_fraction == 1.0
    assert report.mean_accessed == 2.0


def test_simulate_up_to_distance_minus_one(lrc):
    report = simulate(lrc, 300, RandomErasures(5), seed=23)
    assert report.success_rate == 1.0


def test_simulate_total_loss(lrc):
    report = simulate(lrc, 50, RandomErasures(lrc.n), seed=5)
    assert report.success_rate == 0.0
    assert report.local_fraction == 0.0
    assert report.mean_accessed == 0.0


def test_simulate_deterministic(lrc):
    a = simulate(lrc, 120, PerSymbolErasures(0.15), seed=99)
    b = simulate(lrc, 120, PerSymbolErasures(0.15), seed=99)
    assert a == b
    c = simulate(lrc, 120, PerSymbolErasures(0.15), seed=100)
    assert a != c


def test_simulate_hexacode_stress():
    lrc = concatenate(hexacode())
    report = simulate(lrc, 200, RandomErasures(7), seed=1)
    assert report.success_rate == 1.0  # 7 = d - 1 erasures always decode
    # more erasures than parity rows can never decode uniquely
    report13 = simulate(lrc, 50, RandomErasures(lrc.n - lrc.k + 1), seed=1)
    assert report13.success_rate == 0.0


def test_simulate_validates_trials(lrc):
    with pytest.raises(ValueError):
        simulate(lrc, 0, RandomErasures(1))


def test_model_validation(lrc):
    with pytest.raises(ValueError):
        RandomErasures(-1)
    with pytest.raises(ValueError):
        PerSymbolErasures(1.5)
    with pytest.raises(ValueError):
        simulate(lrc, 1, RandomErasures(lrc.n + 1))


def test_two_full_groups_decode_on_hexacode_lrc():
    # six erasures (d-1 = 7) spanning two whole groups: the six parity-check
    # columns are independent, so recovery is unique and fully global
    lrc = concatenate(hexacode())
    cw = lrc.code.encode([1, 0, 1, 0, 1, 1])
    word = list(cw)
    for p in lrc.groups[0] + lrc.groups[1]:
        word[p] = None
    out = global_decode(lrc, word)
    assert out.word == cw
    assert all(out.methods[p] == "global" for p in lrc.groups[0] + lrc.groups[1])


def test_weight_eight_support_is_ambiguous_on_hexacode_lrc():
    lrc = concatenate(hexacode())
    cw = lrc.code.encode([0, 1, 1, 1, 0, 0])
    support = [i for i, v in enumerate(lrc.code.min_distance().witness) if v]
    assert len(support) == 8
    word = list(cw)
    for p in support:
        word[p] = None
    with pytest.raises(AmbiguousDecode):
        global_decode(lrc, word)


def _erase(codeword, pattern):
    return [None if i in pattern else v for i, v in enumerate(codeword)]


def test_exact_decoder_oracle_on_15_6_6(lrc):
    """Erasing a set of columns fails exactly when the set holds the support
    of a codeword, so on [15,6,6;2] every pattern of at most 5 erasures
    decodes and a 6-set fails exactly when it is a weight-6 support."""
    assert (lrc.n, lrc.k) == (15, 6)
    words = [lrc.code.encode(list(m)) for m in itertools.product((0, 1), repeat=lrc.k)]
    supports = {frozenset(i for i, v in enumerate(w) if v) for w in words if sum(w) == 6}
    assert len(supports) == 30 and min(sum(w) for w in words if any(w)) == 6
    cw = words[45]
    for t in range(6):
        for pattern in itertools.combinations(range(lrc.n), t):
            assert global_decode(lrc, _erase(cw, pattern)).word == cw
    ambiguous = set()
    for pattern in itertools.combinations(range(lrc.n), 6):
        try:
            out = global_decode(lrc, _erase(cw, pattern))
        except AmbiguousDecode as exc:
            assert exc.solution_dim == 1
            ambiguous.add(frozenset(pattern))
        else:
            assert out.word == cw
    assert ambiguous == supports


def test_simulated_failure_rate_at_t_equal_d_on_15_6_6(lrc):
    """Six uniform erasures fail with probability A_6 / C(15, 6) = 30/5005;
    the simulated failure count lies within 5 binomial standard deviations
    of its mean."""
    trials, p = 20_000, 30 / math.comb(15, 6)
    report = simulate(lrc, trials, RandomErasures(6), seed=2026)
    failures = round((1.0 - report.success_rate) * trials)
    assert abs(failures - trials * p) <= 5 * math.sqrt(trials * p * (1 - p))
