import collections
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_repair as reference
from conftest import permuted_hamming_lrc, refuse_weights, walked
from scalar_elimination import col_tuple
from gf4lrc import gf4, matrix, repair
from gf4lrc.code import LinearCode
from gf4lrc.concat import BinaryLrc, concatenate
from gf4lrc.errors import AmbiguousDecode, GroupDamaged
from gf4lrc.families import cap_code, cyclic4, hamming4, hexacode
from gf4lrc.matrix import FieldMatrix, rows_rank
from gf4lrc.projective import bundled_cap_pg3_17
from gf4lrc.repair import (
    PerSymbolErasures,
    RandomErasures,
    SimulationReport,
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
    assert [reference.next_u64(rng) for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(-(2**130), 2**130), st.integers(0, 300), st.data())
def test_lanes_match_scalar_stream(seed, m, data):
    """Lane j holds the (j+1)-th output with a zero top half, and the
    state moves on as after m scalar draws.  In a permuted layout of c
    streams, lane i*m + j holds output layout[j] + 1 of stream i."""
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    lanes = bulk.lanes(range(m))
    assert lanes == sum(reference.next_u64(scalar) << 128 * j for j in range(m))
    assert bulk.state == scalar.state
    assert reference.next_u64(bulk) == reference.next_u64(scalar)
    layout = tuple(data.draw(st.permutations(range(min(m, 40)))))
    streams = data.draw(st.integers(1, 4))
    outputs = []
    for i in range(streams):
        stream = SplitMix64(seed + i)
        drawn = [reference.next_u64(stream) for _ in layout]
        outputs += [drawn[j] for j in layout]
    bulk = SplitMix64(seed)
    assert bulk.lanes(layout, streams) == sum(u << 128 * l for l, u in enumerate(outputs))
    assert bulk.state == SplitMix64(seed + len(layout) * 0x9E3779B97F4A7C15).state


def _unshift(y: int, k: int) -> int:
    """The x < 2^64 with x ^ (x >> k) == y."""
    x = y
    for _ in range(64 // k):
        x = y ^ (x >> k)
    return x


def _state_of(u: int) -> int:
    """The SplitMix64 state whose output is u: the output mix inverted."""
    z = _unshift(u, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = _unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return _unshift(z, 30)


@pytest.mark.parametrize("p", [0.0, 2**-53, 0.05, 1 / 3, 1 - 2**-53, 1.0, 1e-320])
@pytest.mark.parametrize("lane", [0, 2])
def test_per_symbol_draw_at_threshold_edges(p, lane):
    """A lane's output u on either side of T * 2^11, T = ceil(p * 2^53),
    is erased exactly when unit() = (u >> 11) * 2^-53 < p."""
    edge = math.ceil(p * 2**53) << 11
    for u in {u for u in (0, edge - 1, edge, 2**64 - 1) if 0 <= u < 2**64}:
        seed = _state_of(u) - (lane + 1) * 0x9E3779B97F4A7C15
        assert SplitMix64(seed).lanes(range(lane + 1)) >> 128 * lane == u
        positions = reference.draw(PerSymbolErasures(p), SplitMix64(seed), 4)
        below = (u >> 11) * 2.0**-53 < p
        for order in (range(4), (3, 0, 2, 1)):
            flags = PerSymbolErasures(p).draw(SplitMix64(seed), order)
            assert flags == bytes(q in positions for q in order)
            assert flags[order.index(lane)] == below, hex(u)


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


def test_local_repair_rejects_non_binary_partner(lrc):
    assert lrc.groups[0] == (0, 1, 2)
    for partners, bad in (([5, 1], 5), ([1, -1], -1)):
        with pytest.raises(ValueError, match=rf"symbol {bad} invalid over GF\(2\)"):
            local_repair(lrc, [None, *partners] + [0] * 12, 0)


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


def test_inconsistent_word_is_refused_before_ambiguity(lrc):
    """A word that no codeword fits is refused as such even when its
    erased columns are dependent: the residual is checked first."""
    support = [i for i, v in enumerate(lrc.code.min_distance().witness) if v]
    cw = lrc.code.encode([0, 0, 1, 0, 1, 1])
    for flip in set(range(lrc.n)) - set(support):
        word = [None if p in support else x ^ (p == flip) for p, x in enumerate(cw)]
        with pytest.raises(ValueError, match="not consistent with any codeword"):
            global_decode(lrc, word)


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
    # Seven erasures in five groups always leave a group to the global
    # solve.  Refused its walk, the run visits its trials.
    with monkeypatch.context() as patch:
        patch.setattr(BinaryLrc, "cheapest_weights", refuse_weights)
        assert simulate(lrc, 50, RandomErasures(7), seed=3).local_fraction < 1
    simulate(lrc, 50, PerSymbolErasures(0.3), seed=3)
    assert calls == {}
    global_decode(lrc, [None] + [0] * (lrc.n - 1))
    assert calls == {"unpack_row": 1, "row_support": 1}
    # Tallied in bulk, the run's only such calls are those of its one
    # light-word walk, P's nullspace, so no trial adds one.
    for trials in (50, 1000):
        calls.clear()
        assert simulate(lrc, trials, RandomErasures(7), seed=3).local_fraction < 1
        assert calls == {"row_support": lrc.u}, trials


def _recorded_draws(monkeypatch) -> list:
    """The (trials, erasures) of each model ``draw`` call, in call order."""
    draws = []
    for cls in (RandomErasures, PerSymbolErasures):
        draw = cls.__dict__["draw"]

        def recorded(self, rng, order, trials=1, draw=draw):
            flags = draw(self, rng, order, trials)
            draws.append((trials, flags.count(1)))
            return flags

        monkeypatch.setattr(cls, "draw", recorded)
    return draws


def _block_sizes(trials: int, block: int) -> list:
    """The trials of each block of a run: full blocks, then the rest."""
    return [block] * (trials // block) + [trials % block] * (trials % block > 0)


def test_simulate_draws_once_per_block_and_decodes_each_set_once(lrc, monkeypatch):
    """Each block of trials calls its model's ``draw`` once, the 1 bytes
    of the flags ``draw`` returns sum to the run's erasure count, and the
    rank check runs once per distinct still-erased set, the erasures that
    no group repairs locally, and never for a set repaired wholly locally.
    A ``RandomErasures`` run ranks no set when its light words are known:
    below d = 4 by the weight-2 certificate, with no walk; at t = 7 >= d =
    6 from walks of at most trials * t words.  Refused those, it ranks each
    set once.  The same holds where the slot table is not the identity.  A
    block holds the trials whose draws fill _BLOCK_LANES lanes, t per trial
    for ``RandomErasures`` (at least 1) and n for ``PerSymbolErasures``,
    at least one trial and at most the run."""
    trials, seed = 1100, 3
    calls = collections.Counter()
    solved = repair._solved

    def counted_solved(columns, flags):
        calls["_solved"] += 1
        return solved(columns, flags)

    monkeypatch.setattr(repair, "_solved", counted_solved)
    draws = _recorded_draws(monkeypatch)

    def run(code, model):
        calls.clear()
        draws.clear()
        simulate(code, trials, model, seed)
        erasures = sum(count for _, count in draws)
        return calls + collections.Counter(draw=len(draws), erasures=erasures)

    for code in (lrc, permuted_hamming_lrc()):
        n = code.n
        for model, lanes, ranked in (
            (RandomErasures(0), 1, False),
            (RandomErasures(2), 2, False),
            (RandomErasures(7), 7, False),
            (PerSymbolErasures(0.3), n, True),
        ):
            block = repair._BLOCK_LANES // lanes
            assert 1 < block < trials and trials % block, (model, block)
            still_erased = set()
            erasures = 0
            for trial in range(trials):
                rng = SplitMix64(seed + trial)
                for _ in range(code.k):
                    reference.next_u64(rng)
                pattern = reference.draw(model, rng, code.n)
                erasures += len(pattern)
                groups = [pattern & set(g) for g in code.groups]
                still = frozenset().union(*(e for e in groups if len(e) > 1))
                if still:
                    still_erased.add(still)
            expected = collections.Counter(draw=-(-trials // block), erasures=erasures)
            tally, walks = walked(lambda: run(code, model))
            assert tally == expected + collections.Counter(
                _solved=len(still_erased) if ranked else 0
            ), (code.groups, model)
            assert [size for size, _ in draws] == _block_sizes(trials, block), model
            if model in (RandomErasures(0), RandomErasures(2)):
                assert walks == [], model
            if model == RandomErasures(7):
                assert walks and all(words <= trials * 7 for _, words in walks)
                # Refused its walk, the run ranks each set once.
                with monkeypatch.context() as patch:
                    patch.setattr(BinaryLrc, "cheapest_weights", refuse_weights)
                    tally = run(code, model)
                assert tally == expected + collections.Counter(_solved=len(still_erased))
            if model == RandomErasures(2):
                # Refused its certificate and its walk, the run ranks each
                # set.  Two erasures leave a still-erased set only inside
                # one of the five groups, so at most 15 sets: far fewer
                # rank checks than trials.
                with monkeypatch.context() as patch:
                    patch.setattr(BinaryLrc, "cheapest_weights", refuse_weights)
                    patch.setattr(repair, "_weight_two_free", lambda rows, ell: False)
                    tally = run(code, model)
                assert tally["_solved"] == len(still_erased)
                assert 0 < len(still_erased) <= 15
    # A run shorter than a block is one block; a trial that draws more
    # lanes than a block holds is a block of its own.
    for model, lanes, size in ((RandomErasures(2), 102, 50), (PerSymbolErasures(0.3), 14, 1)):
        monkeypatch.setattr(repair, "_BLOCK_LANES", lanes)
        draws.clear()
        simulate(lrc, 50, model, seed)
        assert [size for size, _ in draws] == _block_sizes(50, size), model


#: The benchmark's ten repair kinds, (code, model, trials, block, bulk):
#: each block's trials, and whether the run is tallied in bulk from its
#: light words or visits its trials.
REPAIR_WORKLOAD_KINDS = (
    ("ham15", RandomErasures(2), 3500, 512, True),
    ("cap51", RandomErasures(2), 950, 512, True),
    ("cyc129", RandomErasures(2), 250, 250, True),
    ("ham15", RandomErasures(5), 2300, 204, True),
    ("cap51", RandomErasures(7), 620, 146, True),
    ("cyc129", RandomErasures(9), 165, 113, False),
    ("ham15", RandomErasures(6), 2000, 170, True),
    ("ham15", PerSymbolErasures(0.03), 4400, 68, False),
    ("cap51", PerSymbolErasures(0.03), 900, 20, False),
    ("cyc129", PerSymbolErasures(0.03), 200, 7, False),
)


def test_the_repair_workload_kinds_keep_their_blocks_and_tally_paths(monkeypatch):
    lrcs = {**GOLDEN_LRCS, "cap51": concatenate(cap_code(bundled_cap_pg3_17()))}
    draws, known = _recorded_draws(monkeypatch), []
    light_words = repair._light_words

    def recorded(*args):
        words = light_words(*args)
        known.append(words is not None)
        return words

    monkeypatch.setattr(repair, "_light_words", recorded)
    for name, model, trials, block, bulk in REPAIR_WORKLOAD_KINDS:
        draws.clear()
        known.clear()
        simulate(lrcs[name], trials, model, 1)
        assert [size for size, _ in draws] == _block_sizes(trials, block), (name, model)
        assert any(known) == bulk, (name, model)


def test_a_run_below_d_builds_no_columns(monkeypatch):
    """No run that knows its light words reads H's columns or
    ``e_vectors``, nor ranks a set: t < d, and t >= d when the walk of P's
    2^k = 64 words fits the run's trials * t draws, as at 10 trials of 7.
    A run whose walk is refused (t = 6) or over that budget (9 trials of 7,
    63 draws) visits its trials and builds them for its first rank check."""
    obj = concatenate(hamming4(2)).to_json()
    ranked = collections.Counter()
    solved = repair._solved

    def counted_solved(columns, flags):
        ranked["_solved"] += 1
        return solved(columns, flags)

    monkeypatch.setattr(repair, "_solved", counted_solved)
    for t, trials in ((5, 200), (6, 200), (7, 10)):
        lrc = BinaryLrc.from_json(obj)
        _, walks = walked(lambda: simulate(lrc, trials, RandomErasures(t), 7))
        assert not {"code", "e_vectors"} & vars(lrc).keys()
        assert walks and all(words <= trials * t for _, words in walks)
        assert ranked["_solved"] == 0
    for t, trials, refused in ((6, 200, True), (7, 9, False)):
        lrc = BinaryLrc.from_json(obj)
        with monkeypatch.context() as patch:
            if refused:
                patch.setattr(BinaryLrc, "cheapest_weights", refuse_weights)
            simulate(lrc, trials, RandomErasures(t), 7)
        assert {"code", "e_vectors"} <= vars(lrc).keys()
        assert ranked["_solved"] > 0
        ranked.clear()


def _count_syndromes(monkeypatch) -> collections.Counter:
    calls = collections.Counter()
    syndrome = LinearCode.syndrome

    def counted(self, word):
        calls["syndrome"] += 1
        return syndrome(self, word)

    monkeypatch.setattr(LinearCode, "syndrome", counted)
    return calls


def test_simulate_computes_no_syndrome(lrc, monkeypatch):
    """Every trial decodes the zero word, whose syndrome is 0."""
    calls = _count_syndromes(monkeypatch)
    reports = {}
    for model in (RandomErasures(1), RandomErasures(5), RandomErasures(9), PerSymbolErasures(0.3)):
        calls.clear()
        reports[model] = simulate(lrc, 200, model, seed=7)
        assert calls["syndrome"] == 0, model
    # Wholly local, globally solved and ambiguous trials all ran.
    assert reports[RandomErasures(1)].local_fraction == 1
    assert reports[RandomErasures(5)].local_fraction < 1
    assert reports[RandomErasures(5)].success_rate == 1
    assert reports[RandomErasures(9)].success_rate < 1


def test_global_decode_checks_a_nonzero_word(lrc, monkeypatch):
    """A nonzero word costs one syndrome, after local repairs or as the
    right-hand side of the global solve, and one that is no codeword fails."""
    cw = lrc.code.encode([1, 0, 1, 1, 0, 1])
    calls = _count_syndromes(monkeypatch)
    for erased, method in (((0,), "local"), ((0, 1), "global")):
        word = list(cw)
        for p in erased:
            word[p] = None
        calls.clear()
        out = global_decode(lrc, word)
        assert (out.word, out.methods[0], calls["syndrome"]) == (cw, method, 1)
        word[erased[-1] + 1] ^= 1
        with pytest.raises(ValueError, match="not consistent with any codeword"):
            global_decode(lrc, word)


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


def test_model_validation(lrc, monkeypatch):
    with pytest.raises(ValueError):
        RandomErasures(-1)
    with pytest.raises(ValueError):
        PerSymbolErasures(1.5)
    # t > n raises before anything is drawn.
    rng = SplitMix64(3)
    with pytest.raises(ValueError, match="cannot erase 16 of 15 positions"):
        RandomErasures(16).draw(rng, range(15), 2)
    assert rng.state == 3
    # simulate refuses it before the weights' walk, which the light words'
    # walk follows, however many trials the run asks for.
    asked = []

    def refused(self, budget):
        asked.append(budget)
        refuse_weights(self, budget)

    monkeypatch.setattr(BinaryLrc, "cheapest_weights", refused)
    for trials in (1, 2_000_000):
        with pytest.raises(ValueError, match="cannot erase 16 of 15 positions"):
            simulate(lrc, trials, RandomErasures(lrc.n + 1))
    assert asked == []


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


W, W2 = gf4.W, gf4.W2
GOLDEN_LRCS = {
    "ham15": concatenate(hamming4(2)),
    "cyc129": concatenate(cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1])),
}
#: (code, model, seed) -> (success_rate, local_fraction, mean_accessed) of
#: 200 trials, recorded with one scalar next_u64 per draw.
GOLDEN_REPORTS = {
    ("ham15", RandomErasures(5), 7): (1.0, 0.499, 6.008),
    ("ham15", RandomErasures(5), -1): (1.0, 0.504, 5.968),
    ("ham15", RandomErasures(5), 2**64 + 3): (1.0, 0.5, 6.0),
    ("ham15", RandomErasures(9), 7): (0.485, 0.1638888888888889, 4.79837067209776),
    ("ham15", RandomErasures(9), -1): (0.475, 0.16277777777777777, 4.789256198347108),
    ("ham15", RandomErasures(9), 2**64 + 3): (0.485, 0.16333333333333333, 4.802443991853361),
    ("ham15", PerSymbolErasures(0.05), 7): (1.0, 0.8115942028985508, 3.9855072463768115),
    ("ham15", PerSymbolErasures(0.05), -1): (1.0, 0.8074074074074075, 4.014814814814815),
    ("ham15", PerSymbolErasures(0.05), 2**64 + 3): (1.0, 0.8088235294117647, 4.014705882352941),
    ("cyc129", RandomErasures(5), 7): (1.0, 0.912, 12.736),
    ("cyc129", RandomErasures(5), -1): (1.0, 0.916, 12.248),
    ("cyc129", RandomErasures(5), 2**64 + 3): (1.0, 0.91, 12.98),
    ("cyc129", RandomErasures(9), 7): (1.0, 0.8688888888888889, 17.47111111111111),
    ("cyc129", RandomErasures(9), -1): (1.0, 0.8711111111111111, 17.20888888888889),
    ("cyc129", RandomErasures(9), 2**64 + 3): (1.0, 0.8688888888888889, 17.47111111111111),
    ("cyc129", PerSymbolErasures(0.05), 7): (1.0, 0.9083665338645418, 12.910756972111553),
    ("cyc129", PerSymbolErasures(0.05), -1): (1.0, 0.9134920634920635, 12.31031746031746),
    ("cyc129", PerSymbolErasures(0.05), 2**64 + 3): (1.0, 0.9094488188976378, 12.783464566929133),
}


@pytest.mark.parametrize("name, model, seed", sorted(GOLDEN_REPORTS, key=repr), ids=repr)
def test_simulate_matches_golden_report(name, model, seed):
    success_rate, local_fraction, mean_accessed = GOLDEN_REPORTS[name, model, seed]
    assert simulate(GOLDEN_LRCS[name], 200, model, seed) == SimulationReport(
        trials=200,
        model=model.to_json(),
        seed=seed,
        success_rate=success_rate,
        local_fraction=local_fraction,
        mean_accessed=mean_accessed,
    )
