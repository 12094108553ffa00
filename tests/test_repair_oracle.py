"""The packed repair path against the symbol-list path it replaced.

``reference_repair`` keeps the former decoder, simulator trial loop and
per-symbol ``contains``; the packed ones must give equal reports, equal
decode results (or the same exception type and message) and equal
membership answers.
"""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_repair as reference
from conftest import permuted_hamming_lrc, random_linear_code, refuse_weights
from gf4lrc import repair
from gf4lrc.code import LinearCode
from gf4lrc.concat import BinaryLrc, concatenate
from gf4lrc.errors import AmbiguousDecode
from gf4lrc.families import cap_code, hamming4, hexacode, mds_rs
from gf4lrc.matrix import FieldMatrix, rows_rank
from gf4lrc.projective import CapSet, bundled_cap_pg3_17
from gf4lrc.repair import (
    PerSymbolErasures,
    RandomErasures,
    SplitMix64,
    global_decode,
    local_repair,
    simulate,
)


def _reordered_hexacode_lrc() -> BinaryLrc:
    lrc = concatenate(hexacode())
    g0, g1, g2 = lrc.groups[0]
    return BinaryLrc(lrc.code, ((g0, g2, g1),) + lrc.groups[1:], lrc.d)


LRCS = {
    "ham15": concatenate(hamming4(2)),
    "hex18": concatenate(hexacode()),
    "rs15": concatenate(mds_rs(5, 3)),
    "hex18_reordered": _reordered_hexacode_lrc(),
    "ham15_permuted": permuted_hamming_lrc(),
}


def test_permuted_lrc_has_no_consecutive_group():
    """Its groups are not the triples 3i..3i+2, so the simulator's slot
    table is not the identity; its distance is the LRC's it permutes."""
    lrc = LRCS["ham15_permuted"]
    assert not {frozenset(g) for g in lrc.groups} & {frozenset(range(i, i + 3)) for i in range(13)}
    assert lrc.code.min_distance().d == lrc.d == 6


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


#: The edges of the threshold T = ceil(p * 2^53) that a draw's u >> 11 is
#: compared against: T = 0, 1, 2^53 - 1 and 2^53, and T = 1 from a subnormal p.
EDGE_PROBABILITIES = [0.0, 2**-53, 1 - 2**-53, 1.0, 1e-320]


@st.composite
def models(draw, n):
    if draw(st.booleans()):
        return RandomErasures(draw(st.integers(0, n)))
    return PerSymbolErasures(draw(st.sampled_from(EDGE_PROBABILITIES) | st.floats(0.0, 1.0)))


@pytest.mark.parametrize("name", sorted(LRCS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_simulate_matches_reference(name, data):
    lrc = LRCS[name]
    model = data.draw(models(lrc.n))
    seed = data.draw(st.integers(-(2**130), 2**130))
    trials = data.draw(st.integers(1, 30))
    assert simulate(lrc, trials, model, seed) == reference.simulate(lrc, trials, model, seed)


@pytest.mark.parametrize("name", sorted(LRCS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_simulate_across_blocks_matches_reference(name, data):
    """Blocks of 1 to 40 trials and runs of up to 150, so that most runs
    span several blocks and end mid-block."""
    lrc = LRCS[name]
    model = data.draw(models(lrc.n))
    seed = data.draw(st.integers(-(2**130), 2**130))
    trials = data.draw(st.integers(1, 150))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repair, "_BLOCK_LANES", data.draw(st.integers(1, 40 * lrc.n)))
        ours = simulate(lrc, trials, model, seed)
    assert ours == reference.simulate(lrc, trials, model, seed)


@st.composite
def small_concatenations(draw):
    """A random [3n, 2k; 2] concatenation, n <= 6 and k <= 3, and its
    distance d, the least weight of its 2^(2k) - 1 nonzero words."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(3, n)))
    lrc = concatenate(random_linear_code(random.Random(draw(st.integers(0, 2**32))), 4, n, k))
    words = itertools.product((0, 1), repeat=lrc.k)
    d = min(sum(lrc.code.encode(m)) for m in words if any(m))
    return lrc, d


@settings(max_examples=60, deadline=None)
@given(small_concatenations(), st.sampled_from([-1, 0, 1]), st.data())
def test_a_run_below_d_is_tallied_as_the_reference_and_the_visiting_path(case, offset, data):
    """At t = d - 1, d and d + 1, over blocks of 1 to 40 trials, a run
    equals the reference, and the run whose weights are refused, which
    visits every trial with a still-erased set."""
    lrc, d = case
    model = RandomErasures(min(d + offset, lrc.n))
    seed = data.draw(st.integers(-(2**130), 2**130))
    trials = data.draw(st.integers(1, 150))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repair, "_BLOCK_LANES", data.draw(st.integers(1, 40 * lrc.n)))
        ours = simulate(lrc, trials, model, seed)
        patch.setattr(BinaryLrc, "cheapest_weights", refuse_weights)
        visited = simulate(lrc, trials, model, seed)
    assert ours == visited == reference.simulate(lrc, trials, model, seed)


def _counted_ranks(patch) -> collections.Counter:
    """Count ``repair._solved`` calls, the visiting path's rank checks."""
    calls = collections.Counter()
    solved = repair._solved

    def counted(columns, flags):
        calls["_solved"] += 1
        return solved(columns, flags)

    patch.setattr(repair, "_solved", counted)
    return calls


def _bulk_visiting_and_reference(lrc, t: int, trials: int, seed: int, lanes: int):
    """A run at t tallied in bulk, with no rank check, the same run refused
    its walk, which visits its trials, and the reference run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repair, "_BLOCK_LANES", lanes)
        calls = _counted_ranks(patch)
        ours = simulate(lrc, trials, RandomErasures(t), seed)
        assert calls["_solved"] == 0, t
        patch.setattr(BinaryLrc, "cheapest_weights", refuse_weights)
        visited = simulate(lrc, trials, RandomErasures(t), seed)
    return ours, visited, reference.simulate(lrc, trials, RandomErasures(t), seed)


@settings(max_examples=40, deadline=None)
@given(small_concatenations(), st.data())
def test_every_t_from_d_to_n_is_tallied_as_the_visiting_path(case, data):
    """At every t from d to n, over blocks of 1 to 40 trials, the bulk
    tally from the light words equals the run that visits its trials and
    the reference.  40 or more trials draw the 2^k <= 64 words of P's walk."""
    lrc, d = case
    seed = data.draw(st.integers(-(2**130), 2**130))
    trials = data.draw(st.integers(40, 80))
    lanes = data.draw(st.integers(1, 40 * lrc.n))
    for t in range(d, lrc.n + 1):
        ours, visited, theirs = _bulk_visiting_and_reference(lrc, t, trials, seed, lanes)
        assert ours == visited == theirs, t


@pytest.mark.parametrize("name", ["hex18_reordered", "ham15_permuted"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_t_from_d_to_n_on_reordered_groups(name, data):
    """The same where a group's positions are listed out of order, or no
    group is three consecutive positions."""
    lrc = LRCS[name]
    seed = data.draw(st.integers(-(2**130), 2**130))
    trials = data.draw(st.integers(40, 80))
    lanes = data.draw(st.integers(1, 40 * lrc.n))
    for t in range(lrc.d, lrc.n + 1):
        ours, visited, theirs = _bulk_visiting_and_reference(lrc, t, trials, seed, lanes)
        assert ours == visited == theirs, t


def _read_light_words(patch) -> list:
    """The light words each ``BinaryLrc.light_words`` walk yields, in the
    order the run reads them."""
    read = []
    light_words = BinaryLrc.light_words

    def counted(self, t):
        for word in light_words(self, t):
            read.append(word)
            yield word

    patch.setattr(BinaryLrc, "light_words", counted)
    return read


def test_light_words_past_the_symbol_bound_send_the_run_to_the_visiting_path():
    """The [39,18,8;2] LRC of the first 13 points of the bundled 17-cap at
    t = 14: 18725 trials draw the 2^18 words of its walks, but its light
    words hold 139995 (group, α) symbols, so the run stops reading them at
    the first word past _LIGHT_SYMBOLS and visits its trials, with the
    report of the refused-walk run and of the reference.  The [15,6,6;2]
    LRC's 30 light words at t = 6, 90 symbols, are read whole and tallied
    in bulk."""
    cap = bundled_cap_pg3_17()
    lrc = concatenate(cap_code(CapSet(cap.ambient, cap.points[:13])))
    assert (lrc.n, lrc.k, lrc.d) == (39, 18, 8)
    model = RandomErasures(14)
    with pytest.MonkeyPatch.context() as patch:
        calls, read = _counted_ranks(patch), _read_light_words(patch)
        ours = simulate(lrc, 18725, model, 0)
        assert calls["_solved"] > 0
        symbols = [len(word) for word in read]
        assert sum(symbols[:-1]) <= repair._LIGHT_SYMBOLS < sum(symbols)
        patch.setattr(BinaryLrc, "cheapest_weights", refuse_weights)
        visited = simulate(lrc, 18725, model, 0)
    assert ours == visited == reference.simulate(lrc, 18725, model, 0)
    with pytest.MonkeyPatch.context() as patch:
        calls, read = _counted_ranks(patch), _read_light_words(patch)
        simulate(LRCS["ham15"], 2000, RandomErasures(6), 11)
        assert calls["_solved"] == 0
        assert (len(read), sum(map(len, read))) == (30, 90)


def test_failures_at_t_equal_d_are_the_trials_that_erase_a_weight_d_support():
    """On [15,6,6;2] at t = 6, trial i fails exactly when its six erased
    positions are one of the 30 weight-6 supports.  Trial i of a run seeded
    s is trial 0 of the run seeded s + i, so a run of 12 trials from
    s + i has one more failure than the run of 11 from s + i + 1 exactly
    when trial i fails; both runs draw at least the 64 words of P's walk,
    so both are tallied in bulk."""
    lrc = LRCS["ham15"]
    words = (lrc.code.encode(m) for m in itertools.product((0, 1), repeat=lrc.k))
    supports = {frozenset(p for p, x in enumerate(w) if x) for w in words if sum(w) == 6}
    assert len(supports) == 30

    def failures(seed, trials):
        return round((1 - simulate(lrc, trials, RandomErasures(6), seed).success_rate) * trials)

    seed, failing, expected = 11, [], []
    for i in range(1200):
        if failures(seed + i, 12) - failures(seed + i + 1, 11):
            failing.append(i)
        rng = SplitMix64(seed + i)
        for _ in range(lrc.k):
            reference.next_u64(rng)
        if frozenset(reference.draw(RandomErasures(6), rng, lrc.n)) in supports:
            expected.append(i)
    assert failing == expected and len(expected) > 2


def _has_weight_two(rows, ell: int) -> bool:
    """Whether some pair symbol alone, α at group g, is orthogonal to every row."""
    return any(
        all(((row >> 2 * g & 3) & alpha).bit_count() % 2 == 0 for row in rows)
        for g in range(ell)
        for alpha in (1, 2, 3)
    )


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda ell: st.tuples(st.just(ell), st.lists(st.integers(0, 4**ell - 1), max_size=5))
))
def test_weight_two_certificate_matches_brute_force(case):
    ell, rows = case
    assert repair._weight_two_free(rows, ell) == (not _has_weight_two(rows, ell))


@settings(max_examples=60, deadline=None)
@given(small_concatenations())
def test_weight_two_certificate_holds_exactly_when_d_is_at_least_4(case):
    lrc, d = case
    assert repair._weight_two_free(lrc.dual_rows, lrc.ell) == (d >= 4)


@pytest.mark.parametrize("t", [5, 6, 7])
def test_a_files_d_changes_no_report(t):
    """A stored "d" is a claim that loading does not check: a file that
    overstates the [15,6,6;2] LRC's d as 8, and one that leaves it null,
    give the honest file's reports, failures at t = 6 and 7 included."""
    obj = LRCS["ham15"].to_json()
    honest = BinaryLrc.from_json({**obj, "d": 6})
    report = simulate(honest, 3000, RandomErasures(t), 11)
    assert (report.success_rate < 1) == (t >= 6)
    assert simulate(honest, 40, RandomErasures(t), -1) == reference.simulate(
        honest, 40, RandomErasures(t), -1
    )
    for claim in (8, None):
        lrc = BinaryLrc.from_json({**obj, "d": claim})
        assert simulate(lrc, 3000, RandomErasures(t), 11) == report, claim


def test_a_k0_lrc_decodes_every_set():
    """With k = 0 there is no nonzero word, so no distance, and every
    erased set decodes."""
    rows = ["1 1 1 0 0 0", "0 0 0 1 1 1"] + [
        " ".join("1" if c == p else "0" for c in range(6)) for p in (1, 2, 4, 5)
    ]
    h = "field=2 rows=6 cols=6\n" + "\n".join(rows) + "\n"
    obj = {"n": 6, "k": 0, "d": None, "groups": [[0, 1, 2], [3, 4, 5]], "H": h}
    assert BinaryLrc.from_json(obj).cheapest_weights().distance() is None
    lrc = BinaryLrc.from_json(obj)
    for t in range(7):
        report = simulate(lrc, 50, RandomErasures(t), 9)
        assert report.success_rate == 1.0
        assert report == reference.simulate(lrc, 50, RandomErasures(t), 9)


def _reference_flags(model, seed: int, order, trials: int) -> bytes:
    """Byte i*n + s is 1 exactly when the reference draw of the stream
    seeded at seed + i erases order[s]."""
    n = len(order)
    draws = [reference.draw(model, SplitMix64(seed + i), n) for i in range(trials)]
    return bytes(p in erased for erased in draws for p in order)


@settings(max_examples=100, deadline=None)
@given(st.integers(-(2**130), 2**130), st.integers(1, 40), st.integers(1, 12), st.data())
def test_block_draw_is_the_union_of_trial_draws(seed, n, trials, data):
    """Trial i of a block draws from the stream seeded at seed + i, and
    its erased positions p come back as the flag bytes i*n + p."""
    model = data.draw(models(n))
    flags = model.draw(SplitMix64(seed), range(n), trials)
    ours = b"".join(model.draw(SplitMix64(seed + i), range(n)) for i in range(trials))
    assert flags == ours == _reference_flags(model, seed, range(n), trials)


@settings(max_examples=150, deadline=None)
@given(st.integers(-(2**130), 2**130), st.integers(1, 40), st.integers(1, 12), st.data())
def test_slot_ordered_draw_flags_the_position_at_each_slot(seed, n, trials, data):
    """In any slot order, byte i*n + s of a block's draw is 1 exactly when
    trial i erases order[s], and its count of 1s is the block's erasure
    count."""
    order = tuple(data.draw(st.permutations(range(n))))
    edges = [RandomErasures(0), RandomErasures(n), PerSymbolErasures(0.0), PerSymbolErasures(1.0)]
    model = data.draw(st.sampled_from(edges) | models(n))
    drawn = model.draw(SplitMix64(seed), order, trials)
    assert drawn == _reference_flags(model, seed, order, trials)
    assert drawn.count(1) == sum(
        len(reference.draw(model, SplitMix64(seed + i), n)) for i in range(trials)
    )


@pytest.mark.parametrize("share", [None, 0, 1], ids=["any t", "t = 0", "t = n"])
@settings(max_examples=30, deadline=None)
@given(st.integers(-(2**130), 2**130), st.integers(1, 140), st.data())
def test_full_size_blocks_draw_as_the_reference(share, seed, n, data):
    """Blocks as large as the simulator's, up to _BLOCK_LANES // t trials
    of t erasures in any slot order, flag what the trial-by-trial
    reference erases; so does a run of two blocks, the second shorter
    unless the first holds one trial, drawn from the run's rng as
    ``simulate`` draws it."""
    order = tuple(data.draw(st.permutations(range(n))))
    model = RandomErasures(data.draw(st.integers(0, n)) if share is None else share * n)
    full = repair._BLOCK_LANES // max(model.t, 1)
    block = data.draw(st.sampled_from([full]) | st.integers(1, full))
    assert model.draw(SplitMix64(seed), order, block) == _reference_flags(
        model, seed, order, block
    )
    rest = data.draw(st.integers(1, max(block - 1, 1)))
    streams = repair._RunStreams(seed & (2**64 - 1), block)
    drawn = model.draw(streams, order, block) + model.draw(streams, order, rest)
    assert drawn == _reference_flags(model, seed, order, block + rest)


@pytest.mark.parametrize("name", sorted(LRCS))
@pytest.mark.parametrize("everything", [False, True])
@pytest.mark.parametrize("kind", [RandomErasures, PerSymbolErasures])
def test_simulate_erasing_nothing_or_everything(name, everything, kind, monkeypatch):
    lrc = LRCS[name]
    n = lrc.n
    model = kind(n * everything) if kind is RandomErasures else kind(float(everything))
    order = tuple(p for g in lrc.groups for p in g)
    drawn = model.draw(SplitMix64(5), order, 3)
    assert (drawn, drawn.count(1)) == (bytes([everything]) * 3 * n, 3 * n * everything)
    monkeypatch.setattr(repair, "_BLOCK_LANES", 3 * n)
    assert simulate(lrc, 10, model, 5) == reference.simulate(lrc, 10, model, 5)


@pytest.mark.parametrize(
    "model",
    [RandomErasures(0), RandomErasures(4), RandomErasures(15)]
    + [PerSymbolErasures(p) for p in (0.0, 0.3, 1.0)],
    ids=repr,
)
def test_single_trial_draw_is_the_erased_positions(model):
    for seed in range(-3, 4):
        positions = reference.draw(model, SplitMix64(seed), 15)
        drawn = model.draw(SplitMix64(seed), range(15), 1)
        assert drawn == model.draw(SplitMix64(seed), range(15))
        assert drawn == bytes(p in positions for p in range(15))
        assert drawn.count(1) == len(positions)


@pytest.mark.parametrize("name", sorted(LRCS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_simulated_erasures_decode_real_codewords(name, data):
    """A trial decodes the zero word; on its erased set, real codewords
    decode back exactly when the trial counted as a success, and are
    ambiguous otherwise."""
    lrc = LRCS[name]
    model = data.draw(models(lrc.n))
    seed = data.draw(st.integers(-(2**130), 2**130))
    messages = st.lists(st.integers(0, 1), min_size=lrc.k, max_size=lrc.k)
    for trial in range(data.draw(st.integers(1, 10))):
        # Trial i of a run is the one trial of a run seeded seed + i.
        success = simulate(lrc, 1, model, seed + trial).success_rate == 1
        rng = SplitMix64(seed + trial)
        for _ in range(lrc.k):
            reference.next_u64(rng)
        erased = reference.draw(model, rng, lrc.n)
        for message in data.draw(st.lists(messages, min_size=1, max_size=3)):
            codeword = lrc.code.encode(message)
            word = [None if p in erased else x for p, x in enumerate(codeword)]
            if success:
                assert global_decode(lrc, word).word == codeword
            else:
                with pytest.raises(AmbiguousDecode):
                    global_decode(lrc, word)


@pytest.mark.parametrize("name", sorted(LRCS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_global_decode_matches_reference(name, data):
    lrc = LRCS[name]
    message = data.draw(st.lists(st.integers(0, 1), min_size=lrc.k, max_size=lrc.k))
    word = list(lrc.code.encode(message))
    erased = data.draw(st.sets(st.integers(0, lrc.n - 1)))
    if data.draw(st.integers(0, 4)) == 0:
        flip = data.draw(st.integers(0, lrc.n - 1))
        word[flip] ^= 1
    for p in erased:
        word[p] = None
    ours = _outcome(global_decode, lrc, word)
    theirs = _outcome(reference.global_decode, lrc, word)
    assert ours == theirs
    if not isinstance(ours, tuple):
        assert list(ours.methods.items()) == list(theirs.methods.items())
        assert list(ours.accessed.items()) == list(theirs.accessed.items())


@pytest.mark.parametrize("name", sorted(LRCS))
def test_local_repair_reads_group_partners(name):
    """At every position, in any group order, ``local_repair`` reads the
    two partners of its group and agrees with the reference decoder."""
    lrc = LRCS[name]
    word = list(lrc.code.encode([1] * lrc.k))
    for g in lrc.groups:
        for p in g:
            erased = word[:p] + [None] + word[p + 1 :]
            assert reference.decode(lrc, erased)[0][p] == local_repair(lrc, erased, p) == word[p]


@pytest.mark.parametrize("name", sorted(LRCS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lone_group_erasures_add_their_count_to_the_rank(name, data):
    """rank(E) = rank(E - L) + |L| for the erased columns E and the set L
    of erasures alone in their group, the fact that lets ``global_decode``
    solve local and global erasures in one elimination."""
    lrc = LRCS[name]
    erased = data.draw(st.sets(st.integers(0, lrc.n - 1)))
    lone = {p for g in lrc.groups if len(hit := erased & set(g)) == 1 for p in hit}

    def rank(positions):
        return rows_rank(2, [lrc.code.bit_columns[p] for p in positions], lrc.n)

    assert rank(erased) == rank(erased - lone) + len(lone)


@st.composite
def codes_and_words(draw):
    q = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    symbols = st.integers(0, q - 1)
    tail = draw(st.lists(st.lists(symbols, min_size=n - k, max_size=n - k), min_size=k, max_size=k))
    rows = [[int(i == j) for j in range(k)] + row for i, row in enumerate(tail)]
    code = LinearCode.from_generator(FieldMatrix.from_rows(q, rows))
    if draw(st.booleans()):
        word = list(code.encode(draw(st.lists(symbols, min_size=k, max_size=k))))
    else:
        length = draw(st.sampled_from([n, n, n - 1, n + 1]))
        word = draw(st.lists(symbols, min_size=length, max_size=length))
    if word and draw(st.integers(0, 4)) == 0:
        word[draw(st.integers(0, len(word) - 1))] = draw(st.sampled_from([-1, q, q + 1]))
    return code, word


@settings(max_examples=300, deadline=None)
@given(codes_and_words())
def test_contains_matches_reference(case):
    code, word = case
    assert _outcome(code.contains, word) == _outcome(reference.contains, code, word)
