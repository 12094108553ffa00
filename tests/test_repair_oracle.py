"""The packed repair path against the symbol-list path it replaced.

``reference_repair`` keeps the former decoder, simulator trial loop and
per-symbol ``contains``; the packed ones must give equal reports, equal
decode results (or the same exception type and message) and equal
membership answers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_repair as reference
from conftest import permuted_hamming_lrc
from gf4lrc import repair
from gf4lrc.code import LinearCode
from gf4lrc.concat import BinaryLrc, concatenate
from gf4lrc.errors import AmbiguousDecode
from gf4lrc.families import hamming4, hexacode, mds_rs
from gf4lrc.matrix import FieldMatrix, rows_rank
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
    flags = model.draw(SplitMix64(seed), range(n), trials).flags
    ours = b"".join(model.draw(SplitMix64(seed + i), range(n)).flags for i in range(trials))
    assert flags == ours == _reference_flags(model, seed, range(n), trials)


@settings(max_examples=150, deadline=None)
@given(st.integers(-(2**130), 2**130), st.integers(1, 40), st.integers(1, 12), st.data())
def test_slot_ordered_draw_flags_the_position_at_each_slot(seed, n, trials, data):
    """In any slot order, byte i*n + s of a block's draw is 1 exactly when
    trial i erases order[s], and its ``len`` is the block's erasure count."""
    order = tuple(data.draw(st.permutations(range(n))))
    edges = [RandomErasures(0), RandomErasures(n), PerSymbolErasures(0.0), PerSymbolErasures(1.0)]
    model = data.draw(st.sampled_from(edges) | models(n))
    drawn = model.draw(SplitMix64(seed), order, trials)
    assert drawn.flags == _reference_flags(model, seed, order, trials)
    assert len(drawn) == sum(
        len(reference.draw(model, SplitMix64(seed + i), n)) for i in range(trials)
    )


@pytest.mark.parametrize("name", sorted(LRCS))
@pytest.mark.parametrize("everything", [False, True])
@pytest.mark.parametrize("kind", [RandomErasures, PerSymbolErasures])
def test_simulate_erasing_nothing_or_everything(name, everything, kind, monkeypatch):
    lrc = LRCS[name]
    n = lrc.n
    model = kind(n * everything) if kind is RandomErasures else kind(float(everything))
    order = tuple(p for g in lrc.groups for p in g)
    drawn = model.draw(SplitMix64(5), order, 3)
    assert (drawn.flags, len(drawn)) == (bytes([everything]) * 3 * n, 3 * n * everything)
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
        assert drawn.flags == bytes(p in positions for p in range(15))
        assert len(drawn) == len(positions)


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
