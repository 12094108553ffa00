"""The bit-sliced enumerator against the Gray walk it replaced.

``gray_walk`` keeps the former per-codeword walk.  Both visit the same
Gray steps, so results must be identical, not merely equivalent: the same
weight histogram, the same first minimum-weight witness and the same
first covering dual word per coordinate.  Codes include ones
that span several 2^BLOCK_BITS blocks (binary k >= 15, GF(4) k >= 8), ones
whose message bits sit on a block boundary, and d = 1 codes, whose Gray
walk stops early while the enumerator walks the whole code.  Patching
BLOCK_BITS down makes small codes span many blocks as well.

``cheapest_weights`` enumerates the smallest side of a code, or of an
LRC's pair code, so its weights are checked against the primal
enumeration together with how many words it walked.  ``min_distance``
reads its d from those weights, so the tests that use it as the
exhaustive oracle call ``_min_distance_exhaustive``.
"""

import itertools
import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gray_walk as gray
from conftest import random_code_corpus, walked
from scalar_elimination import col_tuple
from gf4lrc import code as code_module
from gf4lrc.code import (
    BLOCK_BITS,
    METHOD_COLUMN,
    METHOD_EXHAUSTIVE,
    METHOD_GROUP_RANK,
    LinearCode,
)
from gf4lrc.concat import BinaryLrc, certify_distance, concatenate, locality_check
from gf4lrc.errors import BudgetExceeded
from gf4lrc.families import hexacode
from gf4lrc.matrix import FieldMatrix, pack_row, rows_rank, scale_row


@st.composite
def codes(draw, message_bits, max_redundancy: int = 6, fields=(2, 4)):
    """A random [n, k] code over GF(2) or GF(4) with 2^message_bits words.

    The generator is systematic [I | A], mixed by random row operations and
    a column permutation; an all-zero row of A makes a weight-1 codeword.
    """
    q = draw(st.sampled_from(fields))
    bits = draw(message_bits)
    k = bits if q == 2 else max(1, bits // 2)
    n = k + draw(st.integers(0, max_redundancy))
    width = 1 if q == 2 else 2
    tails = st.one_of(st.just(0), st.integers(0, (1 << (width * (n - k))) - 1))
    rows = [(1 << (width * i)) | (draw(tails) << (width * k)) for i in range(k)]
    for _ in range(draw(st.integers(0, 2 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if i != j:
            rows[i] ^= scale_row(q, rows[j], draw(st.integers(1, q - 1)))
    perm = draw(st.permutations(range(n)))
    mat = FieldMatrix(q, k, n, rows)
    cols = [col_tuple(mat, j) for j in perm]
    return LinearCode.from_generator(FieldMatrix.from_cols(q, cols))


small = codes(st.integers(1, 6))
boundary = codes(st.sampled_from([BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1, BLOCK_BITS + 2]))
block_bits = st.sampled_from([1, 3, BLOCK_BITS])


def with_block_bits(bits: int):
    return mock.patch.object(code_module, "BLOCK_BITS", bits)


def fresh(code: LinearCode) -> LinearCode:
    return LinearCode(code.generator, code.parity_check)


def assert_matches_gray_walk(code: LinearCode) -> None:
    """Weights then distance on ``code``, distance then weights on a copy.

    ``min_distance`` reads the pass the weights cached; the copy, which
    has none, asks the exhaustive route itself.
    """
    total = code.codeword_count()
    counts, cert = gray.weight_counts(code), gray.min_distance_exhaustive(code)
    assert code.weight_distribution(budget=total).counts == counts
    assert code.min_distance(budget=total) == cert
    other = fresh(code)
    assert other._min_distance_exhaustive() == cert
    assert other.weight_distribution(budget=total).counts == counts


@settings(max_examples=300, deadline=None)
@given(small, block_bits)
def test_histogram_and_certificate_match_gray_walk(code, bits):
    with with_block_bits(bits):
        assert_matches_gray_walk(code)


@settings(max_examples=25, deadline=None)
@given(boundary)
def test_multi_block_codes_match_gray_walk(code):
    assert_matches_gray_walk(code)


@settings(max_examples=200, deadline=None)
@given(codes(st.integers(1, 4), max_redundancy=6), block_bits, st.integers(0, 3))
def test_locality_coverings_match_gray_walk(code, bits, r):
    # A code that holds only H covers alike, deriving no generator; the
    # oracle's dual reads G, so only the scan's own nullspaces are counted.
    held = LinearCode.from_parity(code.parity_check)
    nullspaces, nullspace = [], FieldMatrix.nullspace
    counted = lambda m: nullspaces.append(m) or nullspace(m)
    with with_block_bits(bits):
        expected = gray.locality_dual_scan(code, r)
        assert locality_check(code, r) == expected
        with mock.patch.object(FieldMatrix, "nullspace", counted):
            assert locality_check(held, r) == expected
    assert nullspaces == []


#: GF(4) products under w^2 = w + 1, for the covering-set oracle.
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def first_covering_word(cols: list, q: int, j: int, r: int):
    """By brute force over G's columns: the word of the first set T of at
    most r other coordinates, by size and then in lexicographic order, with
    g_j + sum_t c_t g_t = 0 for nonzero c_t, which is 1 at j and c_t on T;
    None when there is none."""
    others = [t for t in range(len(cols)) if t != j]
    for size in range(r + 1):
        for chosen in itertools.combinations(others, size):
            for coefs in itertools.product(range(1, q), repeat=size):
                total = list(cols[j])
                for t, c in zip(chosen, coefs):
                    total = [x ^ _MUL[c][y] for x, y in zip(total, cols[t])]
                if not any(total):
                    word = [0] * len(cols)
                    word[j] = 1
                    for t, c in zip(chosen, coefs):
                        word[t] = c
                    return tuple(word)
    return None


@settings(max_examples=200, deadline=None)
@given(codes(st.integers(1, 4), max_redundancy=6), st.integers(0, 3))
def test_covering_sets_decide_locality_as_the_dual_walk_does(code, r):
    # Past the walk's budget (0 here), each coordinate takes its first
    # spanning set of G-columns: the brute-force words, and the walk's
    # verdict, coordinate by coordinate.
    walk, sets = locality_check(code, r), locality_check(code, r, budget=0)
    assert (sets.ok, sets.uncovered()) == (walk.ok, walk.uncovered())
    cols = [col_tuple(code.generator, t) for t in range(code.n)]
    assert list(sets.covering) == [first_covering_word(cols, code.q, j, r) for j in range(code.n)]


def covering_sets_passed(code, r):
    """By brute force, the full-size sets a covering search passes: for each
    coordinate j with a nonzero column, the sets of each size 1..r of the
    other coordinates in lexicographic order, up to and including the
    first independent one that spans j's column."""
    cols = [pack_row(code.q, col_tuple(code.generator, t)) for t in range(code.n)]
    passed = 0
    for j in (j for j in range(code.n) if cols[j]):
        for size in range(1, r + 1):
            sets = itertools.combinations([t for t in range(code.n) if t != j], size)
            for rank, chosen in enumerate(sets, 1):
                span = [cols[t] for t in chosen]
                if rows_rank(code.q, span, code.k) == size == rows_rank(
                    code.q, span + [cols[j]], code.k
                ):
                    passed += rank
                    break
            else:
                passed += math.comb(code.n - 1, size)
                continue
            break
    return passed


def test_covering_sets_spend_the_subset_budget():
    code = hexacode()  # [6,3,4]_4: every coordinate needs 3 other columns
    assert locality_check(code, 3, budget=0).ok
    with pytest.raises(BudgetExceeded, match="covering-set search exceeded 0 sets"):
        locality_check(code, 3, budget=0, subset_budget=0)
    # Each full-size set passed in lexicographic order spends one unit, the
    # independent ones and those that are not alike.
    corpus = random_code_corpus(seed=913, count=12, max_n=8, max_k=4, q=2)
    for code, r in [(code, 3), (code, 2)] + [(c, 1 + i % 3) for i, c in enumerate(corpus)]:
        passed = covering_sets_passed(code, r)
        expected = locality_check(code, r, budget=0)
        assert locality_check(code, r, budget=0, subset_budget=passed) == expected
        with pytest.raises(BudgetExceeded, match=f"exceeded {passed - 1} sets"):
            locality_check(code, r, budget=0, subset_budget=passed - 1)


@settings(max_examples=12, deadline=None)
@given(codes(st.integers(BLOCK_BITS - 1, BLOCK_BITS + 1), max_redundancy=4), st.integers(0, 3))
def test_multi_block_dual_coverings_match_gray_walk(dual, r):
    code = dual.dual()
    assert locality_check(code, r) == gray.locality_dual_scan(code, r)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small, codes(st.integers(7, 10))))
def test_weight_distribution_budget_after_a_cached_distance_pass(code):
    total = code.codeword_count()
    expected = gray.weight_counts(code)
    code._min_distance_exhaustive()
    for budget in (total - 1, total // 2):
        with pytest.raises(BudgetExceeded) as cached:
            code.weight_distribution(budget=budget)
        with pytest.raises(BudgetExceeded) as uncached:
            fresh(code).weight_distribution(budget=budget)
        assert str(cached.value) == str(uncached.value)
    assert code.weight_distribution(budget=total).counts == expected


@settings(max_examples=50, deadline=None)
@given(small, st.booleans())
def test_distance_and_weights_walk_the_code_once(code, distance_first):
    walks = []
    walk = code_module.weight_planes

    def counted(rows, n, width):
        walks.append(rows)
        return walk(rows, n, width)

    total = code.codeword_count()
    asks = [code._min_distance_exhaustive, lambda: code.weight_distribution(budget=total)]
    with mock.patch.object(code_module, "weight_planes", counted):
        for ask in asks if distance_first else asks[::-1]:
            ask()
    assert walks == [code.bit_rows]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small, codes(st.integers(7, 10), max_redundancy=3)),
    st.booleans(),
    st.sampled_from(["below", "at", "above"]),
)
def test_min_distance_enumerates_only_a_cached_pass_or_the_smaller_side(code, cached, fit):
    total = code.codeword_count()
    budget = {"below": total - 1, "at": total, "above": 1 << 30}[fit]
    if cached:
        code.weight_distribution(budget=total)
    exhaustive = cached or (code.k <= code.n - code.k and total <= budget)
    expected = gray.min_distance_exhaustive(code)
    try:
        cert = code.min_distance(budget)
    except BudgetExceeded as exc:  # only a column search runs out of sets
        assert not exhaustive and exc.lower <= expected.d
        return
    if exhaustive:
        assert cert == expected
    else:
        assert cert.method == METHOD_COLUMN and cert.d == expected.d


@settings(max_examples=150, deadline=None)
@given(codes(st.integers(2, 12), max_redundancy=4), st.booleans())
def test_a_larger_side_code_takes_d_from_its_dual_and_searches_columns_of_that_size(code, roomy):
    assume(code.k > code.n - code.k)
    expected = gray.min_distance_exhaustive(code).d
    # The dual's words fit, and so do the sets of size d, the only ones
    # a search started at d examines.
    budget = 1 << 30 if roomy else max(code.q ** (code.n - code.k), math.comb(code.n, expected))
    starts = []
    search = code_module.smallest_dependent_set

    def recorded(blocks, set_budget, start=1):
        starts.append(start)
        return search(blocks, set_budget, start)

    with mock.patch.object(code_module, "smallest_dependent_set", recorded):
        cert, walks = walked(lambda: code.min_distance(budget))
    assert (cert.d, cert.method) == (expected, METHOD_COLUMN)
    assert starts == [expected]
    assert walks == [(code.n, code.q ** (code.n - code.k))]
    again, walks = walked(lambda: code.cheapest_weights(budget=0))
    assert walks == [] and again.distance() == expected


@settings(max_examples=150, deadline=None)
@given(st.one_of(codes(st.integers(1, 4), max_redundancy=8), codes(st.integers(5, 10), max_redundancy=3)))
def test_weights_from_the_smaller_side_match_primal_enumeration(code):
    smaller = min(code.k, code.n - code.k)
    size = code.q**smaller
    got, walks = walked(lambda: fresh(code).cheapest_weights(budget=size))
    assert got == code.weight_distribution(budget=code.codeword_count())
    assert walks == [(code.n, size)]
    with pytest.raises(BudgetExceeded):
        fresh(code).cheapest_weights(budget=size - 1)


@settings(max_examples=50, deadline=None)
@given(small)
def test_weights_read_a_cached_pass_whatever_the_budget(code):
    code._min_distance_exhaustive()
    got, walks = walked(lambda: code.cheapest_weights(budget=0))
    assert walks == []
    assert got.counts == gray.weight_counts(code)


# GF(4) outer codes with 2 * k1 <= 16; n1 - k1 = 0 gives k1 = n1.
outer_codes = codes(st.integers(2, 16), max_redundancy=4, fields=(4,))


def _generated(rows) -> LinearCode:
    return LinearCode.from_generator(FieldMatrix.from_rows(4, rows))


@settings(max_examples=40, deadline=None)
@given(outer_codes)
@example(_generated([[1, 2, 3, 1]]))  # k1 = 1
@example(_generated([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # k1 = n1
def test_the_pair_code_of_a_concatenation_is_its_outer_code(outer):
    lrc = concatenate(outer)
    size = 4 ** min(outer.k, outer.n - outer.k)
    got, walks = walked(lambda: lrc.cheapest_weights(budget=size))
    assert got == lrc.code.weight_distribution()
    assert walks == [(outer.n, size)]
    with pytest.raises(BudgetExceeded):
        concatenate(fresh(outer)).cheapest_weights(budget=size - 1)


def _lrc(ell: int, lower: list[int], order: list[int], swaps: list[bool]) -> BinaryLrc:
    """The LRC whose lower block has rows ``lower`` (group i's pair at bits
    2i and 2i+1) on the coordinates ``order``, group i on the three from
    3i; group i is listed with its 2nd and 3rd positions swapped where
    ``swaps[i]``."""
    groups = [order[3 * i : 3 * i + 3] for i in range(ell)]
    rows = [sum(1 << pos for pos in g) for g in groups]
    for row in lower:
        pairs = enumerate(groups)
        bits = [(row >> 2 * i & 1) << b | (row >> 2 * i + 1 & 1) << c for i, (_, b, c) in pairs]
        rows.append(sum(bits))
    code = LinearCode.from_parity(FieldMatrix(2, ell + len(lower), 3 * ell, rows))
    listed = [(a, c, b) if swap else (a, b, c) for (a, b, c), swap in zip(groups, swaps)]
    return BinaryLrc(code, listed)


@st.composite
def lrcs(draw):
    """A random LRC: ell <= 6, any u in 0..2*ell, a random full-rank lower
    block (systematic on random columns, mixed by row operations),
    coordinates in random order, and each group's 2nd and 3rd positions
    listed in random order."""
    ell = draw(st.integers(1, 6))
    u = draw(st.integers(0, 2 * ell))
    pivots = draw(st.permutations(range(2 * ell)))[:u]
    free = sum(1 << j for j in range(2 * ell) if j not in pivots)
    lower = [1 << p | draw(st.integers(0, free)) & free for p in pivots]
    for _ in range(draw(st.integers(0, 2 * u))):
        i, j = draw(st.integers(0, u - 1)), draw(st.integers(0, u - 1))
        if i != j:
            lower[i] ^= lower[j]
    order = draw(st.permutations(range(3 * ell)))
    return _lrc(ell, lower, order, draw(st.lists(st.booleans(), min_size=ell, max_size=ell)))


@settings(max_examples=400, deadline=None)
@given(lrcs())
@example(_lrc(3, [], list(range(9)), [False] * 3))  # u = 0: P is all of GF(4)^3
@example(_lrc(2, [1, 2, 4, 8], [5, 0, 3, 1, 4, 2], [True, False]))  # k = 0
def test_pair_code_weights_match_enumerating_the_lrc(lrc):
    size = 1 << min(lrc.k, lrc.u)
    spy = mock.patch.object(
        code_module, "krawtchouk_transform", wraps=code_module.krawtchouk_transform
    )
    with spy as transform:
        got, walks = walked(lambda: lrc.cheapest_weights(budget=size))
    assert got == lrc.code.weight_distribution()
    assert walks == [(lrc.ell, size)]
    assert transform.called == (lrc.k > lrc.u)  # P is walked at a tie
    again = BinaryLrc(fresh(lrc.code), lrc.groups)
    with pytest.raises(BudgetExceeded) as exc:
        again.cheapest_weights(budget=size - 1)
    assert str(exc.value) == f"{size} codewords exceed enumeration budget {size - 1}"


@settings(max_examples=100, deadline=None)
@given(lrcs())
def test_an_lrc_walks_its_pair_code_once_for_weights_and_distance(lrc):
    assume(lrc.k > 0)
    (weights, cert), walks = walked(lambda: (lrc.cheapest_weights(), lrc.min_distance()))
    assert len(walks) == 1
    assert cert.d == weights.distance()
    assert lrc.cheapest_weights(budget=0) is weights


# k <= u: the weights walk P itself.  An odd k has no GF(4)-linear outer code.
@settings(max_examples=300, deadline=None)
@given(lrcs().filter(lambda lrc: 0 < lrc.k <= lrc.u))
@example(_lrc(3, [1, 2, 4, 8, 16], list(range(9)), [False] * 3))  # k = 1: P = {0, (0, 0, w)}
@example(_lrc(3, [1, 2, 3 << 2 | 16], list(range(9)), [False, True, False]))  # k = 3
def test_out_of_subsets_an_lrc_takes_its_pair_walks_first_word(lrc):
    cert, walks = walked(lambda: lrc.min_distance(subset_budget=0))
    assert len(walks) == 1 and cert.method == METHOD_EXHAUSTIVE
    assert lrc.code.contains(cert.witness)
    assert sum(1 for c in cert.witness if c) == cert.d
    searched = BinaryLrc(fresh(lrc.code), lrc.groups).min_distance(subset_budget=1 << 30)
    assert searched.method == METHOD_GROUP_RANK
    assert cert.d == searched.d == lrc.code.weight_distribution().distance()


def test_the_reordered_hexacode_lrc_walks_its_pair_code():
    # Group 0 listed (g0, g2, g1): its pair is (w*h, h), not (h', w*h').
    lrc = concatenate(hexacode())
    g0, g1, g2 = lrc.groups[0]
    reordered = BinaryLrc(fresh(lrc.code), ((g0, g2, g1),) + lrc.groups[1:])
    got, walks = walked(lambda: reordered.cheapest_weights())
    assert walks == [(6, 64)]
    assert got == lrc.code.weight_distribution()


def test_an_lrc_with_an_odd_lower_block_walks_the_smaller_side_of_its_pair_code():
    # The hexacode LRC's parity check without its last row is an
    # [18,7;2] LRC with u = 5 rows below the group parities: 2^5 words of
    # P's dual, where its binary code's smaller side has 2^7.
    hexa = concatenate(hexacode())
    h = hexa.code.parity_check
    cut = FieldMatrix(2, h.nrows - 1, h.ncols, h.rows[:-1])
    lrc = BinaryLrc(LinearCode.from_parity(cut), hexa.groups)
    assert (lrc.n, lrc.k, lrc.u) == (18, 7, 5)
    with pytest.raises(BudgetExceeded, match="^32 codewords exceed enumeration budget 31$"):
        lrc.cheapest_weights(budget=31)
    got, walks = walked(lambda: lrc.cheapest_weights(budget=32))
    assert walks == [(6, 32)]
    assert got == lrc.code.weight_distribution()
    assert got.counts == (1, 0, 1, 0, 0, 0, 10, 0, 65, 0, 21, 0, 30, 0, 0, 0, 0, 0, 0)
    assert lrc.min_distance() == certify_distance(lrc)
