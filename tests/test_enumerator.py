"""The bit-sliced enumerator against the Gray walk it replaced.

``gray_walk`` keeps the former per-codeword walk.  Both visit the same
Gray steps, so results must be identical, not merely equivalent: the same
weight histogram, the same first minimum-weight witness and the same
first covering dual word per coordinate.  Codes include ones
that span several 2^BLOCK_BITS blocks (binary k >= 15, GF(4) k >= 8), ones
whose message bits sit on a block boundary, and d = 1 codes, whose Gray
walk stops early while the enumerator walks the whole code.  Patching
BLOCK_BITS down makes small codes span many blocks as well.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gray_walk as gray
from scalar_elimination import col_tuple
from gf4lrc import code as code_module
from gf4lrc.code import BLOCK_BITS, LinearCode
from gf4lrc.concat import locality_check
from gf4lrc.errors import BudgetExceeded
from gf4lrc.matrix import FieldMatrix, scale_row


@st.composite
def codes(draw, message_bits, max_redundancy: int = 6):
    """A random [n, k] code over GF(2) or GF(4) with 2^message_bits words.

    The generator is systematic [I | A], mixed by random row operations and
    a column permutation; an all-zero row of A makes a weight-1 codeword.
    """
    q = draw(st.sampled_from([2, 4]))
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
    """Weights then distance on ``code``, distance then weights on a copy."""
    total = code.codeword_count()
    counts, cert = gray.weight_counts(code), gray.min_distance_exhaustive(code)
    assert code.weight_distribution(budget=total).counts == counts
    assert code.min_distance(budget=total) == cert
    other = fresh(code)
    assert other.min_distance(budget=total) == cert
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
    with with_block_bits(bits):
        assert locality_check(code, r) == gray.locality_dual_scan(code, r)


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
    code.min_distance(budget=total)  # the exhaustive route
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
    walk = LinearCode._weight_planes

    def counted(self):
        walks.append(self)
        return walk(self)

    total = code.codeword_count()
    asks = [lambda: code.min_distance(budget=total), lambda: code.weight_distribution(budget=total)]
    with mock.patch.object(LinearCode, "_weight_planes", counted):
        for ask in asks if distance_first else asks[::-1]:
            ask()
    assert walks == [code]
