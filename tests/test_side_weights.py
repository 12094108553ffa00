"""``side_weights``: one function weighs a plain code's dual side and an
LRC's pair code.

The paper's theorem, that a concatenation's weights are its outer code's,
is checked through it: a concatenation's lower block and the pair
expansion of the outer H's rows span the same binary code, so both give
the outer code's weights.  Either side of a plain code, at symbol width 1
(GF(2)) or 2 (GF(4)), gives what enumerating that side gives, and the
budget admits exactly 2^min(k, c) words.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_linear_code
from gf4lrc.code import METHOD_COLUMN, LinearCode, certify_dependent_set, side_weights
from gf4lrc.concat import BinaryLrc, concatenate
from gf4lrc.errors import BudgetExceeded
from gf4lrc.matrix import FieldMatrix

UNLIMITED = 1 << 40


def lower_block(lrc):
    """An LRC's lower-block rows, group i's (e1, e2) at bits 2i, 2i+1."""
    pairs = sum(lrc.e_vectors, ())
    return FieldMatrix(2, 2 * lrc.ell, lrc.u, pairs).transpose().rows


def plain_codes(outer_corpus):
    """A GF(4) code from the corpus or a random GF(2) code, n <= 12."""
    binary = st.builds(
        lambda seed, n, k: random_linear_code(random.Random(seed), 2, n, min(k, n)),
        st.integers(0, 2**32), st.integers(2, 12), st.integers(1, 12),
    )
    return st.one_of(st.sampled_from(outer_corpus), binary)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_concatenation_weighs_as_its_outer_code_through_one_function(outer_corpus, data):
    outer = data.draw(st.sampled_from(outer_corpus))
    lrc = concatenate(outer)
    expected = outer.weight_distribution().counts
    from_lrc, _ = side_weights(lower_block(lrc), lrc.ell, 2, lrc.k, UNLIMITED)
    from_outer, _ = side_weights(outer.dual().bit_rows, outer.n, 2, 2 * outer.k, UNLIMITED)
    assert from_lrc == from_outer == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_either_side_of_a_plain_code_weighs_as_its_enumeration(outer_corpus, data):
    code = data.draw(plain_codes(outer_corpus))
    width = 1 if code.q == 2 else 2
    # C from H's rows, and C's dual from G's: one of the two walks the
    # rows and transforms, unless k = n - k, where both walk a nullspace.
    dual = code.dual()
    got, _ = side_weights(dual.bit_rows, code.n, width, width * code.k, UNLIMITED)
    assert got == code.weight_distribution().counts
    got, _ = side_weights(code.bit_rows, code.n, width, width * dual.k, UNLIMITED)
    assert got == dual.weight_distribution().counts


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_budget_admits_exactly_the_smaller_side(outer_corpus, data):
    code = data.draw(plain_codes(outer_corpus))
    width = 1 if code.q == 2 else 2
    rows, k = code.dual().bit_rows, width * code.k
    size = 1 << min(k, len(rows))
    assert side_weights(rows, code.n, width, k, size)[0] == code.weight_distribution().counts
    with pytest.raises(BudgetExceeded) as exc:
        side_weights(rows, code.n, width, k, size - 1)
    assert str(exc.value) == f"{size} codewords exceed enumeration budget {size - 1}"


def test_the_certifier_reads_each_blocks_coefficient():
    lifted = []

    def recorded(lift):
        def wrapper(symbols):
            lifted.append([(i, alpha) for i, alpha in enumerate(symbols) if alpha])
            return lift(symbols)

        return wrapper

    # H's columns 1, 2, 3: the [3,1] repetition code.
    code = LinearCode.from_parity(FieldMatrix(2, 2, 3, [0b101, 0b110]))
    certify_dependent_set(code, [(1,), (2,), (3,)], recorded(tuple), UNLIMITED, 1, METHOD_COLUMN)
    assert lifted.pop() == [(0, 1), (1, 1), (2, 1)]
    # Both vectors of block 0 and the first of block 2: 1 ^ 2 ^ 3 = 0.  The
    # blocks are the e-vectors of a [9,2;2] LRC with u = 4.
    groups = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(3)]
    cols = []
    for i, pair in enumerate([(1, 2), (4, 8), (3, 12)]):
        cols += [1 << i, 1 << i | pair[0] << 3, 1 << i | pair[1] << 3]
    lrc = BinaryLrc(LinearCode.from_parity(FieldMatrix(2, 9, 3 + 4, cols).transpose()), groups)
    cert = certify_dependent_set(
        lrc.code, list(lrc.e_vectors), recorded(lrc.lift), UNLIMITED, 1, METHOD_COLUMN
    )
    assert lifted.pop() == [(0, 3), (2, 1)]
    assert cert.witness == (0, 1, 1, 0, 0, 0, 1, 1, 0)
    with pytest.raises(AssertionError, match="no dependent set found"):
        certify_dependent_set(code, [(1,), (2,)], tuple, UNLIMITED, 1, METHOD_COLUMN)
