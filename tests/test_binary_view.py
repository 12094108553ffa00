"""Every combination through ``xor_combine`` against a per-symbol oracle.

A code's binary view (``bit_rows``, ``bit_columns``) turns encoding, the
syndrome, matrix products and Gray steps into one XOR over a packed bit
vector.  Each is checked here on random GF(2) and GF(4) codes against a
route that forms the same combination one symbol at a time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import gray_walk as gray
import reference_repair as reference
from scalar_elimination import entry
from test_enumerator import codes
from gf4lrc import gf4
from gf4lrc.code import step_word
from gf4lrc.matrix import FieldMatrix, pack_row, scale_row, unpack_row

small = codes(st.integers(1, 6))


def symbols(draw, q: int, length: int) -> list[int]:
    return draw(st.lists(st.integers(0, q - 1), min_size=length, max_size=length))


@settings(max_examples=200, deadline=None)
@given(small, st.data())
def test_syndrome_matches_per_symbol_syndrome(code, data):
    word = symbols(data.draw, code.q, code.n)
    assert code.syndrome(pack_row(code.q, word)) == reference.syndrome(code, word)


@settings(max_examples=200, deadline=None)
@given(small, st.data())
def test_encode_matches_scaled_row_sum(code, data):
    message = symbols(data.draw, code.q, code.k)
    expected = 0
    for row, m in zip(code.generator.rows, message):
        expected ^= scale_row(code.q, row, m)
    assert code.encode(message) == unpack_row(code.q, expected, code.n)
    assert code.contains(code.encode(message))


@settings(max_examples=200, deadline=None)
@given(small, st.integers(0, 4), st.data())
def test_mat_mul_matches_entrywise_product(code, width, data):
    q, left = code.q, code.generator
    right = FieldMatrix.from_rows(q, [symbols(data.draw, q, width) for _ in range(code.n)])
    product = left.mat_mul(right)
    for i in range(left.nrows):
        for j in range(width):
            expected = 0
            for t in range(code.n):
                expected ^= gf4.gf4_mul(entry(left, i, t), entry(right, t, j))
            assert entry(product, i, j) == expected
    assert all(row == 0 for row in code.generator.mat_mul(code.parity_check.transpose()).rows)


@settings(max_examples=200, deadline=None)
@given(small)
def test_step_word_matches_gray_walk(code):
    walk = [unpack_row(code.q, packed, code.n) for packed in gray.iter_packed(code)]
    steps = range(code.codeword_count())
    assert [step_word(code.q, code.bit_rows, m, code.n) for m in steps] == walk
