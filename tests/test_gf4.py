import itertools
import random

import pytest

from inner_code import g_map, g_unmap, mul_matrix, vector_map, vector_unmap
from scalar_elimination import gf4_inv
from gf4lrc import gf4
from gf4lrc.matrix import FieldMatrix, lo_mask, pack_row, scale_row, unpack_row

W, W2 = gf4.W, gf4.W2
ELEMENTS = range(4)


def test_mul_examples():
    assert gf4.gf4_mul(0, W) == 0
    assert gf4.gf4_mul(W, W) == W2
    # w * w^2 = w^3 = w*(w+1) = w^2 + w = 1
    assert gf4.gf4_mul(W, W2) == 1


def test_field_axioms_exhaustive():
    # addition is XOR of the 2-bit encodings
    for a, b, c in itertools.product(ELEMENTS, repeat=3):
        assert gf4.gf4_mul(a, b ^ c) == gf4.gf4_mul(a, b) ^ gf4.gf4_mul(a, c)
    for a, b in itertools.product(ELEMENTS, repeat=2):
        assert gf4.gf4_mul(a, b) == gf4.gf4_mul(b, a)
    for a in ELEMENTS:
        assert gf4.gf4_mul(a, 1) == a


def test_nonzero_elements_form_cyclic_group_of_order_3():
    assert gf4.gf4_mul(W, gf4.gf4_mul(W, W)) == 1
    powers = {1, W, gf4.gf4_mul(W, W)}
    assert powers == set(gf4.NONZERO)


def test_reference_inverse_against_gf4_mul():
    # the oracles' scalar inverse: the one b with a * b = 1, for each a != 0
    for a in gf4.NONZERO:
        oracle = [b for b in gf4.NONZERO if gf4.gf4_mul(a, b) == 1]
        assert oracle == [gf4_inv(a)]
    assert (gf4_inv(1), gf4_inv(W), gf4_inv(W2)) == (1, W2, W)
    with pytest.raises(KeyError):
        gf4_inv(0)


def test_g_map_table():
    # the packed symbol is its own g-image: bit 0 on 1, bit 1 on w
    assert g_map(0) == (0, 0)
    assert g_map(1) == (1, 0)
    assert g_map(W) == (0, 1)
    assert g_map(W2) == (1, 1)
    for a in ELEMENTS:
        assert pack_row(4, (a,)) == pack_row(2, g_map(a)) == a


def test_g_map_is_additive_bijection():
    images = {g_map(a) for a in ELEMENTS}
    assert len(images) == 4
    for a, b in itertools.product(ELEMENTS, repeat=2):
        ga, gb = g_map(a), g_map(b)
        assert g_map(a ^ b) == (ga[0] ^ gb[0], ga[1] ^ gb[1])
    for a in ELEMENTS:
        assert g_unmap(g_map(a)) == a


def test_vector_map_examples():
    assert vector_map(()) == ()
    assert vector_map((1, W)) == (1, 0, 0, 1)
    assert vector_map((W2, 0, W)) == (1, 1, 0, 0, 0, 1)
    for x in [(), (1, W), (W2, 0, W)]:
        assert pack_row(4, x) == pack_row(2, vector_map(x))


def test_vector_map_bijective_and_additive():
    # a packed GF(4) row is the packed binary row of its g-expansion, and
    # row addition is XOR on both sides
    for m in range(1, 4):
        seen = set()
        for vec in itertools.product(ELEMENTS, repeat=m):
            image = vector_map(vec)
            assert vector_unmap(image) == vec
            assert pack_row(4, vec) == pack_row(2, image)
            assert unpack_row(2, pack_row(4, vec), 2 * m) == image
            seen.add(image)
        assert len(seen) == 4**m
    rng = random.Random(12)
    for m in range(4, 9):  # sampled above the exhaustive range
        for _ in range(50):
            a = tuple(rng.randrange(4) for _ in range(m))
            b = tuple(rng.randrange(4) for _ in range(m))
            assert vector_unmap(vector_map(a)) == a
            assert pack_row(4, a) == pack_row(2, vector_map(a))
            summed = tuple(x ^ y for x, y in zip(a, b))
            assert vector_map(summed) == tuple(
                x ^ y for x, y in zip(vector_map(a), vector_map(b))
            )
            assert pack_row(4, summed) == pack_row(4, a) ^ pack_row(4, b)


def test_mul_matrix_tables():
    assert mul_matrix(0) == ((0, 0), (0, 0))
    assert mul_matrix(1) == ((1, 0), (0, 1))
    assert mul_matrix(W) == ((0, 1), (1, 1))
    assert mul_matrix(W2) == ((1, 1), (1, 0))


def test_mul_matrix_is_ring_homomorphism():
    def mat_add(x, y):
        return tuple(tuple(a ^ b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))

    def mat_mul(x, y):
        return tuple(
            tuple(
                (x[i][0] & y[0][j]) ^ (x[i][1] & y[1][j]) for j in range(2)
            )
            for i in range(2)
        )

    for a, b in itertools.product(ELEMENTS, repeat=2):
        assert mul_matrix(gf4.gf4_mul(a, b)) == mat_mul(mul_matrix(a), mul_matrix(b))
        assert mul_matrix(a ^ b) == mat_add(mul_matrix(a), mul_matrix(b))


def test_mul_matrix_compatible_with_g_map():
    # g(a*b) equals the matrix of a applied to g(b); this identity is what
    # lets the concatenated parity check collapse to the block form.  The
    # packed scale_row applies that matrix to every pair of a row at once.
    for a, b in itertools.product(ELEMENTS, repeat=2):
        mat, (x0, x1) = mul_matrix(a), g_map(b)
        applied = tuple((mat[i][0] & x0) ^ (mat[i][1] & x1) for i in range(2))
        assert applied == g_map(gf4.gf4_mul(a, b))
    for m in range(1, 4):
        for vec in itertools.product(ELEMENTS, repeat=m):
            row = pack_row(4, vec)
            for a in ELEMENTS:
                pairs = []
                for x0, x1 in (g_map(v) for v in vec):
                    mat = mul_matrix(a)
                    pairs += [(mat[i][0] & x0) ^ (mat[i][1] & x1) for i in range(2)]
                assert scale_row(4, row, a) == pack_row(2, pairs)
                assert scale_row(4, row, a, lo_mask(m)) == pack_row(2, pairs)


def test_symbol_alphabet():
    text = FieldMatrix.from_rows(4, [list(ELEMENTS)]).to_text()
    assert text.splitlines()[1] == "0 1 w W"
    assert FieldMatrix.from_text(text)[0].row_tuple(0) == tuple(ELEMENTS)
    assert [gf4.symbol_to_value(sym, 4) for sym in "01wW"] == [0, 1, W, W2]
    with pytest.raises(ValueError):
        gf4.symbol_to_value("x", 4)
    with pytest.raises(ValueError):
        gf4.symbol_to_value("w", 2)
