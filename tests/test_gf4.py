import itertools

import pytest

from gf4lrc import gf4
from gf4lrc.errors import ZeroInverse

W, W2 = gf4.W, gf4.W2


def test_mul_examples():
    assert gf4.gf4_mul(0, W) == 0
    assert gf4.gf4_mul(W, W) == W2
    # w * w^2 = w^3 = w*(w+1) = w^2 + w = 1
    assert gf4.gf4_mul(W, W2) == 1


def test_field_axioms_exhaustive():
    for a, b, c in itertools.product(gf4.ELEMENTS, repeat=3):
        assert gf4.gf4_mul(a, gf4.gf4_add(b, c)) == gf4.gf4_add(
            gf4.gf4_mul(a, b), gf4.gf4_mul(a, c)
        )
    for a, b in itertools.product(gf4.ELEMENTS, repeat=2):
        assert gf4.gf4_mul(a, b) == gf4.gf4_mul(b, a)
        assert gf4.gf4_add(a, b) == gf4.gf4_add(b, a)
    for a in gf4.ELEMENTS:
        assert gf4.gf4_add(a, a) == 0
        assert gf4.gf4_mul(a, 1) == a


def test_nonzero_elements_form_cyclic_group_of_order_3():
    assert gf4.gf4_mul(W, gf4.gf4_mul(W, W)) == 1
    powers = {1, W, gf4.gf4_mul(W, W)}
    assert powers == set(gf4.NONZERO)


def test_inverse_against_exhaustive_oracle():
    for a in gf4.NONZERO:
        oracle = [b for b in gf4.NONZERO if gf4.gf4_mul(a, b) == 1]
        assert oracle == [gf4.gf4_inv(a)]
    assert gf4.gf4_inv(1) == 1
    assert gf4.gf4_inv(W) == W2
    assert gf4.gf4_inv(W2) == W


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        gf4.gf4_inv(0)


def test_g_map_table():
    assert gf4.g_map(0) == (0, 0)
    assert gf4.g_map(1) == (1, 0)
    assert gf4.g_map(W) == (0, 1)
    assert gf4.g_map(W2) == (1, 1)


def test_g_map_is_additive_bijection():
    images = {gf4.g_map(a) for a in gf4.ELEMENTS}
    assert len(images) == 4
    for a, b in itertools.product(gf4.ELEMENTS, repeat=2):
        ga, gb = gf4.g_map(a), gf4.g_map(b)
        assert gf4.g_map(gf4.gf4_add(a, b)) == (ga[0] ^ gb[0], ga[1] ^ gb[1])
    for a in gf4.ELEMENTS:
        assert gf4.g_unmap(gf4.g_map(a)) == a


def test_vector_map_examples():
    assert gf4.vector_map(()) == ()
    assert gf4.vector_map((1, W)) == (1, 0, 0, 1)
    assert gf4.vector_map((W2, 0, W)) == (1, 1, 0, 0, 0, 1)


def test_vector_map_bijective_and_additive():
    for m in range(1, 4):
        seen = set()
        for vec in itertools.product(gf4.ELEMENTS, repeat=m):
            image = gf4.vector_map(vec)
            assert gf4.vector_unmap(image) == vec
            seen.add(image)
        assert len(seen) == 4**m
    rng = __import__("random").Random(12)
    for m in range(4, 9):  # sampled above the exhaustive range
        for _ in range(50):
            a = tuple(rng.randrange(4) for _ in range(m))
            b = tuple(rng.randrange(4) for _ in range(m))
            assert gf4.vector_unmap(gf4.vector_map(a)) == a
            summed = tuple(x ^ y for x, y in zip(a, b))
            assert gf4.vector_map(summed) == tuple(
                x ^ y for x, y in zip(gf4.vector_map(a), gf4.vector_map(b))
            )
    for vec_a in itertools.product(gf4.ELEMENTS, repeat=3):
        vec_b = (W, 1, W2)
        summed = tuple(gf4.gf4_add(x, y) for x, y in zip(vec_a, vec_b))
        expect = tuple(
            x ^ y for x, y in zip(gf4.vector_map(vec_a), gf4.vector_map(vec_b))
        )
        assert gf4.vector_map(summed) == expect


def test_mul_matrix_tables():
    assert gf4.mul_matrix(0) == ((0, 0), (0, 0))
    assert gf4.mul_matrix(1) == ((1, 0), (0, 1))
    assert gf4.mul_matrix(W) == ((0, 1), (1, 1))
    assert gf4.mul_matrix(W2) == ((1, 1), (1, 0))


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

    for a, b in itertools.product(gf4.ELEMENTS, repeat=2):
        assert gf4.mul_matrix(gf4.gf4_mul(a, b)) == mat_mul(
            gf4.mul_matrix(a), gf4.mul_matrix(b)
        )
        assert gf4.mul_matrix(gf4.gf4_add(a, b)) == mat_add(
            gf4.mul_matrix(a), gf4.mul_matrix(b)
        )


def test_mul_matrix_compatible_with_g_map():
    # g(a*b) equals the matrix of a applied to g(b); this identity is what
    # lets the concatenated parity check collapse to the block form.
    for a, b in itertools.product(gf4.ELEMENTS, repeat=2):
        mat, (x0, x1) = gf4.mul_matrix(a), gf4.g_map(b)
        applied = tuple((mat[i][0] & x0) ^ (mat[i][1] & x1) for i in range(2))
        assert applied == gf4.g_map(gf4.gf4_mul(a, b))


def test_symbol_alphabet():
    for v in gf4.ELEMENTS:
        assert gf4.symbol_to_value(gf4.value_to_symbol(v, 4), 4) == v
    assert gf4.value_to_symbol(W2, 4) == "W"
    with pytest.raises(ValueError):
        gf4.symbol_to_value("x", 4)
    with pytest.raises(ValueError):
        gf4.symbol_to_value("w", 2)
