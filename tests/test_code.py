import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import column_certificate, random_code_corpus, random_linear_code
from krawtchouk_columns import column_sum_transform, krawtchouk_column
from test_enumerator import codes
from gf4lrc import code as code_module
from gf4lrc import gf4
from gf4lrc.code import (
    LinearCode,
    WeightDistribution,
    _step_bit_planes,
    krawtchouk_transform,
    macwilliams,
    weight_planes,
)
from gf4lrc.errors import (
    BudgetExceeded,
    FieldMismatch,
    Gf4LrcError,
    NonIntegerResult,
    RankDeficient,
    ShapeMismatch,
)
from gf4lrc.families import cyclic4, hexacode
from gf4lrc.matrix import FieldMatrix, rows_rank, scale_row

W, W2 = gf4.W, gf4.W2

HAMMING_PARITY = FieldMatrix.from_rows(4, [[1, 0, 1, 1, 1], [0, 1, 1, W, W2]])


def test_make_code_repetition():
    code = LinearCode.from_generator(FieldMatrix.from_rows(2, [[1, 1, 1]]))
    assert (code.n, code.k) == (3, 1)
    assert code.parity_check.nrows == 2
    assert rows_rank(2, code.parity_check.rows, 3) == 2


def test_make_code_from_hamming_parity():
    code = LinearCode.from_parity(HAMMING_PARITY)
    assert (code.n, code.k) == (5, 3)
    assert code.min_distance().d == 3


def test_make_code_rejects_dependent_rows():
    for q, rows in (
        (2, [[1, 0, 1], [1, 0, 1]]),
        (2, [[1, 0], [0, 1], [1, 1]]),  # more rows than columns
        (4, [[1, W, 0], [W, W2, 0]]),  # w times the first row
    ):
        mat = FieldMatrix.from_rows(q, rows)
        with pytest.raises(RankDeficient, match="^generator rows are linearly dependent$"):
            LinearCode.from_generator(mat)
        with pytest.raises(RankDeficient, match="^parity-check rows are linearly dependent$"):
            LinearCode.from_parity(mat)


def test_the_constructor_refuses_a_dependent_generator_or_parity_check():
    # Each pair has n - k check rows orthogonal to G; before the constructor
    # ranked them, the first gave A = (1, 6, 9, 0), 16 words for a G that
    # spans 4, and the second a ValueError from the weight distribution.
    for g_rows, h_rows, rows in (
        ([[1, 0, 0], [W, 0, 0]], [[0, 1, 0]], "generator"),
        ([[1, 0, 0], [0, 1, 0]], [[0, 0, 0]], "parity-check"),
    ):
        g, h = FieldMatrix.from_rows(4, g_rows), FieldMatrix.from_rows(4, h_rows)
        with pytest.raises(RankDeficient, match=f"^{rows} rows are linearly dependent$"):
            LinearCode(g, h)


def test_the_constructor_refuses_matrices_of_different_fields_or_lengths():
    g = FieldMatrix.from_rows(2, [[1, 1, 1]])
    with pytest.raises(FieldMismatch, match="^generator and parity check over different fields$"):
        LinearCode(g, FieldMatrix.from_rows(4, [[1, 1, 0], [0, 1, 1]]))
    with pytest.raises(ShapeMismatch, match="^generator and parity check lengths differ$"):
        LinearCode(g, FieldMatrix.from_rows(2, [[1, 1]]))
    assert issubclass(FieldMismatch, ValueError) and issubclass(ShapeMismatch, ValueError)


def test_builders_that_prove_full_rank_by_construction_rank_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("rows_rank ran")

    monkeypatch.setattr(code_module, "rows_rank", forbidden)
    cyclic = cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1])
    assert (cyclic.n, cyclic.k) == (43, 36)
    assert LinearCode.from_generator(cyclic.generator).parity_check.nrows == 7


@settings(max_examples=150, deadline=None)
@given(codes(st.integers(1, 6)), st.data())
def test_a_row_summed_from_other_rows_is_refused_by_every_entry(code, data):
    """Oracle: a G or H with one row replaced by a GF(q) combination of the
    others (none gives a zero row) is dependent, so every entry that takes a
    matrix refuses it, and no code with it reaches a dual or a concatenation."""
    sides = ["generator", "parity-check"] if code.n > code.k else ["generator"]
    side = data.draw(st.sampled_from(sides), label="side")
    matrix = code.generator if side == "generator" else code.parity_check
    target = data.draw(st.integers(0, matrix.nrows - 1), label="row")
    others = [i for i in range(matrix.nrows) if i != target]
    picks = data.draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
    rows = list(matrix.rows)
    rows[target] = 0
    for i in picks:
        rows[target] ^= scale_row(code.q, rows[i], data.draw(st.integers(1, code.q - 1)))
    dependent = FieldMatrix(code.q, matrix.nrows, code.n, rows)
    if side == "generator":
        pair = dependent, code.parity_check
    else:
        pair = code.generator, dependent
    with pytest.raises(RankDeficient, match=f"^{side} rows are linearly dependent$"):
        LinearCode(*pair)
    with pytest.raises(RankDeficient, match="^parity-check rows are linearly dependent$"):
        LinearCode.from_parity(dependent)
    with pytest.raises(RankDeficient, match="^generator rows are linearly dependent$"):
        LinearCode.from_generator(dependent)


def test_min_distance_full_space():
    code = LinearCode.from_generator(FieldMatrix.identity(2, 3))
    cert = code.min_distance()
    assert cert.d == 1
    assert sum(cert.witness) == 1


@pytest.mark.parametrize("q", [2, 4])
def test_the_dual_of_a_full_space_code_enumerates_its_zero_word(q):
    # k = 0: the enumerator's block holds 2^0 steps, so its tables have no
    # low bits at all.
    dual = LinearCode.from_generator(FieldMatrix.identity(q, 3)).dual()
    assert dual.k == 0
    assert dual.weight_distribution().counts == (1, 0, 0, 0)
    [(base, planes, nonzero)] = list(weight_planes(dual.bit_rows, 3, 1 if q == 2 else 2))
    assert (base, planes[0], nonzero) == (0, 1, [0, 0, 0])


@pytest.mark.parametrize("low", range(7))
def test_step_bit_planes_hold_each_bit_of_the_step(low):
    planes = _step_bit_planes(low)
    assert len(planes) == low
    for i, plane in enumerate(planes):
        assert plane >> (1 << low) == 0
        assert all((plane >> x & 1) == (x >> i & 1) for x in range(1 << low))


def test_min_distance_hexacode():
    assert hexacode().min_distance().d == 4


def test_distance_witness_is_a_codeword():
    code = LinearCode.from_parity(HAMMING_PARITY)
    cert = code.min_distance()
    assert code.contains(cert.witness)
    assert sum(1 for v in cert.witness if v) == cert.d


def test_column_search_agrees_with_exhaustive():
    for code in random_code_corpus(seed=31337, count=25, max_n=9, max_k=4):
        exhaustive = code._min_distance_exhaustive()
        column = column_certificate(code, 10**6)
        assert column.d == exhaustive.d
        assert code.contains(column.witness)


def test_min_distance_budget_bracket():
    code = random_linear_code(random.Random(1), 4, 12, 9)
    with pytest.raises(BudgetExceeded) as exc_info:
        code.min_distance(budget=8)
    assert exc_info.value.lower is not None
    assert exc_info.value.lower >= 1


def test_weight_distribution_repetition():
    code = LinearCode.from_generator(FieldMatrix.from_rows(2, [[1, 1, 1]]))
    assert code.weight_distribution().counts == (1, 0, 0, 1)


def test_weight_distribution_hamming():
    code = LinearCode.from_parity(HAMMING_PARITY)
    assert code.weight_distribution().counts == (1, 0, 0, 30, 15, 18)


def test_weight_distribution_consistent_with_distance():
    for code in random_code_corpus(seed=11, count=20, max_n=8, max_k=4):
        wd = code.weight_distribution()
        assert wd.distance() == code.min_distance().d


def test_dual_repetition_is_parity_code():
    code = LinearCode.from_generator(FieldMatrix.from_rows(2, [[1, 1, 1]]))
    d = code.dual()
    assert (d.n, d.k) == (3, 2)
    assert d.weight_distribution().counts == (1, 0, 3, 0)


def test_dual_of_hamming_has_simplex_weights():
    dual = LinearCode.from_parity(HAMMING_PARITY).dual()
    assert (dual.n, dual.k) == (5, 2)
    assert dual.weight_distribution().counts == (1, 0, 0, 0, 15, 0)


def test_hexacode_dual_same_weight_distribution():
    code = hexacode()
    assert code.dual().weight_distribution().counts == code.weight_distribution().counts


def test_dual_of_dual_is_same_code_set():
    code = LinearCode.from_parity(HAMMING_PARITY)
    double = code.dual().dual()
    # same row space: stack and compare ranks
    stacked = FieldMatrix(
        4,
        code.generator.nrows + double.generator.nrows,
        code.n,
        code.generator.rows + double.generator.rows,
    )
    assert rows_rank(4, stacked.rows, code.n) == code.k == double.k


# -- Krawtchouk / transform ---------------------------------------------------


def _character_gf4(x: int) -> int:
    # (-1)^tr(x) with tr the absolute trace of GF(4); tr(0)=tr(1)=0
    return 1 if x in (0, 1) else -1


def _krawtchouk_character_sum(j: int, i: int, n: int) -> int:
    y = tuple([1] * i + [0] * (n - i))
    total = 0
    for x in itertools.product(range(4), repeat=n):
        if sum(1 for v in x if v) != j:
            continue
        inner = 0
        for a, b in zip(x, y):
            inner ^= gf4.gf4_mul(a, b)
        total += _character_gf4(inner)
    return total


def _krawtchouk_direct(j: int, i: int, n: int, q: int) -> int:
    """K_j(i; n; q) = sum_a (-1)^a (q-1)^(j-a) C(i,a) C(n-i, j-a)."""
    total = 0
    for a in range(j + 1):
        term = (q - 1) ** (j - a) * math.comb(i, a) * math.comb(n - i, j - a)
        total += -term if a & 1 else term
    return total


def test_krawtchouk_recurrence_matches_the_direct_sum():
    for q in (2, 4):
        for n in range(41):
            for i in range(n + 1):
                expected = [_krawtchouk_direct(j, i, n, q) for j in range(n + 1)]
                assert krawtchouk_column(i, n, q) == expected


def test_krawtchouk_degree_zero_is_one():
    for i, n, q in [(0, 5, 4), (3, 5, 4), (2, 7, 2)]:
        assert krawtchouk_column(i, n, q)[0] == 1


def test_krawtchouk_degree_one():
    assert krawtchouk_column(0, 5, 4)[1] == 15


def test_krawtchouk_against_character_sum_oracle():
    n = 5
    for i in range(n + 1):
        for j in range(n + 1):
            assert krawtchouk_column(i, n, 4)[j] == _krawtchouk_character_sum(j, i, n)


def test_krawtchouk_point_value():
    assert krawtchouk_column(4, 5, 4)[3] == _krawtchouk_character_sum(3, 4, 5) == 14


def test_macwilliams_hamming_from_dual():
    dual = WeightDistribution(5, 2, 4, (1, 0, 0, 0, 15, 0))
    assert macwilliams(dual, 16, 5, 4).counts == (1, 0, 0, 30, 15, 18)


def test_macwilliams_of_trivial_dual_is_binomial():
    n, q = 6, 4
    dual = WeightDistribution(n, 0, q, (1,) + (0,) * n)
    got = macwilliams(dual, 1, n, q)
    assert got.counts == tuple(math.comb(n, j) * (q - 1) ** j for j in range(n + 1))


def test_macwilliams_hexacode_fixed_point():
    wd = WeightDistribution(6, 3, 4, (1, 0, 0, 0, 45, 0, 18))
    assert macwilliams(wd, 64, 6, 4).counts == wd.counts


def test_macwilliams_rejects_inconsistent_input():
    bogus = WeightDistribution(5, 2, 4, (1, 15, 0, 0, 0, 0))
    with pytest.raises(NonIntegerResult):
        macwilliams(bogus, 16, 5, 4)
    with pytest.raises(NonIntegerResult):
        macwilliams(WeightDistribution(5, 2, 4, (1, 0, 0, 0, 15, 0)), 17, 5, 4)


@pytest.mark.parametrize(
    "dual, n, q",
    [
        # read as a length-4 dual, it would give (1, 1, 3, 3, 0)
        (WeightDistribution(3, 1, 2, (1, 0, 0, 1)), 4, 2),
        (WeightDistribution(6, 1, 2, (1, 0, 0, 0, 0, 0, 1)), 4, 2),
        (WeightDistribution(5, 2, 4, (1, 0, 0, 0, 15, 0)), 5, 2),
        (WeightDistribution(5, 1, 2, (1, 0, 0, 0, 0, 1)), 5, 4),
    ],
)
def test_macwilliams_rejects_dual_weights_of_another_length_or_field(dual, n, q):
    with pytest.raises(Gf4LrcError) as raised:
        macwilliams(dual, dual.q**dual.k, n, q)
    assert raised.type is ShapeMismatch


@st.composite
def transform_inputs(draw):
    """(counts, dual_size, n, q): n <= 64, q in {2, 4}, dual_size any power
    of 2, and counts up to q^n in size: arbitrary, or multiples of
    dual_size, whose A_j are integers that may still be negative."""
    q = draw(st.sampled_from((2, 4)))
    n = draw(st.integers(0, 64))
    dual_size = 1 << draw(st.integers(0, (q // 2) * n + 2))
    scale = draw(st.sampled_from((1, dual_size)))
    count = st.integers(0, q**n // scale) | st.integers(0, 3)
    counts = draw(st.lists(count, min_size=n + 1, max_size=n + 1))
    return [c * scale for c in counts], dual_size, n, q


@settings(max_examples=300, deadline=None)
@given(transform_inputs())
@example(([1, 0, 0, 0, 15, 0], 16, 5, 4))  # the [5,3,3]_4 Hamming code's dual
@example(([0, 0, 0, 1], 1, 3, 2))  # A_j = K_j(3) = 1, -3, 3, -1
@example(([4**6, 0, 0, 0, 0, 0, 0], 1, 6, 4))  # A_j = 4^6 C(6,j) 3^j, the widest slots
def test_horner_transform_matches_the_column_sums(case):
    counts, dual_size, n, q = case
    try:
        expected = column_sum_transform(counts, dual_size, n, q)
    except NonIntegerResult as exc:
        with pytest.raises(NonIntegerResult, match=f"^{exc}$"):
            krawtchouk_transform(counts, dual_size, n, q)
    else:
        assert krawtchouk_transform(counts, dual_size, n, q) == expected


def test_macwilliams_involution_on_random_codes():
    for code in random_code_corpus(seed=202, count=20, max_n=7, max_k=4):
        dual = code.dual()
        got = macwilliams(
            dual.weight_distribution(), 4**dual.k, code.n, 4
        )
        assert got.counts == code.weight_distribution().counts


def test_smallest_dependent_column_set_matches_distance():
    for code in random_code_corpus(seed=77, count=15, max_n=10, max_k=4):
        d = code.min_distance().d
        cert = column_certificate(code, 10**6)
        assert cert.d == d


def test_weight_distribution_budget():
    code = random_linear_code(random.Random(3), 2, 30, 24)
    with pytest.raises(BudgetExceeded):
        code.weight_distribution(budget=1 << 10)


def test_weight_distribution_json_round_trip():
    wd = hexacode().weight_distribution()
    obj = json.loads(json.dumps(wd.to_json()))
    assert WeightDistribution(obj["n"], obj["k"], obj["q"], tuple(obj["A"])) == wd


def test_encode_and_contains():
    code = hexacode()
    word = code.encode([1, W, 0])
    assert code.contains(word)
    assert not code.contains((1,) + (0,) * 5)


BINARY_32 = LinearCode.from_generator(FieldMatrix.from_rows(2, [[1, 1, 1], [0, 1, 1]]))


@pytest.mark.parametrize(
    "code, message, error",
    [
        (hexacode(), [5, 0, 0], ValueError),
        (hexacode(), [-1, 0, 0], ValueError),
        (hexacode(), [4], ValueError),  # a bad symbol is reported before the length
        (hexacode(), [1, W], ShapeMismatch),
        (BINARY_32, [2, 0], ValueError),
        (BINARY_32, [-1, 0], ValueError),
        (BINARY_32, [W], ValueError),
        (BINARY_32, [1, 0, 0], ShapeMismatch),
    ],
)
def test_encode_checks_symbols_then_length(code, message, error):
    """encode checks a message the way contains checks a word."""
    with pytest.raises(ValueError) as raised:  # ShapeMismatch is a ValueError too
        code.encode(message)
    assert raised.type is error
