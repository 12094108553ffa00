import logging

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cap_search import cap_search
from conftest import forbid_distance_and_weights
from scalar_elimination import col_tuple, poly_divmod, poly_trim
from gf4lrc import gf4
from gf4lrc.bounds import griesmer_classical_min_n
from gf4lrc.cli import main
from gf4lrc.code import LinearCode, macwilliams
from gf4lrc.errors import (
    InvalidParameters,
    NotACap,
    NotADivisor,
    ParseError,
    UnsupportedParameters,
    UnsupportedSubspaceLayout,
)
from gf4lrc.families import (
    cap_code,
    cyclic4,
    hamming4,
    hamming4_weights_closed_form,
    hexacode,
    ingest,
    macdonald,
    mds_rs,
    solomon_stiffler,
)
from gf4lrc.matrix import FieldMatrix
from gf4lrc.projective import CapSet, bundled_cap_pg3_17

W, W2 = gf4.W, gf4.W2


@pytest.mark.parametrize(
    "n1,k1,d1", [(4, 2, 3), (5, 2, 4), (5, 3, 3), (6, 3, 4)]
)
def test_mds_nontrivial_families(n1, k1, d1):
    code = mds_rs(n1, k1)
    assert code.params() == (n1, k1)
    assert code.min_distance().d == d1 == n1 - k1 + 1


def test_mds_trivial_and_parity():
    assert mds_rs(4, 4).min_distance().d == 1
    assert mds_rs(5, 4).min_distance().d == 2
    assert mds_rs(2, 1).min_distance().d == 2


def test_mds_unsupported_parameters():
    for n1, k1 in [(6, 2), (7, 3), (5, 1), (9, 2)]:
        with pytest.raises(UnsupportedParameters):
            mds_rs(n1, k1)


def test_hamming_t2_matches_reference_parity_columns():
    code = hamming4(2)
    assert code.params() == (5, 3)
    ours = {col_tuple(code.parity_check, j) for j in range(5)}
    reference = FieldMatrix.from_rows(4, [[1, 0, 1, 1, 1], [0, 1, 1, W, W2]])
    theirs = {col_tuple(reference, j) for j in range(5)}
    assert ours == theirs


def test_hamming_t3():
    code = hamming4(3)
    assert code.params() == (21, 18)
    assert code.cached_distance.d == 3
    # the message space is far beyond enumeration, so the certificate must
    # come from the dependent-column search
    assert code.cached_distance.method == "column_dependence"


def test_hamming_degenerate_t():
    with pytest.raises(InvalidParameters):
        hamming4(1)


@pytest.mark.parametrize("t", [2, 3])
def test_hamming_is_perfect(t):
    n1 = (4**t - 1) // 3
    k1 = n1 - t
    assert 4**k1 * (1 + 3 * n1) == 4**n1


def test_hamming_closed_form_weights():
    assert hamming4_weights_closed_form(2).counts == (1, 0, 0, 30, 15, 18)
    wd3 = hamming4_weights_closed_form(3)
    assert wd3.counts[0] == 1 and wd3.counts[1] == wd3.counts[2] == 0
    assert sum(wd3.counts) == 4**18


def test_hexacode_reference_values():
    code = hexacode()
    assert code.params() == (6, 3)
    assert code.min_distance().d == 4
    assert code.weight_distribution().counts == (1, 0, 0, 0, 45, 0, 18)
    # denominator identity: 19 + 45 = 64 = 4^3
    assert 1 + 18 + 45 == 64


@pytest.mark.parametrize(
    "m,u,t,params",
    [
        (2, 1, 1, (4, 2, 3)),
        (3, 1, 1, (20, 3, 15)),
        (3, 2, 1, (16, 3, 12)),
    ],
)
def test_macdonald_parameters(m, u, t, params):
    code = macdonald(m, u, t)
    n1, k1, d1 = params
    assert code.params() == (n1, k1)
    assert code.min_distance().d == d1
    assert griesmer_classical_min_n(k1, d1, 4) == n1


def test_macdonald_rejects_non_integral_length():
    with pytest.raises(InvalidParameters):
        macdonald(2, 1, 2)
    with pytest.raises(InvalidParameters):
        macdonald(3, 2, 3)


def test_macdonald_rejects_bad_subspace_dim():
    with pytest.raises(InvalidParameters):
        macdonald(2, 2, 1)
    with pytest.raises(InvalidParameters):
        macdonald(3, 0, 1)


def test_macdonald_multiplicity_four_meets_griesmer():
    code = macdonald(2, 1, 4)
    d1 = code.min_distance().d
    assert d1 == 4 * 4 - 1
    assert code.n == griesmer_classical_min_n(code.k, d1, 4)


@pytest.mark.parametrize(
    "t,dims,params",
    [
        (2, [1], (4, 2, 3)),
        (3, [1, 1, 1], (18, 3, 13)),
        (3, [2], (16, 3, 12)),
        (3, [2, 1], (15, 3, 11)),
    ],
)
def test_solomon_stiffler_parameters(t, dims, params):
    code = solomon_stiffler(t, dims)
    n1, k1, d1 = params
    assert code.params() == (n1, k1)
    assert code.min_distance().d == d1
    assert code.n == griesmer_classical_min_n(k1, d1, 4)


def test_solomon_stiffler_layout_guard():
    with pytest.raises(UnsupportedSubspaceLayout):
        solomon_stiffler(3, [2, 2])


def test_solomon_stiffler_validation():
    with pytest.raises(InvalidParameters):
        solomon_stiffler(3, [3])  # u_1 must be < t
    with pytest.raises(InvalidParameters):
        solomon_stiffler(3, [1, 2])  # must be non-increasing
    with pytest.raises(InvalidParameters):
        solomon_stiffler(5, [1, 1, 1, 1])  # at most three equal dims
    with pytest.raises(InvalidParameters):
        solomon_stiffler(3, [0])


def test_cap_code_from_small_cap():
    cap = cap_search(2, 5)
    code = cap_code(cap)
    assert code.params() == (5, 2)
    assert code.cached_distance.d == 4


def test_cap_code_from_bundled_17_cap():
    code = cap_code(bundled_cap_pg3_17())
    assert code.params() == (17, 13)
    assert code.cached_distance.d == 4
    assert code.cached_distance.method == "column_dependence"


def test_cap_code_rejects_collinear_points():
    with pytest.raises(NotACap):
        cap_code(CapSet(2, ((1, 0, 0), (0, 1, 0), (1, 1, 0))))


def test_cap_code_distance_confirmed_by_transform():
    # independent route: the [17,4] dual is small enough to enumerate, and
    # the transform of its distribution must vanish below weight 4
    code = cap_code(bundled_cap_pg3_17())
    dual = code.dual()
    full = macwilliams(dual.weight_distribution(), 4**dual.k, code.n, 4)
    assert full.counts[1] == full.counts[2] == full.counts[3] == 0
    assert full.counts[4] > 0


def test_cyclic_43_36_distance_confirmed_by_transform():
    code = cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1])
    dual = code.dual()
    full = macwilliams(dual.weight_distribution(), 4**dual.k, code.n, 4)
    assert all(full.counts[i] == 0 for i in range(1, 5))
    assert full.counts[5] > 0


def poly_gcd(a, b) -> list[int]:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


@st.composite
def cyclic_generators(draw):
    """(n, g): g random, or a divisor of x^n - 1 (its gcd with a random
    polynomial, times a nonzero scalar), with or without trailing zeros."""
    n = draw(st.integers(1, 12))
    g = draw(st.lists(st.integers(0, 3), max_size=n))
    if draw(st.booleans()):
        c = draw(st.sampled_from(gf4.NONZERO))
        g = [gf4.gf4_mul(c, v) for v in poly_gcd([1] + [0] * (n - 1) + [1], g)]
    return n, g + [0] * draw(st.integers(0, 2))


@settings(max_examples=400, deadline=None)
@given(cyclic_generators())
@example((3, [1, 1]))
@example((5, [1, 0, 1]))
@example((7, [1, 1, 0, 1]))
@example((4, [0, 1]))  # g0 = 0: x never divides x^n - 1
@example((6, [1, 1, 0, 0]))
@example((2, [0, 0, 0]))
@example((2, [1, 0, W]))  # deg g = n
@example((1, []))
@example((3, [W]))
def test_cyclic_accepts_exactly_the_divisors(case):
    n, g = case
    trimmed = poly_trim(g)
    if not trimmed or len(trimmed) > n:
        with pytest.raises(InvalidParameters):
            cyclic4(n, g)
        return
    _, rem = poly_divmod([1] + [0] * (n - 1) + [1], trimmed)
    if rem:
        with pytest.raises(NotADivisor, match=rf"does not divide x\^{n} - 1$"):
            cyclic4(n, g)
        return
    code = cyclic4(n, g)
    k = n - len(trimmed) + 1
    assert code.params() == (n, k)
    for i in range(k):
        assert code.generator.row_tuple(i) == tuple([0] * i + trimmed + [0] * (k - 1 - i))
    top = code.generator.row_tuple(k - 1)
    assert code.contains(top[-1:] + top[:-1])  # the wrapped shift x^k g


@pytest.mark.parametrize(
    "n,g,bad", [(3, [1, 5], 5), (3, [5, 1], 5), (2, [1, 1, 0, 5], 5), (3, [1, -1], -1)]
)
def test_cyclic_rejects_a_symbol_outside_gf4(n, g, bad):
    # checked before trimming and before the degree: a plain ValueError,
    # not InvalidParameters, worded as FieldMatrix.from_rows words it
    with pytest.raises(ValueError, match=rf"^symbol {bad} invalid over GF\(4\)$") as info:
        cyclic4(n, g)
    assert not isinstance(info.value, InvalidParameters)


def test_cyclic_parity_code():
    code = cyclic4(3, [1, 1])
    assert code.params() == (3, 2)


def test_cyclic_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        cyclic4(5, [1, 0, 1])


def test_cyclic_43_36():
    g = [1, 0, W2, 1, 1, W, 0, 1]
    code = cyclic4(43, g)
    assert code.params() == (43, 36)
    # every row of the generator is a cyclic shift, hence a codeword
    assert code.contains(code.generator.row_tuple(5))


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "hamming.code"
    parity = FieldMatrix.from_rows(4, [[1, 0, 1, 1, 1], [0, 1, 1, W, W2]])
    path.write_text(parity.to_text({"kind": "parity", "n": 5, "k": 3, "d": 3}))
    code, claimed = ingest(path)
    assert code.params() == (5, 3)
    assert claimed == 3 and code.min_distance().d == 3


def test_ingest_unknown_symbol(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("field=4 rows=1 cols=2 kind=generator\n1 x\n")
    with pytest.raises(ParseError):
        ingest(path)


def test_ingest_requires_kind(tmp_path):
    path = tmp_path / "nokind.code"
    path.write_text("field=2 rows=1 cols=3\n1 1 1\n")
    with pytest.raises(ParseError):
        ingest(path)


def test_ingest_returns_the_claimed_d_and_computes_no_distance(tmp_path, monkeypatch, caplog):
    """A file's d= is a claim that the run checks against its own
    certificate; loading the file searches and enumerates nothing."""
    path = tmp_path / "wrong.code"
    gen = FieldMatrix.from_rows(2, [[1, 1, 1]])
    path.write_text(gen.to_text({"kind": "generator", "d": 2}))
    forbid_distance_and_weights(monkeypatch)
    with caplog.at_level(logging.WARNING):
        code, claimed = ingest(path)
    assert (code.params(), claimed) == ((3, 1), 2)
    assert caplog.records == []


def test_ingest_propagates_engine_failures(tmp_path, monkeypatch, capsys):
    """A failed witness check inside the distance engine, on a run that
    checks a file's claimed d, is not turned into a log line."""
    path = tmp_path / "rep.code"
    path.write_text(FieldMatrix.from_rows(2, [[1, 1, 1]]).to_text({"kind": "generator", "d": 3}))

    def broken(self, budget=None):
        raise AssertionError("column-search witness is not a codeword")

    monkeypatch.setattr(LinearCode, "min_distance", broken)
    for argv in (["analyze", str(path), "--distance"], ["construct", "ingest", "--file", str(path)]):
        with pytest.raises(AssertionError):
            main(argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key", ["n", "k", "d"])
def test_ingest_rejects_non_integer_advertised_value(tmp_path, key):
    path = tmp_path / "bad.code"
    path.write_text(f"field=2 rows=1 cols=3 kind=generator {key}=three\n1 1 1\n")
    with pytest.raises(ParseError):
        ingest(path)
