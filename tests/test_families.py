import logging

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cap_search import cap_search, collinear_companions
from conftest import forbid_dependent_set_search, forbid_distance_and_weights
from scalar_elimination import col_tuple, nullspace, poly_divmod, poly_trim
from gf4lrc import families, gf4
from gf4lrc.bounds import griesmer_classical_min_n
from gf4lrc.cli import main
from gf4lrc.code import LinearCode, macwilliams
from gf4lrc.errors import (
    InvalidParameters,
    NotACap,
    NotADivisor,
    ParseError,
    RankDeficient,
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
from gf4lrc.projective import CapSet, bundled_cap_pg3_17, pg_points

W, W2 = gf4.W, gf4.W2


@pytest.mark.parametrize(
    "n1,k1,d1", [(4, 2, 3), (5, 2, 4), (5, 3, 3), (6, 3, 4)]
)
def test_mds_nontrivial_families(n1, k1, d1):
    code = mds_rs(n1, k1)
    assert (code.n, code.k) == (n1, k1)
    assert code.min_distance().d == d1 == n1 - k1 + 1


def test_mds_trivial_and_parity():
    assert mds_rs(4, 4).min_distance().d == 1
    assert mds_rs(5, 4).min_distance().d == 2
    assert mds_rs(2, 1).min_distance().d == 2


def _builder(name: str, build, d: int):
    return pytest.param(build, d, id=name)


BUILDERS = [
    *[_builder(f"mds_rs{nk}", lambda nk=nk: mds_rs(*nk), nk[0] - nk[1] + 1)
      for nk in [(4, 2), (5, 2), (5, 3), (6, 3), (4, 4), (5, 4), (2, 1)]],
    _builder("hamming4(2)", lambda: hamming4(2), 3),
    _builder("hamming4(3)", lambda: hamming4(3), 3),
    _builder("hexacode", hexacode, 4),
    *[_builder(f"macdonald{a}", lambda a=a: macdonald(*a), d)
      for a, d in [((2, 1, 1), 3), ((3, 1, 1), 15), ((3, 2, 1), 12), ((2, 1, 4), 15)]],
    *[_builder(f"solomon_stiffler{a}", lambda a=a: solomon_stiffler(*a), d)
      for a, d in [((2, [1]), 3), ((3, [1, 1, 1]), 13), ((3, [2]), 12), ((3, [2, 1]), 11)]],
    _builder("cap_code(5)", lambda: cap_code(cap_search(2, 5)), 4),
    _builder("cap_code(17)", lambda: cap_code(bundled_cap_pg3_17()), 4),
    _builder("cyclic4(43)", lambda: cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1]), 5),
]


@pytest.mark.parametrize("build,d", BUILDERS)
def test_every_builder_checks_d_with_no_dependent_set_search(build, d, monkeypatch):
    """A builder reads d from the exact weights and makes no witness; the
    certificate that ``min_distance`` makes later has the same d."""
    with monkeypatch.context() as patch:
        forbid_dependent_set_search(patch)
        code = build()
        assert code.cached_distance is None
        assert code.exact_distance() == d
    cert = code.min_distance()
    assert cert.d == d and code.contains(cert.witness)


def test_a_builder_whose_code_misses_its_d_is_refused(monkeypatch):
    # A [5,3,2] generator in place of the [5,3,3] MDS one.
    monkeypatch.setitem(families._MDS_GENERATORS, (5, 3), [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1],
                                                          [0, 0, 1, 1, 0]])
    with pytest.raises(AssertionError, match=r"^builder produced d=2, expected 3 for \[5,3\]$"):
        mds_rs(5, 3)


def test_mds_unsupported_parameters():
    for n1, k1 in [(6, 2), (7, 3), (5, 1), (9, 2)]:
        with pytest.raises(UnsupportedParameters):
            mds_rs(n1, k1)


def test_hamming_t2_matches_reference_parity_columns():
    code = hamming4(2)
    assert (code.n, code.k) == (5, 3)
    ours = {col_tuple(code.parity_check, j) for j in range(5)}
    reference = FieldMatrix.from_rows(4, [[1, 0, 1, 1, 1], [0, 1, 1, W, W2]])
    theirs = {col_tuple(reference, j) for j in range(5)}
    assert ours == theirs


def test_hamming_t3():
    code = hamming4(3)
    assert (code.n, code.k) == (21, 18)
    # the builder checks d by the weights and keeps no certificate; the
    # message space is far beyond enumeration, so the one that min_distance
    # makes on demand comes from the dependent-column search
    assert code.cached_distance is None
    cert = code.min_distance()
    assert (cert.d, cert.method) == (3, "column_dependence")


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
    assert (code.n, code.k) == (6, 3)
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
    assert (code.n, code.k) == (n1, k1)
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
    assert (code.n, code.k) == (n1, k1)
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
    assert (code.n, code.k) == (5, 2)
    assert code.min_distance().d == 4


def test_cap_code_from_bundled_17_cap():
    code = cap_code(bundled_cap_pg3_17())
    assert (code.n, code.k) == (17, 13)
    cert = code.min_distance()
    assert (cert.d, cert.method) == (4, "column_dependence")


def test_cap_code_rejects_collinear_points():
    with pytest.raises(NotACap):
        cap_code(CapSet(2, ((1, 0, 0), (0, 1, 0), (1, 1, 0))))


def reference_cap_code(cap: CapSet) -> LinearCode:
    """The cap code as it was built before its weights proved the cap: the
    whole ``verify``, its triple search included, then H's rank, then d."""
    cap.verify()
    try:
        code = LinearCode.from_parity(FieldMatrix.from_cols(4, cap.points))
    except RankDeficient as exc:
        raise InvalidParameters(
            f"the {cap.size()} cap points do not span PG({cap.ambient}, 4)"
        ) from exc
    code.min_distance()
    return code


PG3 = pg_points(3)
BUNDLED = bundled_cap_pg3_17().points


@st.composite
def pg3_point_lists(draw):
    """Point lists in PG(3, 4): sub-caps of the 17-cap, with points on the
    line through two of them, with repeats, in a plane, or anywhere; some
    with a point scaled off its normal form or zeroed."""
    kind = draw(st.sampled_from(["cap", "collinear", "repeat", "plane", "any"]))
    if kind == "plane":
        points = draw(st.lists(st.sampled_from([p for p in PG3 if not p[3]]), unique=True,
                               max_size=8))
    elif kind == "any":
        points = draw(st.lists(st.sampled_from(PG3), unique=True, max_size=10))
    else:
        points = draw(st.lists(st.sampled_from(BUNDLED), unique=True, max_size=17))
    if kind == "collinear" and len(points) >= 2:
        a, b = draw(st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True))
        points.append(draw(st.sampled_from(collinear_companions(a, b))))
    if kind == "repeat" and points:
        points.append(draw(st.sampled_from(points)))
    points = draw(st.permutations(points))
    if points and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(points) - 1))
        scale = draw(st.sampled_from([0, W]))
        points[i] = tuple(gf4.gf4_mul(scale, c) for c in points[i])
    return CapSet(3, tuple(points))


def _outcome(build, cap):
    try:
        code = build(cap)
    except Exception as exc:  # the same kind of refusal, text and triple
        return type(exc), str(exc), getattr(exc, "triple", None)
    return code.parity_check, code.k, code.min_distance()


@settings(max_examples=300, deadline=None)
@given(pg3_point_lists())
@example(CapSet(3, ()))
@example(CapSet(3, tuple(BUNDLED[:4])))  # spans PG(3, 4): k = 0
@example(CapSet(3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0))))
def test_cap_code_refuses_and_certifies_as_the_triple_search_does(cap):
    assert _outcome(cap_code, cap) == _outcome(reference_cap_code, cap)


def test_cap_code_of_the_bundled_cap_makes_no_triple_search(monkeypatch):
    monkeypatch.setattr(CapSet, "verify", lambda cap: pytest.fail("the triple search ran"))
    code = cap_code(bundled_cap_pg3_17())
    assert (code.n, code.k, code.min_distance().d) == (17, 13, 4)


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
@example((43, [1, 0, W2, 1, 1, W, 0, 1]))
@example((43, [W, 0, 1, W, W, W2, 0, W]))  # the same code, g not monic
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
    assert (code.n, code.k) == (n, k)
    for i in range(k):
        assert code.generator.row_tuple(i) == tuple([0] * i + trimmed + [0] * (k - 1 - i))
    top = code.generator.row_tuple(k - 1)
    assert code.contains(top[-1:] + top[:-1])  # the wrapped shift x^k g
    # H, written from the check polynomial, is G's nullspace row for row.
    assert code.parity_check.rows == nullspace(code.generator).rows
    assert code.parity_check.nrows == n - k


def test_cyclic_writes_h_without_an_elimination(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an elimination ran")

    for name in ("nullspace", "kernel", "rref"):
        monkeypatch.setattr(FieldMatrix, name, forbidden)
    for n, g in [(43, [1, 0, W2, 1, 1, W, 0, 1]), (7, [1, 1, 0, 1]), (5, [W]), (3, [1, 1, 1])]:
        code = cyclic4(n, g)
        assert code.parity_check.nrows == n - code.k


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
    assert (code.n, code.k) == (3, 2)


def test_cyclic_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        cyclic4(5, [1, 0, 1])


def test_cyclic_43_36():
    g = [1, 0, W2, 1, 1, W, 0, 1]
    code = cyclic4(43, g)
    assert (code.n, code.k) == (43, 36)
    # every row of the generator is a cyclic shift, hence a codeword
    assert code.contains(code.generator.row_tuple(5))


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "hamming.code"
    parity = FieldMatrix.from_rows(4, [[1, 0, 1, 1, 1], [0, 1, 1, W, W2]])
    path.write_text(parity.to_text({"kind": "parity", "n": 5, "k": 3, "d": 3}))
    code, claimed = ingest(path)
    assert (code.n, code.k) == (5, 3)
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
    assert ((code.n, code.k), claimed) == ((3, 1), 2)
    assert caplog.records == []


def test_ingest_propagates_engine_failures(tmp_path, monkeypatch, capsys):
    """A failed witness check inside the distance engine, on a run that
    checks a file's claimed d, is not turned into a log line."""
    path = tmp_path / "rep.code"
    path.write_text(FieldMatrix.from_rows(2, [[1, 1, 1]]).to_text({"kind": "generator", "d": 3}))

    def broken(self, budget=None):
        raise AssertionError("column-search witness is not a codeword")

    # construct reads d from the weights, analyze --distance certifies it:
    # both entries to the engine fail.
    monkeypatch.setattr(LinearCode, "min_distance", broken)
    monkeypatch.setattr(LinearCode, "cheapest_weights", broken)
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
