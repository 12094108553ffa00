import importlib.resources
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf4lrc.projective as projective_module
from cap_search import (
    SearchExhausted,
    cap_search,
    cap_text,
    collinear_companions,
    normalize_point,
)
from gf4lrc import gf4
from gf4lrc.errors import BudgetExceeded, NotACap, ParseError
from gf4lrc.matrix import pack_row, rows_rank
from gf4lrc.projective import CapSet, bundled_cap_pg3_17, pg_points, subspace_points

W, W2 = gf4.W, gf4.W2


def test_point_counts():
    for n in range(4):
        assert len(pg_points(n)) == (4 ** (n + 1) - 1) // 3


def test_points_are_normalized_and_distinct_classes():
    for n in range(3):
        pts = pg_points(n)
        for p in pts:
            assert normalize_point(p) == p
        # no two are scalar multiples of each other
        for p, r in itertools.combinations(pts, 2):
            for s in gf4.NONZERO:
                assert tuple(gf4.gf4_mul(s, v) for v in p) != r


def test_point_order_puts_unit_points_first():
    assert pg_points(1) == [(1, 0), (0, 1), (1, 1), (1, W), (1, W2)]
    assert pg_points(2)[:2] == [(1, 0, 0), (0, 1, 0)]


def test_subspace_points_are_a_prefix():
    pts = pg_points(2)
    sub = subspace_points(3, 0, 2)
    assert pts[: len(sub)] == sub
    assert len(sub) == 5


def test_normalize_point():
    # (w, 1) scaled by w^-1 = w^2 gives (1, w^2)
    assert normalize_point((W, 1)) == (1, W2)
    # (0, w^2, w) scaled by w gives (0, 1, w^2)
    assert normalize_point((0, W2, W)) == (0, 1, W2)
    with pytest.raises(ValueError):
        normalize_point((0, 0))


def test_collinear_companions_close_the_line():
    p, r = (1, 0, 0), (0, 1, 0)
    line = {p, r} | set(collinear_companions(p, r))
    assert len(line) == 5
    # a line is closed under pairwise companion-taking
    for a, b in itertools.combinations(line, 2):
        assert set(collinear_companions(a, b)) <= line


def test_verify_rejects_collinear_triple():
    bad = CapSet(2, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(NotACap) as exc_info:
        bad.verify()
    assert exc_info.value.triple == (0, 1, 2)


def test_verify_rejects_duplicates_and_unnormalized():
    with pytest.raises(NotACap):
        CapSet(1, ((1, 0), (1, 0))).verify()
    with pytest.raises(NotACap):
        CapSet(1, ((W, 0), (0, 1))).verify()


@pytest.mark.parametrize("point", [(1, 5), (5, 1)])
def test_verify_rejects_a_coordinate_outside_gf4(point):
    with pytest.raises(NotACap, match="coordinate outside GF\\(4\\)"):
        CapSet(1, (point,)).verify()


def test_verify_makes_one_dependent_set_search(monkeypatch):
    calls = []
    search = projective_module.smallest_dependent_set

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return search(*args, **kwargs)

    monkeypatch.setattr(projective_module, "smallest_dependent_set", recorded)
    bundled_cap_pg3_17().verify()
    assert len(calls) == 1


def test_verify_rejects_the_zero_point():
    with pytest.raises(NotACap):
        CapSet.from_text("pg=1 q=4 size=1\n0 0\n").verify()
    with pytest.raises(NotACap):
        CapSet(2, ((1, 0, 0), (0, 0, 0))).verify()


def first_collinear_triple_by_rank(cap: CapSet):
    """The rank test of every triple in lexicographic order: the first
    triple of rank below 3, or None."""
    packed = [pack_row(4, p) for p in cap.points]
    for triple in itertools.combinations(range(len(packed)), 3):
        if rows_rank(4, [packed[t] for t in triple], cap.ambient + 1) != 3:
            return triple
    return None


BUNDLED = bundled_cap_pg3_17().points
PG2, PG3, PG4 = pg_points(2), pg_points(3), pg_points(4)


@st.composite
def point_sets(draw):
    """Distinct normalized points in any order: sub-caps of the 17-cap,
    sub-caps with points of PG(3, 4) added, and sets from PG(2, 4) and
    PG(4, 4)."""
    kind = draw(st.sampled_from(["cap", "cap+", "pg2", "pg4"]))
    if kind == "pg2":
        return CapSet(2, tuple(draw(st.lists(st.sampled_from(PG2), unique=True, max_size=8))))
    if kind == "pg4":
        return CapSet(4, tuple(draw(st.lists(st.sampled_from(PG4), unique=True, max_size=12))))
    points = draw(st.lists(st.sampled_from(BUNDLED), unique=True, max_size=17))
    if kind == "cap+":
        points += draw(st.lists(st.sampled_from(PG3), unique=True, min_size=1, max_size=3))
        points = list(dict.fromkeys(points))
    return CapSet(3, tuple(draw(st.permutations(points))))


@settings(max_examples=200, deadline=None)
@given(point_sets())
def test_verify_reports_the_rank_tests_first_collinear_triple(cap):
    expected = first_collinear_triple_by_rank(cap)
    if expected is None:
        cap.verify()
        return
    with pytest.raises(NotACap) as exc_info:
        cap.verify()
    assert exc_info.value.triple == expected
    assert str(exc_info.value) == f"collinear triple at indices {expected}"


def test_hyperoval_search_in_pg2():
    cap = cap_search(2, 6)
    cap.verify()
    assert cap.size() == 6


def test_no_7_cap_in_pg2():
    with pytest.raises(SearchExhausted):
        cap_search(2, 7)


def test_cap_search_budget_is_retryable():
    with pytest.raises(BudgetExceeded):
        cap_search(3, 17, effort=10)
    cap = cap_search(3, 17, effort=5_000_000)
    cap.verify()


def test_bundled_cap_matches_fresh_search():
    bundled = bundled_cap_pg3_17()
    bundled.verify()
    assert bundled.size() == 17
    assert cap_search(3, 17, effort=5_000_000).points == bundled.points


def test_cap_text_round_trip():
    cap = cap_search(2, 6)
    again = CapSet.from_text(cap_text(cap))
    assert again == cap


def test_bundled_cap_writes_its_own_file():
    text = importlib.resources.files("gf4lrc").joinpath("data/cap_pg3_size17.txt").read_text()
    assert cap_text(bundled_cap_pg3_17()) == text


def test_cap_text_parse_errors():
    with pytest.raises(ParseError):
        CapSet.from_text("pg=2 q=2 size=0\n")
    with pytest.raises(ParseError):
        CapSet.from_text("pg=2 q=4 size=2\n1 0 0\n")
    with pytest.raises(ParseError):
        CapSet.from_text("pg=2 q=4 size=1\n1 0\n")


@pytest.mark.parametrize(
    "text",
    [
        "pg=2 q=4 size=1\n1 x 0\n",  # a symbol outside the alphabet
        "pg=2 q=4 size=1 size=2\n1 0 0\n1 1 0\n",  # a repeated header key
        "pg=-1 q=4 size=0\n",  # a negative ambient dimension
    ],
)
def test_cap_text_malformed_raises_parse_error(text):
    with pytest.raises(ParseError):
        CapSet.from_text(text)
