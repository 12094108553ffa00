import itertools
import math
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bound_formulas as parent
from gf4lrc import bounds
from gf4lrc.errors import EmptyTauRange, InvalidShape, OddDistance, ParseError
from gf4lrc.families import cap_code, cyclic4, hamming4, hexacode
from gf4lrc.gf4 import W, W2
from gf4lrc.projective import bundled_cap_pg3_17


def lrc_ball_size_definition(ell: int, d: int) -> int:
    """The constrained multinomial sum, enumerated term by term."""
    cap = (d - 1) // 4
    total = 0
    for tup in itertools.product(range(4), repeat=ell):
        if sum(tup) <= cap:
            prod = 1
            for i in tup:
                prod *= math.comb(3, 2 * i)
            total += prod
    return total


def test_ceil_log_exact():
    assert bounds.ceil_log(2, 1) == 0
    assert bounds.ceil_log(2, 2) == 1
    assert bounds.ceil_log(2, Fraction(21077, 2)) == 14
    assert bounds.ceil_log(4, 16) == 2
    assert bounds.ceil_log(4, 17) == 3
    assert bounds.ceil_log(2, 2**100) == 100
    assert bounds.ceil_log(2, 2**100 + 1) == 101


def test_singleton_like():
    assert bounds.singleton_like_max_d(12, 4, 2) == 8
    # trivial-outer concatenations meet the bound with d = 2
    for n1 in (3, 4, 5):
        assert bounds.singleton_like_max_d(3 * n1, 2 * n1, 2) == 2
    # k = r reduces to the classical Singleton bound n - k + 1
    assert bounds.singleton_like_max_d(10, 3, 3) == 10 - 3 + 1


def test_cm_bound_collapses_when_distance_exceeds_residual():
    # kopt contributes nothing when every residual length is below d
    assert bounds.cm_bound_max_k(9, 9, 2) == 2


def test_cm_bound_sanity_on_hamming_concatenation():
    assert bounds.cm_bound_max_k(15, 6, 2) >= 6


def test_cm_bound_with_weaker_oracle_is_pointwise_weaker():
    singleton_only = lambda n, d: max(0, n - d + 1)
    for n in range(6, 40, 3):
        for d in range(2, 12, 2):
            weak = bounds.cm_bound_max_k(n, d, 2, kopt=singleton_only)
            strong = bounds.cm_bound_max_k(n, d, 2)
            assert weak >= strong


def test_griesmer_classical():
    assert bounds.griesmer_classical_min_n(2, 7, 4) == 9
    assert bounds.griesmer_classical_min_n(2, 8, 4) == 10
    assert bounds.griesmer_classical_min_n(4, 14, 2) == 27
    assert bounds.griesmer_classical_min_n(1, 9, 2) == 9


def test_griesmer_like_values():
    assert bounds.griesmer_like_min_n(4, 6, 2, 2) == 12
    assert bounds.griesmer_like_min_n(6, 30, 2, 2) == 60
    assert parent.griesmer_like_terms(6, 8, 2, 2) == [(1, 18), (2, 18)]
    assert bounds.griesmer_like_min_n(6, 8, 2, 2) == 18
    # [54,6,26;2] cannot meet either bound with equality: both sums give 53
    assert parent.griesmer_like_terms(6, 26, 2, 2) == [
        (1, 3 + 26 + 13 + 7 + 4),
        (2, 6 + 26 + 13),
    ]
    assert bounds.griesmer_like_min_n(6, 26, 2, 2) == 53
    assert bounds.griesmer_classical_min_n(6, 26, 2) == 26 + 13 + 7 + 4 + 2 + 1


def test_griesmer_like_empty_tau_range():
    with pytest.raises(EmptyTauRange):
        bounds.griesmer_like_min_n(2, 4, 2, 2)


def test_griesmer_like_max_d():
    assert bounds.griesmer_like_max_d(27, 4, 2, 2) == 14
    assert bounds.griesmer_like_max_d(30, 4, 2, 2) == 16
    assert bounds.griesmer_like_max_d(12, 4, 2, 2) == 6
    assert bounds.griesmer_like_max_d(3, 2, 2, 2) == 2


def test_griesmer_like_max_d_takes_logarithmically_many_sums(monkeypatch):
    # Counting calls, not seconds, keeps the check independent of the host.
    calls = []
    real_sum = bounds.griesmer_sum

    def counted(m, d, q):
        calls.append(d)
        return real_sum(m, d, q)

    monkeypatch.setattr(bounds, "griesmer_sum", counted)
    assert bounds.griesmer_like_max_d(30000, 60, 2, 2) == parent.griesmer_like_max_d(
        30000, 60, 2, 2
    )
    assert 0 < len(calls) < 2000


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 80), st.integers(-2, 90), st.sampled_from((2, 3, 4)))
def test_ball_size_is_the_binomial_sum(n, radius, q):
    expected = sum(math.comb(n, i) * (q - 1) ** i for i in range(radius + 1))
    assert bounds.ball_size(n, radius, q) == expected


def test_lrc_ball_size_matches_definition():
    for ell in range(1, 6):
        for d in range(2, 13, 2):
            assert bounds.lrc_ball_size(ell, d) == lrc_ball_size_definition(ell, d)


def test_sphere_packing_like():
    assert bounds.sphere_packing_like_max_k(15, 6) == (6, 16)
    assert bounds.sphere_packing_like_max_k(6, 2) == (4, 1)
    with pytest.raises(InvalidShape):
        bounds.sphere_packing_like_max_k(14, 6)
    with pytest.raises(InvalidShape):
        bounds.sphere_packing_like_max_k(15, 5)


def test_hamming_family_packs_perfectly():
    # group count (4^t-1)/3 with d = 6: 2^(2k) * Omega = 2^(2n/3)
    for t in (2, 3):
        n1 = (4**t - 1) // 3
        k = 2 * (n1 - t)
        omega = bounds.lrc_ball_size(n1, 6)
        assert 2**k * omega == 2 ** (2 * n1)


def test_sphere_packing_classical():
    assert bounds.sphere_packing_classical_max_k(5, 3, 4) == (3, 16)
    kmax, o_d = bounds.sphere_packing_classical_max_k(43, 5, 4)
    assert o_d == 8257 and 2**13 < o_d <= 2**14 and kmax == 36
    assert bounds.sphere_packing_classical_max_k(9, 1, 4) == (9, 1)


def test_johnson_classical():
    kmax, o_prime = bounds.johnson_classical_max_k(6, 4, 4)
    assert o_prime == 64 and kmax == 3
    _, o_prime17 = bounds.johnson_classical_max_k(17, 4, 4)
    assert o_prime17 == 205
    kmax2, o_prime2 = bounds.johnson_classical_max_k(7, 2, 4)
    assert o_prime2 == 4 and kmax2 == 6
    with pytest.raises(OddDistance):
        bounds.johnson_classical_max_k(6, 3, 4)


def test_johnson_like_improved():
    kmax, improved, original = bounds.johnson_like_improved_max_k(51, 8)
    assert (kmax, improved) == (26, 205)
    kmax, improved, _ = bounds.johnson_like_improved_max_k(18, 8)
    assert (kmax, improved) == (6, 64)
    kmax, improved, _ = bounds.johnson_like_improved_max_k(12, 4)
    assert (kmax, improved) == (6, 4)
    with pytest.raises(InvalidShape):
        bounds.johnson_like_improved_max_k(51, 6)
    with pytest.raises(InvalidShape):
        bounds.johnson_like_improved_max_k(50, 8)


def test_improved_dominates_on_small_grid():
    for ell in range(2, 40):
        n = 3 * ell
        for d in range(4, 2 * ell + 1, 4):
            _, improved, original = bounds.johnson_like_improved_max_k(n, d)
            assert improved >= original  # larger denominator = smaller bound


def test_outer_to_lrc_ball_correspondence():
    # classical GF(4) ball of radius (d1-1)/2 equals the LRC ball at 2*d1
    outers = [hamming4(2), hexacode(), cap_code(bundled_cap_pg3_17())]
    outers.append(cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1]))
    for outer in outers:
        d1 = outer.min_distance(budget=1 << 22).d
        o_d = bounds.ball_size(outer.n, (d1 - 1) // 2, 4)
        assert o_d == bounds.lrc_ball_size(outer.n, 2 * d1)
        if d1 % 2 == 0:
            _, o_prime = bounds.johnson_classical_max_k(outer.n, d1, 4)
            _, imp, _ = bounds.johnson_like_improved_max_k(3 * outer.n, 2 * d1)
            assert o_prime == imp


def test_classify_hamming_lrc_perfect():
    report = bounds.classify(15, 6, 6)
    assert report.perfect is True
    assert report.k_optimal_sp is True
    assert 2**6 * report.omega == 2**10
    assert report.griesmer_like_d_optimal is True
    assert report.singleton_optimal is False
    assert report.nearly_perfect is None  # d not a multiple of 4


def test_classify_hexacode_lrc_nearly_perfect():
    report = bounds.classify(18, 6, 8)
    assert report.nearly_perfect is True
    assert report.k_optimal_johnson is True
    assert report.omega_prime_improved == 64
    assert 2**6 * report.omega_prime_improved == 2**12


def test_classify_trivial_outer_singleton_optimal():
    report = bounds.classify(9, 6, 2)
    assert report.singleton_optimal is True


def test_classify_cap_lrc():
    report = bounds.classify(51, 26, 8)
    assert report.k_optimal_johnson is True
    assert report.nearly_perfect is False
    assert report.omega_prime_improved == 205
    (entry,) = [e for e in report.entries if e.name == "johnson_like_improved"]
    assert entry.value == 26


def test_report_json_shape():
    report = bounds.classify(15, 6, 6)
    obj = report.to_json()
    assert obj["verdicts"]["perfect"] is True
    assert obj["denominators"]["omega"] == 16
    names = {e["name"] for e in obj["bounds"]}
    assert "singleton_like" in names and "cm" in names


def test_report_json_entries_are_their_fields():
    report = bounds.classify(51, 26, 8)
    assert [e.to_json() for e in report.entries] == [asdict(e) for e in report.entries]


@pytest.mark.parametrize("n, k, d", [(51, 26, 8), (18, 6, 8), (3000, 10, 2000)])
def test_report_json_value_is_null_only_beyond_float_range(n, k, d):
    report = bounds.classify(n, k, d)
    for name in ("omega_prime_improved", "omega_prime_original"):
        exact = getattr(report, name)
        try:
            value = float(exact)
        except OverflowError:
            value = None
        assert (value is None) == (n == 3000)
        assert report.to_json()["denominators"][name] == {"exact": str(exact), "value": value}


def test_kopt_table_override(tmp_path):
    table = tmp_path / "kopt.txt"
    table.write_text("# residual overrides\n9 6 2\n")
    oracle = bounds.kopt_from_table(table)
    assert oracle(9, 6) == 2
    assert oracle(10, 6) == bounds.default_kopt()(10, 6)
    bad = tmp_path / "bad.txt"
    for content in (b"1 2\n", b"10 4 -3\n", b"9 6 2\n\xff\n", b"9 6 2\n9 6 3\n"):
        bad.write_bytes(content)
        with pytest.raises(ParseError):
            bounds.kopt_from_table(bad)


def test_default_kopt_zero_when_distance_exceeds_length():
    oracle = bounds.default_kopt()
    assert oracle(4, 5) == 0
    assert oracle(0, 1) == 0
    assert oracle(5, 1) == 5


def test_griesmer_sum_tail_and_inverse():
    # once q^i >= d every term is 1
    assert bounds.griesmer_sum(6, 26, 2) == 26 + 13 + 7 + 4 + 2 + 1
    assert bounds.griesmer_sum(9, 26, 2) == 26 + 13 + 7 + 4 + 2 + 1 + 3
    assert bounds.griesmer_sum(0, 26, 2) == 0
    assert bounds.griesmer_sum(4, 1, 4) == 4
    assert bounds.griesmer_inverted_max_k(5, 9, 2) == 0
    assert bounds.griesmer_inverted_max_k(57, 26, 2) == 10
    for d in (0, -2):
        with pytest.raises(ValueError):
            bounds.griesmer_inverted_max_k(15, d, 2)
        with pytest.raises(ValueError):
            bounds.default_kopt()(15, d)


@pytest.mark.parametrize(
    "args", [(0, 6, 6, 2), (15, 0, 6, 2), (15, 6, 0, 2), (15, 6, -2, 2), (15, 6, 6, 0)]
)
def test_classify_below_one_raises_invalid_shape(args):
    with pytest.raises(InvalidShape):
        bounds.classify(*args)


@pytest.mark.parametrize("args", [(15, 16, 3, 2), (15, 6, 20, 2), (3, 4, 4, 2)])
def test_classify_above_n_raises_invalid_shape(args):
    # no [n, k, d] code has k > n or d > n; the parent reported a
    # negative Singleton-like bound for (15, 16, 3) instead
    with pytest.raises(InvalidShape, match="must be <= n"):
        bounds.classify(*args)


def _outcome(func, *args):
    """The value, or the exact type raised."""
    try:
        return "value", func(*args)
    except Exception as exc:  # the exact type is what is compared
        return "raises", type(exc)


def _same(name, *args):
    assert _outcome(getattr(bounds, name), *args) == _outcome(getattr(parent, name), *args)


def test_griesmer_closed_forms_match_the_term_sums_on_a_grid():
    # The locality-aware bound read at its peak tau, and the inverted bound
    # in one pass (0 for n < 0), against the oracle's full sums.
    for q in (2, 4):
        for d in range(1, 41):
            for k in range(1, 21):
                for r in range(1, 5):
                    _same("griesmer_like_min_n", k, d, r, q)
            for n in range(-3, 61):
                _same("griesmer_inverted_max_k", n, d, q)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 150),
    st.integers(1, 150),
    st.integers(1, 150),
    st.integers(1, 5),
    st.sampled_from([2, 4]),
)
def test_public_bounds_match_parent_formulas(n, k, d, r, q):
    _same("singleton_like_max_d", n, k, r)
    _same("griesmer_inverted_max_k", n, d, q)
    _same("cm_bound_max_k", n, d, r)
    _same("griesmer_classical_min_n", k, d, q)
    _same("griesmer_like_min_n", k, d, r, q)
    _same("griesmer_like_max_d", n, k, r, q)
    _same("lrc_ball_size", n, d)
    _same("sphere_packing_like_max_k", n, d)
    _same("johnson_classical_max_k", n, d, q)
    _same("johnson_like_improved_max_k", n, d)
    assert bounds.default_kopt(q)(n, d) == parent.default_kopt(q)(n, d)
    ours = _outcome(lambda: bounds.classify(n, k, d, r).to_json())
    if max(k, d) > n:  # no such code: refused where the parent classified it
        assert ours == ("raises", InvalidShape)
    elif n < r + 1:  # no C-M tau: the cm entry is left out where the parent raised
        assert ours[0] == "value"
        assert "cm" not in [entry["name"] for entry in ours[1]["bounds"]]
    else:
        assert ours == _outcome(lambda: parent.classify(n, k, d, r).to_json())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 80), st.integers(1, 42).map(lambda h: 2 * h))
def test_lrc_classify_matches_parent_formulas(ell, k, d):
    # the LRC shape n = 3*ell with even d, where every packing bound applies;
    # a Singleton-only oracle also checks that kopt is passed through
    n = 3 * ell
    weak = lambda m, e: max(0, m - e + 1)
    for kopt, old_kopt in ((None, None), (weak, weak)):
        ours = _outcome(lambda: bounds.classify(n, k, d, 2, kopt).to_json())
        if max(k, d) > n:  # no such code: refused where the parent classified it
            assert ours == ("raises", InvalidShape)
        else:
            assert ours == _outcome(lambda: parent.classify(n, k, d, 2, old_kopt).to_json())


def test_lrc_packing_bounds_are_outer_bounds_at_half_distance():
    # Omega_d is the GF(4) ball of radius (d/2 - 1)//2 on the ell groups, and
    # the improved Johnson-like denominator is the GF(4) Johnson one at (ell, d/2)
    for ell in range(1, 60):
        for d in range(2, 4 * ell + 1, 2):
            half = d // 2
            assert bounds.lrc_ball_size(ell, d) == parent.lrc_ball_size(ell, d)
            assert parent.lrc_ball_size(ell, d) == bounds.ball_size(ell, (half - 1) // 2, 4)
            if d % 4 == 0:
                _, improved, _ = parent.johnson_like_improved_max_k(3 * ell, d)
                assert improved == bounds.johnson_classical_max_k(ell, half, 4)[1]
