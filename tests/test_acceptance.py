"""Acceptance suite: one test per top-level criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
with timing per criterion.  Every comparison is exact (integer / Fraction
equality); the stated wall-clock limits are asserted after the computation.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import bound_formulas
from gf4lrc import bounds, reproduce
from gf4lrc.code import macwilliams
from gf4lrc.concat import (
    certify_distance,
    concatenate,
    lrc_weights_from_outer,
)
from gf4lrc.errors import AmbiguousDecode
from gf4lrc.families import (
    cap_code,
    cyclic4,
    hamming4,
    hamming4_weights_closed_form,
    hexacode,
    macdonald,
    mds_rs,
    solomon_stiffler,
)
from gf4lrc.gf4 import W, W2
from gf4lrc.matrix import FieldMatrix, rows_rank
from gf4lrc.projective import bundled_cap_pg3_17
from gf4lrc.repair import global_decode
from test_concat import HAMMING_LRC_PARITY


@contextmanager
def criterion(num: int, label: str, limit_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{label}]: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} [{label}]: PASS ({elapsed:.2f}s)")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s >= {limit_s}s"


def test_criterion_01_table1_reproduction():
    with criterion(1, "MDS table reproduction", limit_s=5.0):
        expected = {
            (4, 2): (3, (12, 4, 6)),
            (5, 2): (4, (15, 4, 8)),
            (5, 3): (3, (15, 6, 6)),
            (6, 3): (4, (18, 6, 8)),
        }
        for (n1, k1), (d1, lrc_params) in expected.items():
            outer = mds_rs(n1, k1)
            cert = outer.min_distance()
            # Enumerated only as the smaller side: (5, 3) takes the column search.
            route = "exhaustive" if k1 <= n1 - k1 else "column_dependence"
            assert cert.d == d1 and cert.method == route
            assert outer._min_distance_exhaustive().d == d1
            lrc = concatenate(outer)
            lrc_cert = certify_distance(lrc)
            assert (lrc.n, lrc.k, lrc_cert.d) == lrc_params
            assert bounds.griesmer_like_max_d(lrc.n, lrc.k, 2, 2) == lrc_cert.d


def test_criterion_02_hamming_pipeline():
    with criterion(2, "Hamming-outer pipeline", limit_s=2.0):
        outer = hamming4(2)
        lrc = concatenate(outer)
        cert = certify_distance(lrc)
        assert (lrc.n, lrc.k, cert.d) == (15, 6, 6)
        weights = lrc.code.weight_distribution()
        assert weights.counts == (1, 0, 0, 0, 0, 0, 30, 0, 15, 0, 18, 0, 0, 0, 0, 0)
        assert lrc.code.parity_check == FieldMatrix.from_rows(2, HAMMING_LRC_PARITY)
        report = bounds.classify(lrc.n, lrc.k, cert.d)
        assert report.perfect is True
        assert 2**6 * report.omega == 2**10 and report.omega == 16


def test_criterion_03_closed_form_weights():
    with criterion(3, "transform closed form vs enumeration"):
        outer = hamming4(2)
        lrc = concatenate(outer)
        closed = lrc_weights_from_outer(hamming4_weights_closed_form(2))
        enumerated = lrc.code.weight_distribution()
        for j in range(lrc.n + 1):
            assert closed.counts[j] == enumerated.counts[j]


def test_criterion_04_hexacode_pipeline():
    with criterion(4, "hexacode pipeline", limit_s=2.0):
        outer = hexacode()
        lrc = concatenate(outer)
        cert = certify_distance(lrc)
        assert (lrc.n, lrc.k, cert.d) == (18, 6, 8)
        weights = lrc.code.weight_distribution()
        expected = [0] * 19
        expected[0], expected[8], expected[12] = 1, 45, 18
        assert weights.counts == tuple(expected)
        report = bounds.classify(lrc.n, lrc.k, cert.d)
        assert report.nearly_perfect is True
        assert report.omega_prime_improved == Fraction(64)
        assert 2**6 * (19 + 45) == 2**12 and report.omega == 19


def test_criterion_05_cap_pipeline():
    with criterion(5, "17-cap pipeline", limit_s=10.0):
        cap = bundled_cap_pg3_17()
        assert cap.size() == 17
        triples = 0
        for triple in itertools.combinations(cap.points, 3):
            assert FieldMatrix.from_rows(4, [list(p) for p in triple]).rref()[1] == 3
            triples += 1
        assert triples == 680
        outer = cap_code(cap)
        assert (outer.n, outer.k, outer.min_distance().d) == (17, 13, 4)
        lrc = concatenate(outer)
        cert = certify_distance(lrc)
        assert (lrc.n, lrc.k, cert.d) == (51, 26, 8)
        # every 3-group subset spans dimension 6; the witness exhibits a
        # deficient 4-subset as a weight-8 codeword across 4 groups
        for subset in itertools.combinations(range(lrc.ell), 3):
            vecs = [v for i in subset for v in lrc.e_vectors[i]]
            assert rows_rank(2, vecs, lrc.u) == 6
        touched_groups = {
            i for i, g in enumerate(lrc.groups) if any(cert.witness[p] for p in g)
        }
        assert len(touched_groups) == 4
        k_bound, omega_prime, _ = bounds.johnson_like_improved_max_k(51, 8)
        assert omega_prime == Fraction(205)
        assert 2 * lrc.n // 3 - lrc.k == 8 == bounds.ceil_log(2, omega_prime)
        assert k_bound == lrc.k


def test_criterion_06_cyclic_pipeline():
    with criterion(6, "cyclic [43,36] pipeline", limit_s=60.0):
        gen_poly = [1, 0, W2, 1, 1, W, 0, 1]
        outer = cyclic4(43, gen_poly)
        assert (outer.n, outer.k) == (43, 36)
        cert = outer.min_distance(budget=1 << 22)
        assert cert.d == 5 and cert.method == "column_dependence"
        k_bound, o_d = bounds.sphere_packing_classical_max_k(43, 5, 4)
        assert o_d == 8257 and 2**13 < o_d <= 2**14
        assert k_bound == 36 == outer.k
        lrc = concatenate(outer)
        assert (lrc.n, lrc.k, lrc.d) == (129, 72, 10)
        omega = bounds.lrc_ball_size(43, 10)
        assert omega == 8257 and bounds.ceil_log(2, omega) == 14
        assert 2 * lrc.n // 3 - bounds.ceil_log(2, omega) == lrc.k


def test_criterion_07_group_rank_oracle_equivalence(outer_corpus):
    with criterion(7, "group-rank distance vs exhaustive"):
        assert len(outer_corpus) >= 200
        disagreements = 0
        for outer in outer_corpus:
            lrc = concatenate(outer)
            if certify_distance(lrc).d != lrc.code.weight_distribution().distance():
                disagreements += 1
        assert disagreements == 0


def test_criterion_08_weight_map(outer_corpus):
    with criterion(8, "weight map over random corpus"):
        for outer in outer_corpus:
            assert 4**outer.k <= 2**16
            lrc = concatenate(outer)
            lifted = lrc_weights_from_outer(outer.weight_distribution())
            assert lrc.code.weight_distribution() == lifted


def test_criterion_09_macwilliams_involution(outer_corpus):
    with criterion(9, "dual-transform involution"):
        for outer in outer_corpus:
            dual = outer.dual()
            transformed = macwilliams(
                dual.weight_distribution(), 4**dual.k, outer.n, 4
            )
            assert transformed.counts == outer.weight_distribution().counts


def test_criterion_10_bound_dominance_grid():
    with criterion(10, "improved bound dominates on grid"):
        for ell in range(2, 101):
            n = 3 * ell
            for d in range(4, 2 * ell + 1, 4):
                k_imp, improved, original = bounds.johnson_like_improved_max_k(n, d)
                # larger denominator means a smaller bound value
                assert improved >= original
                assert k_imp <= 2 * n // 3 - bounds.ceil_log(2, original)
        k_imp, improved, original = bounds.johnson_like_improved_max_k(75, 12)
        assert k_imp == 36
        k_orig = 2 * 75 // 3 - bounds.ceil_log(2, original)
        assert k_orig == 37 and k_imp < k_orig
        item = reproduce.run(["example6.3"])[0]
        assert item.status == reproduce.NOTED
        assert item.computed["printed_improved_denominator"] == "65927/2"  # 32963.5
        assert item.computed["group_count_reading"]["improved_denominator"] == "21077/2"


def test_criterion_11_griesmer_equalities():
    with criterion(11, "Griesmer-meeting constructions", limit_s=5.0):
        # (outer, its [n1,k1,d1]_4, the LRC's [n,k,d;2], whether the LRC meets
        # the locality-aware Griesmer bound with equality)
        cases = [
            (macdonald(3, 1, 1), (20, 3, 15), (60, 6, 30), True),
            (solomon_stiffler(3, [2]), (16, 3, 12), (48, 6, 24), True),
            (solomon_stiffler(3, [2, 1]), (15, 3, 11), (45, 6, 22), True),
            (solomon_stiffler(3, [1, 1, 1]), (18, 3, 13), (54, 6, 26), False),
            (solomon_stiffler(3, [1, 1]), (19, 3, 14), (57, 6, 28), False),
        ]
        for outer, outer_params, lrc_params, meets in cases:
            n1, k1, d1 = outer_params
            cert = outer.min_distance()
            assert (outer.n, outer.k, cert.d) == outer_params
            assert cert.method == "exhaustive"  # brute force over 4^3 codewords
            # Griesmer-meeting over GF(4)
            assert outer.n == bounds.griesmer_classical_min_n(k1, d1, 4)
            lrc = concatenate(outer)
            lrc_cert = lrc.code._min_distance_exhaustive()  # 2^6 codewords
            assert (lrc.n, lrc.k, lrc_cert.d) == lrc_params
            assert bounds.griesmer_like_max_d(lrc.n, lrc.k, 2, 2) == lrc_cert.d
            # the locality-aware Griesmer bound is largest at tau = k1 - l,
            # where 4^(l-1) < d1 <= 4^l, and falls short of 3*n1 there by
            # the sum over 1 <= j < l of 2*ceil(d1/4^j) - ceil(2*d1/4^j)
            level = bounds.ceil_log(4, d1)
            tau_star = k1 - level
            terms = dict(bound_formulas.griesmer_like_terms(lrc.k, lrc_cert.d, 2, 2))
            assert terms[tau_star] == max(terms.values())
            assert bounds.griesmer_like_min_n(lrc.k, lrc_cert.d, 2, 2) == terms[tau_star]
            shortfall = sum(
                2 * -(-d1 // 4**j) - -(-2 * d1 // 4**j) for j in range(1, level)
            )
            assert lrc.n - terms[tau_star] == shortfall
            # so equality holds exactly when d1 mod 4^j is 0 or above 4^j/2
            # for every 1 <= j < l
            closed_form = all(
                d1 % 4**j == 0 or d1 % 4**j > 4**j // 2 for j in range(1, level)
            )
            assert closed_form is meets
            assert (terms[tau_star] == lrc.n) is meets, (
                f"[{lrc.n},{lrc.k},{lrc_cert.d};2]: locality-aware Griesmer "
                f"value at tau={tau_star} is {terms[tau_star]}; "
                f"equality expected: {meets}"
            )
        # The [54,6,26;2] code misses the bound by one: 13 mod 4 = 1, and both
        # the locality-aware (tau = 1) and the classical binary Griesmer sums
        # give 53, so no [54,6,26] code of any construction meets either with
        # equality.  It is still d-optimal: d = 27 needs 55 > 54 coordinates.
        assert bounds.griesmer_like_min_n(6, 26, 2, 2) == 3 + 26 + 13 + 7 + 4 < 54
        assert bounds.griesmer_classical_min_n(6, 26, 2) == 26 + 13 + 7 + 4 + 2 + 1
        assert bounds.griesmer_like_max_d(54, 6, 2, 2) == 26
        assert bounds.griesmer_classical_min_n(6, 27, 2) == 27 + 14 + 7 + 4 + 2 + 1 > 54
        # likewise [57,6,28;2] (14 mod 4 = 2, not above 2): the bound is 56
        assert bounds.griesmer_like_min_n(6, 28, 2, 2) == 3 + 28 + 14 + 7 + 4 < 57
        assert bounds.griesmer_classical_min_n(6, 28, 2) == 28 + 14 + 7 + 4 + 2 + 1


def test_criterion_12_repair_simulator():
    with criterion(12, "repair on the [15,6,6;2] code", limit_s=10.0):
        lrc = concatenate(hamming4(2))
        codeword = lrc.code.encode([1, 0, 1, 1, 0, 1])
        for pos in range(15):
            word = list(codeword)
            word[pos] = None
            out = global_decode(lrc, word)
            assert out.word == codeword
            assert out.methods[pos] == "local" and out.accessed[pos] == 2
        decoded = 0
        for pattern in itertools.combinations(range(15), 5):
            word = list(codeword)
            for p in pattern:
                word[p] = None
            out = global_decode(lrc, word)
            assert out.word == codeword
            decoded += 1
        assert decoded == 3003
        support = [i for i, v in enumerate(lrc.code.min_distance().witness) if v]
        assert len(support) == 6
        word = list(codeword)
        for p in support:
            word[p] = None
        with pytest.raises(AmbiguousDecode):
            global_decode(lrc, word)
