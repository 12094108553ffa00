"""The dependent-set engine against the searches it replaced.

``reference_certify`` is the former group-rank certifier (every group subset
in lexicographic order, rank recomputed from scratch, witness from a
nullspace) and ``reference_columns`` the former GF(4)-scalar elimination DFS
of ``LinearCode._min_distance_columns``, its budget now counted in the
engine's unit: one per full-size set examined.  Both return the certificate
together with the number of sets they examined, so every budget boundary
can be checked.
"""

import math
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_code_corpus
from inner_code import g_unmap
from scalar_elimination import col_tuple, gf4_inv, leading_column, row_entry
from gf4lrc import gf4
from gf4lrc.code import METHOD_COLUMN, METHOD_GROUP_RANK, DistanceCertificate, LinearCode
from gf4lrc.concat import certify_distance, concatenate
from gf4lrc.errors import BudgetExceeded, SubsetBudgetExceeded
from gf4lrc.matrix import (
    FieldMatrix,
    lo_mask,
    pack_row,
    rows_rank,
    scale_row,
    smallest_dependent_set,
    unpack_row,
)

UNLIMITED = 10**9


def _nullspace_mask(vecs, nbits):
    """Row 0 of the nullspace of the matrix with columns vecs, as a mask."""
    cols = [unpack_row(2, v, nbits) for v in vecs]
    kernel = FieldMatrix.from_cols(2, cols).nullspace()
    return pack_row(2, kernel.row_tuple(0))


def reference_dependent_set(blocks, budget, start=1):
    examined = 0
    nbits = max([v.bit_length() for b in blocks for v in b] + [1])
    for s in range(start, len(blocks) + 1):
        for subset in combinations(range(len(blocks)), s):
            examined += 1
            if examined > budget:
                raise BudgetExceeded("", lower=s)
            vecs = [v for i in subset for v in blocks[i]]
            if rows_rank(2, vecs, nbits) < len(vecs):
                return (subset, _nullspace_mask(vecs, nbits)), examined
    return None, examined


def reference_certify(lrc, budget):
    pairs = lrc.e_vectors
    examined = 0
    for s in range(1, lrc.ell + 1):
        for subset in combinations(range(lrc.ell), s):
            examined += 1
            if examined > budget:
                raise SubsetBudgetExceeded("", lower=2 * s)
            vecs = [v for i in subset for v in pairs[i]]
            if rows_rank(2, vecs, lrc.u) < 2 * s:
                cols = [unpack_row(2, e, lrc.u) for i in subset for e in pairs[i]]
                coeffs = FieldMatrix.from_cols(2, cols).nullspace().row_tuple(0)
                word = [0] * lrc.n
                pair_to_positions = {1: (0, 1), gf4.W: (0, 2), gf4.W2: (1, 2)}
                for j, i in enumerate(subset):
                    alpha = g_unmap((coeffs[2 * j], coeffs[2 * j + 1]))
                    for pos in pair_to_positions[alpha]:
                        word[lrc.groups[i][pos]] = 1
                cert = DistanceCertificate(2 * s, tuple(word), METHOD_GROUP_RANK)
                return cert, examined
    raise AssertionError("no deficient group subset")


def reference_columns(code: LinearCode, budget):
    q, n = code.q, code.n
    h = code.parity_check
    cols = [pack_row(q, col_tuple(h, j)) for j in range(n)]
    lo = lo_mask(h.nrows) if q == 4 else None
    examined = 0

    def dfs(w, start, depth, basis, chosen):
        nonlocal examined
        for idx in range(start, n - (w - depth) + 1):
            if depth + 1 == w:
                examined += 1
                if examined > budget:
                    raise BudgetExceeded("", lower=w)
            r = cols[idx]
            for pos, prow in basis:
                e = row_entry(q, r, pos)
                if e:
                    r ^= scale_row(q, prow, e, lo)
            if r == 0:
                chosen.append(idx)
                return True
            if depth + 1 < w:
                pos = leading_column(q, r, lo)
                lead = row_entry(q, r, pos)
                if lead != 1:
                    r = scale_row(q, r, gf4_inv(lead), lo)
                basis.append((pos, r))
                chosen.append(idx)
                if dfs(w, idx + 1, depth + 1, basis, chosen):
                    return True
                basis.pop()
                chosen.pop()
        return False

    for w in range(1, n + 1):
        chosen: list[int] = []
        if dfs(w, 0, 0, [], chosen):
            sub = FieldMatrix.from_cols(q, [col_tuple(h, j) for j in chosen])
            coeffs = sub.nullspace().row_tuple(0)
            word = [0] * n
            for j, c in zip(chosen, coeffs):
                word[j] = c
            return DistanceCertificate(len(chosen), tuple(word), METHOD_COLUMN), examined
    raise AssertionError("no dependent column set")


def _check_budgets(run, reference, examined):
    """``run(B)`` raises exactly when ``reference(B)`` does, with its lower."""
    for budget in range(examined + 1):
        try:
            expected = reference(budget)[0]
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded) as got:
                run(budget)
            assert got.value.lower == exc.lower
            assert got.value.upper is None
        else:
            assert budget == examined
            assert run(budget) == expected


blocks_lists = st.integers(1, 2).flatmap(
    lambda width: st.lists(
        st.tuples(*[st.integers(0, 63)] * width), min_size=1, max_size=7
    )
)


@settings(max_examples=150, deadline=None)
@given(blocks_lists)
def test_engine_matches_subset_loop_on_random_blocks(blocks):
    expected, examined = reference_dependent_set(blocks, UNLIMITED)
    assert smallest_dependent_set(blocks, UNLIMITED) == expected
    _check_budgets(
        lambda b: smallest_dependent_set(blocks, b),
        lambda b: reference_dependent_set(blocks, b),
        examined,
    )


@settings(max_examples=150, deadline=None)
@given(blocks_lists)
def test_a_later_start_finds_the_same_set_and_spends_only_its_sizes(blocks):
    found, _ = reference_dependent_set(blocks, UNLIMITED)
    size = len(found[0]) if found is not None else len(blocks)
    for start in range(1, size + 1):
        assert smallest_dependent_set(blocks, UNLIMITED, start=start) == found
        _, examined = reference_dependent_set(blocks, UNLIMITED, start)
        _check_budgets(
            lambda b: smallest_dependent_set(blocks, b, start=start),
            lambda b: reference_dependent_set(blocks, b, start),
            examined,
        )
        for budget in range(examined):
            with pytest.raises(BudgetExceeded) as exc:
                smallest_dependent_set(blocks, budget, start=start)
            assert exc.value.lower >= start


@st.composite
def codes(draw, q):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    gen = FieldMatrix.from_rows(q, draw(st.lists(row, min_size=k, max_size=k)))
    assume(rows_rank(q, gen.rows, n) == k)
    return LinearCode.from_generator(gen)


@settings(max_examples=60, deadline=None)
@given(st.one_of(codes(2), codes(4)))
def test_column_search_matches_reference_dfs(code):
    expected, examined = reference_columns(code, UNLIMITED)
    assert code._min_distance_columns(UNLIMITED) == expected
    _check_budgets(
        code._min_distance_columns, lambda b: reference_columns(code, b), examined
    )


@settings(max_examples=60, deadline=None)
@given(codes(4))
def test_certifier_matches_reference_subset_loop(outer):
    lrc = concatenate(outer)
    expected, examined = reference_certify(lrc, UNLIMITED)
    assert certify_distance(lrc) == expected
    _check_budgets(
        lambda b: certify_distance(lrc, b), lambda b: reference_certify(lrc, b), examined
    )


@settings(max_examples=60, deadline=None)
@given(codes(4))
def test_certifier_started_at_half_the_distance_gives_the_same_certificate(outer):
    lrc = concatenate(outer)
    cert = certify_distance(lrc)
    assert certify_distance(lrc, start=cert.d // 2) == cert
    _, examined = reference_certify(lrc, UNLIMITED)
    skipped = sum(math.comb(lrc.ell, s) for s in range(1, cert.d // 2))
    with pytest.raises(SubsetBudgetExceeded) as exc:
        certify_distance(lrc, examined - skipped - 1, start=cert.d // 2)
    assert exc.value.lower == cert.d
    assert certify_distance(lrc, examined - skipped, start=cert.d // 2) == cert


@settings(max_examples=80, deadline=None)
@given(st.one_of(codes(2), codes(4)))
def test_plain_column_search_from_any_start_up_to_d_gives_the_same_certificate(code):
    """A budget below q^k sends a low-rate code to the column search too."""
    high_rate = code.k > code.n - code.k
    budget = UNLIMITED if high_rate else code.codeword_count() - 1
    d = code._min_distance_exhaustive().d
    try:
        cert = LinearCode(code.generator, code.parity_check).min_distance(budget)
    except BudgetExceeded as exc:
        assert not high_rate and exc.lower <= d
        return
    assert cert.method == METHOD_COLUMN and cert.d == d
    for start in range(1, d + 1):
        fresh = LinearCode(code.generator, code.parity_check)
        assert fresh._min_distance_columns(budget, start) == cert


def test_engines_match_references_on_code_corpora():
    for q in (2, 4):
        for code in random_code_corpus(seed=2605 + q, count=40, max_n=10, max_k=5, q=q):
            assert code._min_distance_columns(UNLIMITED) == reference_columns(code, UNLIMITED)[0]
            if q == 4:
                lrc = concatenate(code)
                assert certify_distance(lrc) == reference_certify(lrc, UNLIMITED)[0]


def test_engine_basic_cases():
    assert smallest_dependent_set([], 5) is None
    assert smallest_dependent_set([(1,), (2,), (4,)], 7) is None
    assert smallest_dependent_set([(1,), (0,)], 2) == ((1,), 0b1)
    assert smallest_dependent_set([(1,), (2,), (3,)], 7) == ((0, 1, 2), 0b111)
    # the spans of blocks 0 and 2 share 3 = 1 ^ 2
    assert smallest_dependent_set([(1, 2), (4, 8), (3, 12)], 5) == ((0, 2), 0b111)
    for budget, lower in ((2, 1), (5, 2), (6, 3)):
        with pytest.raises(BudgetExceeded) as exc:
            smallest_dependent_set([(1,), (2,), (3,)], budget)
        assert exc.value.lower == lower
