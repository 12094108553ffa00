import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permuted_hamming_lrc, random_code_corpus, random_linear_code, walked
from inner_code import INNER, encode_outer_word, reference_concatenate
from scalar_elimination import col_tuple
from gf4lrc import code as code_module
from gf4lrc import concat as concat_module
from gf4lrc import gf4
from gf4lrc import matrix as matrix_module
from gf4lrc.code import METHOD_COLUMN, METHOD_EXHAUSTIVE, LinearCode
from gf4lrc.concat import (
    BinaryLrc,
    certify_distance,
    concatenate,
    group_bases,
    locality_check,
    lrc_weights_from_outer,
)
from gf4lrc.errors import FieldMismatch, ParseError, RankDeficient, SubsetBudgetExceeded
from gf4lrc.families import (
    cap_code,
    cyclic4,
    hamming4,
    hexacode,
    macdonald,
    mds_rs,
    solomon_stiffler,
)
from gf4lrc.matrix import FieldMatrix, pack_row, unpack_row
from gf4lrc.projective import bundled_cap_pg3_17

W, W2 = gf4.W, gf4.W2

# the published 9x15 parity check of the Hamming-code concatenation
HAMMING_LRC_PARITY = [
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0],
]

# the published 12x18 parity check of the hexacode concatenation
HEXACODE_LRC_PARITY = [
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1],
]


def test_inner_code_context():
    g_in = FieldMatrix.from_rows(2, [list(r) for r in INNER.generator])
    q_mat = FieldMatrix.from_rows(2, [list(r) for r in INNER.right_inverse])
    assert q_mat.mat_mul(g_in.transpose()) == FieldMatrix.identity(2, 2)
    assert INNER.encode_symbol(0) == (0, 0, 0)
    for a in gf4.NONZERO:
        word = INNER.encode_symbol(a)
        assert sum(word) == 2
        # inner codeword: orthogonal to the all-ones parity
        assert word[0] ^ word[1] ^ word[2] == 0


def test_concatenate_hamming_matches_published_parity():
    lrc = concatenate(hamming4(2))
    assert (lrc.n, lrc.k, lrc.d) == (15, 6, 6)
    assert lrc.code.parity_check == FieldMatrix.from_rows(2, HAMMING_LRC_PARITY)


def test_concatenate_hexacode_matches_published_parity():
    lrc = concatenate(hexacode())
    assert (lrc.n, lrc.k, lrc.d) == (18, 6, 8)
    assert lrc.code.parity_check == FieldMatrix.from_rows(2, HEXACODE_LRC_PARITY)


def test_concatenate_trivial_outer():
    lrc = concatenate(mds_rs(4, 4))
    assert (lrc.n, lrc.k, lrc.d) == (12, 8, 2)
    assert certify_distance(lrc).d == 2


def test_concatenate_rejects_binary_outer():
    binary = LinearCode.from_generator(FieldMatrix.from_rows(2, [[1, 1, 1]]))
    with pytest.raises(FieldMismatch):
        concatenate(binary)


def test_codewords_are_symbolwise_inner_encodings():
    outer = hexacode()
    lrc = concatenate(outer)
    bit_rows = outer.bit_rows
    for m in range(outer.codeword_count()):
        gray = m ^ (m >> 1)
        packed = 0
        for b in range(2 * outer.k):
            if (gray >> b) & 1:
                packed ^= bit_rows[b]
        word = tuple((packed >> (2 * j)) & 3 for j in range(outer.n))
        assert lrc.code.contains(encode_outer_word(word))


def _group_subspaces(lrc):
    """``group_bases``, each vector unpacked to its u bits."""
    return [[unpack_row(2, v, lrc.u) for v in basis] for basis in group_bases(lrc)]


def test_group_subspaces_full_rank_for_hexacode():
    lrc = concatenate(hexacode())
    assert [len(b) for b in _group_subspaces(lrc)] == [2] * 6


def test_group_subspace_collapses_on_zero_parity_column():
    # outer code containing the weight-1 word (1, 0): its parity column at
    # coordinate 0 is zero, so that group's subspace is trivial
    outer = LinearCode.from_generator(FieldMatrix.from_rows(4, [[1, 0]]))
    assert col_tuple(outer.parity_check, 0) == (0,)
    lrc = concatenate(outer)
    dims = [len(b) for b in _group_subspaces(lrc)]
    assert dims[0] == 0 and dims[1] == 2
    assert certify_distance(lrc).d == 2


def test_group_subspaces_match_published_first_group():
    lrc = concatenate(hamming4(2))
    bases = _group_subspaces(lrc)
    assert bases[0] == [(1, 0, 0, 0), (0, 1, 0, 0)]


def test_certified_distances():
    assert certify_distance(concatenate(hamming4(2))).d == 6
    assert certify_distance(concatenate(hexacode())).d == 8
    assert certify_distance(concatenate(cap_code(bundled_cap_pg3_17()))).d == 8


def test_certificate_witness_weight_and_membership():
    lrc = concatenate(hexacode())
    cert = certify_distance(lrc)
    assert sum(cert.witness) == cert.d
    assert lrc.code.contains(cert.witness)
    assert cert.method == "group_rank"


def test_certify_matches_exhaustive_on_random_outers():
    for outer in random_code_corpus(seed=424242, count=60, max_n=8, max_k=4):
        lrc = concatenate(outer)
        assert certify_distance(lrc).d == lrc.code.weight_distribution().distance()


def test_certify_budget():
    lrc = concatenate(cap_code(bundled_cap_pg3_17()))
    with pytest.raises(SubsetBudgetExceeded) as exc_info:
        certify_distance(lrc, subset_budget=20)
    assert exc_info.value.lower >= 2


def test_weight_map_hamming_and_hexacode():
    for outer in (hamming4(2), hexacode()):
        lifted = lrc_weights_from_outer(outer.weight_distribution())
        assert concatenate(outer).code.weight_distribution() == lifted


def test_weight_map_zero_dimensional_outer():
    gen = FieldMatrix(4, 0, 3, [])
    outer = LinearCode.from_generator(gen)
    lrc = concatenate(outer)
    assert outer.weight_distribution().counts == (1, 0, 0, 0)
    assert lrc.code.weight_distribution().counts == (1,) + (0,) * 9
    assert lrc.code.weight_distribution() == lrc_weights_from_outer(outer.weight_distribution())


def test_lrc_weights_from_outer():
    wd = hexacode().weight_distribution()
    lifted = lrc_weights_from_outer(wd)
    assert lifted.n == 18 and lifted.k == 6 and lifted.q == 2
    assert lifted.counts[8] == 45 and lifted.counts[12] == 18
    assert all(lifted.counts[i] == 0 for i in range(1, 19, 2))


def test_locality_single_parity_code():
    code = LinearCode.from_generator(
        FieldMatrix.from_rows(2, [[1, 0, 1], [0, 1, 1]])
    )
    report = locality_check(code, 2)
    assert report.ok
    assert all(c == (1, 1, 1) for c in report.covering)


def test_locality_structural_for_lrc():
    lrc = concatenate(hamming4(2))
    report = locality_check(lrc, 2)
    assert report.ok and report.uncovered() == []
    for pos in range(lrc.n):
        assert sum(report.covering[pos]) == 3


def test_locality_repetition_code_r1():
    code = LinearCode.from_generator(FieldMatrix.from_rows(2, [[1, 1, 1]]))
    report = locality_check(code, 1)
    assert report.ok
    assert all(sum(c) == 2 for c in report.covering)


def test_locality_uncovered_coordinates():
    # [3,2,2] parity code has no dual word of weight <= 2
    code = LinearCode.from_generator(
        FieldMatrix.from_rows(2, [[1, 0, 1], [0, 1, 1]])
    )
    report = locality_check(code, 1)
    assert not report.ok
    assert report.uncovered() == [0, 1, 2]


def test_every_concatenation_has_locality_2(outer_corpus):
    for outer in outer_corpus[:40]:
        assert locality_check(concatenate(outer), 2).ok


def test_lrc_json_round_trip():
    lrc = concatenate(hexacode())
    obj = json.loads(json.dumps(lrc.to_json()))
    again = BinaryLrc.from_json(obj)
    assert again.code.parity_check == lrc.code.parity_check
    assert again.groups == lrc.groups
    assert again.e_vectors == lrc.e_vectors
    assert again.d == lrc.d


def test_lrc_json_groups_must_partition_the_coordinates():
    obj = concatenate(hamming4(2)).to_json()
    obj["groups"][1] = list(obj["groups"][0])
    with pytest.raises(ParseError):
        BinaryLrc.from_json(obj)


@pytest.fixture(scope="module")
def family_outers():
    return [
        mds_rs(4, 4),
        mds_rs(5, 3),
        hamming4(2),
        hamming4(3),
        hexacode(),
        macdonald(3, 1, 1),
        solomon_stiffler(3, [2, 1]),
        cap_code(bundled_cap_pg3_17()),
        cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1]),
    ]


def test_concatenate_matches_tuple_assembly(outer_corpus, family_outers):
    for outer in outer_corpus + family_outers:
        parity, groups, d, e_vectors = reference_concatenate(outer)
        lrc = concatenate(outer)
        assert lrc.code.parity_check == parity
        assert lrc.groups == groups
        assert lrc.d == d
        assert lrc.e_vectors == tuple(
            (pack_row(2, e1), pack_row(2, e2)) for e1, e2 in e_vectors
        )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_a_concatenations_dual_rows_are_its_outer_check_rows(seed, data):
    """Lower row t of the concatenation, group i's 2nd and 3rd bits at 2i
    and 2i+1, is bit t of the reference pairs (e1, e2) of the outer H's
    column i; those rows are the outer ``check_rows``, and the pairs are
    their columns."""
    n1 = data.draw(st.integers(1, 9), label="n1")
    k1 = data.draw(st.integers(1, n1), label="k1")
    outer = random_linear_code(random.Random(seed), 4, n1, k1)
    lrc = concatenate(outer)
    pairs = reference_concatenate(outer)[3]
    rows = tuple(
        sum(e1[t] << 2 * i | e2[t] << 2 * i + 1 for i, (e1, e2) in enumerate(pairs))
        for t in range(lrc.u)
    )
    assert lrc.dual_rows == rows == tuple(outer.check_rows)
    columns = [pack_row(2, e) for pair in pairs for e in pair]
    assert lrc.e_vectors == tuple(zip(columns[::2], columns[1::2]))
    packed = [v for pair in lrc.e_vectors for v in pair]
    assert FieldMatrix(2, 2 * n1, lrc.u, packed).transpose().rows == lrc.dual_rows


def test_a_loaded_lrc_weighs_its_dual_rows_and_builds_no_columns(monkeypatch):
    """Loading gathers H's lower rows with no transpose, and the weights walk
    them with none but the walk's own; neither they nor the structural
    locality builds H's 3*ell columns."""
    outer = cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1])
    obj = json.loads(json.dumps(concatenate(outer).to_json()))
    calls = []
    real_transpose = FieldMatrix.transpose
    monkeypatch.setattr(
        FieldMatrix, "transpose", lambda m: calls.append(m.nrows) or real_transpose(m)
    )
    lrc = BinaryLrc.from_json(obj)
    assert calls == []
    weights = lrc.cheapest_weights()
    assert calls == [lrc.u]  # the walk's step rows, one column per bit
    assert locality_check(lrc, 2).ok
    assert "code" not in vars(lrc) and "e_vectors" not in vars(lrc)
    assert weights == lrc_weights_from_outer(outer.cheapest_weights())


def test_a_concatenation_holds_the_outer_check_rows_and_ranks_nothing(
    monkeypatch, outer_corpus, family_outers
):
    """Every ``LinearCode`` has an H of full rank, so the LRC's H has one
    too, and ``concatenate`` ranks nothing."""
    calls = []
    real_rank, real_transpose = code_module.rows_rank, FieldMatrix.transpose

    def counted(q, rows, ncols):
        calls.append((q, len(rows), ncols))
        return real_rank(q, rows, ncols)

    def forbidden(*args):
        raise AssertionError("from_parity ran")

    for module in (concat_module, code_module):
        monkeypatch.setattr(module, "rows_rank", counted)
    monkeypatch.setattr(FieldMatrix, "transpose", lambda m: calls.append("T") or real_transpose(m))
    monkeypatch.setattr(LinearCode, "from_parity", classmethod(forbidden))
    for built in outer_corpus + family_outers:
        outer = LinearCode(built.generator, built.parity_check)  # no certificate to carry
        calls.clear()
        lrc = concatenate(outer)
        assert calls == []
        assert lrc.dual_rows == tuple(outer.check_rows)
        assert "code" not in vars(lrc)
        # H's rows, read later, are derived by one transpose.
        assert lrc.code.parity_check == reference_concatenate(outer)[0]
        assert calls == ["T"]


def test_an_outer_code_with_a_dependent_parity_check_is_refused():
    # G H^T = 0 and H has n - k rows, but its rows span only one dimension:
    # the constructor refuses it, so no such outer code reaches concatenate.
    generator = FieldMatrix.from_rows(4, [[1, 0, 0]])
    for h_rows in ([[0, 1, 0], [0, W, 0]], [[0, 1, W], [0, 0, 0]]):
        with pytest.raises(RankDeficient, match="^parity-check rows are linearly dependent$"):
            LinearCode(generator, FieldMatrix.from_rows(4, h_rows))


def test_a_concatenation_weighs_its_outer_code_lifted_after_a_json_round_trip(
    outer_corpus, family_outers
):
    for outer in outer_corpus + family_outers:
        lrc = concatenate(outer)
        again = BinaryLrc.from_json(json.loads(json.dumps(lrc.to_json())))
        assert again.e_vectors == lrc.e_vectors
        # The loaded LRC carries nothing of the outer code: it walks P.
        got, walks = walked(again.cheapest_weights)
        assert len(walks) == 1
        assert got == lrc_weights_from_outer(outer.cheapest_weights())


def test_a_concatenation_carries_its_outer_weights_and_walk_lifted(outer_corpus, family_outers):
    """What an outer code has cached is its pair code's: the weights, which
    ``concatenate`` lifts, and, when k <= u, the walk of the outer code
    itself, whose first word of weight d/2 lifts to a witness.  An outer
    code with nothing cached gives a concatenation that walks P itself."""
    for outer in outer_corpus + family_outers:
        uncached = concatenate(LinearCode(outer.generator, outer.parity_check))
        expected, walks = walked(uncached.cheapest_weights)
        assert len(walks) == 1
        outer.cheapest_weights()
        lrc = concatenate(outer)
        got, walks = walked(lrc.cheapest_weights)
        assert walks == [] and got == expected
        if lrc.k <= lrc.u:
            cert, walks = walked(lambda: lrc.min_distance(subset_budget=0))
            assert walks == [] and cert.method == METHOD_EXHAUSTIVE
            assert cert.d == expected.distance() == sum(cert.witness)
            assert lrc.code.contains(cert.witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_a_carried_certificate_is_the_loaded_lrcs_group_search(seed, data):
    """An outer code with k1 > n1 - k1 is certified by the column search.
    Its concatenation carries that certificate, lifted, and it is the group
    search from 1 group of the same LRC loaded back from its JSON: the same
    d, witness and method."""
    n = data.draw(st.integers(2, 9), label="n1")
    k = data.draw(st.integers(n // 2 + 1, n), label="k1")
    outer = random_linear_code(random.Random(seed), 4, n, k)
    assert outer.min_distance().method == METHOD_COLUMN
    lrc = concatenate(outer)
    loaded = BinaryLrc.from_json(json.loads(json.dumps(lrc.to_json())))
    assert lrc.min_distance() == certify_distance(loaded)


def test_a_family_lrc_searches_only_where_its_outer_code_enumerated(monkeypatch, family_outers):
    """A concatenation of a column-certified outer code runs no group search;
    one of an enumerated outer code searches from d/2 groups.  Either way the
    certificate is the loaded LRC's group search from 1 group."""
    searched = []
    certify = concat_module.certify_distance

    def recorded(lrc, *args, **kwargs):
        searched.append(lrc)
        return certify(lrc, *args, **kwargs)

    monkeypatch.setattr(concat_module, "certify_distance", recorded)
    methods = set()
    for built in family_outers:
        outer = LinearCode(built.generator, built.parity_check)  # no certificate to carry
        methods.add(outer.min_distance().method)
        lrc = concatenate(outer)
        searched.clear()
        cert = lrc.min_distance()
        assert searched == ([] if outer.cached_distance.method == METHOD_COLUMN else [lrc])
        loaded = BinaryLrc.from_json(json.loads(json.dumps(lrc.to_json())))
        assert cert == certify(loaded)
    assert methods == {METHOD_COLUMN, METHOD_EXHAUSTIVE}


def _with_group_reordered(obj, i, order):
    obj = dict(obj)
    obj["groups"] = [list(g) for g in obj["groups"]]
    obj["groups"][i] = [obj["groups"][i][p] for p in order]
    return obj


def test_a_swapped_group_keeps_the_weights_of_its_code():
    # Listing (a, c, b) makes the group's pair (w*h, h), which is not of
    # the form (h', w*h'), so the pair code is no longer the outer code;
    # the symbol weights, and so the LRC's weights, stay the same.
    lrc = concatenate(hamming4(2))
    swapped = BinaryLrc.from_json(_with_group_reordered(lrc.to_json(), 2, (0, 2, 1)))
    assert swapped.e_vectors[2] == lrc.e_vectors[2][::-1]
    assert swapped.cheapest_weights() == lrc.cheapest_weights()
    assert swapped.cheapest_weights() == lrc.code.weight_distribution()


def _words_to_check(lrc, rng):
    """Codewords of ``lrc`` (every one when k <= 8, else 64 at random), each
    also with one group's first bit flipped, and 64 random bit lists."""
    h = lrc.code
    if lrc.k <= 8:
        messages = itertools.product((0, 1), repeat=lrc.k)
    else:
        messages = [[rng.randrange(2) for _ in range(lrc.k)] for _ in range(64)]
    words = []
    for message in messages:
        word = list(h.encode(message))
        words.append(word)
        flipped = list(word)
        flipped[rng.choice(lrc.groups)[0]] ^= 1  # breaks a parity, keeps the pair word
        words.append(flipped)
    words += [[rng.randrange(2) for _ in range(lrc.n)] for _ in range(64)]
    return words


def _reordered_lrcs():
    """LRCs whose groups are not each (h, w*h) on consecutive positions: a
    group listed (a, c, b), which keeps its first position, and the
    permuted Hamming LRC."""
    ham = concatenate(hamming4(2)).to_json()
    cap = concatenate(cap_code(bundled_cap_pg3_17())).to_json()
    return [
        BinaryLrc.from_json(_with_group_reordered(ham, 2, (0, 2, 1))),
        BinaryLrc.from_json(_with_group_reordered(cap, 5, (0, 2, 1))),
        permuted_hamming_lrc(),
    ]


def test_the_pair_code_check_agrees_with_h(outer_corpus):
    """``BinaryLrc.contains``, run on P, answers as H's syndrome does on
    codewords, on codewords with a broken group parity and on random words,
    for every corpus concatenation and for LRCs with reordered groups."""
    rng = random.Random(0xC4EC)
    lrcs = [concatenate(outer) for outer in outer_corpus] + _reordered_lrcs()
    for lrc in lrcs:
        for word in _words_to_check(lrc, rng):
            assert lrc.contains(word) == lrc.code.contains(word), (lrc, word)
    lrc = lrcs[-1]
    for word in ([0] * (lrc.n - 1), [0] * (lrc.n - 1) + [2]):
        for check in (lrc.contains, lrc.code.contains):
            with pytest.raises(ValueError):
                check(word)


def test_a_certificate_is_checked_on_the_pair_code(monkeypatch):
    """A group search's witness and a carried one are checked by
    ``BinaryLrc.contains``, so neither builds H's columns."""
    monkeypatch.setattr(BinaryLrc, "code", property(lambda self: pytest.fail("built H")))
    for outer in (hexacode(), hamming4(2), cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1])):
        lrc = concatenate(outer)
        cert = certify_distance(lrc, start=lrc.cheapest_weights().distance() // 2)
        assert lrc.contains(cert.witness) and sum(cert.witness) == cert.d


def test_loading_makes_no_entry_calls(monkeypatch):
    # No one-symbol accessor is left; the only per-symbol unpacking is
    # unpack_row, and loading never calls it.
    assert not any(hasattr(FieldMatrix, a) for a in ("entry", "col_tuple"))
    outer = cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1])
    obj = json.loads(json.dumps(concatenate(outer).to_json()))
    outer_text = outer.parity_check.to_text()
    calls = []
    real_unpack = matrix_module.unpack_row

    def counted(q, row, ncols):
        calls.append(ncols)
        return real_unpack(q, row, ncols)

    assert not hasattr(concat_module, "unpack_row")
    for module in (matrix_module, code_module):
        monkeypatch.setattr(module, "unpack_row", counted)
    lrc = BinaryLrc.from_json(obj)
    again = LinearCode.from_parity(FieldMatrix.from_text(outer_text)[0])
    assert (lrc.n, lrc.k, again.n, again.k) == (129, 72, 43, 36)
    assert calls == []
    again.parity_check.row_tuple(0)
    assert calls == [43]


def test_loading_runs_one_rank_elimination_and_no_nullspace(monkeypatch):
    # Once the groups check, H's rank is its lower block's: one elimination
    # over the u = 14 rows below the 43 group parities, gathered to 86
    # bits.  G, H's nullspace, is derived when read.
    obj = json.loads(json.dumps(concatenate(cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1])).to_json()))
    calls = []
    real_rank, real_nullspace = matrix_module.rows_rank, FieldMatrix.nullspace

    def counted(q, rows, ncols):
        rows = list(rows)
        calls.append((q, len(rows), ncols))
        return real_rank(q, rows, ncols)

    for module in (code_module, concat_module):
        monkeypatch.setattr(module, "rows_rank", counted)
    monkeypatch.setattr(FieldMatrix, "nullspace", lambda h: calls.append("G") or real_nullspace(h))
    lrc = BinaryLrc.from_json(obj)
    assert (lrc.n, lrc.k, lrc.u) == (129, 72, 14)
    assert calls == [(2, 14, 86)]
    assert lrc.code.generator.nrows == 72
    assert calls == [(2, 14, 86), "G"]


def test_lrc_json_top_row_with_a_one_outside_its_group():
    obj = concatenate(hamming4(2)).to_json()
    lines = obj["H"].splitlines()
    row = lines[1].split()
    row[3] = "1"  # coordinate 3 belongs to group 1, not group 0
    lines[1] = " ".join(row)
    obj["H"] = "\n".join(lines) + "\n"
    with pytest.raises(ParseError, match="group-1 parity"):
        BinaryLrc.from_json(obj)


def test_lrc_json_lower_block_nonzero_under_position_0():
    obj = concatenate(hamming4(2)).to_json()
    # listing (b, a, c) puts the nonzero column e1 at position 0
    with pytest.raises(ParseError, match="position 0 not zero"):
        BinaryLrc.from_json(_with_group_reordered(obj, 1, (1, 0, 2)))


def _moved(lrc, perm, order):
    """The LRC's JSON with position p moved to perm[p] and group order[i]
    listed i-th: H's columns, its top rows and the groups alike."""
    n, ell, h = lrc.n, lrc.ell, lrc.code.parity_check
    cols = [0] * n
    for p, col in zip(perm, h.transpose().rows):
        cols[p] = col
    rows = list(FieldMatrix(2, n, h.nrows, cols).transpose().rows)
    rows[:ell] = [rows[i] for i in order]
    obj = lrc.to_json()
    obj["H"] = FieldMatrix(2, h.nrows, n, rows).to_text()
    obj["groups"] = [[perm[p] for p in lrc.groups[i]] for i in order]
    return obj


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_a_loaded_lrc_holds_what_the_transpose_route_reads(seed, data):
    """A loaded LRC checks its top block as rows and gathers its lower rows;
    they are the gathered rows, columns, pairs and rank verdict that H's
    transpose gives, also with permuted positions and groups and with a
    lower row replaced by a sum of the others."""
    n1 = data.draw(st.integers(1, 7), label="n1")
    k1 = data.draw(st.integers(1, n1), label="k1")
    lrc = concatenate(random_linear_code(random.Random(seed), 4, n1, k1))
    perm = data.draw(st.permutations(range(lrc.n)), label="perm")
    order = data.draw(st.permutations(range(lrc.ell)), label="order")
    obj = _moved(lrc, perm, order)
    if lrc.u and data.draw(st.booleans(), label="dependent"):
        header, *lines = obj["H"].splitlines()
        rows = [pack_row(2, [int(x) for x in ln.split()]) for ln in lines]
        lower = range(lrc.ell, len(rows))
        target = data.draw(st.sampled_from(lower), label="row")
        rest = [i for i in lower if i != target]
        picks = data.draw(st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]))
        rows[target] = 0
        for i in picks:
            rows[target] ^= rows[i]
        obj["H"] = FieldMatrix(2, len(rows), lrc.n, rows).to_text()
    h, _ = FieldMatrix.from_text(obj["H"])
    try:
        reference = LinearCode.from_parity(h)
    except RankDeficient as exc:
        with pytest.raises(RankDeficient, match=str(exc)):
            BinaryLrc.from_json(obj)
        return
    loaded = BinaryLrc.from_json(obj)
    lower = [col >> lrc.ell for col in reference.bit_columns]
    pairs = [lower[p] for _, b, c in loaded.groups for p in (b, c)]
    assert loaded.dual_rows == FieldMatrix(2, 2 * lrc.ell, lrc.u, pairs).transpose().rows
    assert loaded.e_vectors == tuple((lower[b], lower[c]) for _, b, c in loaded.groups)
    assert loaded.code.bit_columns == reference.bit_columns
    assert loaded.cheapest_weights() == lrc.cheapest_weights()


def _faulted(fault):
    """The [15,6,6;2] LRC's JSON with one fault."""
    obj = concatenate(hamming4(2)).to_json()
    header, *lines = obj["H"].splitlines()
    rows = [ln.split() for ln in lines]
    if fault == "top-row-outside-its-group":
        rows[0][3] = "1"  # coordinate 3 belongs to group 1
    elif fault == "lower-entry-under-position-0":
        rows[5][3] = "1" if rows[5][3] == "0" else "0"  # lower row 0 at group 1's first position
    elif fault == "repeated-coordinate":
        obj["groups"][1] = list(obj["groups"][0])
    elif fault == "coordinate-n":
        obj["groups"][4][2] = 15
    elif fault == "coordinate-10**18":
        obj["groups"][4][2] = 10**18
    obj["H"] = "\n".join([header] + [" ".join(r) for r in rows]) + "\n"
    return obj


@pytest.mark.parametrize(
    "fault, message",
    [
        ("top-row-outside-its-group", "top rows at coordinate 3 are not the group-1 parity"),
        ("lower-entry-under-position-0", "lower block under group 1 position 0 not zero"),
        ("repeated-coordinate", "groups must partition the coordinates"),
        ("coordinate-n", "groups must partition the coordinates"),
        ("coordinate-10**18", "groups must partition the coordinates"),
    ],
)
def test_a_loaded_lrcs_refusals_name_the_fault_as_the_column_scan_did(fault, message):
    # A coordinate of 10**18 is refused by the range check, before any
    # mask of a coordinate is built.
    with pytest.raises(ParseError) as exc:
        BinaryLrc.from_json(_faulted(fault))
    assert str(exc.value) == "not a locality-2 LRC: " + message
