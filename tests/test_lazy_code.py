"""A code derives its other matrix and its binary views on first read.

The oracle is the eager code ``LinearCode(H.nullspace(), H)``, which
holds both sides and checks them at once: a code loaded from either side,
its dual and its dual's dual must give the same dimension, matrices,
binary views, weights and distance certificate, in whatever order they
are read.  The checks the eager code runs at once still run: the rank at
load, the orthogonality of a derived generator when it is first read.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf4lrc.code import LinearCode
from gf4lrc.errors import RankDeficient
from gf4lrc.matrix import FieldMatrix
from test_bounds import _outcome
from test_enumerator import codes


def _reads(code: LinearCode, matrices_first: bool) -> tuple:
    """Everything a code answers; the matrices and views are read before
    or after the certificate, and the weights last, since a cached
    enumeration pass would change the certificate's route."""
    matrices = lambda: (
        code.k,
        code.generator.rows,
        code.parity_check.rows,
        code.bit_rows,
        code.bit_columns,
    )
    first = matrices() if matrices_first else None
    cert = _outcome(code.min_distance)
    weights = code.weight_distribution(budget=code.codeword_count()).counts
    return first or matrices(), cert, weights


@settings(max_examples=150, deadline=None)
@given(codes(st.integers(1, 6)), st.booleans())
def test_lazy_codes_answer_as_the_eager_code(built, matrices_first):
    h = built.parity_check
    g = h.nullspace()
    eager, eager_dual = LinearCode(g, h), LinearCode(h, g)
    lazy = LinearCode.from_parity(h)
    expect, expect_dual = _reads(eager, False), _reads(eager_dual, False)
    assert _reads(lazy, matrices_first) == expect
    assert _reads(LinearCode.from_generator(g), matrices_first) == expect
    assert _reads(LinearCode.from_parity(h).dual(), matrices_first) == expect_dual
    assert _reads(LinearCode.from_parity(h).dual().dual(), matrices_first) == expect
    assert _reads(LinearCode.from_generator(g).dual(), matrices_first) == expect_dual


def _count_nullspaces(monkeypatch) -> list:
    calls = []
    nullspace = FieldMatrix.nullspace

    def counted(self):
        calls.append(self)
        return nullspace(self)

    monkeypatch.setattr(FieldMatrix, "nullspace", counted)
    return calls


def test_from_parity_derives_the_generator_once_on_first_read(monkeypatch):
    h = FieldMatrix.from_rows(4, [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]])
    calls = _count_nullspaces(monkeypatch)
    code = LinearCode.from_parity(h)
    code.syndrome(1)
    code.min_distance()
    assert (code.k, calls) == (3, [])
    code.weight_distribution()
    code.encode([1, 2, 3])
    assert calls == [h]
    assert code.dual().generator is code.parity_check and code.dual().parity_check is code.generator
    assert (code.dual().k, calls) == (2, [h])


@pytest.mark.parametrize("q, rows", [(2, [[1, 0, 1], [1, 0, 1]]), (4, [[1, 2, 0], [2, 3, 0]])])
def test_dependent_rows_are_refused_at_load_before_any_derived_read(q, rows, monkeypatch):
    mat = FieldMatrix.from_rows(q, rows)
    calls = _count_nullspaces(monkeypatch)
    with pytest.raises(RankDeficient, match="^parity-check rows are linearly dependent$"):
        LinearCode.from_parity(mat)
    assert calls == []
    with pytest.raises(RankDeficient, match="^generator rows are linearly dependent$"):
        LinearCode.from_generator(mat)


def test_a_derived_generator_not_orthogonal_to_h_raises_on_first_read(monkeypatch):
    h = FieldMatrix.from_rows(2, [[1, 1, 1]])
    code = LinearCode.from_parity(h)  # the rank check passes
    wrong = FieldMatrix.from_rows(2, [[1, 0, 0], [0, 1, 1]])
    monkeypatch.setattr(FieldMatrix, "nullspace", lambda self: wrong)
    for read in (lambda: code.generator, lambda: code.bit_rows, code.weight_distribution,
                 lambda: code.dual().parity_check):
        with pytest.raises(ValueError, match="not orthogonal to parity check"):
            read()
    assert code.k == 2
