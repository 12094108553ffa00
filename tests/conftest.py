import random
import sys
from unittest import mock

import pytest

from gf4lrc import code as code_module
from gf4lrc import concat, matrix
from gf4lrc.code import METHOD_COLUMN, LinearCode, certify_dependent_set
from gf4lrc.errors import BudgetExceeded
from gf4lrc.families import hamming4
from gf4lrc.matrix import FieldMatrix, rows_rank


def random_linear_code(rng: random.Random, q: int, n: int, k: int) -> LinearCode:
    """Random [n, k] code over GF(q) from a random full-rank generator."""
    while True:
        rows = [[rng.randrange(q if q == 2 else 4) for _ in range(n)] for _ in range(k)]
        mat = FieldMatrix.from_rows(q, rows)
        if rows_rank(q, mat.rows, n) == k:
            return LinearCode.from_generator(mat)


def walked(ask):
    """``ask()`` and the (symbol count, word count) of every walk it made,
    of a code or of an LRC's pair code, weights and light words alike."""
    walks = []
    walk = code_module.weight_planes

    def counted(rows, n, width):
        walks.append((n, 1 << len(rows)))
        return walk(rows, n, width)

    with mock.patch.object(code_module, "weight_planes", counted), mock.patch.object(
        concat, "weight_planes", counted
    ):
        return ask(), walks


def column_certificate(code: LinearCode, budget: int, start: int = 1):
    """A plain code's column search: the one certifier over its parity-check
    columns, a GF(4) column as its pair (c, w*c), each symbol its own digit."""
    width, cols = (1 if code.q == 2 else 2), code.bit_columns
    blocks = [cols[i : i + width] for i in range(0, len(cols), width)]
    return certify_dependent_set(code, blocks, tuple, budget, start, METHOD_COLUMN)


def forbid_distance_and_weights(monkeypatch) -> None:
    """Make every distance or weight computation raise AssertionError, of a
    plain code or of an LRC, whose weights and group search are its own."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a distance or weight computation ran")

    for name in ("min_distance", "cheapest_weights", "weight_distribution"):
        monkeypatch.setattr(LinearCode, name, forbidden)
    for name in ("min_distance", "cheapest_weights"):
        monkeypatch.setattr(concat.BinaryLrc, name, forbidden)
    monkeypatch.setattr(concat, "certify_distance", forbidden)


def forbid_dependent_set_search(monkeypatch) -> None:
    """Make every dependent-set search raise AssertionError, through every
    module binding of ``smallest_dependent_set`` and ``dependent_sets``."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a dependent-set search ran")

    for name in ("smallest_dependent_set", "dependent_sets"):
        fn = getattr(matrix, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("gf4lrc")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, forbidden)


def refuse_weights(self, budget):
    """A stand-in for ``BinaryLrc.cheapest_weights`` whose walk never fits."""
    raise BudgetExceeded(f"refused at budget {budget}")


def random_code_corpus(seed: int, count: int, max_n: int, max_k: int, q: int = 4):
    """Deterministic corpus of random codes with 1 <= k <= min(max_k, n)."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        k = rng.randint(1, min(max_k, n))
        corpus.append(random_linear_code(rng, q, n, k))
    return corpus


def permuted_hamming_lrc() -> concat.BinaryLrc:
    """The [15,6,6;2] LRC, permuted as ``permuted_lrc`` does."""
    return permuted_lrc(concat.concatenate(hamming4(2)))


def permuted_lrc(lrc: concat.BinaryLrc) -> concat.BinaryLrc:
    """``lrc`` with position p moved to 7p + 3 mod n, n prime to 7, its
    columns and its groups alike, so that the simulator's slot table is
    not the identity."""
    n = lrc.n
    moved = [(7 * p + 3) % n for p in range(n)]
    columns = [0] * n
    for p, column in zip(moved, lrc.code.parity_check.transpose().rows):
        columns[p] = column
    h = FieldMatrix(2, n, n - lrc.k, columns).transpose()
    groups = [tuple(moved[p] for p in g) for g in lrc.groups]
    return concat.BinaryLrc(LinearCode.from_parity(h), groups, lrc.d)


@pytest.fixture(scope="session")
def outer_corpus():
    """The shared random GF(4) outer-code corpus (n <= 7, k <= 4)."""
    return random_code_corpus(seed=0xC0DE4, count=200, max_n=7, max_k=4)
