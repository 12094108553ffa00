"""Builders for the GF(4) outer codes that feed the concatenation.

Every builder returns a :class:`~gf4lrc.code.LinearCode` over GF(4) and
re-verifies its advertised parameters with an independent distance
computation, ``LinearCode.min_distance``, which reads d from the side rule.
Generators are packed rows, so no builder does GF(4) arithmetic one symbol
at a time: ``cyclic4`` divides x^n - 1 by g on packed rows, and writes H
from the check polynomial (x^n - 1)/g, with no elimination.  ``cap_code``
proves its points a cap by the same weights that give its d: a cap's
collinear triples are its code's words of weight 3.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Optional, Sequence

from . import gf4
from .code import LinearCode, WeightDistribution, macwilliams
from .errors import (
    BudgetExceeded,
    InvalidParameters,
    NotADivisor,
    ParseError,
    RankDeficient,
    UnsupportedParameters,
    UnsupportedSubspaceLayout,
)
from .matrix import FieldMatrix, lo_mask, row_digits, scale_row
from .projective import CapSet, pg_points, subspace_points

logger = logging.getLogger(__name__)

W, W2 = gf4.W, gf4.W2

# Generators of the four non-trivial GF(4) MDS codes: polynomial evaluation
# at (0, 1, w, w^2) extended by high-coefficient columns.
_MDS_GENERATORS = {
    (4, 2): [[1, 1, 1, 1], [0, 1, W, W2]],
    (5, 2): [[1, 1, 1, 1, 0], [0, 1, W, W2, 1]],
    (5, 3): [[1, 1, 1, 1, 0], [0, 1, W, W2, 0], [0, 1, W2, W, 1]],
    (6, 3): [[1, 1, 1, 1, 0, 0], [0, 1, W, W2, 1, 0], [0, 1, W2, W, 0, 1]],
}


def _verified(code: LinearCode, expect_d: int) -> LinearCode:
    cert = code.min_distance()
    if cert.d != expect_d:
        raise AssertionError(
            f"builder produced d={cert.d}, expected {expect_d} for [{code.n},{code.k}]"
        )
    return code


def mds_rs(n1: int, k1: int) -> LinearCode:
    """An [n1, k1, n1-k1+1] MDS code over GF(4).

    Supports the four non-trivial parameter pairs realizable over GF(4)
    ((4,2), (5,2), (5,3), (6,3)), the trivial full space k1 = n1, and the
    single-parity case k1 = n1 - 1.
    """
    if k1 == n1 and n1 >= 1:
        gen = FieldMatrix.identity(4, n1)
    elif k1 == n1 - 1 and n1 >= 2:
        gen = FieldMatrix(4, k1, n1, [1 << 2 * i | 1 << 2 * (n1 - 1) for i in range(k1)])
    elif (n1, k1) in _MDS_GENERATORS:
        gen = FieldMatrix.from_rows(4, _MDS_GENERATORS[n1, k1])
    else:
        raise UnsupportedParameters(
            f"no [{n1},{k1},{n1 - k1 + 1}] MDS code over GF(4) is supported"
        )
    return _verified(LinearCode.from_generator(gen), n1 - k1 + 1)


def hamming4(t: int) -> LinearCode:
    """The GF(4) Hamming code with t parity checks: [(4^t-1)/3, n-t, 3].

    Parity-check columns are the points of PG(t-1, 4) in canonical order.
    """
    if t < 2:
        raise InvalidParameters("hamming4 requires t >= 2")
    parity = FieldMatrix.from_cols(4, pg_points(t - 1))
    return _verified(LinearCode.from_parity(parity), 3)


def hexacode() -> LinearCode:
    """The [6, 3, 4] code with parity check [I | A], A circulant on (1, w, w)."""
    parity = FieldMatrix.from_rows(
        4,
        [
            [1, 0, 0, 1, W, W],
            [0, 1, 0, W, 1, W],
            [0, 0, 1, W, W, 1],
        ],
    )
    return _verified(LinearCode.from_parity(parity), 4)


def hamming4_weights_closed_form(t: int) -> WeightDistribution:
    """Weight distribution of hamming4(t) in closed form.

    The dual has 4^t - 1 nonzero codewords, all of weight 4^(t-1); the
    Krawtchouk-form transform of that two-point distribution is exact.
    """
    if t < 2:
        raise InvalidParameters("hamming4 requires t >= 2")
    n1 = (4**t - 1) // 3
    counts = [0] * (n1 + 1)
    counts[0] = 1
    counts[4 ** (t - 1)] = 4**t - 1
    dual = WeightDistribution(n1, t, 4, tuple(counts))
    return macwilliams(dual, 4**t, n1, 4)


def macdonald(m: int, u: int, t: int = 1) -> LinearCode:
    """Griesmer-meeting code from t copies of PG(m-1,4) minus one subspace copy.

    Generator columns are t copies of every point, with one copy removed for
    each point of the canonical (u-1)-subspace (span of the first u
    coordinates).  Lengths with non-integral (t*4^m - 4^u)/3 are rejected.

    The code meets the Griesmer bound over GF(4).  With 4^(l-1) < d1 <= 4^l,
    its [3*n1, 2*k1, 2*d1; 2] concatenation meets the binary locality-aware
    Griesmer bound exactly when d1 mod 4^j is 0 or greater than 4^j/2 for
    every 1 <= j < l (see :func:`solomon_stiffler`); macdonald(3, 1, 1),
    with d1 = 15, does.
    """
    if not 1 <= u <= m - 1:
        raise InvalidParameters(f"macdonald needs 1 <= u <= m-1, got u={u}, m={m}")
    if t not in (1, 2, 3, 4):
        raise InvalidParameters(f"macdonald multiplicity t={t} not in 1..4")
    if (t * 4**m - 4**u) % 3:
        raise InvalidParameters(
            f"({t}*4^{m} - 4^{u})/3 is not an integer; no such length"
        )
    return _anticode(m, t, [u])


def solomon_stiffler(t: int, dims: Sequence[int]) -> LinearCode:
    """Griesmer-meeting code: all PG(t-1,4) points minus disjoint subspaces.

    ``dims`` lists the deleted subspace dimensions u_1 >= ... >= u_h >= 1
    (at most three of any value); the subspaces are realized on consecutive
    disjoint coordinate blocks, which requires sum(dims) <= t.

    The code meets the Griesmer bound over GF(4), not necessarily the binary
    one after concatenation.  For a Griesmer-meeting [n1, k1, d1]_4 outer
    code with 4^(l-1) < d1 <= 4^l, the [3*n1, 2*k1, 2*d1; 2] concatenation
    meets the locality-aware Griesmer bound (at tau = k1 - l) exactly when
    d1 mod 4^j is 0 or greater than 4^j/2 for every 1 <= j < l.  So dims
    [2] and [2, 1] (d1 = 12, 11) meet it, while [1, 1, 1] (d1 = 13) gives
    [54, 6, 26; 2] against a bound of 53.
    """
    dims = list(dims)
    if any(u < 1 for u in dims):
        raise InvalidParameters("subspace dims must be >= 1")
    if any(dims[i] < dims[i + 1] for i in range(len(dims) - 1)):
        raise InvalidParameters("subspace dims must be non-increasing")
    if dims and dims[0] >= t:
        raise InvalidParameters("largest subspace dim must be < t")
    if any(dims.count(v) > 3 for v in set(dims)):
        raise InvalidParameters("at most three subspaces may share a dimension")
    if sum(dims) > t:
        raise UnsupportedSubspaceLayout(
            f"dims {dims} sum to {sum(dims)} > {t}; no disjoint coordinate blocks"
        )
    return _anticode(t, 1, dims)


def _anticode(m: int, copies: int, dims: Sequence[int]) -> LinearCode:
    """Each PG(m-1,4) point ``copies`` times, less one copy of each point of
    the subspaces of ``dims`` on consecutive coordinate blocks, verified."""
    removed = {p for i, u in enumerate(dims) for p in subspace_points(m, sum(dims[:i]), u)}
    cols = [p for p in pg_points(m - 1) for _ in range(copies - (p in removed))]
    code = LinearCode.from_generator(FieldMatrix.from_cols(4, cols))
    return _verified(code, copies * 4 ** (m - 1) - sum(4 ** (u - 1) for u in dims))


def cap_code(cap: CapSet) -> LinearCode:
    """Code whose parity-check columns are the cap points, its d certified.

    The points are checked one by one; then the code's weights prove the
    cap: distinct normalized points are pairwise independent, so d >= 4
    exactly when no three are collinear.  ``CapSet.verify``'s triple search
    runs only where the weights prove nothing (H rank-deficient, or weights
    beyond the budget) or to name the triple of a word of weight 3, so every
    refusal is the one that checking the cap before building H gives.
    """
    cap.check_points()
    parity = FieldMatrix.from_cols(4, cap.points)
    try:
        code = LinearCode.from_parity(parity)
    except RankDeficient as exc:
        cap.verify()
        raise InvalidParameters(
            f"the {cap.size()} cap points do not span PG({cap.ambient}, 4)"
        ) from exc
    try:
        d = code.cheapest_weights().distance()
    except BudgetExceeded:
        cap.verify()
    else:
        if d is not None and d < 4:  # k = 0 leaves d None: no word at all
            cap.verify()
    code.min_distance()
    return code


def cyclic4(n: int, gen_poly: Sequence[int]) -> LinearCode:
    """Cyclic code of length n generated by gen_poly (ascending coefficients).

    gen_poly must divide x^n - 1 over GF(4): one division on packed rows
    gives the check polynomial h = (x^n - 1)/g or a nonzero remainder.  G
    holds the k = n - deg(g) shifts x^i g, whose RREF pivots are 0..k-1.
    The dual is generated by the monic reciprocal h* of h, so row f of H,
    for f = k..n-1, is x^f + (x^f mod h*): the one dual word that is 1 at
    f and 0 at the other positions from k, as row f of G's nullspace is.
    Both have full rank by construction: g(0) != 0, as g divides x^n - 1,
    so shift i has its lowest symbol at i, and row f of H its highest at f.
    """
    g = FieldMatrix.from_rows(4, [gen_poly]).rows[0]  # checks every symbol
    if not g:
        raise InvalidParameters("zero generator polynomial")
    deg = (g.bit_length() - 1) // 2  # trailing zero coefficients drop out
    if deg >= n:
        raise InvalidParameters(f"deg(g)={deg} must be < n={n}")
    k = n - deg
    # Divide x^n - 1 by g made monic (a^-1 = a^2 in GF(4)); the quotient
    # is h up to a scalar, which the monic h* drops.
    lead, lo = g >> 2 * deg, lo_mask(deg + 1)
    monic = scale_row(4, g, scale_row(4, lead, lead), lo)
    rem, h = 1 | 1 << 2 * n, 0
    for s in range(k, -1, -1):
        c = rem >> 2 * (s + deg) & 3
        h |= c << 2 * s
        rem ^= scale_row(4, monic, c, lo) << 2 * s
    if rem:
        raise NotADivisor(f"generator polynomial does not divide x^{n} - 1")
    lo = lo_mask(k + 1)
    reciprocal = int(row_digits(4, h, k + 1), 4)
    h_star = scale_row(4, reciprocal, scale_row(4, h & 3, h & 3), lo)
    rows, r = [], h_star ^ 1 << 2 * k  # r = x^f mod h*, from f = k
    for f in range(k, n):
        rows.append(1 << 2 * f | r)
        r <<= 2
        r ^= scale_row(4, h_star, r >> 2 * k, lo)
    generator = FieldMatrix(4, k, n, [g << 2 * i for i in range(k)])
    return LinearCode.__new__(LinearCode)._keep(generator, FieldMatrix(4, n - k, n, rows))


def ingest(path: str | Path) -> tuple[LinearCode, Optional[int]]:
    """Load a code from a matrix file with a ``kind=generator|parity`` header,
    and the d the header claims (None without one): no distance is computed
    here, and a run that computes d compares the two by ``check_claim``.
    Advertised n/k are checked against the code; a mismatch is logged.
    """
    text = Path(path).read_text()
    mat, extras = FieldMatrix.from_text(text)
    try:
        advertised = {key: int(extras[key]) for key in ("n", "k", "d") if key in extras}
    except ValueError as exc:
        raise ParseError(f"non-integer advertised n/k/d: {exc}") from exc
    kind = extras.get("kind")
    if kind == "generator":
        code = LinearCode.from_generator(mat)
    elif kind == "parity":
        code = LinearCode.from_parity(mat)
    else:
        raise ParseError(f"header must carry kind=generator|parity, got {kind!r}")
    for key, actual in (("n", code.n), ("k", code.k)):
        if key in advertised and advertised[key] != actual:
            logger.warning(
                "%s: advertised %s=%s but computed %s", path, key, advertised[key], actual
            )
    return code, advertised.get("d")


def check_claim(path, claimed: Optional[int], d: Optional[int]) -> None:
    """Log a file's claimed d when it disagrees with a d the run computed."""
    if claimed is not None and d is not None and claimed != d:
        logger.warning("%s: advertised d=%s but computed d=%s", path, claimed, d)
