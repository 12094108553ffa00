"""The per-codeword Gray walk that the bit-sliced enumerator replaced.

These are the former ``matrix.row_weight``, ``LinearCode._iter_packed``,
the histogram pass of ``weight_distribution``, ``_min_distance_exhaustive``
and the dual scan of ``concat.locality_check``: message index m stands for
the message gray(m) = m ^ (m >> 1), so each step costs one row XOR and one
popcount.
They stay here as the reference the enumerator is checked against.
"""

from scalar_elimination import row_entry
from gf4lrc.code import METHOD_EXHAUSTIVE, DistanceCertificate
from gf4lrc.concat import CoverageReport
from gf4lrc.matrix import lo_mask, unpack_row


def row_weight(q: int, row: int, lo: int | None) -> int:
    """Number of nonzero symbols in a packed row."""
    if q == 2:
        return row.bit_count()
    return ((row | (row >> 1)) & lo).bit_count()


def iter_packed(code):
    """Packed codewords of all Gray steps, starting with the zero word."""
    bit_rows = code.bit_rows
    cur = 0
    yield cur
    for m in range(1, code.codeword_count()):
        cur ^= bit_rows[(m & -m).bit_length() - 1]
        yield cur


def weight_counts(code) -> tuple[int, ...]:
    """The full weight histogram A_0..A_n."""
    counts = [0] * (code.n + 1)
    lo = lo_mask(code.n) if code.q == 4 else None
    for packed in iter_packed(code):
        counts[row_weight(code.q, packed, lo)] += 1
    return tuple(counts)


def min_distance_exhaustive(code) -> DistanceCertificate:
    """The first minimum-weight codeword in Gray order; stops at weight 1."""
    lo = lo_mask(code.n) if code.q == 4 else None
    best_w = code.n + 1
    best = None
    first = True
    for packed in iter_packed(code):
        if first:  # message index 0 is the zero codeword
            first = False
            continue
        w = row_weight(code.q, packed, lo)
        if w < best_w:
            best_w = w
            best = packed
            if w == 1:
                break
    return DistanceCertificate(best_w, unpack_row(code.q, best, code.n), METHOD_EXHAUSTIVE)


def locality_dual_scan(code, r: int) -> CoverageReport:
    """Each coordinate's first covering dual word of weight 1..r+1."""
    dual = code.dual()
    covering = [None] * code.n
    remaining = code.n
    first = True
    for packed in iter_packed(dual):
        if first:
            first = False
            continue
        word = [row_entry(code.q, packed, j) for j in range(code.n)]
        support = [j for j, v in enumerate(word) if v]
        if not 0 < len(support) <= r + 1:
            continue
        for j in support:
            if covering[j] is None:
                covering[j] = tuple(word)
                remaining -= 1
        if remaining == 0:
            break
    return CoverageReport(r, tuple(covering), remaining == 0)
