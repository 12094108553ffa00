"""The column-by-column MacWilliams transform that one Horner pass replaced.

``krawtchouk_column`` is the former ``code.krawtchouk_column``: one
column K_0(i)..K_n(i) of Krawtchouk values by the three-term recurrence.
``column_sum_transform`` is the former body of
``code.krawtchouk_transform``: each A_j is the sum over the dual weights i
of B_i K_j(i), divided exactly by the dual size, checked at each j in
order.  They stay here as the reference the polynomial pass is checked
against.
"""

from gf4lrc.errors import NonIntegerResult


def krawtchouk_column(i: int, n: int, q: int) -> list[int]:
    """K_0(i)..K_n(i) of K_j(i; n; q) by the three-term recurrence (j+1) K_(j+1)
    = ((q-1)(n-j) + j - q*i) K_j - (q-1)(n-j+1) K_(j-1), dividing exactly."""
    column, before = [1], 0
    for j in range(n):
        step = ((q - 1) * (n - j) + j - q * i) * column[j] - (q - 1) * (n - j + 1) * before
        before = column[j]
        column.append(step // (j + 1))
    return column


def column_sum_transform(dual_counts, dual_size: int, n: int, q: int) -> tuple[int, ...]:
    """A_j = (1/dual_size) * sum_i B_i K_j(i; n; q), one Krawtchouk column
    per dual weight i, or NonIntegerResult at the first j that fails."""
    totals = [0] * (n + 1)
    for i, b_i in enumerate(dual_counts):
        if b_i:
            for j, value in enumerate(krawtchouk_column(i, n, q)):
                totals[j] += b_i * value
    counts = []
    for j, total in enumerate(totals):
        value, rem = divmod(total, dual_size)
        if rem or value < 0:
            raise NonIntegerResult(f"transform gives non-integer A_{j}")
        counts.append(value)
    return tuple(counts)
