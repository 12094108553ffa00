"""The bound formulas ``gf4lrc.bounds`` used before it was rewritten.

Each Griesmer bound sums ceil(d / q^i) in its own loop, the LRC ball
Omega_d is the per-group sum C(ell, s) 3^s, both Johnson-like denominators
are built by hand from the weight-(d/2) mass, and ``classify`` computes
each verdict a second time next to its bound entry.  They stay here as the
reference the outer-code forms are checked against.  Queries need n, k, d
and r of at least 1: below that some of these loops never end.
"""

import math
from fractions import Fraction

from gf4lrc.bounds import BoundEntry, BoundQuery, BoundReport, ball_size, ceil_div, ceil_log
from gf4lrc.errors import EmptyTauRange, InvalidShape, OddDistance


def singleton_like_max_d(n, k, r):
    if k < 1:
        raise ValueError("k must be >= 1")
    return n - k - ceil_div(k, r) + 2


def griesmer_inverted_max_k(n, d, q):
    if d > n:
        return 0
    total = 0
    k = 0
    while True:
        total += ceil_div(d, q**k)
        if total > n:
            return k
        k += 1


def default_kopt(q=2):
    def oracle(n_prime, d):
        if n_prime <= 0 or d > n_prime:
            return 0
        return min(n_prime - d + 1, griesmer_inverted_max_k(n_prime, d, q))

    return oracle


def cm_bound_max_k(n, d, r, kopt=None):
    if kopt is None:
        kopt = default_kopt()
    best = None
    for tau in range(1, ceil_div(n, r + 1) + 1):
        residual = n - tau * (r + 1)
        if residual < 0:
            continue
        value = tau * r + kopt(residual, d)
        if best is None or value < best:
            best = value
    if best is None:
        raise ValueError("no admissible tau")
    return best


def griesmer_classical_min_n(k, d, q):
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    return sum(ceil_div(d, q**i) for i in range(k))


def griesmer_like_terms(k, d, r, q):
    if k <= r:
        raise EmptyTauRange(f"k={k} <= r={r} leaves no tau")
    terms = []
    for tau in range(1, ceil_div(k, r)):
        value = tau * (r + 1) + sum(ceil_div(d, q**i) for i in range(k - r * tau))
        terms.append((tau, value))
    return terms


def griesmer_like_min_n(k, d, r, q):
    return max(value for _, value in griesmer_like_terms(k, d, r, q))


def griesmer_like_max_d(n, k, r, q):
    if k < 1:
        raise ValueError("k must be >= 1")
    best = 0
    d = 1
    while True:
        if griesmer_classical_min_n(k, d, q) > n:
            return best
        if k > r and griesmer_like_min_n(k, d, r, q) > n:
            return best
        best = d
        d += 1


def lrc_ball_size(ell, d):
    return sum(math.comb(ell, s) * 3**s for s in range((d - 1) // 4 + 1))


def sphere_packing_like_max_k(n, d):
    if n % 3:
        raise InvalidShape(f"n={n} is not a multiple of 3")
    if d % 2 or d < 2:
        raise InvalidShape(f"distance {d} must be even and >= 2")
    omega = lrc_ball_size(n // 3, d)
    return 2 * n // 3 - ceil_log(2, omega), omega


def johnson_classical_max_k(n, d, q):
    if d % 2:
        raise OddDistance(f"distance {d} must be even")
    if d < 2 or d > 2 * n:
        raise InvalidShape(f"distance {d} out of range for length {n}")
    o_d = ball_size(n, (d - 1) // 2, q)
    o_prime = o_d + Fraction(math.comb(n, d // 2) * (q - 1) ** (d // 2), 2 * n // d)
    return n - ceil_log(q, o_prime), o_prime


def johnson_like_improved_max_k(n, d):
    if n % 3:
        raise InvalidShape(f"n={n} is not a multiple of 3")
    if d % 4 or d < 4:
        raise InvalidShape(f"distance {d} must be a positive multiple of 4")
    if 3 * d > 4 * n:
        raise InvalidShape(f"distance {d} too large for length {n}")
    ell = n // 3
    omega = lrc_ball_size(ell, d)
    mass = math.comb(ell, d // 4) * 3 ** (d // 4)
    improved = omega + Fraction(mass, 4 * n // (3 * d))
    original = omega + Fraction(mass, 2 * n // d)
    return 2 * n // 3 - ceil_log(2, improved), improved, original


def classify(n, k, d, r=2, kopt=None):
    query = BoundQuery(n, k, d, r)
    entries = []

    singleton = singleton_like_max_d(n, k, r)
    entries.append(BoundEntry("singleton_like", "max-d", singleton, d == singleton))

    cm = cm_bound_max_k(n, d, r, kopt)
    entries.append(BoundEntry("cm", "max-k", cm, k == cm))

    classical_n = griesmer_classical_min_n(k, d, 2)
    entries.append(
        BoundEntry("griesmer_classical", "min-n", classical_n, n == classical_n)
    )
    if k > r:
        like_n = griesmer_like_min_n(k, d, r, 2)
        entries.append(BoundEntry("griesmer_like", "min-n", like_n, n == like_n))
    max_d = griesmer_like_max_d(n, k, r, 2)
    entries.append(BoundEntry("griesmer_like_max_d", "max-d", max_d, d == max_d))

    perfect = k_optimal_sp = None
    omega = None
    if n % 3 == 0 and d % 2 == 0 and d >= 2 and r == 2:
        sp_k, omega = sphere_packing_like_max_k(n, d)
        entries.append(BoundEntry("sphere_packing_like", "max-k", sp_k, k == sp_k))
        k_optimal_sp = k == sp_k
        perfect = 2**k * omega == 2 ** (2 * n // 3)

    nearly_perfect = k_optimal_johnson = None
    omega_imp = omega_orig = None
    if n % 3 == 0 and d % 4 == 0 and 4 <= d and 3 * d <= 4 * n and r == 2:
        j_k, omega_imp, omega_orig = johnson_like_improved_max_k(n, d)
        entries.append(BoundEntry("johnson_like_improved", "max-k", j_k, k == j_k))
        orig_k = 2 * n // 3 - ceil_log(2, omega_orig)
        entries.append(
            BoundEntry("johnson_like_original", "max-k", orig_k, k == orig_k)
        )
        k_optimal_johnson = k == j_k
        nearly_perfect = 2**k * omega_imp == 2 ** (2 * n // 3)

    return BoundReport(
        query=query,
        entries=tuple(entries),
        singleton_optimal=d == singleton,
        griesmer_like_d_optimal=d == max_d,
        perfect=perfect,
        k_optimal_sp=k_optimal_sp,
        nearly_perfect=nearly_perfect,
        k_optimal_johnson=k_optimal_johnson,
        omega=omega,
        omega_prime_improved=omega_imp,
        omega_prime_original=omega_orig,
    )
