"""Dimension/distance/length bounds for codes and locality-2 binary LRCs.

All evaluations are exact: denominators are Fractions and every ceil-log is
computed by integer comparison against powers, never through floats.  The
LRC-specific bounds assume disjoint 3-coordinate repair groups (n = 3*ell)
and even distance; callers get InvalidShape / OddDistance otherwise.

A [3*ell, k, d; 2] LRC concatenates a GF(4) outer code of length ell and
distance d/2, so its packing denominators are the outer code's classical
GF(4) ones at (ell, d/2); only the space they divide, 2^(2*ell), is binary.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from .errors import EmptyTauRange, InvalidShape, OddDistance, ParseError

KoptOracle = Callable[[int, int], int]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_log(base: int, x) -> int:
    """Smallest m >= 0 with base^m >= x, exact for int or Fraction x > 0."""
    if x <= 0:
        raise ValueError("ceil_log requires x > 0")
    m = 0
    power = 1
    while power < x:
        power *= base
        m += 1
    return m


# -- Singleton-like and C-M ---------------------------------------------------


def singleton_like_max_d(n: int, k: int, r: int) -> int:
    """Largest distance any [n, k] LRC with locality r can have."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return n - k - ceil_div(k, r) + 2


def griesmer_sum(m: int, d: int, q: int) -> int:
    """Sum of ceil(d / q^i) over 0 <= i < m; every term from q^i >= d on is 1."""
    total, i, power = 0, 0, 1
    while i < m and power < d:
        total += ceil_div(d, power)
        i, power = i + 1, power * q
    return total + m - i


def griesmer_inverted_max_k(n: int, d: int, q: int) -> int:
    """Largest k with the classical Griesmer length sum still <= n."""
    if d < 1:
        raise ValueError("d must be >= 1")
    k = 0
    while griesmer_sum(k + 1, d, q) <= n:
        k += 1
        if q**k >= d:  # every further term is 1
            return k + n - griesmer_sum(k, d, q)
    return k


def default_kopt(q: int = 2) -> KoptOracle:
    """Upper bound on the dimension of a q-ary [n', >=d] code.

    The minimum of the Singleton and inverted-Griesmer bounds; 0 when no
    positive-dimension code of distance d fits in length n'.
    """

    def oracle(n_prime: int, d: int) -> int:
        if n_prime <= 0 or d > n_prime:
            return 0
        return min(n_prime - d + 1, griesmer_inverted_max_k(n_prime, d, q))

    return oracle


def kopt_from_table(path: str | Path) -> KoptOracle:
    """Oracle backed by a table of ``n d kmax`` lines, else ``default_kopt()``."""
    table: dict[tuple[int, int], int] = {}
    first_line: dict[tuple[int, int], int] = {}
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"table is not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'n d kmax', got {line!r}")
        try:
            n, d, kmax = (int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if min(n, d, kmax) < 0:
            raise ParseError(f"line {lineno}: negative entry in {line!r}")
        if (n, d) in first_line:
            raise ParseError(
                f"line {lineno}: duplicate (n, d) = ({n}, {d}), first on line {first_line[n, d]}"
            )
        first_line[n, d] = lineno
        table[(n, d)] = kmax
    fallback = default_kopt()

    def oracle(n_prime: int, d: int) -> int:
        hit = table.get((n_prime, d))
        return hit if hit is not None else fallback(n_prime, d)

    return oracle


def cm_bound_max_k(n: int, d: int, r: int, kopt: Optional[KoptOracle] = None) -> int:
    """Field-size-aware dimension bound min_tau [tau*r + kopt(n-tau(r+1), d)].

    tau ranges over 1..floor(n/(r+1)), where the residual length is >= 0.
    """
    kopt = kopt or default_kopt()
    values = [tau * r + kopt(n - tau * (r + 1), d) for tau in range(1, n // (r + 1) + 1)]
    if not values:
        raise ValueError("no admissible tau")
    return min(values)


# -- Griesmer -----------------------------------------------------------------


def griesmer_classical_min_n(k: int, d: int, q: int) -> int:
    """Classical Griesmer length bound: sum of ceil(d / q^i), i < k."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    return griesmer_sum(k, d, q)


def griesmer_like_terms(k: int, d: int, r: int, q: int) -> list[tuple[int, int]]:
    """The per-tau terms whose maximum is the locality-aware length bound."""
    if k <= r:
        raise EmptyTauRange(f"k={k} <= r={r} leaves no tau")
    return [
        (tau, tau * (r + 1) + griesmer_sum(k - r * tau, d, q))
        for tau in range(1, ceil_div(k, r))
    ]


def griesmer_like_min_n(k: int, d: int, r: int, q: int) -> int:
    """Locality-aware Griesmer length bound (maximum over tau)."""
    return max(value for _, value in griesmer_like_terms(k, d, r, q))


def griesmer_like_max_d(n: int, k: int, r: int, q: int) -> int:
    """Largest d admissible at (n, k, r) under both Griesmer-style bounds.

    The locality-aware bound can be slack where the classical one binds, so
    both are applied; for k <= r only the classical bound constrains.  Both
    length sums grow with d and the classical one exceeds n from d = n + 1
    on, so the admissible d are a prefix of 1..n, found by bisection.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def too_long(d: int) -> bool:
        return griesmer_classical_min_n(k, d, q) > n or (
            k > r and griesmer_like_min_n(k, d, r, q) > n
        )

    return bisect.bisect_left(range(1, n + 1), True, key=too_long)


# -- sphere-packing -----------------------------------------------------------


def ball_size(n: int, radius: int, q: int) -> int:
    """Hamming ball size sum C(n,i)(q-1)^i, i <= radius, term by term:
    term i + 1 is term i times (n - i)(q - 1)/(i + 1), exact in ints."""
    total = term = int(radius >= 0)
    for i in range(min(radius, n)):
        term = term * (n - i) * (q - 1) // (i + 1)
        total += term
    return total


def sphere_packing_classical_max_k(n: int, d: int, q: int) -> tuple[int, int]:
    """(max dimension, ball size O_d) from q^k <= q^n / O_d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    o_d = ball_size(n, (d - 1) // 2, q)
    return n - ceil_log(q, o_d), o_d


def lrc_ball_size(ell: int, d: int) -> int:
    """Size Omega_d of the locality-respecting ball: sum C(ell,s) 3^s.

    Each group holds weight 0 or 2 (C(3,0)=1 and C(3,2)=3 ways), so this is
    the GF(4) Hamming ball of radius (d/2 - 1)//2 on the ell groups.
    """
    return ball_size(ell, (d - 1) // 4, 4)


def sphere_packing_like_max_k(n: int, d: int) -> tuple[int, int]:
    """(max dimension, Omega_d) for [n=3*ell, k, d even; r=2] binary LRCs."""
    if n % 3:
        raise InvalidShape(f"n={n} is not a multiple of 3")
    if d % 2 or d < 2:
        raise InvalidShape(f"distance {d} must be even and >= 2")
    omega = lrc_ball_size(n // 3, d)
    return 2 * n // 3 - ceil_log(2, omega), omega


# -- Johnson ------------------------------------------------------------------


def johnson_classical_max_k(n: int, d: int, q: int) -> tuple[int, Fraction]:
    """(max dimension, O'_d) where O'_d = O_d + C(n,d/2)(q-1)^(d/2) / floor(2n/d).

    The divisor is the size of a maximal constant-weight-d/2 code with
    pairwise disjoint supports.
    """
    if d % 2:
        raise OddDistance(f"distance {d} must be even")
    if d < 2 or d > 2 * n:
        raise InvalidShape(f"distance {d} out of range for length {n}")
    o_d = ball_size(n, (d - 1) // 2, q)
    o_prime = o_d + Fraction(math.comb(n, d // 2) * (q - 1) ** (d // 2), 2 * n // d)
    return n - ceil_log(q, o_prime), o_prime


def johnson_like_improved_max_k(n: int, d: int) -> tuple[int, Fraction, Fraction]:
    """Sharpened dimension bound for [n=3*ell, k, d; r=2] LRCs with 4 | d.

    Returns (max dimension, improved denominator, pre-improvement
    denominator).  The improved one is the GF(4) Johnson denominator at
    (ell, d/2): its divisor floor(4n/(3d)) replaces floor(2n/d).  The
    improved bound value never exceeds the old one.
    """
    if n % 3:
        raise InvalidShape(f"n={n} is not a multiple of 3")
    if d % 4 or not 4 <= d <= 4 * n // 3:
        raise InvalidShape(f"distance {d} must be a multiple of 4 in 4..{4 * n // 3}")
    ell = n // 3
    _, improved = johnson_classical_max_k(ell, d // 2, 4)
    mass = math.comb(ell, d // 4) * 3 ** (d // 4)
    original = lrc_ball_size(ell, d) + Fraction(mass, 2 * n // d)
    return 2 * n // 3 - ceil_log(2, improved), improved, original


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class BoundQuery:
    """Parameters a bound evaluation is asked about."""

    n: int
    k: int
    d: int
    r: int = 2


@dataclass(frozen=True)
class BoundEntry:
    name: str
    direction: str  # "max-k" | "min-n" | "max-d"
    value: int
    attained: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "direction": self.direction,
            "value": self.value,
            "attained": self.attained,
        }


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound at (n, k, d, r) plus optimality verdicts."""

    query: BoundQuery
    entries: tuple[BoundEntry, ...]
    singleton_optimal: bool
    griesmer_like_d_optimal: bool
    perfect: Optional[bool]
    k_optimal_sp: Optional[bool]
    nearly_perfect: Optional[bool]
    k_optimal_johnson: Optional[bool]
    omega: Optional[int]
    omega_prime_improved: Optional[Fraction]
    omega_prime_original: Optional[Fraction]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json(self) -> dict:
        def frac(f):
            # "value" is null where the exact value lies beyond float range;
            # "exact" is str(f) through Decimal, which has no digit limit.
            if f is None:
                return None
            try:
                value = float(f)
            except OverflowError:
                value = None
            num, den = (str(Decimal(v)) for v in (f.numerator, f.denominator))
            return {"exact": num if den == "1" else f"{num}/{den}", "value": value}

        return {
            "n": self.query.n,
            "k": self.query.k,
            "d": self.query.d,
            "r": self.query.r,
            "bounds": [e.to_json() for e in self.entries],
            "verdicts": {
                "singleton_optimal": self.singleton_optimal,
                "griesmer_like_d_optimal": self.griesmer_like_d_optimal,
                "perfect": self.perfect,
                "k_optimal_sp": self.k_optimal_sp,
                "nearly_perfect": self.nearly_perfect,
                "k_optimal_johnson": self.k_optimal_johnson,
            },
            "denominators": {
                "omega": self.omega,
                "omega_prime_improved": frac(self.omega_prime_improved),
                "omega_prime_original": frac(self.omega_prime_original),
            },
        }


def classify(
    n: int, k: int, d: int, r: int = 2, kopt: Optional[KoptOracle] = None
) -> BoundReport:
    """Evaluate every applicable bound for a binary [n, k, d; r] LRC.

    "Attained" records parameter equality in each bound's own direction;
    d-optimality additionally checks that no larger d is admissible at the
    same (n, k, r).  Perfection and near-perfection are exact equalities of
    the code size against the packing denominators.
    """
    if min(n, k, d, r) < 1:
        raise InvalidShape(f"n, k, d and r must be >= 1, got {n}, {k}, {d}, {r}")
    if max(k, d) > n:
        raise InvalidShape(f"k and d must be <= n, got n={n}, k={k}, d={d}")
    entries = []

    def add(name: str, direction: str, value: int, actual: int) -> bool:
        entries.append(BoundEntry(name, direction, value, actual == value))
        return entries[-1].attained

    singleton_optimal = add("singleton_like", "max-d", singleton_like_max_d(n, k, r), d)
    if n >= r + 1:  # below that, no tau is admissible
        add("cm", "max-k", cm_bound_max_k(n, d, r, kopt), k)
    add("griesmer_classical", "min-n", griesmer_classical_min_n(k, d, 2), n)
    if k > r:
        add("griesmer_like", "min-n", griesmer_like_min_n(k, d, r, 2), n)
    d_optimal = add("griesmer_like_max_d", "max-d", griesmer_like_max_d(n, k, r, 2), d)

    perfect = k_optimal_sp = omega = None
    nearly_perfect = k_optimal_johnson = omega_imp = omega_orig = None
    if n % 3 == 0 and d % 2 == 0 and r == 2:
        space = 2 ** (2 * n // 3)
        sp_k, omega = sphere_packing_like_max_k(n, d)
        k_optimal_sp = add("sphere_packing_like", "max-k", sp_k, k)
        perfect = 2**k * omega == space
        if d % 4 == 0 and 3 * d <= 4 * n:
            j_k, omega_imp, omega_orig = johnson_like_improved_max_k(n, d)
            k_optimal_johnson = add("johnson_like_improved", "max-k", j_k, k)
            orig_k = 2 * n // 3 - ceil_log(2, omega_orig)
            add("johnson_like_original", "max-k", orig_k, k)
            nearly_perfect = 2**k * omega_imp == space

    return BoundReport(
        query=BoundQuery(n, k, d, r),
        entries=tuple(entries),
        singleton_optimal=singleton_optimal,
        griesmer_like_d_optimal=d_optimal,
        perfect=perfect,
        k_optimal_sp=k_optimal_sp,
        nearly_perfect=nearly_perfect,
        k_optimal_johnson=k_optimal_johnson,
        omega=omega,
        omega_prime_improved=omega_imp,
        omega_prime_original=omega_orig,
    )
