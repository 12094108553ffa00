"""Dimension/distance/length bounds for codes and locality-2 binary LRCs.

All evaluations are exact: denominators are Fractions and every ceil-log is
computed by integer comparison against powers, never through floats.  The
LRC-specific bounds assume disjoint 3-coordinate repair groups (n = 3*ell)
and even distance; callers get InvalidShape / OddDistance otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def griesmer_inverted_max_k(n: int, d: int, q: int) -> int:
    """Largest k with the classical Griesmer length sum still <= n."""
    if d > n:
        return 0
    total = 0
    k = 0
    while True:
        total += ceil_div(d, q**k)
        if total > n:
            return k
        k += 1


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


def kopt_from_table(path: str | Path, fallback: Optional[KoptOracle] = None) -> KoptOracle:
    """Oracle backed by a table of ``n d kmax`` lines, falling back otherwise."""
    table: dict[tuple[int, int], int] = {}
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
        table[(n, d)] = kmax
    fallback = fallback or default_kopt()

    def oracle(n_prime: int, d: int) -> int:
        hit = table.get((n_prime, d))
        return hit if hit is not None else fallback(n_prime, d)

    return oracle


def cm_bound_max_k(
    n: int, d: int, r: int, kopt: Optional[KoptOracle] = None
) -> int:
    """Field-size-aware dimension bound min_tau [tau*r + kopt(n-tau(r+1), d)].

    tau ranges over 1..ceil(n/(r+1)); values making the residual length
    negative are skipped.
    """
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


# -- Griesmer -----------------------------------------------------------------


def griesmer_classical_min_n(k: int, d: int, q: int) -> int:
    """Classical Griesmer length bound: sum of ceil(d / q^i), i < k."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    return sum(ceil_div(d, q**i) for i in range(k))


def griesmer_like_terms(k: int, d: int, r: int, q: int) -> list[tuple[int, int]]:
    """The per-tau terms whose maximum is the locality-aware length bound."""
    if k <= r:
        raise EmptyTauRange(f"k={k} <= r={r} leaves no tau")
    terms = []
    for tau in range(1, ceil_div(k, r)):
        value = tau * (r + 1) + sum(ceil_div(d, q**i) for i in range(k - r * tau))
        terms.append((tau, value))
    return terms


def griesmer_like_min_n(k: int, d: int, r: int, q: int) -> int:
    """Locality-aware Griesmer length bound (maximum over tau)."""
    return max(value for _, value in griesmer_like_terms(k, d, r, q))


def griesmer_like_max_d(n: int, k: int, r: int, q: int) -> int:
    """Largest d admissible at (n, k, r) under both Griesmer-style bounds.

    The locality-aware bound can be slack where the classical one binds, so
    both are applied; for k <= r only the classical bound constrains.
    """
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


# -- sphere-packing -----------------------------------------------------------


def ball_size(n: int, radius: int, q: int) -> int:
    """Hamming ball size sum C(n,i)(q-1)^i, i <= radius."""
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(radius + 1))


def sphere_packing_classical_max_k(n: int, d: int, q: int) -> tuple[int, int]:
    """(max dimension, ball size O_d) from q^k <= q^n / O_d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    o_d = ball_size(n, (d - 1) // 2, q)
    return n - ceil_log(q, o_d), o_d


def lrc_ball_size(ell: int, d: int) -> int:
    """Size Omega_d of the locality-respecting ball: sum C(ell,s) 3^s.

    Closed form of the constrained sum over per-group weights (each group
    contributes weight 0 or 2, C(3,0)=1 and C(3,2)=3 ways).
    """
    return sum(math.comb(ell, s) * 3**s for s in range((d - 1) // 4 + 1))


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
    denominator); the improvement replaces the divisor floor(2n/d) with
    floor(4n/(3d)), which only counts weight-(d/2) words whose per-group
    weights are 0 or 2.  The improved bound value never exceeds the old one.
    """
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


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class BoundQuery:
    """Parameters a bound evaluation is asked about."""

    n: int
    k: int
    d: int
    r: int = 2

    @property
    def ell(self) -> Optional[int]:
        return self.n // (self.r + 1) if self.n % (self.r + 1) == 0 else None

    @property
    def t(self) -> Optional[int]:
        return (self.d - 2) // 2 if self.d % 2 == 0 else None


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
            return None if f is None else {"exact": str(f), "value": float(f)}

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

