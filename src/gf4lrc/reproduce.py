"""Recomputation of the published parameter tables and worked examples.

A code-backed item is one row of ``_ITEMS``: a recipe for its GF(4) outer
code and the values the paper states.  Only the stated keys are computed,
each by its ``_FACTS`` entry, from a ``_Facts`` context that builds each
code, distance, weight table and bound report on first read.  A new item is
a new row there.  Each distance, d1 or the LRC's d, is read from exact
weights (``cheapest_weights``): the outer code's, which the concatenation
carries lifted.  No item prints a witness, and the family builders check d
by the same weights, so no item runs a dependent-set search.  Examples 4.1
and 6.3 are bound arithmetic, kept as code; 6.3's published arithmetic is
internally inconsistent, so it is reported as ``paper_discrepancy_noted``
with both readings and does not fail a run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from . import bounds, concat, families
from .code import LinearCode, WeightDistribution, weight_histogram, weight_planes
from .errors import InvalidParameters
from .gf4 import W, W2
from .matrix import pack_row, scale_row, unpack_row
from .projective import bundled_cap_pg3_17

MATCH = "match"
MISMATCH = "mismatch"
NOTED = "paper_discrepancy_noted"


@dataclass(frozen=True)
class ReproduceItem:
    id: str
    expected: dict
    computed: dict
    status: str

    def to_json(self) -> dict:
        return asdict(self)


def _compare(item_id: str, expected: dict, computed: dict) -> ReproduceItem:
    status = MATCH if expected == computed else MISMATCH
    return ReproduceItem(item_id, expected, computed, status)


def _example_4_1() -> ReproduceItem:
    expected = {
        "outer_griesmer_min_n": [9, 10],
        "lrc_classical_griesmer_min_n": [27, 30],
        "lrc_max_d": [14, 16],
    }
    computed = {
        "outer_griesmer_min_n": [
            bounds.griesmer_classical_min_n(2, 7, 4),
            bounds.griesmer_classical_min_n(2, 8, 4),
        ],
        "lrc_classical_griesmer_min_n": [
            bounds.griesmer_classical_min_n(4, 14, 2),
            bounds.griesmer_classical_min_n(4, 16, 2),
        ],
        "lrc_max_d": [
            bounds.griesmer_like_max_d(27, 4, 2, 2),
            bounds.griesmer_like_max_d(30, 4, 2, 2),
        ],
    }
    return _compare("example4.1", expected, computed)


@dataclass(frozen=True)
class _Row:
    """A code-backed item: its outer code's recipe and the stated values."""

    build: Callable[[], LinearCode]
    expected: dict
    #: Stated values that only ``--heavy`` computes.
    heavy: dict = field(default_factory=dict)


@dataclass
class _Facts:
    """What a row's facts are read from, each built on first read."""

    row: _Row

    @cached_property
    def outer(self) -> LinearCode:
        return self.row.build()

    @cached_property
    def d1(self) -> int:
        return self.outer.cheapest_weights().distance()

    @cached_property
    def lrc(self) -> concat.BinaryLrc:
        self.outer.cheapest_weights()  # first, so that the concatenation carries them
        return concat.concatenate(self.outer)

    @cached_property
    def d(self) -> int:
        return self.lrc.cheapest_weights().distance()

    @cached_property
    def report(self) -> bounds.BoundReport:
        return bounds.classify(self.lrc.n, self.lrc.k, self.d)

    @cached_property
    def lrc_weights(self) -> WeightDistribution:
        """The LRC's weights by enumerating its binary code itself, spanned
        by lift(g) and lift(w*g) over the outer generator rows g: a check of
        ``_lifted``, the map from outer to LRC weights, that reads no H."""
        generator, n = self.outer.generator, self.lrc.n
        rows = [
            pack_row(2, self.lrc.lift(unpack_row(4, row, generator.ncols)))
            for g in generator.rows
            for row in (g, scale_row(4, g, W))
        ]
        counts, _ = weight_histogram(weight_planes(rows, n, 1), n)
        return WeightDistribution(n, self.lrc.k, 2, counts)

    @cached_property
    def sphere_packing(self) -> tuple[int, int]:
        return bounds.sphere_packing_classical_max_k(self.outer.n, self.d1, 4)

    @cached_property
    def lrc_gap(self) -> int:
        return bounds.ceil_log(2, bounds.lrc_ball_size(self.lrc.ell, self.d))


def _nonzero(weights: WeightDistribution) -> dict:
    return {str(i): c for i, c in enumerate(weights.counts) if c and i > 0}


#: Every stated value a row may name, computed from its ``_Facts``.
_FACTS: dict[str, Callable[[_Facts], object]] = {
    # cap_code takes one parity-check column per cap point.
    "cap_size": lambda f: f.outer.n,
    "outer": lambda f: [f.outer.n, f.outer.k, f.d1],
    "outer_weights": lambda f: _nonzero(f.outer.cheapest_weights()),
    "outer_denominator": lambda f: str(bounds.johnson_classical_max_k(f.outer.n, f.d1, 4)[1]),
    "outer_k_optimal_sp": lambda f: f.sphere_packing[0] == f.outer.k,
    "ball_size": lambda f: f.sphere_packing[1],
    # 2^(g-1) < O_d <= 2^g for the LRC's gap g.
    "ball_size_brackets": lambda f: bounds.ceil_log(2, f.sphere_packing[1]) == f.lrc_gap,
    "lrc": lambda f: [f.lrc.n, f.lrc.k, f.d],
    "lrc_gap": lambda f: f.lrc_gap,
    "weights": lambda f: _nonzero(f.lrc_weights),
    "lrc_weights": lambda f: _nonzero(f.lrc_weights),
    # A Hamming outer code's t is its count n1 - k1 of parity checks.
    "closed_form_matches": lambda f: f.lrc_weights.counts == concat.lrc_weights_from_outer(
        families.hamming4_weights_closed_form(f.outer.n - f.outer.k)
    ).counts,
    # Only the 2^26-word LRC is enumerated; the outer weights come from the dual.
    "weight_map_ok": lambda f: (
        f.lrc_weights == concat.lrc_weights_from_outer(f.outer.cheapest_weights())
    ),
    "locality_ok": lambda f: concat.locality_check(f.lrc, 2).ok,
    "griesmer_like_d_optimal": lambda f: f.d == bounds.griesmer_like_max_d(f.lrc.n, f.lrc.k, 2, 2),
    "perfect": lambda f: bool(f.report.perfect),
    "packing_identity": lambda f: (
        f"2^{f.lrc.k} * {f.report.omega} == 2^{2 * f.lrc.n // 3}"
        if 2**f.lrc.k * f.report.omega == 2 ** (2 * f.lrc.n // 3)
        else "inequality"
    ),
    "nearly_perfect": lambda f: bool(f.report.nearly_perfect),
    "improved_denominator": lambda f: str(f.report.omega_prime_improved),
    "gap": lambda f: bounds.ceil_log(2, f.report.omega_prime_improved),
    "k_optimal_johnson": lambda f: bool(f.report.k_optimal_johnson),
}


def _table1_expected(outer: list, lrc: list) -> dict:
    return {"outer": outer, "lrc": lrc, "griesmer_like_d_optimal": True}


def _example_6_3() -> ReproduceItem:
    n, k, d = 75, 34, 12
    ell = n // 3
    omega = bounds.lrc_ball_size(ell, d)
    k_bound, improved, original = bounds.johnson_like_improved_max_k(n, d)
    # The published computation substitutes n where the group count belongs,
    # yielding a larger denominator and hence a bound the code appears to meet.
    printed_omega = 1 + 3 * n + 9 * n * (n - 1) // 2
    printed_mass = n * (n - 3) * (n - 6) // 6
    printed_improved = printed_omega + Fraction(printed_mass, 4 * n // (3 * d))
    printed_original = printed_omega + Fraction(printed_mass, 2 * n // d)
    expected = {
        "code": [n, k, d],
        "printed_improved_denominator": "65927/2",  # 32963.5
        "printed_k_bound": 34,
        "printed_original_log": 15,
    }
    computed = {
        "code": [n, k, d],
        "printed_improved_denominator": str(printed_improved),
        "printed_k_bound": 2 * n // 3 - bounds.ceil_log(2, printed_improved),
        "printed_original_log": bounds.ceil_log(2, printed_original),
        "group_count_reading": {
            "omega": omega,
            "improved_denominator": str(improved),
            "original_denominator": str(original),
            "k_bound_improved": k_bound,
            "k_bound_original": 2 * n // 3 - bounds.ceil_log(2, original),
            "attains_improved": k_bound == k,
        },
    }
    # Both readings are reported; the group-count reading gives k <= 36, so
    # the printed claim of equality at k = 34 is not asserted either way.
    return ReproduceItem("example6.3", expected, computed, NOTED)


_ITEMS = {
    "table1.row1": _Row(lambda: families.mds_rs(4, 2), _table1_expected([4, 2, 3], [12, 4, 6])),
    "table1.row2": _Row(lambda: families.mds_rs(5, 2), _table1_expected([5, 2, 4], [15, 4, 8])),
    "table1.row3": _Row(lambda: families.mds_rs(5, 3), _table1_expected([5, 3, 3], [15, 6, 6])),
    "table1.row4": _Row(lambda: families.mds_rs(6, 3), _table1_expected([6, 3, 4], [18, 6, 8])),
    "example4.1": _example_4_1,
    "example5.1": _Row(
        lambda: families.hamming4(2),
        {
            "outer": [5, 3, 3],
            "lrc": [15, 6, 6],
            "weights": {"6": 30, "8": 15, "10": 18},
            "perfect": True,
            "packing_identity": "2^6 * 16 == 2^10",
            "closed_form_matches": True,
            "locality_ok": True,
        },
    ),
    "example5.2": _Row(
        lambda: families.cyclic4(43, [1, 0, W2, 1, 1, W, 0, 1]),
        {
            "outer": [43, 36, 5],
            "ball_size": 8257,
            "ball_size_brackets": True,  # 2^13 < O_d <= 2^14
            "outer_k_optimal_sp": True,
            "lrc": [129, 72, 10],
            "lrc_gap": 14,
        },
    ),
    "example6.1": _Row(
        lambda: families.hexacode(),
        {
            "outer": [6, 3, 4],
            "outer_weights": {"4": 45, "6": 18},
            "outer_denominator": "64",
            "lrc": [18, 6, 8],
            "lrc_weights": {"8": 45, "12": 18},
            "nearly_perfect": True,
            "improved_denominator": "64",
        },
    ),
    "example6.2": _Row(
        lambda: families.cap_code(bundled_cap_pg3_17()),  # verifies the cap
        {
            "cap_size": 17,
            "outer": [17, 13, 4],
            "lrc": [51, 26, 8],
            "improved_denominator": "205",
            "gap": 8,
            "k_optimal_johnson": True,
        },
        heavy={"weight_map_ok": True},
    ),
    "example6.3": _example_6_3,
}

ALL_IDS = tuple(_ITEMS)


def expand_ids(scope: list[str] | None) -> list[str]:
    """Expand prefixes like ``table1`` into the matching item ids, each once."""
    if not scope:
        return list(ALL_IDS)
    out = []
    for token in scope:
        matches = [i for i in ALL_IDS if i == token or i.startswith(token + ".")]
        if not matches:
            raise InvalidParameters(f"unknown reproduce id {token!r}")
        out.extend(matches)
    return list(dict.fromkeys(out))


def _run_row(item_id: str, row: _Row, heavy: bool) -> ReproduceItem:
    """Compute each value the row states, and only those."""
    expected = {**row.expected, **(row.heavy if heavy else {})}
    facts = _Facts(row)
    return _compare(item_id, expected, {key: _FACTS[key](facts) for key in expected})


def run(scope: list[str] | None = None, heavy: bool = False) -> list[ReproduceItem]:
    """Run the requested items (all by default); heavy enables the
    2^26-codeword weight enumeration of the cap-based construction."""
    items = []
    for item_id in expand_ids(scope):
        item = _ITEMS[item_id]
        items.append(_run_row(item_id, item, heavy) if isinstance(item, _Row) else item())
    return items
