"""Recomputation of the published parameter tables and worked examples.

Each item recomputes one table row or example from scratch and compares
against the published values.  Items whose published arithmetic is
internally inconsistent are reported as ``paper_discrepancy_noted`` with
both readings, and do not fail a reproduction run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from . import bounds, families
from .concat import (
    certify_distance,
    concatenate,
    locality_check,
    lrc_weights_from_outer,
)
from .gf4 import W, W2
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


_TABLE1 = {
    "table1.row1": ((4, 2, 3), (12, 4, 6)),
    "table1.row2": ((5, 2, 4), (15, 4, 8)),
    "table1.row3": ((5, 3, 3), (15, 6, 6)),
    "table1.row4": ((6, 3, 4), (18, 6, 8)),
}


def _table1_row(item_id: str) -> ReproduceItem:
    (n1, k1, d1), (n, k, d) = _TABLE1[item_id]
    outer = families.mds_rs(n1, k1)
    lrc = concatenate(outer)
    cert = certify_distance(lrc)
    expected = {
        "outer": [n1, k1, d1],
        "lrc": [n, k, d],
        "griesmer_like_d_optimal": True,
    }
    computed = {
        "outer": [outer.n, outer.k, outer.min_distance().d],
        "lrc": [lrc.n, lrc.k, cert.d],
        "griesmer_like_d_optimal": bounds.griesmer_like_max_d(lrc.n, lrc.k, 2, 2)
        == cert.d,
    }
    return _compare(item_id, expected, computed)


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


def _example_5_1() -> ReproduceItem:
    outer = families.hamming4(2)
    lrc = concatenate(outer)
    cert = certify_distance(lrc)
    weights = lrc.code.weight_distribution()
    closed = lrc_weights_from_outer(families.hamming4_weights_closed_form(2))
    report = bounds.classify(lrc.n, lrc.k, cert.d)
    expected = {
        "outer": [5, 3, 3],
        "lrc": [15, 6, 6],
        "weights": {"6": 30, "8": 15, "10": 18},
        "perfect": True,
        "packing_identity": "2^6 * 16 == 2^10",
        "closed_form_matches": True,
        "locality_ok": True,
    }
    computed = {
        "outer": [outer.n, outer.k, outer.min_distance().d],
        "lrc": [lrc.n, lrc.k, cert.d],
        "weights": {
            str(i): c for i, c in enumerate(weights.counts) if c and i > 0
        },
        "perfect": bool(report.perfect),
        "packing_identity": (
            f"2^{lrc.k} * {report.omega} == 2^{2 * lrc.n // 3}"
            if 2**lrc.k * report.omega == 2 ** (2 * lrc.n // 3)
            else "inequality"
        ),
        "closed_form_matches": closed.counts == weights.counts,
        "locality_ok": locality_check(lrc, 2).ok,
    }
    return _compare("example5.1", expected, computed)


def _example_5_2() -> ReproduceItem:
    gen_poly = [1, 0, W2, 1, 1, W, 0, 1]
    outer = families.cyclic4(43, gen_poly)
    cert = outer.min_distance()
    k_bound, o_d = bounds.sphere_packing_classical_max_k(43, cert.d, 4)
    lrc = concatenate(outer)
    omega = bounds.lrc_ball_size(43, 10)
    expected = {
        "outer": [43, 36, 5],
        "ball_size": 8257,
        "ball_size_brackets": True,  # 2^13 < O_d <= 2^14
        "outer_k_optimal_sp": True,
        "lrc": [129, 72, 10],
        "lrc_gap": 14,
    }
    computed = {
        "outer": [outer.n, outer.k, cert.d],
        "ball_size": o_d,
        "ball_size_brackets": 2**13 < o_d <= 2**14,
        "outer_k_optimal_sp": k_bound == outer.k,
        "lrc": [lrc.n, lrc.k, lrc.d],
        "lrc_gap": bounds.ceil_log(2, omega),
    }
    return _compare("example5.2", expected, computed)


def _example_6_1() -> ReproduceItem:
    outer = families.hexacode()
    outer_weights = outer.weight_distribution()
    _, o_prime = bounds.johnson_classical_max_k(6, 4, 4)
    lrc = concatenate(outer)
    cert = certify_distance(lrc)
    lrc_weights = lrc.code.weight_distribution()
    report = bounds.classify(lrc.n, lrc.k, cert.d)
    expected = {
        "outer": [6, 3, 4],
        "outer_weights": {"4": 45, "6": 18},
        "outer_denominator": "64",
        "lrc": [18, 6, 8],
        "lrc_weights": {"8": 45, "12": 18},
        "nearly_perfect": True,
        "improved_denominator": "64",
    }
    computed = {
        "outer": [outer.n, outer.k, outer.min_distance().d],
        "outer_weights": {
            str(i): c for i, c in enumerate(outer_weights.counts) if c and i > 0
        },
        "outer_denominator": str(o_prime),
        "lrc": [lrc.n, lrc.k, cert.d],
        "lrc_weights": {
            str(i): c for i, c in enumerate(lrc_weights.counts) if c and i > 0
        },
        "nearly_perfect": bool(report.nearly_perfect),
        "improved_denominator": str(report.omega_prime_improved),
    }
    return _compare("example6.1", expected, computed)


def _example_6_2(heavy: bool = False) -> ReproduceItem:
    cap = bundled_cap_pg3_17()
    outer = families.cap_code(cap)  # verifies the cap
    lrc = concatenate(outer)
    cert = certify_distance(lrc)
    report = bounds.classify(lrc.n, lrc.k, cert.d)
    expected = {
        "cap_size": 17,
        "outer": [17, 13, 4],
        "lrc": [51, 26, 8],
        "improved_denominator": "205",
        "gap": 8,
        "k_optimal_johnson": True,
    }
    computed = {
        "cap_size": cap.size(),
        "outer": [outer.n, outer.k, outer.min_distance().d],
        "lrc": [lrc.n, lrc.k, cert.d],
        "improved_denominator": str(report.omega_prime_improved),
        "gap": bounds.ceil_log(2, report.omega_prime_improved),
        "k_optimal_johnson": bool(report.k_optimal_johnson),
    }
    if heavy:
        # Only the 2^26-word LRC is enumerated; the outer weights come from the dual.
        outer_weights = outer.cheapest_weights()
        lrc_weights = lrc.code.weight_distribution()
        expected["weight_map_ok"] = True
        computed["weight_map_ok"] = lrc_weights == lrc_weights_from_outer(outer_weights)
    return _compare("example6.2", expected, computed)


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
    "table1.row1": _table1_row,
    "table1.row2": _table1_row,
    "table1.row3": _table1_row,
    "table1.row4": _table1_row,
    "example4.1": lambda _id: _example_4_1(),
    "example5.1": lambda _id: _example_5_1(),
    "example5.2": lambda _id: _example_5_2(),
    "example6.1": lambda _id: _example_6_1(),
    "example6.2": _example_6_2,
    "example6.3": lambda _id: _example_6_3(),
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
            raise KeyError(f"unknown reproduce id {token!r}")
        out.extend(matches)
    return list(dict.fromkeys(out))


def run(scope: list[str] | None = None, heavy: bool = False) -> list[ReproduceItem]:
    """Run the requested items (all by default); heavy enables the
    2^26-codeword weight enumeration of the cap-based construction."""
    items = []
    for item_id in expand_ids(scope):
        item = _ITEMS[item_id]
        items.append(item(heavy) if item_id == "example6.2" else item(item_id))
    return items
