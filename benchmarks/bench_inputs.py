"""Seeded input generator: builds the family codes and writes job files.

The workload seed picks, for every code, a monomially equivalent copy of
the family's outer code (columns permuted and scaled by nonzero GF(4)
elements, which keeps d and the weight distribution), which points of the
bundled 17-cap form each sub-cap (any subset of a cap is a cap), and the
``repair --seed`` values.  The same seed gives byte-identical files.

Jobs read only the ``.code`` / ``.lrc.json`` files written here, in the
formats ``gf4lrc construct --concat --output`` writes.  What the oracles
compare against is computed here too, from the family's known parameters
and from the small outer dual through the MacWilliams transform.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from gf4lrc import bounds, concat, families
from gf4lrc.code import LinearCode, WeightDistribution, macwilliams
from gf4lrc.gf4 import NONZERO, W, W2, gf4_mul
from gf4lrc.matrix import FieldMatrix
from gf4lrc.projective import CapSet, bundled_cap_pg3_17

CYCLIC43_POLY = (1, 0, W2, 1, 1, W, 0, 1)


@dataclass(frozen=True)
class CodeSpec:
    """One family code: how to build its outer code, and its known d1.

    ``weights`` says where the expected weight distributions come from:
    ``"dual"`` transforms the (small) outer dual, ``"outer"`` enumerates
    the (small) outer code, ``None`` skips them.
    """

    name: str
    build: Callable[[random.Random], LinearCode]
    d1: int
    weights: Optional[str] = None


def sub_cap(m: int) -> Callable[[random.Random], LinearCode]:
    def build(rng: random.Random) -> LinearCode:
        cap = bundled_cap_pg3_17()
        chosen = sorted(rng.sample(range(cap.size()), m))
        return families.cap_code(CapSet(cap.ambient, tuple(cap.points[i] for i in chosen)))

    return build


def full_cap(rng: random.Random) -> LinearCode:
    return families.cap_code(bundled_cap_pg3_17())


def cyclic43(rng: random.Random) -> LinearCode:
    return families.cyclic4(43, list(CYCLIC43_POLY))


def hamming(t: int) -> Callable[[random.Random], LinearCode]:
    return lambda rng: families.hamming4(t)


def solomon_stiffler(t: int, dims: tuple[int, ...]) -> Callable[[random.Random], LinearCode]:
    return lambda rng: families.solomon_stiffler(t, list(dims))


@dataclass
class Prepared:
    """A written code: file paths plus everything its oracles need."""

    spec: CodeSpec
    outer: LinearCode
    lrc: concat.BinaryLrc
    code_path: Path
    lrc_path: Path
    outer_weights: Optional[WeightDistribution]
    lrc_weights: Optional[WeightDistribution]
    lrc_bounds: dict

    @property
    def d(self) -> int:
        return 2 * self.spec.d1


def monomial_copy(code: LinearCode, rng: random.Random) -> LinearCode:
    """Columns permuted, then each scaled by a nonzero GF(4) element."""
    n = code.n
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.choice(NONZERO) for _ in range(n)]
    rows = [code.generator.row_tuple(i) for i in range(code.k)]
    return LinearCode.from_generator(
        FieldMatrix.from_rows(4, [[gf4_mul(scale[j], r[perm[j]]) for j in range(n)] for r in rows])
    )


def prepare(spec: CodeSpec, seed: int, out_dir: Path) -> Prepared:
    """Build, copy, concatenate and write one code; derive its expectations.

    The LRC file carries the family's known d, where ``construct --concat``
    would write the certified one.
    """
    rng = random.Random(f"{seed}:{spec.name}")
    outer = monomial_copy(spec.build(rng), rng)
    lrc = concat.concatenate(outer)
    if (lrc.n, lrc.k) != (3 * outer.n, 2 * outer.k):
        raise AssertionError(f"{spec.name}: concatenation has wrong length or dimension")
    lrc.d = 2 * spec.d1
    code_path = out_dir / f"{spec.name}.code"
    lrc_path = out_dir / f"{spec.name}.lrc.json"
    extras = {"kind": "generator", "n": outer.n, "k": outer.k, "d": spec.d1}
    code_path.write_text(outer.generator.to_text(extras))
    lrc_path.write_text(json.dumps(lrc.to_json(), sort_keys=True, indent=2) + "\n")
    outer_weights = None
    if spec.weights == "dual":
        dual = outer.dual()
        outer_weights = macwilliams(dual.weight_distribution(), dual.codeword_count(), outer.n, 4)
    elif spec.weights == "outer":
        outer_weights = outer.weight_distribution()
    lrc_weights = concat.lrc_weights_from_outer(outer_weights) if outer_weights else None
    lrc_bounds = bounds.classify(lrc.n, lrc.k, lrc.d, 2).to_json()
    return Prepared(spec, outer, lrc, code_path, lrc_path, outer_weights, lrc_weights, lrc_bounds)


def prepare_all(specs, seed: int, out_dir: Path) -> dict[str, Prepared]:
    out_dir.mkdir(parents=True, exist_ok=True)
    return {spec.name: prepare(spec, seed, out_dir) for spec in specs}


def repair_seed(seed: int, kind: str) -> int:
    """Base ``repair --seed`` of one job kind; cycle c adds c * trials."""
    return random.Random(f"{seed}:repair:{kind}").randrange(1 << 32)
