"""The three workloads: job kinds, their command lines and their oracles.

A job is one in-process ``gf4lrc.cli.main([...])`` call on files written by
``bench_inputs``.  Each workload is a cycle of job kinds run round-robin,
so host speed drift hits every kind alike.  Every job's output is checked
by an oracle that does not call the code under test: distances against
the family's known d, witnesses by weight and by an independent syndrome
computation, weights against the MacWilliams transform of the small outer
dual, repair rates against exact or binomial bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import bench_inputs as bi

# GF(4) product table for the witness syndrome check; w^2 = w + 1.
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))

#: Half-width of the accepted interval for a simulated failure count, in
#: binomial standard deviations.
SIGMAS = 5.0


@dataclass(frozen=True)
class Kind:
    """One job kind: its argv for a given cycle and the oracle of its output.

    ``check(rc, stdout)`` returns a list of problems; empty means correct.
    """

    name: str
    argv: Callable[[int], list[str]]
    check: Callable[[int, str], list[str]]
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    """A workload: the codes it needs and how its cycle is built.  Why each
    workload was chosen is recorded in ``BENCHMARK.json``.

    ``cycle_s`` is the nominal length of one cycle on a shared 2-core x86
    host at the commit that defined the benchmark.  A run is sized from it
    once, so every run of one --seconds value runs the same jobs and the
    latency percentiles fall on the same job kinds.
    """

    name: str
    specs: tuple[bi.CodeSpec, ...]
    kinds: Callable[[dict, int], list[Kind]]
    cycle_s: float


# -- oracles -------------------------------------------------------------------


def _load(rc: int, out: str):
    if rc != 0:
        return None, [f"exit code {rc}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _binary_member(parity_rows: tuple[int, ...], word) -> bool:
    packed = sum(1 << j for j, v in enumerate(word) if v)
    return all((row & packed).bit_count() % 2 == 0 for row in parity_rows)


def _gf4_member(parity_rows, word) -> bool:
    for row in parity_rows:
        acc = 0
        for h, v in zip(row, word):
            acc ^= _MUL[h][v]
        if acc:
            return False
    return True


def check_distance(report: dict, d: int, member, method: str | None = None) -> list[str]:
    dist = report.get("distance", {})
    problems = []
    if dist.get("d") != d:
        problems.append(f"distance {dist.get('d')} != known {d}")
    if method is not None and dist.get("method") != method:
        problems.append(f"method {dist.get('method')} != {method}")
    witness = dist.get("witness", [])
    if sum(1 for v in witness if v) != d:
        problems.append("witness weight != d")
    elif not member(witness):
        problems.append("witness is not a codeword")
    return problems


def lrc_oracle(p: bi.Prepared, default_flags: bool) -> Callable[[int, str], list[str]]:
    """Certified d = 2 * d1 by group rank; with default flags also weights,
    structural locality and the bound verdicts."""
    rows = p.lrc.code.parity_check.rows

    def check(rc, out):
        report, problems = _load(rc, out)
        if report is None:
            return problems
        problems += check_distance(report, p.d, lambda w: _binary_member(rows, w), "group_rank")
        if report.get("bounds") != p.lrc_bounds:
            problems.append("bound verdicts differ from the classification of the known parameters")
        if default_flags:
            if p.lrc_weights is not None and report.get("weights", {}).get("A") != list(
                p.lrc_weights.counts
            ):
                problems.append("LRC weights differ from the outer-dual transform")
            loc = report.get("locality", {})
            if loc.get("ok") is not True or loc.get("uncovered") != []:
                problems.append("LRC locality is not structural")
        return problems

    return check


def outer_oracle(p: bi.Prepared, default_flags: bool, method: str | None = None):
    """d = d1 with a GF(4) witness; with default flags also the weights and
    the locality verdict of a sub-cap code: a dual word has weight
    m - |cap points on a plane| >= m - 6, so for m >= 10 no coordinate has
    a repair set of size 2."""
    h = p.outer.parity_check
    rows = [h.row_tuple(i) for i in range(h.nrows)]

    def check(rc, out):
        report, problems = _load(rc, out)
        if report is None:
            return problems
        problems += check_distance(report, p.spec.d1, lambda w: _gf4_member(rows, w), method)
        if default_flags:
            if report.get("weights", {}).get("A") != list(p.outer_weights.counts):
                problems.append("outer weights differ from the MacWilliams transform")
            loc = report.get("locality", {})
            covered = loc.get("ok") is not False or loc.get("uncovered") != list(range(p.outer.n))
            if p.outer.n >= 10 and covered:
                problems.append("sub-cap code reports a repair set of size 2")
        return problems

    return check


def reproduce_oracle(rc: int, out: str) -> list[str]:
    if rc != 0:
        return [f"reproduce exit code {rc}"]
    if "mismatch" in out:
        return ["reproduce reports a mismatch"]
    return []


def _binomial_bound(trials: int, p: float) -> float:
    return SIGMAS * math.sqrt(trials * p * (1.0 - p)) + 1.0


def repair_oracle(p: bi.Prepared, trials: int, model: dict):
    """t <= d-1 always decodes.  An erased d-set fails exactly when it is
    the support of a weight-d codeword, so t = d fails at the exact rate
    A_d / C(n, d) (30/5005 on [15,6,6;2]).  At per-symbol rate q a failure
    needs >= d erasures, so failures stay below the tail P(Bin(n, q) >= d)."""
    n, d = p.lrc.n, p.d

    def check(rc, out):
        report, problems = _load(rc, out)
        if report is None:
            return problems
        if report.get("trials") != trials or report.get("model") != model:
            problems.append("report echoes another trial count or model")
            return problems
        failures = round((1.0 - report["success_rate"]) * trials)
        t = model.get("t")
        if t is not None and t <= d - 1 and report["success_rate"] != 1.0:
            problems.append(f"{failures} failures with t={t} <= d-1")
        elif t == d and p.lrc_weights is not None:
            rate = p.lrc_weights.counts[d] / math.comb(n, d)
            if abs(failures - trials * rate) > _binomial_bound(trials, rate):
                problems.append(f"{failures} failures at t=d, expected {trials * rate:.1f}")
        elif "p" in model:
            q = model["p"]
            tail = sum(math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(d, n + 1))
            if failures > trials * tail + _binomial_bound(trials, tail):
                problems.append(f"{failures} failures exceed the >= d erasure tail")
        return problems

    return check


# -- workloads -----------------------------------------------------------------


def certify_kinds(prep: dict, seed: int) -> list[Kind]:
    kinds = []
    for p in prep.values():
        lrc, code = str(p.lrc_path), str(p.code_path)
        kinds.append(
            Kind(f"analyze {p.spec.name}.lrc --distance --bounds",
                 lambda c, f=lrc: ["analyze", f, "--distance", "--bounds"],
                 lrc_oracle(p, default_flags=False))
        )
        kinds.append(
            Kind(f"analyze {p.spec.name}.code --distance",
                 lambda c, f=code: ["analyze", f, "--distance"],
                 outer_oracle(p, default_flags=False, method="column_dependence"))
        )
    kinds.append(Kind("reproduce", lambda c: ["reproduce"], reproduce_oracle))
    return kinds


def make_analyze_kinds(lrcs: tuple[str, ...], outers: tuple[str, ...]):
    """Default ``analyze`` on the named LRCs and on the named outer codes."""

    def kinds(prep: dict, seed: int) -> list[Kind]:
        out = [Kind(f"analyze {name}.lrc", lambda c, f=str(prep[name].lrc_path): ["analyze", f],
                    lrc_oracle(prep[name], default_flags=True)) for name in lrcs]
        out += [Kind(f"analyze {name}.code", lambda c, f=str(prep[name].code_path): ["analyze", f],
                     outer_oracle(prep[name], default_flags=True)) for name in outers]
        return out

    return kinds


def make_repair_kinds(plan: tuple[tuple[str, str, float, int], ...]):
    """``plan`` rows: (code name, model, model value, trials).  Model "t"
    with value 0 means t = d - 1."""

    def kinds(prep: dict, seed: int) -> list[Kind]:
        out = []
        for name, model, value, trials in plan:
            p = prep[name]
            if model == "t":
                t = int(value) or p.d - 1
                flags, echo = ["--random-t", str(t)], {"name": "random_t_erasures", "t": t}
            else:
                flags, echo = ["--prob", str(value)], {"name": "per_symbol_prob", "p": value}
            label = f"repair {name} {' '.join(flags)}"
            base = bi.repair_seed(seed, label)
            out.append(
                Kind(
                    label,
                    lambda c, f=str(p.lrc_path), fl=flags, b=base, n=trials: [
                        "repair", f, *fl, "--trials", str(n), "--seed", str(b + c * n)],
                    repair_oracle(p, trials, echo),
                    trials=trials,
                )
            )
        return out

    return kinds


CYC129 = bi.CodeSpec("cyc129", bi.cyclic43, 5)
CAP51 = bi.CodeSpec("cap51", bi.full_cap, 4)
HAM63 = bi.CodeSpec("ham63", bi.hamming(3), 3)
HAM15 = bi.CodeSpec("ham15", bi.hamming(2), 3, weights="dual")

FULL = {
    # 13 cycles at 20 s: more than ten runs of the slowest kind, so
    # job_tail_s stays on the [129,72,10;2] certification.
    "certify-large": Workload("certify-large", (CYC129, CAP51, HAM63), certify_kinds, cycle_s=1.55),
    "analyze-small": Workload(
        "analyze-small",
        (
            bi.CodeSpec("subcap36", bi.sub_cap(12), 4, weights="dual"),
            bi.CodeSpec("subcap39", bi.sub_cap(13), 4, weights="dual"),
            bi.CodeSpec("subcap42", bi.sub_cap(14), 4, weights="dual"),
            bi.CodeSpec("subcap45", bi.sub_cap(15), 4, weights="dual"),
            bi.CodeSpec("ss45", bi.solomon_stiffler(3, (2, 1)), 11, weights="outer"),
            bi.CodeSpec("ss48", bi.solomon_stiffler(3, (2,)), 12, weights="outer"),
        ),
        # Nine kinds, an odd number, so job_p50_s is the middle kind's
        # median (the [45,6,22;2] subset search), not an average across
        # two kinds' extremes.  The [36,16,8;2] LRC is there for that.
        make_analyze_kinds(
            ("subcap36", "subcap39", "subcap42", "subcap45", "ss45", "ss48"),
            ("subcap39", "subcap42", "subcap45"),
        ),
        cycle_s=6.2,
    ),
    "repair": Workload(
        "repair",
        (HAM15, CAP51, CYC129),
        make_repair_kinds((
            # Trial counts even out job latencies (about 0.3 s each), so
            # the latency percentiles do not hinge on one code's jobs.
            ("ham15", "t", 2, 3500),
            ("cap51", "t", 2, 950),
            ("cyc129", "t", 2, 250),
            ("ham15", "t", 0, 2300),
            ("cap51", "t", 0, 620),
            ("cyc129", "t", 0, 165),
            ("ham15", "t", 6, 2000),
            ("ham15", "p", 0.03, 4400),
            ("cap51", "p", 0.03, 900),
            ("cyc129", "p", 0.03, 200),
        )),
        cycle_s=3.5,
    ),
}

#: Tiny sizes with the same job mix, for the harness smoke test.
TINY = {
    "certify-large": Workload("certify-large", (CAP51, HAM63), certify_kinds, cycle_s=1.0),
    "analyze-small": Workload(
        "analyze-small",
        (
            bi.CodeSpec("subcap30", bi.sub_cap(10), 4, weights="dual"),
            bi.CodeSpec("ss12", bi.solomon_stiffler(2, (1,)), 3, weights="outer"),
        ),
        make_analyze_kinds(("subcap30", "ss12"), ("subcap30",)),
        cycle_s=1.0,
    ),
    "repair": Workload(
        "repair",
        (HAM15,),
        make_repair_kinds((("ham15", "t", 2, 50), ("ham15", "t", 0, 50), ("ham15", "t", 6, 50),
                           ("ham15", "p", 0.03, 50))),
        cycle_s=1.0,
    ),
}
