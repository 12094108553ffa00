"""gf4lrc benchmark: seeded closed-loop workloads, timed end to end and per layer.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 benchmarks/run.py --workload certify-large --seed 1 --seconds 20 --trace 0

One client in one thread drives the library the way a user does: each job
is an in-process ``gf4lrc.cli.main([...])`` call on ``.code`` /
``.lrc.json`` files that set-up writes, and every job's output goes
through an oracle.  Job kinds run interleaved, round-robin.

``--trace 0`` prints the end-to-end metrics.  Their times are wall times
scaled to the host's nominal speed by a reference kernel timed around every
step (see ``HostClock``); the raw times are in the report.  ``--trace 1``
runs every job twice, untraced and then with span wrappers installed around
each layer's public functions, and prints the per-layer metrics in raw
seconds.  The last stdout line is the result object; the line before it is
a report with sample counts, percentiles, per-kind latencies, the seed and
the client and thread counts.  ``BENCHMARK.json`` records why each workload
was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_run"
WORKLOADS = ("certify-large", "analyze-small", "repair")

#: Calm duration of ``ref_kernel`` on the shared 2-core x86 host where the
#: benchmark was defined; reported times are scaled to that host speed.
REF_NOMINAL_S = 0.0075

#: Set-up runs at least this often and for this long; setup_s is the
#: median of its runs.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "gf4lrc" / "__init__.py").is_file():
        raise SystemExit(f"error: no gf4lrc sources under {src}")
    sys.path.insert(0, str(src))
    import gf4lrc

    if Path(gf4lrc.__file__).resolve().parent != (src / "gf4lrc").resolve():
        raise SystemExit(f"error: gf4lrc imported from {gf4lrc.__file__}, not {src}")


def ref_kernel() -> float:
    """Seconds for a fixed pure-Python kernel: XOR-basis elimination of
    pseudo-random words and small-object churn, the kinds of work the jobs
    do.  It uses nothing from gf4lrc, so changes to the program leave it
    alone."""
    t0 = time.perf_counter()
    x = 12345
    rows = []
    for _ in range(500):
        basis = []
        for _ in range(12):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            r = x
            for b in basis:
                r = min(r, r ^ b)
            if r:
                basis.append(r)
        rows.append(tuple(basis))
    return time.perf_counter() - t0


class HostClock:
    """Scales measured wall times to the host's nominal speed.

    The host is shared: other tenants slow it by up to a half for spells
    of seconds to minutes, and the slowdown hits the reference kernel and
    the jobs alike.  So ``ref_kernel`` runs after every timed step, and the
    step's wall time is multiplied by REF_NOMINAL_S over the median of the
    last WINDOW kernel times, which spans the step and damps the kernel's
    own noise.  The raw times go into the report line.
    """

    WINDOW = 5

    def __init__(self):
        self.refs = [ref_kernel()]

    def factor(self) -> float:
        """Scale factor for the step since the previous call."""
        self.refs.append(ref_kernel())
        return REF_NOMINAL_S / statistics.median(self.refs[-self.WINDOW:])


def call(argv: list[str]):
    """One job: ``(latency_s, exit code, stdout, problem)``."""
    from gf4lrc import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a raising job is a failed job, not a failed benchmark
        return time.perf_counter() - t0, None, "", traceback.format_exc(limit=3)
    return time.perf_counter() - t0, rc, out.getvalue(), None


def run_job(kind, cycle: int):
    """Run and check one job; returns ``(latency_s, problems)``."""
    latency, rc, out, crash = call(kind.argv(cycle))
    if crash:
        return latency, [f"raised: {crash.strip().splitlines()[-1]}"]
    return latency, kind.check(rc, out)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def sized_cycles(workload, seconds: float, passes: float) -> int:
    return max(1, round(seconds / (passes * workload.cycle_s)))


def timed_run(workload, seed, seconds, run_dir, clock):
    import bench_inputs

    setup_raw, setup_runs = [], []
    while len(setup_runs) < SETUP_MIN_REPS or sum(setup_raw) < SETUP_MIN_S:
        out = run_dir / f"r{len(setup_runs)}"
        out.mkdir(parents=True)
        prep, raw_s, scaled_s = {}, 0.0, 0.0
        # Scaled code by code: one set-up runs up to seconds, longer than
        # the host's speed can be trusted to hold.
        for spec in workload.specs:
            t0 = time.perf_counter()
            prep[spec.name] = bench_inputs.prepare(spec, seed, out)
            step = time.perf_counter() - t0
            raw_s += step
            scaled_s += step * clock.factor()
        setup_raw.append(raw_s)
        setup_runs.append(scaled_s)
    kinds = workload.kinds(prep, seed)
    cycles = sized_cycles(workload, seconds, 1)
    raw, latencies, steps = [], [], []
    by_kind, problems, failed = {k.name: [] for k in kinds}, [], 0
    t0 = time.perf_counter()
    for c in range(cycles):
        for kind in kinds:
            t_step = time.perf_counter()
            latency, found = run_job(kind, c)
            step = time.perf_counter() - t_step
            scale = clock.factor()
            raw.append(latency)
            latencies.append(latency * scale)
            steps.append(step * scale)
            by_kind[kind.name].append(latency)
            failed += bool(found)
            problems += [f"{kind.name} cycle {c}: {p}" for p in found]
    wall = time.perf_counter() - t0
    jobs = len(latencies)
    tail_s, tail_pct = tail(latencies)
    trials = sum(k.trials for k in kinds) * cycles
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "jobs_per_s": jobs / sum(steps),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "cycles": cycles,
        "jobs": jobs,
        "wall_s": wall,
        "setup_s_runs": setup_runs,
        "job_p50_s": {"value": metrics["job_p50_s"], "samples": jobs},
        "job_tail_s": {"value": tail_s, "percentile": tail_pct, "samples": jobs},
        "fail_ratio": failed / jobs,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "jobs_per_s": jobs / wall,
            "job_p50_s": statistics.median(raw),
            "job_tail_s": tail(raw)[0],
        },
        "kinds": {
            name: {"p50_s": statistics.median(v), "latency_s": v} for name, v in by_kind.items()
        },
    }
    if trials:
        report["trials"] = trials
        report["trials_per_s"] = trials / sum(steps)
    return metrics, report, jobs, failed, problems


def traced_run(workload, seed, seconds, run_dir):
    import bench_inputs
    import bench_trace

    tracer = bench_trace.Tracer()
    uninstall = bench_trace.install(tracer)
    try:
        tracer.active = True
        prep = bench_inputs.prepare_all(workload.specs, seed, run_dir / "r0")
        tracer.active = False
        tracer.phase = bench_trace.JOBS
        kinds = workload.kinds(prep, seed)
        # Each job runs untraced and then traced, back to back, so host
        # drift hits both sides of trace.overhead_ratio alike.
        cycles = sized_cycles(workload, seconds, 4)
        plain = traced = 0.0
        problems, jobs, failed = [], 0, 0
        for c in range(cycles):
            for kind in kinds:
                latency, found = run_job(kind, c)
                plain += latency
                tracer.job, tracer.active = jobs, True
                try:
                    latency, found_traced = run_job(kind, c)
                finally:
                    tracer.active = False
                traced += latency
                jobs += 1
                failed += bool(found) + bool(found_traced)
                problems += [f"{kind.name} cycle {c}: {p}" for p in found + found_traced]
    finally:
        uninstall()
    argvs = [[a.replace(str(run_dir), "") for a in k.argv(0)] for k in kinds]
    key = json.dumps(argvs + [cycles, seed])
    digest = hashlib.sha1(key.encode()).hexdigest()[:12]
    counts = work_counts(tracer)
    problems += check_repeat(OUT / f"counts-{workload.name}-{digest}.json", counts)
    spans = tracer.write(OUT / f"trace-{workload.name}-s{seed}.json.gz")
    metrics = layer_metrics(tracer, traced / plain)
    report = {"cycles": cycles, "jobs": jobs, "spans": spans, "work_counts": counts,
              "wall_untraced_s": plain, "wall_traced_s": traced}
    return metrics, report, 2 * jobs, failed, problems


def work_counts(tracer) -> dict:
    """The machine-independent counts, which must repeat for a seed."""
    from bench_trace import JOBS

    names = (
        "code.enum.codewords",
        "concat.subsets_covered",
        "repair.trials",
        "repair.erased_symbols",
    )
    return {name: tracer.counts[(JOBS, name)] for name in names}


def check_repeat(path: Path, counts: dict) -> list[str]:
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return [f"work counts {counts} differ from an earlier run with this seed: {earlier}"]
        return []
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return []


def layer_metrics(tracer, overhead: float) -> dict:
    from bench_trace import JOBS, SETUP

    def calls(name, phase=JOBS):
        return (tracer.calls[(phase, name)], "count")

    def self_s(name, phase=JOBS):
        return (tracer.self_s[(phase, name)], "s")

    def count(name):
        return (tracer.counts[(JOBS, name)], "count")

    def rate(work, seconds):
        return (work / seconds if seconds else 0.0, "1/s")

    dual_scan_s = tracer.self_s[(JOBS, "concat.locality_check.dual_scan")]
    enum_s = tracer.self_s[(JOBS, "code.enum")] + dual_scan_s
    codewords = tracer.counts[(JOBS, "code.enum.codewords")]
    subsets = tracer.counts[(JOBS, "concat.subsets_covered")]
    trials = tracer.counts[(JOBS, "repair.trials")]
    erased = tracer.counts[(JOBS, "repair.erased_symbols")]
    local = tracer.counts[(JOBS, "repair.locally_repaired")]
    return {
        "matrix.rows_rank.calls": calls("matrix.rows_rank"),
        "matrix.rows_rank.self_s": self_s("matrix.rows_rank"),
        "matrix.rref.calls": calls("matrix.rref"),
        "matrix.rref.self_s": self_s("matrix.rref"),
        "matrix.mat_mul.calls": calls("matrix.mat_mul"),
        "matrix.mat_mul.self_s": self_s("matrix.mat_mul"),
        "matrix.nullspace.self_s": self_s("matrix.nullspace"),
        "code.from_parity.self_s": self_s("code.from_parity"),
        "concat.from_json.self_s": self_s("concat.from_json"),
        "families.ingest.self_s": self_s("families.ingest"),
        "code.enum.codewords": (codewords, "count"),
        "code.enum.self_s": (enum_s, "s"),
        "code.enum.codewords_per_s": rate(codewords, enum_s),
        "code.min_distance_columns.self_s": self_s("code.min_distance_columns"),
        "code.contains.calls": calls("code.contains"),
        "code.contains.self_s": self_s("code.contains"),
        "code.encode.calls": calls("code.encode"),
        "code.encode.self_s": self_s("code.encode"),
        "concat.certify_distance.calls": calls("concat.certify_distance"),
        "concat.certify_distance.self_s": self_s("concat.certify_distance"),
        "concat.subsets_covered": (subsets, "count"),
        "concat.subsets_per_s": rate(subsets, tracer.total_s[(JOBS, "concat.certify_distance")]),
        "concat.locality_check.self_s": (
            tracer.self_s[(JOBS, "concat.locality_check")] + dual_scan_s,
            "s",
        ),
        "concat.concatenate.self_s": self_s("concat.concatenate", SETUP),
        "families.build.self_s": self_s("families.build", SETUP),
        "projective.verify.self_s": self_s("projective.verify", SETUP),
        "bounds.classify.calls": calls("bounds.classify"),
        "bounds.classify.self_s": self_s("bounds.classify"),
        "repair.trials": (trials, "count"),
        "repair.erased_symbols": (erased, "count"),
        "repair.global_fraction": (1.0 - local / erased if erased else 0.0, "ratio"),
        "repair.decode_failures": count("repair.decode_failures"),
        "repair.simulate.self_s": self_s("repair.simulate"),
        "repair.trials_per_s": rate(trials, tracer.total_s[(JOBS, "repair.simulate")]),
        "reproduce.run.self_s": self_s("reproduce.run"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main(argv=None, workloads=None) -> int:
    """Run one benchmark; ``workloads`` swaps in another size table."""
    args = parse_args(argv)
    import_package()
    import bench_jobs

    workload = (workloads or bench_jobs.FULL)[args.workload]
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"inputs-{workload.name}-s{args.seed}-p{os.getpid()}"
    clock = HostClock()
    try:
        if args.trace:
            outcome = traced_run(workload, args.seed, args.seconds, run_dir)
        else:
            outcome = timed_run(workload, args.seed, args.seconds, run_dir, clock)
        metrics, report, attempted, failed, problems = outcome
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    clock.factor()
    ref_s = statistics.median(clock.refs)
    if args.trace:
        metrics["host.ref_kernel_s"] = (ref_s, "s")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    report.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        clients=1,
        threads=threading.active_count(),
        host_ref_kernel_s={"median": ref_s, "min": min(clock.refs), "max": max(clock.refs),
                           "nominal": REF_NOMINAL_S, "samples": len(clock.refs)},
        problems=problems[:20],
    )
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
