"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload of ``bench_jobs.TINY`` through ``run.main`` and checks
that the result line carries exactly the metrics ``BENCHMARK.json`` names,
that work counts repeat for a seed, and that the oracles fire on a
deliberately wrong expected value.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bench_inputs  # noqa: E402
import bench_jobs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def quick_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)


def bench(capsys, workload, trace, workloads=bench_jobs.TINY, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, workloads=workloads) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed(capsys, workload, trace):
    report, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert report["seed"] == 3 and report["clients"] == 1 and report["threads"] == 1


def test_work_counts_repeat_for_a_seed(capsys):
    first, _ = bench(capsys, "repair", 1)
    second, result = bench(capsys, "repair", 1)
    assert result["correct"] is True, second["problems"]
    assert first["work_counts"] == second["work_counts"]
    assert first["work_counts"]["repair.trials"] == 200


def test_oracles_fire_on_a_wrong_expected_distance(capsys):
    tiny = bench_jobs.TINY["certify-large"]
    wrong = dataclasses.replace(bench_jobs.HAM63, d1=4)
    workloads = {"certify-large": dataclasses.replace(tiny, specs=(bench_jobs.CAP51, wrong))}
    report, result = bench(capsys, "certify-large", 0, workloads=workloads)
    assert result["correct"] is False
    assert result["failed"] == 2  # the LRC job and the outer-code job
    assert any("distance 6 != known 8" in p for p in report["problems"])


def test_oracles_fire_on_wrong_weights_and_repair_counts(tmp_path):
    p = bench_inputs.prepare(bench_jobs.HAM15, 5, tmp_path)
    good = bench_jobs.repair_oracle(p, 100, {"name": "random_t_erasures", "t": 5})
    ok = json.dumps({"trials": 100, "model": {"name": "random_t_erasures", "t": 5},
                     "success_rate": 1.0})
    assert good(0, ok) == []
    assert good(0, ok.replace("1.0", "0.99"))  # a failure below t = d
    assert good(2, ok)  # a non-zero exit
    wrong = (1,) + (0,) * 5 + (31, 0, 14, 0, 18) + (0,) * 5  # true: A6=30, A8=15
    p.lrc_weights = dataclasses.replace(p.lrc_weights, counts=wrong)
    check = bench_jobs.lrc_oracle(p, default_flags=True)
    report = {"distance": {"d": 6, "method": "group_rank", "witness": [0] * 15}}
    problems = check(0, json.dumps(report))
    assert "witness weight != d" in problems
    assert any("weights differ" in x for x in problems)
