import argparse
import collections
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gf4lrc
from conftest import forbid_distance_and_weights, random_linear_code
from gf4lrc import bounds
from gf4lrc import code as code_module
from gf4lrc import cli
from gf4lrc import concat as concat_module
from gf4lrc.cli import _json_text, _load_input, main
from gf4lrc.concat import BinaryLrc, certify_distance, concatenate
from gf4lrc.families import hexacode
from gf4lrc.matrix import FieldMatrix

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "out"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_hamming_concat(tmp_path, capsys):
    base = tmp_path / "ham"
    code, out, _ = run_cli(
        capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["outer"] == {"n": 5, "k": 3, "d": 3, "q": 4}
    assert summary["lrc"] == {"n": 15, "k": 6, "d": 6, "r": 2}
    assert (tmp_path / "ham.code").exists()
    assert (tmp_path / "ham.lrc.json").exists()


def test_construct_hexacode_concat(capsys):
    code, out, _ = run_cli(capsys, "construct", "hexacode", "--concat")
    assert code == 0
    summary = json.loads(out)
    assert summary["lrc"]["n"] == 18 and summary["lrc"]["d"] == 8


def test_construct_macdonald_non_integral_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "macdonald", "--m", "2", "--u", "1", "--t", "2")
    assert code == 2
    assert "integer" in err


def test_construct_missing_flags_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "mds")
    assert code == 2
    assert "--n1" in err


def test_analyze_lrc_full(tmp_path, capsys):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "ham.lrc.json"))
    assert code == 0
    report = json.loads(out)
    assert report["distance"]["d"] == 6
    assert report["distance"]["method"] == "group_rank"
    assert report["weights"]["A"][6] == 30 and report["weights"]["A"][8] == 15
    assert report["locality"]["ok"] is True
    assert report["bounds"]["verdicts"]["perfect"] is True
    assert report["group_subspace_dims"] == [2] * 5


def test_analyze_plain_gf4_code_default_flags(tmp_path, capsys):
    base = tmp_path / "hex"
    run_cli(capsys, "construct", "hexacode", "--output", str(base))
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "hex.code"))
    assert code == 0
    report = json.loads(out)
    assert report["distance"]["d"] == 4
    assert report["weights"]["A"][4] == 45
    assert "bounds" not in report  # not applicable without locality over GF(4)


def test_analyze_of_a_plain_code_does_not_depend_on_its_d_header(tmp_path, capsys, monkeypatch):
    """The [17,13]_4 cap code is the larger side: analyze of each file
    takes d from the 4^4 dual words and searches columns from there, and
    loading either file searches nothing."""
    run_cli(capsys, "construct", "cap", "--output", str(tmp_path / "cap"))
    with_header = tmp_path / "cap.code"
    header, body = with_header.read_text().split("\n", 1)
    assert " d=4" in header
    without = tmp_path / "nod.code"
    without.write_text(header.replace(" d=4", "") + "\n" + body)
    starts = []
    search = code_module.smallest_dependent_set

    def recorded(blocks, budget, start=1):
        starts.append(start)
        return search(blocks, budget, start)

    monkeypatch.setattr(code_module, "smallest_dependent_set", recorded)
    code, out, _ = run_cli(capsys, "analyze", str(with_header))
    assert code == 0 and json.loads(out)["distance"]["method"] == "column_dependence"
    assert run_cli(capsys, "analyze", str(without)) == (0, out, "")
    assert starts == [4, 4]


def test_analyze_distance_of_a_larger_side_binary_code_reads_d_from_its_dual(tmp_path, capsys):
    """The [24,14,4] binary code of the [8,7,2]_4 concatenation: its dual's
    2^10 words fit --max-enum 1024, and the column search starts at d = 4."""
    run_cli(capsys, "construct", "mds", "--n1", "8", "--k1", "7", "--concat",
            "--output", str(tmp_path / "spc"))
    lrc, _ = _load_input(str(tmp_path / "spc.lrc.json"))
    assert (lrc.n, lrc.k, lrc.d) == (24, 14, 4)
    path = tmp_path / "spc.code"
    path.write_text(lrc.code.parity_check.to_text({"kind": "parity", "n": 24, "k": 14}))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--distance", "--max-enum", "1024")
    assert code == 0
    distance = json.loads(out)["distance"]
    assert (distance["d"], distance["method"]) == (4, "column_dependence")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0 and json.loads(out)["distance"] == distance


def test_analyze_bounds_on_gf4_code_rejected(tmp_path, capsys, monkeypatch):
    # The usage error comes before any search.
    base = tmp_path / "hex"
    run_cli(capsys, "construct", "hexacode", "--output", str(base))
    forbid_distance_and_weights(monkeypatch)
    assert run_cli(capsys, "analyze", str(tmp_path / "hex.code"), "--bounds", "--r", "2") == (
        2, "", "error: bounds apply to binary codes only\n")


def test_analyze_bounds_on_a_plain_code_without_r_exits_before_any_search(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "rep.code"
    path.write_text("field=2 rows=1 cols=3 kind=generator d=3\n1 1 1\n")
    forbid_distance_and_weights(monkeypatch)
    assert run_cli(capsys, "analyze", str(path), "--bounds") == (
        2, "", "error: --bounds on a plain code needs --r\n")


def test_repair_of_a_plain_code_exits_2_without_a_distance_call(tmp_path, capsys, monkeypatch):
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--output", str(tmp_path / "ham"))
    assert " d=3" in (tmp_path / "ham.code").read_text()
    forbid_distance_and_weights(monkeypatch)
    assert run_cli(capsys, "repair", str(tmp_path / "ham.code"), "--random-t", "2") == (
        2, "", "error: repair needs an LRC JSON file (construct --concat)\n")


def test_lrc_locality_computes_no_weights_or_distance(tmp_path, capsys, monkeypatch):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    path = str(tmp_path / "ham.lrc.json")
    lrc, _ = _load_input(path)
    forbid_distance_and_weights(monkeypatch)
    # The helper sees an LRC's own weight walk and group search.
    certify = concat_module.certify_distance
    for ask in (lrc.cheapest_weights, lrc.min_distance, lambda: certify(lrc)):
        with pytest.raises(AssertionError, match="a distance or weight computation ran"):
            ask()
    code, out, _ = run_cli(capsys, "analyze", path, "--locality")
    assert code == 0
    report = json.loads(out)
    assert report["locality"]["ok"] and "weights" not in report and "distance" not in report


def test_lrc_repair_computes_no_distance_and_walks_weights_within_its_draw(
    tmp_path, capsys, monkeypatch
):
    """repair runs no distance search.  A --random-t run walks the LRC's
    weights, to certify t < d, only within the lanes it draws, trials * t,
    and not at all at t = 2, which lies below the d >= 4 that the weight-2
    certificate proves; a --prob run walks none."""
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    path = str(tmp_path / "ham.lrc.json")
    weights = BinaryLrc.cheapest_weights
    forbid_distance_and_weights(monkeypatch)
    budgets = []

    def bounded(self, budget):
        budgets.append(budget)
        return weights(self, budget)

    monkeypatch.setattr(BinaryLrc, "cheapest_weights", bounded)
    for t in ("2", "4"):
        code, out, _ = run_cli(capsys, "repair", path, "--random-t", t, "--trials", "20")
        assert code == 0 and json.loads(out)["success_rate"] == 1.0
    code, out, _ = run_cli(capsys, "repair", path, "--prob", "0.3", "--trials", "20")
    assert code == 0
    assert budgets == [80]


def claim_warnings(caplog) -> list[str]:
    found = [rec.getMessage() for rec in caplog.records if "advertised d=" in rec.getMessage()]
    caplog.clear()
    return found


def test_a_claimed_d_is_checked_against_the_runs_own_distance(tmp_path, capsys, caplog):
    """A .code header's d= and an LRC JSON's "d" are claims: a run that
    computes d logs a mismatch once, and its output is the one the file
    gives without the claim."""
    claimed = tmp_path / "rep.code"
    claimed.write_text("field=2 rows=1 cols=3 kind=generator d=2\n1 1 1\n")
    plain = tmp_path / "rep-nod.code"
    plain.write_text("field=2 rows=1 cols=3 kind=generator\n1 1 1\n")
    caplog.set_level("WARNING")
    for argv in (["analyze", "F", "--distance"], ["analyze", "F", "--weights"],
                 ["analyze", "F"], ["construct", "ingest", "--file", "F"]):
        got = run_cli(capsys, *[str(claimed) if a == "F" else a for a in argv])
        assert claim_warnings(caplog) == [f"{claimed}: advertised d=2 but computed d=3"]
        assert run_cli(capsys, *[str(plain) if a == "F" else a for a in argv]) == got
        assert claim_warnings(caplog) == []

    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(tmp_path / "ham"))
    obj = json.loads((tmp_path / "ham.lrc.json").read_text())
    obj["d"] = 10
    lrc = tmp_path / "claimed.lrc.json"
    lrc.write_text(json.dumps(obj))
    got = run_cli(capsys, "analyze", str(lrc), "--distance")
    assert claim_warnings(caplog) == [f"{lrc}: advertised d=10 but computed d=6"]
    assert run_cli(capsys, "analyze", str(tmp_path / "ham.lrc.json"), "--distance") == got
    assert claim_warnings(caplog) == []


@pytest.mark.parametrize("argv", [["analyze", "F", "--max-enum", "1"], ["analyze", "F"],
                                  ["analyze", "F", "--distance"],
                                  ["construct", "ingest", "--file", "F", "--max-enum", "1"]])
def test_a_code_files_d_header_does_not_change_the_run(tmp_path, capsys, argv):
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--output", str(tmp_path / "h"))
    with_d = tmp_path / "h.code"
    without = tmp_path / "h-nod.code"
    without.write_text(with_d.read_text().replace(" d=3", ""))
    assert without.read_text() != with_d.read_text()
    runs = [run_cli(capsys, *[str(path) if a == "F" else a for a in argv])
            for path in (with_d, without)]
    assert runs[0] == runs[1]


def test_analyze_plain_code_locality_uncovered(tmp_path, capsys):
    # single-parity [3,2,2] code has no weight-<=2 dual word
    path = tmp_path / "parity.code"
    path.write_text("field=2 rows=2 cols=3 kind=generator\n1 0 1\n0 1 1\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--locality", "--r", "1")
    assert code == 0
    report = json.loads(out)
    assert report["locality"]["ok"] is False
    assert report["locality"]["uncovered"] == [0, 1, 2]


def test_analyze_budget_exhaustion_exits_3(tmp_path, capsys):
    # --max-enum 1 fits no weights, so the group search starts at 1 group.
    base = tmp_path / "hex"
    run_cli(capsys, "construct", "hexacode", "--concat", "--output", str(base))
    code, out, _ = run_cli(
        capsys,
        "analyze",
        str(tmp_path / "hex.lrc.json"),
        "--distance",
        "--max-subsets", "3",
        "--max-enum", "1",
    )
    assert code == 3
    report = json.loads(out)
    assert "bracket" in report["distance"]

    # A distance claimed by the file is not certified: with the search cut
    # short, no bound verdict is given and the bracket has no upper end.
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    claimed = json.loads((tmp_path / "hex.lrc.json").read_text())
    assert (claimed["n"], claimed["k"], claimed["d"]) == (15, 6, 6)
    claimed["d"] = 10
    path = tmp_path / "claimed.lrc.json"
    path.write_text(json.dumps(claimed))
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--bounds", "--max-subsets", "3", "--max-enum", "1"
    )
    assert code == 3
    report = json.loads(out)
    assert report["distance"]["bracket"] == [2, None]
    assert report["bounds"] == {"error": "distance unavailable within budget"}


@pytest.mark.parametrize("strip", [False, True], ids=["as-written", "without-d"])
def test_out_of_budget_weights_and_locality_build_no_dual(tmp_path, capsys, monkeypatch, strip):
    # Both codes are the larger side: their weights come from dual words,
    # which ``side_weights`` walks without building a dual.  Past the
    # budget, coverage is decided by G's columns, with no dual built, and
    # gives the verdict of the default run's walk.
    run_cli(capsys, "construct", "cyclic4", "--n", "43", "--poly", "1 0 W 1 1 w 0 1",
            "--concat", "--output", str(tmp_path / "cyc"))
    run_cli(capsys, "construct", "cap", "--output", str(tmp_path / "cap"))
    # The cap file's d= header is a claim that loading does not check, so
    # the file gives the same run with and without it.
    cap = tmp_path / "cap.code"
    if strip:
        cap.write_text(cap.read_text().replace(" d=4", ""))
    walked = json.loads(run_cli(capsys, "analyze", str(cap), "--locality")[1])["locality"]
    built = []
    dual = code_module.LinearCode.dual
    monkeypatch.setattr(code_module.LinearCode, "dual", lambda self: built.append(self) or dual(self))

    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "cyc.lrc.json"), "--max-enum", "100")
    assert code == 3
    report = json.loads(out)
    assert report["weights"] == {"error": "16384 codewords exceed enumeration budget 100"}
    assert report["distance"]["d"] == 10
    code, out, _ = run_cli(capsys, "analyze", str(cap), "--max-enum", "100")
    assert code == 3
    report = json.loads(out)
    assert report["weights"] == {"error": "256 codewords exceed enumeration budget 100"}
    locality = report["locality"]
    assert (locality["ok"], locality["uncovered"]) == (walked["ok"], walked["uncovered"]) == (
        False, list(range(17)))
    assert built == []


def test_in_budget_locality_builds_no_dual(tmp_path, capsys, monkeypatch):
    # The locality scan walks the words H's pair rows span: default analyze
    # of the cap code, whose scan fits, and --locality of a GF(2) code read
    # from H build no dual, and the latter derives no generator.
    run_cli(capsys, "construct", "cap", "--output", str(tmp_path / "cap"))
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat",
            "--output", str(tmp_path / "ham"))
    lrc = BinaryLrc.from_json(json.loads((tmp_path / "ham.lrc.json").read_text()))
    spc = tmp_path / "spc.code"
    spc.write_text(lrc.code.parity_check.to_text({"kind": "parity", "n": lrc.n, "k": lrc.k}))
    built, nullspaces = [], []
    dual, nullspace = code_module.LinearCode.dual, FieldMatrix.nullspace
    monkeypatch.setattr(code_module.LinearCode, "dual", lambda self: built.append(self) or dual(self))

    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "cap.code"))
    assert code == 0
    assert json.loads(out)["locality"]["r"] == 2
    monkeypatch.setattr(FieldMatrix, "nullspace", lambda m: nullspaces.append(m) or nullspace(m))
    code, out, _ = run_cli(capsys, "analyze", str(spc), "--locality")
    assert code == 0
    assert json.loads(out)["locality"]["ok"]
    assert (built, nullspaces) == ([], [])


def test_default_analyze_starts_the_group_search_where_the_weights_leave_it(tmp_path, capsys):
    # The weights give d = 8, so no set of fewer than 4 groups is searched,
    # with or without --distance.
    base = tmp_path / "hex"
    run_cli(capsys, "construct", "hexacode", "--concat", "--output", str(base))
    lrc = str(tmp_path / "hex.lrc.json")
    code, out, _ = run_cli(capsys, "analyze", lrc, "--max-subsets", "3")
    assert code == 0
    assert json.loads(out)["distance"]["d"] == 8
    assert run_cli(capsys, "analyze", lrc, "--distance", "--max-subsets", "3")[0] == 0


@pytest.mark.parametrize("name", ["cap", "cyc"])
@pytest.mark.parametrize("flags, run", [([], ""), (["--distance", "--bounds"], "_--bounds")],
                         ids=["default", "distance-bounds"])
def test_an_lrc_analysis_builds_no_h_columns(capsys, monkeypatch, name, flags, run):
    """The witness is checked on the pair code, so the report, the golden
    corpus's for the same file (``--bounds`` runs the distance too), comes
    without ``BinaryLrc.code``."""
    monkeypatch.setattr(BinaryLrc, "code", property(lambda self: pytest.fail("built H")))
    code, out, _ = run_cli(capsys, "analyze", str(DATA / f"{name}.lrc.json"), *flags)
    golden = (GOLDEN / f"analyze_{name}.lrc.json{run}.txt").read_text()
    assert code == 0
    assert out == golden[golden.index("--- stdout\n") + 11 : golden.index("--- stderr\n")]


def test_analyze_distance_out_of_subsets_at_half_d_brackets_from_d(capsys):
    # The weights fit, so the search starts at d/2 = 5 groups and its first
    # set runs out of --max-subsets 0.  With k = 72 > u = 14 the weights
    # walked the pair code's dual, which holds no witness: d = 10 is
    # proven, not yet attained.
    code, out, _ = run_cli(
        capsys, "analyze", str(DATA / "cyc.lrc.json"), "--distance", "--max-subsets", "0"
    )
    assert code == 3
    report = json.loads(out)
    assert report["distance"]["bracket"] == [10, None]
    assert "weights" not in report


def test_analyze_distance_out_of_subsets_takes_the_pair_walks_witness(tmp_path, capsys):
    # The hexacode LRC has k = 6 <= u = 6, so its weights walked the pair
    # code itself: its first word of symbol weight d/2, lifted, is the witness.
    base = tmp_path / "hex"
    run_cli(capsys, "construct", "hexacode", "--concat", "--output", str(base))
    path = str(tmp_path / "hex.lrc.json")
    code, out, _ = run_cli(capsys, "analyze", path, "--distance", "--max-subsets", "0")
    assert code == 0
    report = json.loads(out)
    distance = report["distance"]
    assert (distance["d"], distance["method"]) == (8, "exhaustive")
    assert sum(distance["witness"]) == 8
    assert BinaryLrc.from_json(json.loads(Path(path).read_text())).code.contains(
        distance["witness"]
    )
    assert "weights" not in report


def _write_lrc(tmp_path, lrc) -> str:
    path = tmp_path / "x.lrc.json"
    path.write_text(json.dumps(lrc.to_json()))
    return str(path)


def _analyze_distance_and_starts(capsys, monkeypatch, path, *flags):
    """``analyze --distance``'s report and the start of each group search."""
    starts = []
    search = code_module.smallest_dependent_set

    def recorded(blocks, budget, start=1):
        starts.append(start)
        return search(blocks, budget, start)

    with monkeypatch.context() as patch:
        patch.setattr(code_module, "smallest_dependent_set", recorded)
        code, out, _ = run_cli(capsys, "analyze", path, "--distance", *flags)
    assert code == 0
    return json.loads(out), starts


def _certified_from_one(lrc) -> dict:
    cert = certify_distance(lrc)
    return {"d": cert.d, "method": cert.method, "witness": list(cert.witness)}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32), st.integers(2, 7), st.data())
def test_analyze_distance_of_a_concatenation_equals_the_search_from_one_group(
    tmp_path, capsys, monkeypatch, seed, n1, data
):
    outer = random_linear_code(random.Random(seed), 4, n1, data.draw(st.integers(1, n1)))
    lrc = concatenate(outer)
    report, starts = _analyze_distance_and_starts(capsys, monkeypatch, _write_lrc(tmp_path, lrc))
    assert set(report) == {"n", "k", "q", "is_lrc", "distance"}
    assert report["distance"] == _certified_from_one(lrc)
    assert starts == [report["distance"]["d"] // 2]


def test_analyze_distance_of_the_reordered_hexacode_lrc(tmp_path, capsys, monkeypatch):
    # Group 0 listed (g0, g2, g1) is not in (h, w*h) form: its weights come
    # from its pair code all the same, and still start the search at d/2.
    lrc = concatenate(hexacode())
    g0, g1, g2 = lrc.groups[0]
    reordered = BinaryLrc(lrc.code, ((g0, g2, g1),) + lrc.groups[1:])
    report, starts = _analyze_distance_and_starts(
        capsys, monkeypatch, _write_lrc(tmp_path, reordered)
    )
    assert report["distance"] == _certified_from_one(reordered)
    assert report["distance"]["d"] == 8 and starts == [4]


def test_analyze_distance_searches_from_one_group_when_the_weights_do_not_fit(
    tmp_path, capsys, monkeypatch
):
    # Weights that were not asked for change neither the report nor the
    # exit code when they run out of --max-enum.
    lrc = concatenate(hexacode())
    report, starts = _analyze_distance_and_starts(
        capsys, monkeypatch, _write_lrc(tmp_path, lrc), "--max-enum", "1"
    )
    assert set(report) == {"n", "k", "q", "is_lrc", "distance"}
    assert report["distance"] == _certified_from_one(lrc)
    assert starts == [1]


def test_default_analyze_of_the_cyclic_lrc_takes_weights_from_the_outer_dual(tmp_path, capsys):
    base = tmp_path / "cyc"
    run_cli(capsys, "construct", "cyclic4", "--n", "43", "--poly", "1 0 W 1 1 w 0 1",
            "--concat", "--output", str(base))
    lrc = str(tmp_path / "cyc.lrc.json")
    code, out, _ = run_cli(capsys, "analyze", lrc)
    assert code == 0
    report = json.loads(out)
    assert (report["n"], report["k"]) == (129, 72)
    assert report["distance"]["d"] == 10
    assert report["distance"]["method"] == "group_rank"
    weights = report["weights"]["A"]
    assert weights[10] == 16254 and not any(weights[1:10])

    # The outer dual, the smallest side, has 4^7 = 16384 words.
    code, out, _ = run_cli(capsys, "analyze", lrc, "--max-enum", "16383")
    assert code == 3
    report = json.loads(out)
    assert report["weights"] == {"error": "16384 codewords exceed enumeration budget 16383"}
    assert report["distance"]["d"] == 10


def test_construct_concat_out_of_budget_writes_an_lrc_whose_d_analyze_certifies(
    tmp_path, capsys
):
    # --max-enum 1 cuts the outer search short, so the LRC's d is null;
    # construct still writes both files, and analyze certifies d.
    base = tmp_path / "c1"
    code, out, _ = run_cli(capsys, "construct", "cyclic4", "--n", "43", "--poly",
                           "1 0 W 1 1 w 0 1", "--concat", "--max-enum", "1",
                           "--max-subsets", "1", "--output", str(base))
    assert code == 0
    assert json.loads(out)["lrc"] == {"n": 129, "k": 72, "d": None, "r": 2}
    assert (tmp_path / "c1.code").exists() and (tmp_path / "c1.lrc.json").exists()
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "c1.lrc.json"), "--distance")
    assert code == 0
    distance = json.loads(out)["distance"]
    assert (distance["d"], distance["method"]) == (10, "group_rank")


@pytest.mark.parametrize("flag", ["--max-enum", "--max-subsets"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "hamming4", "--t", "2"],
        ["analyze", "LRC"],
        ["bounds", "--n", "15", "--k", "6", "--d", "6"],
        ["repair", "LRC", "--random-t", "1"],
        ["reproduce"],
    ],
    ids=["construct", "analyze", "bounds", "repair", "reproduce"],
)
def test_a_negative_budget_exits_2_on_every_subcommand(tmp_path, capsys, argv, flag):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    lrc = str(tmp_path / "ham.lrc.json")
    argv = [lrc if a == "LRC" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, flag, "-1")
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= 0, got -1\n"


@pytest.mark.parametrize("family", [["hamming4", "--t", "2"], ["hexacode"]], ids=["ham", "hex"])
@pytest.mark.parametrize("kind", ["lrc.json", "code"])
def test_analyze_weights_prints_the_primal_enumeration(tmp_path, capsys, family, kind):
    base = tmp_path / "x"
    run_cli(capsys, "construct", *family, "--concat", "--output", str(base))
    path = str(tmp_path / f"x.{kind}")
    code, out, _ = run_cli(capsys, "analyze", path, "--weights")
    loaded, _ = _load_input(path)
    plain = loaded.code if kind == "lrc.json" else loaded
    expected = {
        "n": plain.n, "k": plain.k, "q": plain.q, "is_lrc": kind == "lrc.json",
        "weights": plain.weight_distribution().to_json(),
    }
    assert (code, out) == (0, json.dumps(expected, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("H"),
        lambda obj: obj.update(H=7),
        lambda obj: obj.update(groups=5),
        lambda obj: obj.update(groups=[[0, 1, "2"]] + obj["groups"][1:]),
        lambda obj: obj.update(groups=[[0, 1]] + obj["groups"][1:]),
        lambda obj: obj.update(groups=[[0, 1, -2]] + obj["groups"][1:]),
        lambda obj: obj.update(d="6"),
        lambda obj: obj.clear(),
    ],
    ids=["missing-H", "non-text-H", "non-list-groups", "non-integer-entry",
         "short-group", "negative-entry", "non-integer-d", "empty-object"],
)
def test_analyze_malformed_lrc_json_exits_2(tmp_path, capsys, mutate):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    obj = json.loads((tmp_path / "ham.lrc.json").read_text())
    mutate(obj)
    path = tmp_path / "bad.lrc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "51", "--k", "26", "--d", "8")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["k_optimal_johnson"] is True
    assert report["denominators"]["omega_prime_improved"]["exact"] == "205"


def test_bounds_beyond_float_range_write_a_null_value(capsys):
    # omega' at (3000, 10, 2000) has about 600 digits: no float holds it,
    # so "value" is null and "exact" still carries it.
    code, out, err = run_cli(capsys, "bounds", "--n", "3000", "--k", "10", "--d", "2000")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    report = json.loads(out)["denominators"]
    expected = bounds.classify(3000, 10, 2000)
    for name in ("omega_prime_improved", "omega_prime_original"):
        assert report[name] == {"exact": str(getattr(expected, name)), "value": None}


def test_bounds_beyond_the_int_digit_limit_write_every_digit(capsys):
    # omega at (30000, 10, 20000) has more than 4300 digits, the default
    # limit of int-to-str conversion: the report still writes them all.
    code, out, err = run_cli(capsys, "bounds", "--n", "30000", "--k", "10", "--d", "20000")
    assert (code, err) == (0, "")
    report = json.loads(out, parse_int=Decimal)["denominators"]
    expected = bounds.classify(30000, 10, 20000)
    assert len(str(report["omega"])) > 4300
    assert int(report["omega"]) == expected.omega == bounds.lrc_ball_size(10000, 20000)
    for name in ("omega_prime_improved", "omega_prime_original"):
        num, _, den = report[name]["exact"].partition("/")
        exact = Fraction(int(Decimal(num)), int(Decimal(den or "1")))
        assert (exact, report[name]["value"]) == (getattr(expected, name), None)
    assert _json_text({"x": -(10**4300)}) == '{\n  "x": -1' + "0" * 4300 + "\n}"


@pytest.mark.parametrize(
    "flags",
    [
        ["--d", "0"],
        ["--d", "-2"],
        ["--r", "0"],
        ["--n", "0"],
        ["--k", "0"],
    ],
    ids=["d-zero", "d-negative", "r-zero", "n-zero", "k-zero"],
)
def test_bounds_below_one_exits_2(capsys, flags):
    argv = {"--n": "15", "--k": "6", "--d": "6"}
    argv[flags[0]] = flags[1]
    code, out, err = run_cli(capsys, "bounds", *[x for kv in argv.items() for x in kv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be >= 1" in err


@pytest.mark.parametrize("flags", [["--k", "16", "--d", "3"], ["--k", "6", "--d", "20"]])
def test_bounds_above_n_exits_2(capsys, flags):
    code, out, err = run_cli(capsys, "bounds", "--n", "15", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be <= n" in err


@pytest.mark.parametrize(
    "flags", [["--n", "2", "--k", "1", "--d", "2"], ["--n", "3", "--k", "1", "--d", "1", "--r", "5"]]
)
def test_bounds_with_no_cm_tau_leave_out_the_cm_entry(capsys, flags):
    # n < r + 1 admits no tau; the parent exited 2 with "no admissible tau"
    code, out, _ = run_cli(capsys, "bounds", *flags)
    assert code == 0
    names = [entry["name"] for entry in json.loads(out)["bounds"]]
    assert "cm" not in names and "singleton_like" in names


def test_default_analyze_of_the_repetition_code_classifies_it(tmp_path, capsys):
    path = tmp_path / "rep2.code"
    path.write_text("field=2 rows=1 cols=2 kind=parity\n1 1\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--r", "2")
    assert code == 0
    report = json.loads(out)["bounds"]
    assert "cm" not in [entry["name"] for entry in report["bounds"]]
    assert report["verdicts"]["singleton_optimal"] is True


@pytest.mark.parametrize(
    "text, message",
    [
        ("pg=2 q=4 size=3\n1 0 0\n0 1 0\n1 1 0\n", "collinear triple at indices (0, 1, 2)"),
        ("pg=3 q=4 size=6\n1 0 0 0\n0 1 0 0\n0 0 1 0\n1 1 1 0\n1 W w 0\n1 w W 0\n",
         "the 6 cap points do not span PG(3, 4)"),
        ("pg=2 q=4 size=1\n1 0\n", "expected 3 symbols, found 2"),
    ],
    ids=["collinear", "planar-hyperoval", "short-point"],
)
def test_construct_cap_from_a_bad_cap_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cap"
    path.write_text(text)
    code, out, err = run_cli(capsys, "construct", "cap", "--cap-file", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bounds_zero_distance_exits_2_in_a_subprocess():
    # The inverted Griesmer sum never grows at d = 0; the query must be
    # refused before any bound loops.
    env = dict(os.environ, PYTHONPATH=str(Path(gf4lrc.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "gf4lrc.cli", "bounds", "--n", "15", "--k", "6", "--d", "0"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("path_flag", ["--locality", "--bounds", None])
@pytest.mark.parametrize("kind", ["lrc.json", "code"])
def test_analyze_r_below_one_exits_2(tmp_path, capsys, path_flag, kind):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    argv = ["analyze", str(tmp_path / f"ham.{kind}"), "--r", "0"]
    code, out, err = run_cli(capsys, *argv, *([path_flag] if path_flag else []))
    assert code == 2
    assert out == ""
    assert err == "error: --r must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "flags", [["--bounds"], ["--locality"], []], ids=["bounds", "locality", "all"]
)
@pytest.mark.parametrize("r", [1, 3, 5])
def test_analyze_lrc_with_r_other_than_2_exits_2(tmp_path, capsys, flags, r):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    argv = ["analyze", str(tmp_path / "ham.lrc.json"), "--r", str(r), *flags]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: an LRC input has locality 2, got --r {r}\n"


def test_analyze_r_2_on_an_lrc_and_r_3_on_a_plain_code(tmp_path, capsys):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    lrc = str(tmp_path / "ham.lrc.json")
    default = run_cli(capsys, "analyze", lrc, "--bounds")
    assert default[0] == 0 and json.loads(default[1])["bounds"]["r"] == 2
    assert run_cli(capsys, "analyze", lrc, "--bounds", "--r", "2") == default
    plain = tmp_path / "ham.parity"
    h = json.loads(Path(lrc).read_text())["H"]
    plain.write_text(h.replace("\n", " kind=parity\n", 1))
    code, out, _ = run_cli(capsys, "analyze", str(plain), "--bounds", "--r", "3")
    assert code == 0 and json.loads(out)["bounds"]["r"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["analyze", str(d)],
        lambda d: ["bounds", "--n", "15", "--k", "6", "--d", "6", "--kopt-table", str(d)],
        lambda d: ["analyze", str(d / "ham.lrc.json"), "--bounds", "--kopt-table", str(d)],
        lambda d: ["construct", "cap", "--cap-file", str(d)],
        lambda d: ["construct", "hexacode", "--output", str(d / "ham.code" / "x")],
        lambda d: ["repair", str(d / "missing.lrc.json"), "--random-t", "1"],
    ],
    ids=["analyze-directory", "bounds-kopt-directory", "analyze-kopt-directory",
         "cap-file-directory", "output-under-a-file", "missing-file"],
)
def test_os_errors_exit_2(tmp_path, capsys, argv):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_repair_command(tmp_path, capsys):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    code, out, _ = run_cli(
        capsys,
        "repair", str(tmp_path / "ham.lrc.json"),
        "--trials", "100", "--random-t", "1", "--seed", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["success_rate"] == 1.0
    assert report["local_fraction"] == 1.0
    assert report["mean_accessed"] == 2.0


@pytest.fixture(scope="module")
def lrc_files(tmp_path_factory):
    """The [15,6,6;2] and [129,72,10;2] LRC JSON files, built once."""
    out = tmp_path_factory.mktemp("lrcs")
    for argv in (["hamming4", "--t", "2"], ["cyclic4", "--n", "43", "--poly", "1 0 W 1 1 w 0 1"]):
        assert main(["construct", *argv, "--concat", "--output", str(out / argv[0])]) == 0
    return [str(out / "hamming4.lrc.json"), str(out / "cyclic4.lrc.json")]


@pytest.mark.parametrize("flags", [[], ["--distance", "--bounds"], ["--random-t", "5"]],
                         ids=["analyze", "analyze-distance-bounds", "repair"])
def test_an_lrc_run_derives_no_generator(lrc_files, capsys, monkeypatch, flags):
    """Every answer about an LRC reads H's columns or the outer code's
    dual, so loading H computes its rank and no nullspace."""
    calls = collections.Counter()
    nullspace = FieldMatrix.nullspace

    def counted(self):
        calls["nullspace"] += 1
        return nullspace(self)

    monkeypatch.setattr(FieldMatrix, "nullspace", counted)
    command = "repair" if "--random-t" in flags else "analyze"
    for path in lrc_files:
        assert run_cli(capsys, command, path, *flags)[0] == 0
        assert calls["nullspace"] == 0, path
    code = _load_input(lrc_files[0])[0].code
    code.weight_distribution()
    code.weight_distribution()
    code.encode([1] * 6)
    assert calls["nullspace"] == 1


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--distance"],
                                  ["repair", "--random-t", "2"]])
def test_an_lrc_whose_h_repeats_a_row_exits_2(lrc_files, tmp_path, capsys, argv):
    obj = json.loads(Path(lrc_files[0]).read_text())
    header, *rows = obj["H"].splitlines()
    obj["H"] = "\n".join([header.replace("rows=9", "rows=10"), *rows, rows[-1]]) + "\n"
    path = tmp_path / "repeated.lrc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: parity-check rows are linearly dependent\n"


@pytest.mark.parametrize("argv", [["analyze"], ["repair", "--random-t", "2"]])
def test_an_lrc_whose_h_is_over_gf4_exits_2(lrc_files, tmp_path, capsys, argv):
    # Its 0/1 rows read as GF(4) rows keep their full rank, so only the
    # field refuses the file.
    obj = json.loads(Path(lrc_files[0]).read_text())
    obj["H"] = obj["H"].replace("field=2", "field=4", 1)
    path = tmp_path / "gf4.lrc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: not a locality-2 LRC: BinaryLrc requires a GF(2) code\n"


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
@pytest.mark.parametrize("argv", [["analyze"], ["repair", "--random-t", "2"]])
def test_a_dependent_lower_row_at_any_position_exits_2(lrc_files, tmp_path, capsys, argv, data):
    """A lower-block row replaced by the sum of other rows of H, group
    parities included, is refused whatever its position."""
    obj = json.loads(Path(lrc_files[0]).read_text())
    h, _ = FieldMatrix.from_text(obj["H"])
    ell = len(obj["groups"])
    rows = list(h.rows)
    at = data.draw(st.integers(ell, h.nrows - 1), label="position")
    others = [i for i in range(h.nrows) if i != at]
    summed = data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True), label="sum of")
    rows[at] = 0
    for i in summed:
        rows[at] ^= rows[i]
    obj["H"] = FieldMatrix(2, h.nrows, h.ncols, rows).to_text()
    path = tmp_path / "dependent.lrc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: parity-check rows are linearly dependent\n"


@pytest.mark.parametrize("argv", [["analyze"], ["repair", "--random-t", "1"]])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply"),
        (json.dumps({"n": 0, "k": 0, "d": None, "groups": [], "H": "field=2 rows=0 cols=0\n"}),
         "not a locality-2 LRC: at least one repair group is required"),
        (json.dumps({"n": 3.0, "k": 2, "d": 2, "groups": [[0, 1, 2]],
                     "H": "field=2 rows=1 cols=3\n1 1 1\n"}),
         '"n" and "k" must be integers'),
        (json.dumps({"n": 3, "k": 2.0, "d": 2, "groups": [[0, 1, 2]],
                     "H": "field=2 rows=1 cols=3\n1 1 1\n"}),
         '"n" and "k" must be integers'),
        (json.dumps({"n": 3, "k": 2, "d": 2, "r": 3, "groups": [[0, 1, 2]],
                     "H": "field=2 rows=1 cols=3\n1 1 1\n"}),
         'stored "r" disagrees with the LRC (r = 2)'),
        (json.dumps({"n": 3, "k": 2, "d": 2, "ell": 7, "groups": [[0, 1, 2]],
                     "H": "field=2 rows=1 cols=3\n1 1 1\n"}),
         'stored "ell" disagrees with the LRC (ell = 1)'),
        (json.dumps({"n": 3, "k": 2, "d": 2, "u": "x", "groups": [[0, 1, 2]],
                     "H": "field=2 rows=1 cols=3\n1 1 1\n"}),
         'stored "u" disagrees with the LRC (u = 0)'),
        (json.dumps({"n": 3, "k": 2, "d": 2, "u": 0.0, "groups": [[0, 1, 2]],
                     "H": "field=2 rows=1 cols=3\n1 1 1\n"}),
         'stored "u" disagrees with the LRC (u = 0)'),
    ],
    ids=["nested", "no-groups", "float-n", "float-k", "r-3", "ell-7", "u-str", "u-float"],
)
def test_an_lrc_json_that_cannot_load_exits_2(tmp_path, capsys, text, message, argv):
    path = tmp_path / "bad.lrc.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(message + "\n")


def test_an_lrc_json_without_r_ell_u_loads(tmp_path, capsys):
    obj = {"n": 3, "k": 2, "d": 2, "groups": [[0, 1, 2]], "H": "field=2 rows=1 cols=3\n1 1 1\n"}
    path = tmp_path / "bare.lrc.json"
    path.write_text(json.dumps(obj))
    assert run_cli(capsys, "analyze", str(path), "--distance")[0] == 0
    path.write_text(json.dumps({**obj, "r": 2, "ell": 1, "u": 0}))
    assert run_cli(capsys, "analyze", str(path), "--distance")[0] == 0


def test_repair_requires_exactly_one_model(tmp_path, capsys):
    base = tmp_path / "ham"
    run_cli(capsys, "construct", "hamming4", "--t", "2", "--concat", "--output", str(base))
    code, _, err = run_cli(capsys, "repair", str(tmp_path / "ham.lrc.json"), "--trials", "5")
    assert code == 2


def test_reproduce_all_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    assert "paper_discrepancy_noted" in out
    assert "mismatch" not in out


def test_reproduce_scope_and_json_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "reproduce", "table1", "--json")
    code2, out2, _ = run_cli(capsys, "reproduce", "table1", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    items = json.loads(out1)["items"]
    assert [it["id"] for it in items] == [f"table1.row{i}" for i in range(1, 5)]
    assert all(it["status"] == "match" for it in items)


def test_reproduce_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "reproduce", "example9.9")
    assert code == 2
    assert err == "error: unknown reproduce id 'example9.9'\n"


def test_reproduce_mismatch_exits_1(capsys, monkeypatch):
    from gf4lrc import cli, reproduce

    fake = reproduce.ReproduceItem("fake", {"v": 1}, {"v": 2}, reproduce.MISMATCH)
    monkeypatch.setattr(cli.reproduce, "run", lambda *a, **kw: [fake])
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 1
    assert "mismatch" in out and "differs: v" in out


def test_analyze_trivial_lrc_singleton_optimal(tmp_path, capsys):
    base = tmp_path / "triv"
    run_cli(capsys, "construct", "mds", "--n1", "1", "--k1", "1", "--concat",
            "--output", str(base))
    code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "triv.lrc.json"))
    assert code == 0
    report = json.loads(out)
    assert report["distance"]["d"] == 2
    assert report["bounds"]["verdicts"]["singleton_optimal"] is True


def test_construct_output_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli(capsys, "construct", "hexacode", "--concat", "--output", str(a))
    run_cli(capsys, "construct", "hexacode", "--concat", "--output", str(b))
    assert (tmp_path / "a.lrc.json").read_text() == (tmp_path / "b.lrc.json").read_text()


@pytest.mark.parametrize(
    "name, argv",
    [("cyc", ["cyclic4", "--n", "43", "--poly", "1 0 W 1 1 w 0 1"]), ("cap", ["cap"])],
)
def test_construct_writes_the_pinned_files(tmp_path, capsys, name, argv):
    """The .code and .lrc.json files are byte for byte the ones in tests/data."""
    assert run_cli(capsys, "construct", *argv, "--concat", "--output", str(tmp_path / name))[0] == 0
    for suffix in (".code", ".lrc.json"):
        assert (tmp_path / (name + suffix)).read_bytes() == (DATA / (name + suffix)).read_bytes()


def test_timestamps_flag(capsys):
    code, out, _ = run_cli(capsys, "construct", "hexacode", "--timestamps")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_construct_cyclic_and_ingest_roundtrip(tmp_path, capsys):
    base = tmp_path / "cyc"
    code, out, _ = run_cli(
        capsys,
        "construct", "cyclic4",
        "--n", "43", "--poly", "1 0 W 1 1 w 0 1",
        "--output", str(base),
        "--max-enum", "1024",  # leave d unverified at build time
    )
    assert code == 0
    assert json.loads(out)["outer"]["n"] == 43
    code2, out2, _ = run_cli(
        capsys, "construct", "ingest", "--file", str(tmp_path / "cyc.code"),
        "--max-enum", "1024",
    )
    assert code2 == 0
    assert json.loads(out2)["outer"]["k"] == 36


def zero_dimensional_lrc() -> dict:
    """One repair group whose parity check has full rank 3, so k = 0."""
    h = "field=2 rows=3 cols=3\n1 1 1\n0 1 0\n0 0 1\n"
    return {"n": 3, "k": 0, "d": None, "r": 2, "ell": 1, "u": 2, "groups": [[0, 1, 2]], "H": h}


@pytest.mark.parametrize("flags", [[], ["--distance"], ["--bounds"]])
def test_analyze_zero_dimensional_lrc_exits_2(tmp_path, capsys, flags):
    path = tmp_path / "zero.lrc.json"
    path.write_text(json.dumps(zero_dimensional_lrc()))
    code, out, err = run_cli(capsys, "analyze", str(path), *flags)
    assert code == 2
    assert out == ""
    assert err == "error: zero-dimensional code has no nonzero codeword\n"


def test_construct_ingest_reports_the_field_of_a_binary_code(tmp_path, capsys):
    path = tmp_path / "rep.code"
    path.write_text("field=2 rows=1 cols=3 kind=generator\n1 1 1\n")
    code, out, _ = run_cli(capsys, "construct", "ingest", "--file", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["outer"] == {"n": 3, "k": 1, "d": 3, "q": 2}
    assert summary["code_text"].startswith("field=2 ")


# -- in-process reuse and the JSON writer ------------------------------------


def test_main_builds_one_parser_tree_per_process(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = ["bounds", "--n", "15", "--k", "6", "--d", "6"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)
    # The root parser and one per subcommand, built once.
    assert built == ["gf4lrc"] + [f"gf4lrc {c}" for c in
                                  ("construct", "analyze", "bounds", "repair", "reproduce")]


def test_back_to_back_calls_leave_no_state_behind(tmp_path, capsys):
    run_cli(capsys, "construct", "hexacode", "--concat", "--output", str(tmp_path / "hex"))
    lrc = str(tmp_path / "hex.lrc.json")
    distance = run_cli(capsys, "analyze", lrc, "--distance")
    full = run_cli(capsys, "analyze", lrc)
    assert run_cli(capsys, "analyze", lrc, "--distance") == distance
    assert set(json.loads(distance[1])) == {"n", "k", "q", "is_lrc", "distance"}
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "analyze", lrc) == full
    assert {"weights", "locality", "bounds"} <= set(json.loads(full[1]))

    helps = []
    for argv, status in ((["analyze", "--help"], 0), (["analyze", lrc, "--bogus"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        helps.append(capsys.readouterr())
        assert run_cli(capsys, "analyze", lrc) == full
    assert helps[0].out.startswith("usage: gf4lrc analyze")
    assert "unrecognized arguments: --bogus" in helps[1].err


_ESCAPES = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "€", "\U0001f600"])
_STRINGS = st.text() | st.lists(_ESCAPES | st.text(max_size=3)).map("".join)
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400)
    | st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _STRINGS
)
# Flat rows of digits 0..9, which the writer joins as one digit string,
# and rows that leave that path: an item just outside 0..9 or outside a
# byte, or a bool, which ``bytes`` would also take.
_DIGIT = st.integers(0, 9)
_EDGES = st.sampled_from([-1, 9, 10, 255, 256])
_DIGIT_ROWS = (
    st.lists(_DIGIT, min_size=1)
    | st.lists(_DIGIT | _EDGES, min_size=1)
    | st.lists(_DIGIT | st.booleans(), min_size=1)
    | st.lists(_DIGIT | _EDGES | st.booleans(), min_size=1, max_size=1)
)
# Rows of ints above 9, of bools and of floats, beside the digit rows, all
# of random and unequal lengths.
_ROWS = (
    _DIGIT_ROWS | st.lists(st.integers(0, 300)) | st.lists(st.integers())
    | st.lists(_DIGIT | st.floats(), max_size=3) | st.just([])
)


def _copy(row):
    """An equal row that is not the same object."""
    return tuple(list(row)) if isinstance(row, tuple) else list(row)


@st.composite
def _row_lists(draw):
    """A list of rows in which a row object repeats consecutively, as
    covering rows do, or after None or an equal but distinct row between."""
    pool = draw(st.lists(_ROWS | _ROWS.map(tuple), min_size=1, max_size=4))
    rows = []
    for pick in draw(st.lists(st.integers(-2, len(pool) - 1), max_size=12)):
        if pick == -1:
            rows.append(None)
        elif pick == -2 and rows and rows[-1] is not None:
            rows.append(_copy(rows[-1]))
        else:
            rows += [pool[max(pick, 0)]] * draw(st.integers(1, 3))
    return rows


# Containers of at most 5 items keep nearly every tree within max_leaves, and
# a dict built from (key, value) pairs keeps the last value of a repeated key:
# neither throws a draw away, where unbounded lists outgrew max_leaves and
# st.dictionaries redrew repeated keys, about half of all draws.
_JSON_VALUES = st.recursive(
    _SCALARS | st.lists(st.integers()) | _DIGIT_ROWS | _DIGIT_ROWS.map(tuple) | _row_lists(),
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.tuples(_STRINGS, inner), max_size=5).map(dict),
    max_leaves=40,
)
_ROW = [1, 0, 1]
_WIDE = (12, 3, 300)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example([0, 1, 2, 3, 9])
@example((3, 0, 2))
@example([7])
@example([9, 10])
@example((255, 0))
@example([0, 256])
@example([-1, 1])
@example([True, 0, 1])
@example((False,))
@example({"covering": [(0, 1, 1), None, (2, 3, 0)], "witness": (1, 0, 1)})
@example([_ROW, _ROW, _ROW, None, _ROW, _copy(_ROW), _ROW])
@example([_WIDE, _WIDE, (1, 2), _WIDE, [], [], None, None, (True, 0), (True, 0)])
@example([(12, 3), (12, 3), (1.5, 2)])
@example([[[1, 2]], [[1, 2]], (0,)])
def test_json_text_is_the_stdlib_indented_text(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_text_writes_a_flat_int_list_beyond_the_digit_limit():
    # 10**5000 has more digits than int-to-str allows: the flat-list path
    # falls back to writing each item as _json_scalar does.
    text = _json_text([10**5000, 3])
    assert text == "[\n  1" + "0" * 5000 + ",\n  3\n]"
    assert json.loads(text, parse_int=str) == ["1" + "0" * 5000, "3"]


def test_json_text_writes_rows_beyond_the_digit_limit():
    # A repeated row, written once, and a row after it, cut from the same
    # run of items, each written as _json_scalar does.
    row = (10**5000, 3)
    text = _json_text([row, row, (4, 12)])
    big = "\n    1" + "0" * 5000 + ",\n    3\n  "
    assert text == "[\n  [" + big + "],\n  [" + big + "],\n  [\n    4,\n    12\n  ]\n]"


def test_json_text_rejects_a_key_that_is_not_a_str():
    with pytest.raises(TypeError, match="keys must be str"):
        _json_text({"a": {1: 2}})


def test_reports_and_lrc_files_are_the_stdlib_indented_text(tmp_path, capsys):
    run_cli(capsys, "construct", "hexacode", "--concat", "--output", str(tmp_path / "hex"))
    written = (tmp_path / "hex.lrc.json").read_text()
    assert written == json.dumps(json.loads(written), sort_keys=True, indent=2) + "\n"
    for argv in (["analyze", str(tmp_path / "hex.lrc.json")], ["reproduce", "--json"]):
        out = run_cli(capsys, *argv)[1]
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_a_group_search_deeper_than_the_recursion_limit_exits_0(tmp_path, capsys):
    """The [252,8,126;2] MacDonald m = 4 LRC's group search starts at 63
    groups, and it runs out of --max-subsets 3 only at a full-size set.
    With the recursion limit 40 frames above this test's depth, the run
    gives the report it gives at the normal limit: the search holds its
    frames on a list, not on the call stack."""
    base = tmp_path / "mac4"
    run_cli(capsys, "construct", "macdonald", "--m", "4", "--u", "1", "--concat",
            "--output", str(base))
    argv = ["analyze", str(tmp_path / "mac4.lrc.json"), "--distance", "--max-subsets", "3"]
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = run_cli(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_plain_code_locality_past_the_walk_takes_covering_sets(tmp_path, capsys):
    # The [20,3,15]_4 MacDonald code's dual has 4^17 words, beyond
    # --max-enum: each coordinate takes its first pair of other columns
    # that spans its own, a dual word of weight 3, within --max-subsets.
    base = tmp_path / "mac"
    run_cli(capsys, "construct", "macdonald", "--m", "3", "--u", "1", "--output", str(base))
    code, out, _ = run_cli(capsys, "analyze", str(base.with_suffix(".code")))
    assert code == 0
    report = json.loads(out)
    assert report["distance"]["d"] == 15
    locality = report["locality"]
    assert locality["ok"] and locality["uncovered"] == []
    assert all(sum(map(bool, w)) == 3 and w[j] == 1 for j, w in enumerate(locality["covering"]))
    code, out, _ = run_cli(capsys, "analyze", str(base.with_suffix(".code")), "--max-subsets", "5")
    assert code == 3
    assert json.loads(out)["locality"] == {"error": "covering-set search exceeded 5 sets"}
