"""Every run of the golden CLI corpus gives its expected text, byte for byte,
and the expected texts keep the relations between runs that the loader
promises and the values that the locality scan and the bound reports pin."""

import json
from fractions import Fraction

import corpus
from conftest import forbid_dependent_set_search
from gf4lrc.code import LinearCode


def test_every_corpus_run_gives_its_expected_output_byte_for_byte(tmp_path):
    rendered = corpus.replay(tmp_path)
    expected = corpus.expected()
    assert sorted(rendered) == sorted(expected), "commands.txt and out/ list other runs"
    differ = [key for key in rendered if rendered[key] != expected[key]]
    assert not differ, f"{len(differ)} runs differ from out/, the first: {differ[0]}"


def _assert_replays(tmp_path, keep) -> None:
    """The runs whose line ``keep`` accepts give their expected text."""
    rendered = corpus.replay(tmp_path, keep)
    expected = corpus.expected()
    assert rendered and all(rendered[key] == expected[key] for key in rendered)


def test_every_construct_run_makes_no_dependent_set_search(tmp_path, monkeypatch):
    # Each family builder and construct read d from exact weights.  Only
    # weights beyond --max-enum send construct to the column search, as the
    # corpus's one --max-enum 1 construct run does, so it is left out.
    forbid_dependent_set_search(monkeypatch)
    _assert_replays(
        tmp_path, lambda line: line.startswith("construct") and "--max-enum" not in line
    )


def test_a_code_read_from_its_generator_builds_no_h_columns(tmp_path, monkeypatch):
    # from_generator checks H's rows against G's columns from the nullspace
    # pass, so H's columns are built only when a run reads them, and the
    # reports of every generator file the corpus analyzes stay the same.
    built = []
    from_generator = LinearCode.from_generator.__func__

    def checked(cls, generator):
        code = from_generator(cls, generator)
        assert "bit_columns" not in vars(code)
        built.append(code)
        return code

    monkeypatch.setattr(LinearCode, "from_generator", classmethod(checked))
    _assert_replays(tmp_path, lambda line: line.startswith(("construct", "variant")) or (
        line.startswith("analyze") and ".code" in line and "--distance" in line
    ))
    assert len(built) >= 8


def _report(line: str) -> str:
    """The stdout of a corpus run, as its expected file holds it."""
    text = corpus.expected()[corpus.stem(line)]
    return text[text.index("--- stdout\n") + 11 : text.index("--- stderr\n")]


def test_an_h_read_line_by_line_gives_the_canonical_report():
    # Tabs, doubled spaces and one re-spaced line select the split reader;
    # the matrix, and so the report, is the same.
    for name in ("ham-tabs", "ham-spaces", "ham-ws"):
        assert _report(f"analyze {name}.lrc.json") == _report("analyze ham.lrc.json"), name
    assert _report("analyze cyc-ws.lrc.json") == _report("analyze cyc.lrc.json")


def test_permuted_positions_keep_the_distance_weights_and_verdicts():
    ham, perm = (json.loads(_report(f"analyze {f}.lrc.json")) for f in ("ham", "ham-perm"))
    assert (perm["distance"]["d"], perm["distance"]["method"]) == (6, "group_rank")
    assert perm["weights"]["A"] == ham["weights"]["A"]
    assert perm["bounds"]["verdicts"] == ham["bounds"]["verdicts"]


def test_the_pinned_locality_and_bound_values_hold():
    # The locality scan walks the words H's pair rows span: each
    # coordinate's first covering word in step order, at GF(4).
    locality = json.loads(_report("analyze ham.code --locality --r 3"))["locality"]
    assert locality["ok"] and locality["covering"] == [[3, 1, 2, 1, 0]] * 4 + [[3, 3, 0, 2, 1]]
    # omega' at (3000, 10, 2000) lies beyond float range: "value" is null
    # and the exact denominator is kept.
    denominators = json.loads(_report("bounds --n 3000 --k 10 --d 2000"))["denominators"]
    for name in ("omega_prime_improved", "omega_prime_original"):
        assert denominators[name]["value"] is None
        assert Fraction(denominators[name]["exact"]) > 2**1024
    # n < r + 1 admits no C-M tau: the report leaves out the cm entry.
    bounds = json.loads(_report("bounds --n 2 --k 1 --d 2"))["bounds"]
    assert "cm" not in [b["name"] for b in bounds]


def test_the_pinned_values_of_the_plain_spc_code_hold():
    # At GF(2), each coordinate is covered by its group's parity row.
    locality = json.loads(_report("analyze spc-bin.code --locality"))["locality"]
    assert locality["ok"] and locality["uncovered"] == []
    assert locality["covering"] == [[int(i // 3 == j // 3) for i in range(24)] for j in range(24)]
    # Its 2^10 dual words fit --max-enum 1024, and the column search
    # starts at d = 4.
    distance = json.loads(_report("analyze spc-bin.code --distance --max-enum 1024"))["distance"]
    assert (distance["d"], distance["method"]) == (4, "column_dependence")
    # Its weights, through the GF(2) dual side, equal the LRC's, which
    # come from its pair code.
    runs = ("analyze spc-bin.code --weights --max-enum 1024", "analyze spc.lrc.json --weights")
    plain, lrc = (json.loads(_report(line))["weights"]["A"] for line in runs)
    expected = [1, 0, 0, 0, 84, 0, 336, 0, 1470, 0, 3360, 0, 5124, 0, 4368, 0, 1641]
    assert plain == lrc == expected + [0] * 8
    # One word short of the budget, the run exits 3 and names it.
    text = corpus.expected()[corpus.stem("analyze spc-bin.code --weights --max-enum 1023")]
    assert text.splitlines()[1] == "exit 3"
    assert '"1024 codewords exceed enumeration budget 1023"' in _report(
        "analyze spc-bin.code --weights --max-enum 1023"
    )
