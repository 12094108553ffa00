"""Every run of the golden CLI corpus gives its expected text, byte for byte,
and the expected texts keep the relations between runs that the loader
promises."""

import json

import corpus


def test_every_corpus_run_gives_its_expected_output_byte_for_byte(tmp_path):
    rendered = corpus.replay(tmp_path)
    expected = corpus.expected()
    assert sorted(rendered) == sorted(expected), "commands.txt and out/ list other runs"
    differ = [key for key in rendered if rendered[key] != expected[key]]
    assert not differ, f"{len(differ)} runs differ from out/, the first: {differ[0]}"


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
