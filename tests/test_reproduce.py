from pathlib import Path

import pytest

from gf4lrc import bounds, cli, concat, reproduce
from gf4lrc.code import LinearCode
from gf4lrc.errors import InvalidParameters

DATA = Path(__file__).parent / "data"


def test_expand_ids_prefix_and_exact():
    assert reproduce.expand_ids(["table1"]) == [f"table1.row{i}" for i in range(1, 5)]
    assert reproduce.expand_ids(["example5.1"]) == ["example5.1"]
    assert reproduce.expand_ids(["table1", "table1.row1"]) == [f"table1.row{i}" for i in range(1, 5)]
    assert reproduce.expand_ids(None) == list(reproduce.ALL_IDS)
    with pytest.raises(InvalidParameters, match="unknown reproduce id 'nope'"):
        reproduce.expand_ids(["nope"])


def test_all_items_match_or_are_noted():
    items = reproduce.run()
    assert [it.id for it in items] == list(reproduce.ALL_IDS)
    statuses = {it.id: it.status for it in items}
    assert statuses.pop("example6.3") == reproduce.NOTED
    assert set(statuses.values()) == {reproduce.MATCH}


def test_flagged_item_reports_both_readings():
    item = reproduce.run(["example6.3"])[0]
    ours = item.computed["group_count_reading"]
    assert ours["omega"] == 2776
    assert ours["k_bound_improved"] == 36
    assert ours["k_bound_original"] == 37
    assert ours["attains_improved"] is False
    assert item.computed["printed_k_bound"] == 34
    assert item.expected["printed_improved_denominator"] == "65927/2"


def test_item_json_shape():
    item = reproduce.run(["table1.row3"])[0]
    obj = item.to_json()
    assert obj["id"] == "table1.row3"
    assert obj["status"] == "match"
    assert obj["expected"]["lrc"] == [15, 6, 6]


@pytest.mark.parametrize("argv, name", [(["--json"], "reproduce.json"), ([], "reproduce.txt")])
def test_full_run_output_is_pinned(capsys, argv, name):
    """A full run prints, byte for byte, what the hand-written item
    functions that the rows replaced printed: item order, keys and values."""
    assert cli.main(["reproduce", *argv]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()


def test_changed_stated_value_is_a_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(reproduce._ITEMS["table1.row3"].expected, "lrc", [15, 6, 7])
    assert cli.main(["reproduce", "table1.row3"]) == 1
    assert capsys.readouterr().out == "table1.row3  mismatch  differs: lrc\n"


def _forbidden(*args, **kwargs):
    raise AssertionError("a forbidden computation ran")


def test_example_5_2_carries_its_outer_certificate_without_a_group_search(monkeypatch):
    """Its [43,36,5] outer code took the column search, over the blocks that
    the LRC's group search takes, from the same start d1 = 5: ``concatenate``
    carries that certificate, lifted, so neither the group search nor a pair
    walk runs, and the certificate is the one a fresh search from 5 groups
    of [129,72,10;2] gives."""
    certify = concat.certify_distance
    monkeypatch.setattr(concat, "certify_distance", _forbidden)
    monkeypatch.setattr(concat, "side_weights", _forbidden)
    [item] = reproduce.run(["example5.2"])
    assert item.status == reproduce.MATCH
    assert item.computed["lrc"] == [129, 72, 10]
    lrc = reproduce._Facts(reproduce._ITEMS["example5.2"]).lrc
    cert = lrc.min_distance()
    assert cert.method == "group_rank"
    assert cert == certify(lrc, start=5)


def test_table1_enumerates_no_lrc_and_classifies_nothing(monkeypatch):
    """A table row reads only the Griesmer-like bound: no ``classify`` and
    no binary weight enumeration (the GF(4) outer codes are enumerated
    when their builders verify d)."""
    fields = []
    weight_distribution = LinearCode.weight_distribution

    def recorded(self, *args, **kwargs):
        fields.append(self.q)
        return weight_distribution(self, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "weight_distribution", recorded)
    reproduce.run(["example5.1"])
    assert 2 in fields  # an LRC's enumeration is seen
    monkeypatch.setattr(bounds, "classify", _forbidden)
    with pytest.raises(AssertionError, match="forbidden"):
        reproduce.run(["example6.1"])  # a classify call is seen
    fields.clear()
    assert {it.status for it in reproduce.run(["table1"])} == {reproduce.MATCH}
    assert 2 not in fields


def test_every_fact_is_stated_by_some_row():
    rows = [r for r in reproduce._ITEMS.values() if isinstance(r, reproduce._Row)]
    assert {key for r in rows for key in {**r.expected, **r.heavy}} == set(reproduce._FACTS)
