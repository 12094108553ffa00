from pathlib import Path

import pytest

from conftest import forbid_dependent_set_search
from gf4lrc import bounds, cli, concat, reproduce
from gf4lrc import code as code_module
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


def test_example_5_2_runs_no_group_search_and_no_pair_walk(monkeypatch):
    """Its [129,72,10;2] LRC takes d from the weights that the [43,36,5]
    outer code's dual walk gave, carried lifted: neither the group search
    nor a walk of P runs."""
    monkeypatch.setattr(concat, "certify_distance", _forbidden)
    monkeypatch.setattr(concat, "side_weights", _forbidden)
    [item] = reproduce.run(["example5.2"])
    assert item.status == reproduce.MATCH
    assert item.computed["lrc"] == [129, 72, 10]


def test_a_full_run_makes_no_group_search(monkeypatch):
    """Every LRC distance is read from its weights, so no item certifies
    one by a group search."""
    monkeypatch.setattr(concat, "certify_distance", _forbidden)
    statuses = {it.id: it.status for it in reproduce.run()}
    assert statuses.pop("example6.3") == reproduce.NOTED
    assert set(statuses.values()) == {reproduce.MATCH}


def test_example_5_2_runs_no_dependent_set_search(monkeypatch):
    """Its cyclic outer code proves d1 by the weights of its dual walk, not
    by the column search that ``min_distance`` would add for a witness."""
    monkeypatch.setattr(code_module, "smallest_dependent_set", _forbidden)
    [item] = reproduce.run(["example5.2"])
    assert item.status == reproduce.MATCH
    assert item.computed["outer"] == [43, 36, 5]


def test_a_full_run_makes_no_dependent_set_search(monkeypatch):
    """The family builders check d by the weights too, ``mds_rs(5, 3)``,
    ``hamming4(2)`` and ``cap_code`` among them, so no item searches."""
    forbid_dependent_set_search(monkeypatch)
    statuses = {it.id: it.status for it in reproduce.run()}
    assert statuses.pop("example6.3") == reproduce.NOTED
    assert set(statuses.values()) == {reproduce.MATCH}


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
