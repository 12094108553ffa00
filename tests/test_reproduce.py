import pytest

from gf4lrc import reproduce


def test_expand_ids_prefix_and_exact():
    assert reproduce.expand_ids(["table1"]) == [f"table1.row{i}" for i in range(1, 5)]
    assert reproduce.expand_ids(["example5.1"]) == ["example5.1"]
    assert reproduce.expand_ids(["table1", "table1.row1"]) == [f"table1.row{i}" for i in range(1, 5)]
    assert reproduce.expand_ids(None) == list(reproduce.ALL_IDS)
    with pytest.raises(KeyError):
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
