"""Fuzzing of the text and JSON parsers: only package errors may escape.

Each parser gets inputs built near its format (headers with small,
negative, repeated or non-integer values, rows of alphabet and foreign
symbols, LRC objects with mutated fields) as well as arbitrary text or JSON.
A parser may return or raise a ``Gf4LrcError``; any other exception is a
defect.  The k_opt table parser reads a file, so it gets bytes: table
lines, comments and stray bytes that need not be UTF-8.  Header integers stay small, so no input asks for a huge matrix.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gf4lrc.bounds import kopt_from_table
from gf4lrc.concat import BinaryLrc, concatenate
from gf4lrc.errors import Gf4LrcError
from gf4lrc.families import hamming4
from gf4lrc.matrix import FieldMatrix
from gf4lrc.projective import CapSet

values = st.one_of(
    st.integers(-3, 6).map(str), st.sampled_from(["", "x", "2.5", "w", "1e3", "=", "-"])
)
symbols = st.sampled_from(["0", "1", "1", "w", "W", "2", "x"])


@st.composite
def near_format(draw, fields: dict, extra_keys: list, shape):
    """A header with the required ``fields`` (each a strategy of values) in
    any order, sometimes with extra, repeated or broken tokens, then the
    body rows the header asks for, sometimes one row too few or too many."""
    header = {key: draw(strategy) for key, strategy in fields.items()}
    tokens = [f"{key}={value}" for key, value in header.items()]
    extra = st.one_of(
        st.tuples(st.sampled_from(extra_keys + list(fields)), values).map("=".join),
        st.sampled_from(["", "=", "noequals", "=1"]),
    )
    if draw(st.booleans()):
        tokens += draw(st.lists(extra, min_size=1, max_size=2))
    tokens = draw(st.permutations(tokens))
    nrows, ncols = shape(header)
    nrows = max(0, nrows + draw(st.sampled_from([0, 0, 0, -1, 1])))
    ncols = max(0, ncols + draw(st.sampled_from([0, 0, 0, -1, 1])))
    row = st.lists(symbols, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    return "\n".join([" ".join(tokens)] + [" ".join(r) for r in rows]) + "\n"


def _int(text: str, default: int = 0) -> int:
    try:
        return int(text)
    except ValueError:
        return default


matrix_texts = st.one_of(
    near_format(
        {"field": st.sampled_from(["2", "4", "3", "x"]), "rows": values, "cols": values},
        ["kind", "n", "k", "d", "bogus"],
        lambda h: (_int(h["rows"]), _int(h["cols"])),
    ),
    st.text(max_size=40),
)
cap_texts = st.one_of(
    near_format(
        {"pg": values, "q": st.sampled_from(["4", "2"]), "size": values},
        ["bogus"],
        lambda h: (_int(h["size"]), _int(h["pg"]) + 1),
    ),
    st.text(max_size=40),
)


def only_package_errors(parse, arg) -> None:
    try:
        parse(arg)
    except Gf4LrcError:
        pass


@settings(max_examples=250, deadline=None)
@given(matrix_texts)
def test_matrix_text_parser_raises_only_package_errors(text):
    only_package_errors(FieldMatrix.from_text, text)


@settings(max_examples=250, deadline=None)
@given(cap_texts)
def test_cap_text_parser_raises_only_package_errors(text):
    only_package_errors(lambda t: CapSet.from_text(t).verify(), text)


VALID_LRC = concatenate(hamming4(2)).to_json()
VALID_H = FieldMatrix.from_text(VALID_LRC["H"])[0]
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 20), st.text(max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
small_ints = st.one_of(st.integers(-2, 20), st.booleans(), st.none(), st.text(max_size=2))
groups = st.lists(st.lists(small_ints, min_size=2, max_size=4), max_size=6)


@st.composite
def lrc_objects(draw):
    obj = json.loads(json.dumps(VALID_LRC))
    for key in draw(st.lists(st.sampled_from(sorted(obj)), unique=True, max_size=3)):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            del obj[key]
        elif choice == 1:
            obj[key] = draw(json_values)
        elif key == "H":
            # Keep some rows of the valid parity check and flip some bits.
            h = VALID_H.rows
            kept = draw(st.lists(st.sampled_from(range(len(h))), unique=True, max_size=len(h)))
            flips = draw(st.lists(st.integers(0, VALID_H.ncols - 1), unique=True, max_size=3))
            rows = [h[i] ^ sum(1 << j for j in flips) for i in sorted(kept)]
            obj["H"] = FieldMatrix(2, len(rows), VALID_H.ncols, rows).to_text()
        elif key == "groups":
            obj["groups"] = draw(st.one_of(groups, st.permutations(obj["groups"])))
        else:
            obj[key] = draw(small_ints)
    return obj


@settings(max_examples=250, deadline=None)
@given(st.one_of(lrc_objects(), json_values))
def test_lrc_json_parser_raises_only_package_errors(obj):
    only_package_errors(BinaryLrc.from_json, obj)


table_lines = st.one_of(
    st.lists(values, min_size=3, max_size=3).map(" ".join),
    st.lists(values, max_size=4).map(" ".join),
    st.sampled_from(["", "# comment", "  9 6 2  ", "10 4 -3"]),
)
table_bytes = st.one_of(
    st.lists(
        st.one_of(
            table_lines.map(str.encode),
            st.sampled_from([b"\xff", b"\xc3", b"9 6 \xe9", b"\x00", b"\r"]),
        ),
        max_size=5,
    ).map(b"\n".join),
    st.binary(max_size=40),
)


@settings(max_examples=250, deadline=None)
@given(table_bytes)
def test_kopt_table_parser_raises_only_package_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("kopt") / "table.txt"
    path.write_bytes(data)
    only_package_errors(kopt_from_table, path)
