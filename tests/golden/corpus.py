"""The golden CLI corpus: replay ``commands.txt`` and render what each run gives.

Every line of ``commands.txt`` is one argv, split as a shell splits it, and
the lines run in order through ``gf4lrc.cli.main``, in-process, in one
working directory, so that the files a ``construct`` line writes are the
inputs of the lines after it.  A line ``variant NAME SOURCE TARGET`` is not
a run: it writes TARGET, the LRC JSON file SOURCE changed by
``VARIANTS[NAME]``, or the text that variant gives when it gives text.
Blank lines and lines starting with ``#`` are skipped.

A run is rendered as one text: its argv, exit code, stdout and stderr, and
the text of every file it wrote or changed.  The expected text of a run is
``out/<stem>.txt``, its stem taken from its line (``stem``).
``python tests/golden/regen.py`` rewrites those files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

from gf4lrc import cli
from gf4lrc.concat import BinaryLrc

HERE = Path(__file__).resolve().parent
COMMANDS = HERE / "commands.txt"
EXPECTED = HERE / "out"


def stem(line: str) -> str:
    """The name of a run's expected file: its line, each run of characters
    other than letters, digits, ``.``, ``=`` and ``-`` as one ``_``."""
    return re.sub(r"[^\w.=-]+", "_", line).strip("_")


def lines() -> list[str]:
    """The corpus lines, comments and blank lines left out."""
    text = COMMANDS.read_text()
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


# -- variants: an LRC JSON file changed in one way ---------------------------


def _body(obj: dict) -> tuple[str, list[list[str]]]:
    header, *rows = obj["H"].splitlines()
    return header, [row.split() for row in rows]


def _with_body(obj: dict, header: str, lines: list[str]) -> dict:
    return {**obj, "H": "\n".join([header, *lines]) + "\n"}


def _spaced(sep: str):
    """Every line's symbols joined by ``sep``."""

    def variant(obj: dict) -> dict:
        header, rows = _body(obj)
        return _with_body(obj, header, [sep.join(r) for r in rows])

    return variant


def _alternating(obj: dict) -> dict:
    """Odd lines joined by tabs, even ones by doubled spaces."""
    header, rows = _body(obj)
    return _with_body(obj, header, [("\t" if i % 2 else "  ").join(r) for i, r in enumerate(rows)])


def _one_line_respaced(obj: dict) -> dict:
    """Line 20 (the last, in a shorter H) joined by tabs, the rest canonical."""
    header, rows = _body(obj)
    texts = [" ".join(r) for r in rows]
    at = min(20, len(rows) - 1)
    texts[at] = "\t".join(rows[at])
    return _with_body(obj, header, texts)


def _line_changed(change):
    """The body with ``change(row)`` applied to its last line only."""

    def variant(obj: dict) -> dict:
        header, rows = _body(obj)
        rows[-1] = change(list(rows[-1]))
        return _with_body(obj, header, [" ".join(r) for r in rows])

    return variant


def _faults(*faults):
    """H with faults named relative to the listed groups: ``("top", i)``
    sets group i's second position in the top row of group i + 1, and
    ``("first", i)`` flips group i's first position in the first lower row."""

    def variant(obj: dict) -> dict:
        header, rows = _body(obj)
        groups, ell = obj["groups"], len(obj["groups"])
        for kind, i in faults:
            if kind == "top":
                row, pos = (i + 1) % ell, groups[i][1]
            else:
                row, pos = ell, groups[i][0]
            rows[row][pos] = "0" if rows[row][pos] == "1" else "1"
        return _with_body(obj, header, [" ".join(r) for r in rows])

    return variant


def _repeated_row(obj: dict) -> dict:
    """H with its last row repeated, its header's row count raised to match."""
    header, rows = _body(obj)
    header = header.replace(f"rows={len(rows)}", f"rows={len(rows) + 1}")
    return _with_body(obj, header, [" ".join(r) for r in rows + rows[-1:]])


def _dependent_row(obj: dict) -> dict:
    """H with its last row replaced by the sum of the two lower rows above it."""
    header, rows = _body(obj)
    rows[-1] = [str(int(a) ^ int(b)) for a, b in zip(rows[-2], rows[-3])]
    return _with_body(obj, header, [" ".join(r) for r in rows])


def _cut_row(obj: dict) -> dict:
    """H without its last row: k one higher, u one lower, no stored d."""
    header, rows = _body(obj)
    header = header.replace(f"rows={len(rows)}", f"rows={len(rows) - 1}")
    cut = _with_body(obj, header, [" ".join(r) for r in rows[:-1]])
    return {**cut, "k": obj["k"] + 1, "u": obj["u"] - 1, "d": None}


def _permuted(obj: dict) -> dict:
    """Position p moved to 7p + 3 mod 15, H's columns and the groups alike."""
    header, rows = _body(obj)
    moved = [" ".join(r[13 * (j - 3) % 15] for j in range(15)) for r in rows]
    groups = [[(7 * p + 3) % 15 for p in g] for g in obj["groups"]]
    return {**_with_body(obj, header, moved), "groups": groups}


def _reordered(obj: dict) -> dict:
    """The groups listed last first, and H's top rows alike."""
    header, rows = _body(obj)
    ell = len(obj["groups"])
    rows[:ell] = rows[:ell][::-1]
    return {**_with_body(obj, header, [" ".join(r) for r in rows]), "groups": obj["groups"][::-1]}


def _group_changed(change):
    def variant(obj: dict) -> dict:
        groups = [list(g) for g in obj["groups"]]
        change(groups)
        return {**obj, "groups": groups}

    return variant


def _set(i: int, j: int, value):
    def change(groups):
        groups[i][j] = value

    return change


def _without(key: str):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _plain_code(obj: dict) -> str:
    """The LRC as a plain binary code file: its parity check."""
    lrc = BinaryLrc.from_json(obj)
    return lrc.code.parity_check.to_text({"kind": "parity", "n": lrc.n, "k": lrc.k})


VARIANTS = {
    "tabs": _spaced("\t"),
    "doubled-spaces": _spaced("  "),
    "alternating": _alternating,
    "one-line-respaced": _one_line_respaced,
    "gf4-header": lambda obj: {**obj, "H": obj["H"].replace("field=2", "field=4", 1)},
    "short-line": _line_changed(lambda r: r[:-1]),
    "long-line": _line_changed(lambda r: r + ["0"]),
    "bad-symbol": _line_changed(lambda r: r[:2] + ["w"] + r[3:]),
    "top-faults": _faults(("top", 3), ("top", 1)),
    "first-faults": _faults(("first", 3), ("first", 1)),
    "top-then-first": _faults(("top", 2), ("first", 1)),
    "first-then-top": _faults(("first", 2), ("top", 1)),
    "repeated-row": _repeated_row,
    "dependent-row": _dependent_row,
    "cut-row": _cut_row,
    "permuted": _permuted,
    "reordered": _reordered,
    "r3": lambda obj: {**obj, "r": 3},
    "repeated-group": _group_changed(lambda g: g.__setitem__(1, list(g[0]))),
    "out-of-range-group": _group_changed(_set(4, 2, 15)),
    "negative-group": _group_changed(_set(4, 2, -1)),
    "bool-group": _group_changed(_set(0, 0, False)),
    "short-group": _group_changed(lambda g: g[4].pop()),
    "missing-groups": _without("groups"),
    "plain-code": _plain_code,
}


# -- replay ------------------------------------------------------------------


def _snapshot(where: Path) -> dict:
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(where)}


def replay(where: Path) -> dict[str, str]:
    """Every run of the corpus, replayed in ``where``, rendered, by stem."""
    rendered: dict[str, str] = {}
    with _chdir(where):
        for line in lines():
            argv = shlex.split(line)
            if argv[0] == "variant":
                name, source, target = argv[1:]
                obj = json.loads(Path(source).read_text())
                text = VARIANTS[name](obj)
                Path(target).write_text(text if isinstance(text, str) else json.dumps(text))
                continue
            before = _snapshot(where)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            after = _snapshot(where)
            parts = [f"$ {line}\nexit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"]
            for name in sorted(n for n in after if before.get(n) != after[n]):
                parts.append(f"--- file {name}\n{Path(name).read_text()}")
            key = stem(line)
            if key in rendered:
                raise ValueError(f"two corpus lines share the stem {key!r}")
            rendered[key] = "".join(parts)
    return rendered


@contextlib.contextmanager
def _chdir(where: Path):
    """Run the block in ``where`` (``contextlib.chdir`` is not in Python 3.10)."""
    back = os.getcwd()
    os.chdir(where)
    try:
        yield
    finally:
        os.chdir(back)


def expected() -> dict[str, str]:
    """The expected texts, by stem."""
    return {p.name[: -len(".txt")]: p.read_text() for p in EXPECTED.glob("*.txt")}
