"""Command-line interface: construct, analyze, bounds, repair, reproduce.

Exit codes: 0 success, 1 reproduction mismatch, 2 usage, parameter or file
error (any OSError), 3 enumeration budget exhausted (partial results are
still emitted).
Output is deterministic JSON (sorted keys, no timestamps unless
--timestamps is given).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone
from decimal import Decimal
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import bounds, families, reproduce
from .code import DEFAULT_ENUM_BUDGET, LinearCode
from .concat import (
    DEFAULT_SUBSET_BUDGET,
    BinaryLrc,
    concatenate,
    group_bases,
    locality_check,
)
from .errors import BudgetExceeded, Gf4LrcError, ParseError
from .gf4 import symbol_to_value
from .projective import CapSet, bundled_cap_pg3_17
from .repair import PerSymbolErasures, RandomErasures, simulate


#: Byte values 0..9 to their digit characters; ``_NOT_DIGITS`` is every
#: other byte value, which the translation deletes.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_NOT_DIGITS = bytes(range(10, 256))
#: The item types of a list of rows that ``_rows_text`` writes.
_ROW_TYPES = {list, tuple, type(None)}
#: Stands for "no row yet" when ``_rows_text`` compares rows by identity.
_NO_ITEM = object()


def _json_text(obj, indent: str = "\n") -> str:
    """What ``json.dumps`` writes with sorted keys and a two-space indent,
    for a value with str keys.  ``_write_json`` appends the text in pieces,
    joined once here, so no nested text is copied into its parent's.  Keys
    and scalars are written as the stdlib's encoder writes them
    (``_json_scalar``).  A flat list of plain ints (no bools) is written in
    one step (``_int_joiner``), not item by item as the pure-Python encoder
    that an indent selects does.  A list of such rows and None, such as a
    report's ``covering`` and ``groups``, is written in one pass over all
    its rows' items (``_rows_text``); a row that is the same object as the
    one before it, as each group's row is at its three positions of
    ``covering``, is written once and its text reused."""
    out: list[str] = []
    _write_json(obj, indent, out)
    return "".join(out)


def _write_json(obj, indent: str, out: list) -> None:
    """Append the pieces of ``_json_text(obj, indent)`` to ``out``."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        lead, sep = "{" + inner, "," + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead + encode_basestring_ascii(key) + ": ")
            lead = sep
            _write_json(value, inner, out)
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "," + inner
        out.append("[" + inner)
        kinds = set(map(type, obj))
        if kinds == {int}:
            out.append(_int_joiner(obj, sep)(0, len(obj)))
        elif kinds <= _ROW_TYPES and (texts := _rows_text(obj, inner)) is not None:
            out.append(sep.join(texts))
        else:
            lead = ""
            for x in obj:
                out.append(lead)
                lead = sep
                _write_json(x, inner, out)
        out.append(indent + "]")
    else:
        out.append(_json_scalar(obj))


def _int_joiner(ints, sep: str):
    """The function of (start, end) that writes ``ints[start:end]``, plain
    ints, joined by ``sep``.  When every item is 0..9, as in a report's bit
    and GF(4) symbol rows, all items are one digit string, made by one
    ``bytes(...).translate`` pass and spread by one ``str.replace``, which
    puts ``sep`` before and after each digit, and a run is one slice of it.
    Otherwise each item is written by ``int.__repr__``, or by
    ``_json_scalar`` when one has more digits than ``int.__repr__`` allows,
    and a run is joined."""
    try:
        digits = bytes(ints).translate(_DIGITS, _NOT_DIGITS)
    except ValueError:  # an item outside 0..255
        digits = b""
    if len(digits) == len(ints):
        spread, gap, step = digits.decode().replace("", sep), len(sep), len(sep) + 1
        return lambda start, end: spread[start * step + gap : end * step]
    try:
        items = list(map(int.__repr__, ints))
    except ValueError:  # an item beyond the int-to-str digit limit
        items = list(map(_json_scalar, ints))
    return lambda start, end: sep.join(items[start:end])


def _rows_text(rows, indent: str):
    """The texts of a list of flat rows of plain ints and None, or None when
    a row holds anything else.  A row that is the same object as the one
    before it is written once; the other rows' items are written together
    by one ``_int_joiner`` and cut apart by the rows' lengths."""
    distinct, at = [], []
    last = _NO_ITEM
    for row in rows:
        if row is not last:
            last = row
            distinct.append(row)
        at.append(len(distinct) - 1)
    flat = list(chain.from_iterable([row for row in distinct if row]))
    if list(map(type, flat)).count(int) != len(flat):
        return None
    inner = indent + "  "
    join = _int_joiner(flat, "," + inner)
    texts, start = [], 0
    for row in distinct:
        if row is None:
            texts.append("null")
        elif row:
            end = start + len(row)
            texts.append("[" + inner + join(start, end) + indent + "]")
            start = end
        else:
            texts.append("[]")
    return [texts[i] for i in at]


def _json_scalar(obj) -> str:
    """A str, None, bool, int or float as ``json.dumps`` writes it."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        try:
            return int.__repr__(obj)
        except ValueError:  # beyond the int-to-str digit limit
            return str(Decimal(obj))
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, obj) -> None:
    if getattr(args, "timestamps", False):
        obj = dict(obj)
        obj["generated_at"] = datetime.now(timezone.utc).isoformat()
    print(_json_text(obj))


def _parse_poly(text: str) -> list[int]:
    return [symbol_to_value(tok, 4) for tok in text.split()]


def _load_input(path: str):
    """A BinaryLrc (.json) or LinearCode (matrix text), and the d its file claims."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except RecursionError as exc:
            raise ParseError(f"{path}: JSON nested too deeply") from exc
        lrc = BinaryLrc.from_json(obj)
        return lrc, lrc.d
    return families.ingest(path)


def _build_outer(args) -> LinearCode:
    family = args.family
    if family == "mds":
        _require(args, "n1", "k1")
        return families.mds_rs(args.n1, args.k1)
    if family == "hamming4":
        _require(args, "t")
        return families.hamming4(args.t)
    if family == "hexacode":
        return families.hexacode()
    if family == "macdonald":
        _require(args, "m", "u")
        return families.macdonald(args.m, args.u, 1 if args.t is None else args.t)
    if family == "solomon_stiffler":
        _require(args, "t", "dims")
        dims = [int(x) for x in args.dims.split(",") if x]
        return families.solomon_stiffler(args.t, dims)
    if family == "cap":
        cap = (
            CapSet.from_text(Path(args.cap_file).read_text())
            if args.cap_file
            else bundled_cap_pg3_17()
        )
        return families.cap_code(cap)
    if family == "cyclic4":
        _require(args, "n", "poly")
        return families.cyclic4(args.n, _parse_poly(args.poly))
    raise Gf4LrcError(f"unknown family {family!r}")


def _require(args, *names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise Gf4LrcError(f"family {args.family!r} requires {flags}")


def _cmd_construct(args) -> int:
    if args.family == "ingest":
        _require(args, "file")
        outer, claimed = families.ingest(args.file)
    else:
        outer, claimed = _build_outer(args), None
    try:
        d1 = outer.exact_distance(args.max_enum)
    except BudgetExceeded:
        d1 = None
    families.check_claim(args.file, claimed, d1)
    summary = {
        "family": args.family,
        "outer": {"n": outer.n, "k": outer.k, "d": d1, "q": outer.q},
    }
    extras = {"kind": "generator", "n": outer.n, "k": outer.k}
    if d1 is not None:
        extras["d"] = d1
    code_text = outer.generator.to_text(extras)
    lrc_json = None
    if args.concat:
        lrc = concatenate(outer)
        summary["lrc"] = {"n": lrc.n, "k": lrc.k, "d": lrc.d, "r": 2}
        lrc_json = lrc.to_json()
    if args.output:
        base = Path(args.output)
        base.parent.mkdir(parents=True, exist_ok=True)
        code_path = base.with_suffix(".code")
        code_path.write_text(code_text)
        summary["code_file"] = str(code_path)
        if lrc_json is not None:
            lrc_path = base.with_suffix(".lrc.json")
            lrc_path.write_text(_json_text(lrc_json) + "\n")
            summary["lrc_file"] = str(lrc_path)
    else:
        summary["code_text"] = code_text
        if lrc_json is not None:
            summary["lrc"] = lrc_json
    _emit(args, summary)
    return 0


def _cmd_analyze(args) -> int:
    if args.r is not None and args.r < 1:
        raise Gf4LrcError(f"--r must be >= 1, got {args.r}")
    loaded, claimed = _load_input(args.path)
    is_lrc = isinstance(loaded, BinaryLrc)
    if is_lrc and args.r not in (None, 2):
        raise Gf4LrcError(f"an LRC input has locality 2, got --r {args.r}")
    r = 2 if is_lrc else args.r
    if args.bounds and r is None:
        raise Gf4LrcError("--bounds on a plain code needs --r")
    if args.bounds and loaded.q != 2:
        raise Gf4LrcError("bounds apply to binary codes only")
    report: dict = {"n": loaded.n, "k": loaded.k, "q": loaded.q, "is_lrc": is_lrc}
    exit_code = 0
    run_all = not (args.distance or args.weights or args.locality or args.bounds)
    d = None  # only a distance certified here feeds the bounds
    exact_d = None  # the d this run computes, checked against the file's claim

    if args.weights or run_all:
        try:
            weights = loaded.cheapest_weights(args.max_enum)
            report["weights"] = weights.to_json()
            exact_d = weights.distance()
        except BudgetExceeded as exc:
            report["weights"] = {"error": str(exc)}
            exit_code = 3
    if args.distance or run_all or args.bounds:
        try:
            if is_lrc:
                cert = loaded.min_distance(args.max_enum, args.max_subsets)
            else:
                cert = loaded.min_distance(budget=args.max_enum)
            d = exact_d = cert.d
            report["distance"] = {
                "d": cert.d,
                "method": cert.method,
                "witness": cert.witness,
            }
        except BudgetExceeded as exc:
            report["distance"] = {
                "error": str(exc),
                "bracket": [exc.lower, exc.upper],
            }
            exit_code = 3
    if args.locality or run_all:
        try:
            coverage = locality_check(loaded, r or 2, args.max_enum, args.max_subsets)
            report["locality"] = {
                "r": r or 2,
                "ok": coverage.ok,
                "uncovered": coverage.uncovered(),
                "covering": coverage.covering,
            }
            if is_lrc:
                report["groups"] = [list(g) for g in loaded.groups]
                report["group_subspace_dims"] = [len(b) for b in group_bases(loaded)]
        except BudgetExceeded as exc:
            report["locality"] = {"error": str(exc)}
            exit_code = 3
    if args.bounds or (run_all and loaded.q == 2 and r is not None):
        if d is None:
            report["bounds"] = {"error": "distance unavailable within budget"}
            exit_code = max(exit_code, 3)
        else:
            kopt = bounds.kopt_from_table(args.kopt_table) if args.kopt_table else None
            report["bounds"] = bounds.classify(loaded.n, loaded.k, d, r, kopt).to_json()
    families.check_claim(args.path, claimed, exact_d)
    _emit(args, report)
    return exit_code


def _cmd_bounds(args) -> int:
    kopt = bounds.kopt_from_table(args.kopt_table) if args.kopt_table else None
    report = bounds.classify(args.n, args.k, args.d, args.r, kopt)
    _emit(args, report.to_json())
    return 0


def _cmd_repair(args) -> int:
    loaded, _ = _load_input(args.path)
    if not isinstance(loaded, BinaryLrc):
        raise Gf4LrcError("repair needs an LRC JSON file (construct --concat)")
    if (args.random_t is None) == (args.prob is None):
        raise Gf4LrcError("choose exactly one of --random-t / --prob")
    model = (
        RandomErasures(args.random_t)
        if args.random_t is not None
        else PerSymbolErasures(args.prob)
    )
    report = simulate(loaded, args.trials, model, seed=args.seed)
    _emit(args, report.to_json())
    return 0


def _cmd_reproduce(args) -> int:
    items = reproduce.run(args.ids or None, heavy=args.heavy)
    if args.json:
        _emit(args, {"items": [it.to_json() for it in items]})
    else:
        width = max(len(it.id) for it in items)
        for it in items:
            line = f"{it.id.ljust(width)}  {it.status}"
            if it.status == reproduce.MISMATCH:
                diffs = [
                    key
                    for key in it.expected
                    if it.expected[key] != it.computed.get(key)
                ]
                line += "  differs: " + ", ".join(diffs)
            print(line)
    return 1 if any(it.status == reproduce.MISMATCH for it in items) else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_BUDGET,
                        help="enumeration budget: words enumerated, on either side")
    parser.add_argument("--max-subsets", type=int, default=DEFAULT_SUBSET_BUDGET,
                        help="repair-group subset budget")
    parser.add_argument("--timestamps", action="store_true",
                        help="include a generation timestamp in JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="gf4lrc",
        description="Binary locality-2 LRCs from GF(4) outer codes: "
        "construction, analysis, bounds, repair simulation, reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an outer code (and optionally its LRC)")
    p.add_argument("family", choices=[
        "mds", "hamming4", "hexacode", "macdonald", "solomon_stiffler",
        "cap", "cyclic4", "ingest"])
    p.add_argument("--n1", type=int, help="outer length (mds)")
    p.add_argument("--k1", type=int, help="outer dimension (mds)")
    p.add_argument("--t", type=int, help="hamming4/macdonald/solomon_stiffler parameter")
    p.add_argument("--m", type=int, help="macdonald dimension")
    p.add_argument("--u", type=int, help="macdonald deleted-subspace dimension")
    p.add_argument("--dims", help="comma-separated deleted subspace dims")
    p.add_argument("--n", type=int, help="cyclic code length")
    p.add_argument("--poly", help="generator polynomial, ascending coefficients, e.g. '1 0 W 1 1 w 0 1'")
    p.add_argument("--cap-file", help="cap file (default: bundled 17-cap)")
    p.add_argument("--file", help="matrix file for ingest")
    p.add_argument("--concat", action="store_true", help="also emit the concatenated LRC")
    p.add_argument("--output", help="base path for .code / .lrc.json files")
    _add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="analyze a code or LRC file")
    p.add_argument("path")
    p.add_argument("--distance", action="store_true")
    p.add_argument("--weights", action="store_true")
    p.add_argument("--locality", action="store_true")
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--r", type=int, help="locality for bounds on plain codes (an LRC has 2)")
    p.add_argument("--kopt-table", help="dimension-oracle override table (n d kmax lines)")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="evaluate every bound at (n, k, d, r)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--kopt-table")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("repair", help="run the erasure-repair simulator on an LRC")
    p.add_argument("path")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--random-t", type=int, help="erase exactly t symbols per trial")
    p.add_argument("--prob", type=float, help="per-symbol erasure probability")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("reproduce", help="recompute the published tables and examples")
    p.add_argument("ids", nargs="*", help="item ids or prefixes (default: all)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--heavy", action="store_true",
                   help="include the 2^26-codeword weight enumeration")
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, value in (("--max-enum", args.max_enum), ("--max-subsets", args.max_subsets)):
            if value < 0:
                raise Gf4LrcError(f"{flag} must be >= 0, got {value}")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Gf4LrcError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
