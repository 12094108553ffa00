"""Rewrite the golden corpus's expected files from a replay of its commands.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/golden/regen.py

Every run of ``commands.txt`` is replayed in a temporary directory and its
rendered text written to ``out/<stem>.txt``; an expected file that no run
gives any more is removed.  A change that alters an output commits the
diff this leaves, and says why.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import corpus


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rendered = corpus.replay(Path(tmp))
    corpus.EXPECTED.mkdir(exist_ok=True)
    for stale in set(corpus.expected()) - set(rendered):
        (corpus.EXPECTED / f"{stale}.txt").unlink()
    changed = 0
    for key, text in rendered.items():
        path = corpus.EXPECTED / f"{key}.txt"
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            changed += 1
    print(f"{len(rendered)} runs, {changed} expected files written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
