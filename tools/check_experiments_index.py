"""Lint the paper-figure index in EXPERIMENTS.md.

Every path mentioned in a backtick code span (``benchmarks/...``,
``results/...``, ``examples/...``, ``docs/...``, ``src/...``,
``tests/...``, ``tools/...``) must exist in the repository, so the
reproduce commands in the index cannot silently rot.  Also verifies the
architecture doc and the index itself exist and that the index contains
a markdown table with a Reproduce column, and that the index names
every row id and artifact of the experiment table
(``benchmarks/experiments.py``).

    python tools/check_experiments_index.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks"))

from experiments import EXPERIMENTS  # noqa: E402

INDEX = ROOT / "EXPERIMENTS.md"
REQUIRED_DOCS = [INDEX, ROOT / "docs" / "ARCHITECTURE.md"]

#: Repo-relative prefixes that make a backtick span a checkable path.
_PATH_PREFIXES = ("benchmarks/", "results/", "examples/", "docs/",
                  "src/", "tests/", "tools/")
_SPAN = re.compile(r"`([^`]+)`")


def _tokens(text: str) -> set[str]:
    """Whitespace-separated tokens of every backtick span (a trailing
    ``/`` dropped, so `results/fig09_10_csv/` names the directory)."""
    return {token.strip("();,").rstrip("/")
            for span in _SPAN.findall(text) for token in span.split()}


def referenced_paths(text: str) -> set[str]:
    """Checkable repo paths from backtick spans (incl. inside commands)."""
    return {token for token in _tokens(text)
            if token.startswith(_PATH_PREFIXES)}


def main() -> int:
    problems: list[str] = []
    for doc in REQUIRED_DOCS:
        if not doc.exists():
            problems.append(f"missing required doc {doc.relative_to(ROOT)}")
    if INDEX.exists():
        text = INDEX.read_text()
        if "| Reproduce" not in text and "Reproduce |" not in text:
            problems.append(
                "EXPERIMENTS.md has no markdown table with a "
                "'Reproduce' column")
        paths = referenced_paths(text)
        if len(paths) < 10:
            problems.append(
                f"EXPERIMENTS.md references only {len(paths)} repo "
                "paths — the figure index should map each figure to a "
                "benchmark and artifact")
        for path in sorted(paths):
            if not (ROOT / path).exists():
                problems.append(f"EXPERIMENTS.md references missing "
                                f"path {path}")
        tokens = _tokens(text)
        for row in EXPERIMENTS:
            for name in (row.id, *(f"results/{a}" for a in row.artifacts)):
                if name not in tokens:
                    problems.append(f"EXPERIMENTS.md's index does not "
                                    f"name {name} (row {row.id})")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"ok: EXPERIMENTS.md index valid "
          f"({len(referenced_paths(INDEX.read_text()))} referenced "
          "paths all exist)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
