"""Lint the paper-figure index in EXPERIMENTS.md.

Every path mentioned in a backtick code span (``benchmarks/...``,
``results/...``, ``examples/...``, ``docs/...``, ``src/...``,
``tests/...``, ``tools/...``) must exist in the repository, so the
reproduce commands in the index cannot silently rot.  Also verifies the
architecture doc and the index itself exist and that the index contains
a markdown table with a Reproduce column, and that the index names
every row id and artifact of the experiment table
(``benchmarks/experiments.py``).  Every ``python -m <module> ...`` and
``python <script>.py ...`` command in a backtick span or a fenced block
must parse against that command's own ``argparse`` parser: the command
runs as ``__main__`` up to the moment its arguments parse, and no
further.

    python tools/check_experiments_index.py
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import re
import runpy
import shlex
import sys
import warnings
from pathlib import Path
from unittest import mock

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


#: ``[PYTHONPATH=...] python (-m <module> | <script>.py) <arguments>``.
_COMMAND = re.compile(r"(?:PYTHONPATH=\S+\s+)?python3?\s+"
                      r"(?:-m\s+([\w.]+)|(\S+\.py))(.*)")
_FENCED = re.compile(r"^```\w*\n(.*?)^```", re.M | re.S)


class _Parsed(Exception):
    """Raised in place of a command's work once its arguments parsed."""


def reproduce_commands(text: str) -> list[str]:
    """The python commands of backtick spans and fenced blocks."""
    lines = [line.split("#")[0] for block in _FENCED.findall(text)
             for line in block.splitlines()]
    return [line.strip() for line in _SPAN.findall(text) + lines
            if _COMMAND.fullmatch(line.strip())]


def command_problem(command: str) -> str | None:
    """Why *command* does not parse, or ``None`` if it does.

    A script that does not use ``argparse`` must be given no arguments;
    it is not run."""
    module, script, rest = _COMMAND.fullmatch(command).groups()
    argv = shlex.split(rest)
    path = (ROOT / script if script
            else Path(importlib.util.find_spec(module).origin))
    if "argparse" not in path.read_text():
        return f"{command}: takes no arguments" if argv else None
    parse_args = argparse.ArgumentParser.parse_args

    def parse_only(parser, args=None, namespace=None):
        parse_args(parser, args, namespace)
        raise _Parsed

    stderr = io.StringIO()
    with mock.patch.object(argparse.ArgumentParser, "parse_args",
                           parse_only), \
            mock.patch.object(sys, "argv", [str(path), *argv]), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        # runpy warns when the module is imported already.
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            if module:
                runpy.run_module(module, run_name="__main__")
            else:
                runpy.run_path(str(path), run_name="__main__")
        except _Parsed:
            return None
        except SystemExit as exit:
            last = stderr.getvalue().strip().splitlines()[-1:]
            return f"{command}: exits {exit.code}: {''.join(last)}"
    return f"{command}: never parsed its arguments"


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
        for command in reproduce_commands(text):
            problem = command_problem(command)
            if problem:
                problems.append(f"EXPERIMENTS.md reproduce command "
                                f"{problem}")
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
