"""Lint the operator's guide (docs/OPERATIONS.md) for coverage.

Three contracts, all enforced by tier-1 (``tests/test_invariants.py``) so
the guide cannot rot:

* every REST route in ``API_ROUTES`` (the manifest in
  ``src/repro/service/rest.py``) must be documented — adding an
  endpoint without documenting it fails the build;
* every console script declared in ``[project.scripts]`` of
  ``pyproject.toml`` must be mentioned — an operator reading the guide
  sees every entry point that exists;
* the ``repro-serve`` flag table must list exactly the flags the
  argument parser accepts — a flag added without a row, or a row left
  behind after its flag was deleted, fails the build.

    python tools/check_operations_doc.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "OPERATIONS.md"

sys.path.insert(0, str(ROOT / "src"))

from repro.service.rest import API_ROUTES, build_parser  # noqa: E402


def console_scripts() -> list[str]:
    """Script names from ``[project.scripts]`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"\[project\.scripts\](.*?)(?:\n\[|\Z)", text,
                      re.DOTALL)
    if match is None:
        return []
    return re.findall(r"^([A-Za-z0-9_-]+)\s*=", match.group(1),
                      re.MULTILINE)


def flag_problems(text: str) -> list[str]:
    """Mismatches between the ``repro-serve`` parser's flags and the
    flag table under "Starting the service" (rows open ``| `--flag``)."""
    parser_flags = {option for action in build_parser()._actions
                    for option in action.option_strings
                    if option.startswith("--") and option != "--help"}
    documented = set(re.findall(r"^\| `(--[a-z][a-z-]*)", text,
                                re.MULTILINE))
    return ([f"repro-serve flag {flag} is not in the flag table of "
             "docs/OPERATIONS.md"
             for flag in sorted(parser_flags - documented)]
            + [f"docs/OPERATIONS.md documents {flag}, which repro-serve "
               "does not accept"
               for flag in sorted(documented - parser_flags)])


def main() -> int:
    problems: list[str] = []
    if not DOC.exists():
        print("FAIL: docs/OPERATIONS.md is missing", file=sys.stderr)
        return 1
    # Headings HTML-escape angle brackets; normalise before matching.
    text = DOC.read_text().replace("&lt;", "<").replace("&gt;", ">")
    for method, path in API_ROUTES:
        if path not in text:
            problems.append(
                f"route {method} {path} (API_ROUTES) is not documented "
                "in docs/OPERATIONS.md")
        elif f"{method} {path}" not in text:
            problems.append(
                f"docs/OPERATIONS.md mentions {path} but never as "
                f"'{method} {path}' — document the method")
    scripts = console_scripts()
    if not scripts:
        problems.append("no [project.scripts] found in pyproject.toml")
    for script in scripts:
        if script not in text:
            problems.append(
                f"console script {script!r} (pyproject.toml) is not "
                "mentioned in docs/OPERATIONS.md")
    problems.extend(flag_problems(text))
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"ok: docs/OPERATIONS.md documents all {len(API_ROUTES)} "
          f"REST routes, {len(scripts)} console scripts and exactly "
          "the repro-serve flags")
    return 0


if __name__ == "__main__":
    sys.exit(main())
