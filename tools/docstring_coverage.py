"""Docstring-coverage gate for the public repro.* surface.

Counts docstrings on public modules, classes and functions/methods
(names not starting with ``_``) under ``src/repro`` and compares the
coverage ratio against the committed baseline so documentation can only
ratchet up:

    python tools/docstring_coverage.py                  # report
    python tools/docstring_coverage.py --check          # tier-1 gate
    python tools/docstring_coverage.py --write-baseline # refresh

The baseline lives in ``results/docstring_coverage.json``.  ``--check``
exits 1 when coverage drops more than 0.1pp below it (or when any
public *module* loses its docstring entirely).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BASELINE = ROOT / "results" / "docstring_coverage.json"

#: Tolerance in coverage ratio (0.001 = 0.1 percentage points) so a
#: same-count refactor can't fail on float formatting.
EPSILON = 0.001


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def inspect_module(path: Path) -> tuple[int, int, list[str]]:
    """(documented, total, missing-names) for one module file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(ROOT)
    documented = 0
    total = 0
    missing: list[str] = []

    def tally(node, label: str) -> None:
        nonlocal documented, total
        total += 1
        if ast.get_docstring(node):
            documented += 1
        else:
            missing.append(label)

    if path.name != "__init__.py" or tree.body:
        tally(tree, f"{rel} (module)")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            tally(node, f"{rel}:{node.lineno} class {node.name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _is_public(node.name):
            tally(node, f"{rel}:{node.lineno} def {node.name}")
    return documented, total, missing


def collect() -> dict:
    documented = 0
    total = 0
    missing: list[str] = []
    modules_without_doc: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        d, t, m = inspect_module(path)
        documented += d
        total += t
        missing.extend(m)
        if m and m[0].endswith("(module)"):
            modules_without_doc.append(m[0])
    return {
        "documented": documented,
        "total": total,
        "coverage": round(documented / total, 4) if total else 1.0,
        "modules_without_docstring": modules_without_doc,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if coverage fell below the baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"write {BASELINE.relative_to(ROOT)}")
    parser.add_argument("--list-missing", action="store_true",
                        help="print every undocumented public name")
    args = parser.parse_args(argv)

    state = collect()
    print(f"docstring coverage: {state['documented']}/{state['total']} "
          f"public names = {state['coverage']:.1%}")
    if args.list_missing:
        for path in sorted(SRC.rglob("*.py")):
            _, _, missing = inspect_module(path)
            for name in missing:
                print(f"  MISSING {name}")

    if args.write_baseline:
        BASELINE.write_text(json.dumps(
            {k: state[k] for k in ("documented", "total", "coverage")},
            indent=2) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
        return 0

    if args.check:
        if not BASELINE.exists():
            print(f"ERROR: no baseline at {BASELINE.relative_to(ROOT)}; "
                  "run with --write-baseline first", file=sys.stderr)
            return 1
        baseline = json.loads(BASELINE.read_text())
        floor = baseline["coverage"] - EPSILON
        if state["coverage"] < floor:
            print(f"FAIL: coverage {state['coverage']:.2%} fell below "
                  f"the baseline {baseline['coverage']:.2%} "
                  "(document new public APIs, or intentionally refresh "
                  "with --write-baseline)", file=sys.stderr)
            return 1
        if state["modules_without_docstring"]:
            print("FAIL: public modules without a docstring:",
                  file=sys.stderr)
            for name in state["modules_without_docstring"]:
                print(f"  {name}", file=sys.stderr)
            return 1
        print(f"ok: at or above baseline {baseline['coverage']:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
