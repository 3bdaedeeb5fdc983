"""Regenerate every exact artifact of the experiment table and diff it.

Runs each exact row of ``benchmarks/experiments.py``, assertions
included, into a temporary directory and exits 1 unless every file
equals the committed one under ``results/`` byte for byte.  To move the
artifacts on purpose, run ``pytest benchmarks/test_experiments.py`` and
commit the diff.

    python tools/check_results.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks"))

from experiments import EXPERIMENTS, RESULTS_DIR  # noqa: E402


def _files(root: Path, artifact: str) -> dict[str, bytes]:
    """Every file of *artifact* (a file or a CSV directory) under root."""
    path = root / artifact
    found = sorted(path.rglob("*")) if path.is_dir() else [path]
    return {str(p.relative_to(root)): p.read_bytes()
            for p in found if p.is_file()}


def main() -> int:
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        fresh = Path(scratch)
        for row in EXPERIMENTS:
            if not row.exact:
                continue
            print(f"{row.id} ...", flush=True)
            row.check(row.workload(), *row.paths(fresh))
            for artifact in row.artifacts:
                want = _files(RESULTS_DIR, artifact)
                got = _files(fresh, artifact)
                for name in sorted(set(want) | set(got)):
                    if name not in want:
                        problems.append(f"results/{name} is not committed")
                    elif want[name] != got.get(name):
                        problems.append(f"results/{name} differs from its "
                                        "regeneration")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("ok: every exact artifact regenerates byte-identically")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
