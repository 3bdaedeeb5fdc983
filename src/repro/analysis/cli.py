"""``repro-lint``: the command-line front end of :mod:`repro.analysis`.

Lints standalone ``.ptx`` files and/or every PTX translation unit
embedded in the cuDNN/cuBLAS fat binaries, under either semantics
profile (``--quirks fixed`` is the repaired simulator, ``--quirks
stock`` replays the paper's buggy GPGPU-Sim so quirk-dependence
diagnostics fire).  Findings print as text or JSON.

A committed baseline (``results/lint_baseline.json``) makes the exit
status regression-oriented: known findings pass, *new* ones fail — the
same contract as the CI job.

Exit codes: 0 clean (or only baselined findings), 1 new findings,
2 usage / input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import analyze_sources, embedded_units
from repro.analysis.findings import Finding
from repro.errors import ReproError
from repro.quirks import FIXED, STOCK_GPGPUSIM

_QUIRK_PROFILES = {"fixed": FIXED, "stock": STOCK_GPGPUSIM}


def _load_baseline(path: Path) -> set[str]:
    data = json.loads(path.read_text())
    return {entry["key"] for entry in data.get("findings", [])}


def _baseline_payload(findings: list[Finding], quirks: str) -> dict:
    return {
        "quirks": quirks,
        "findings": [
            {"key": f.key(), **f.to_dict()} for f in findings
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis / lint for PTX kernels "
                    "(typed-instruction verifier, dataflow, divergence "
                    "and shared-memory lints).")
    parser.add_argument("paths", nargs="*", metavar="FILE.ptx",
                        help="PTX files to lint")
    parser.add_argument("--all-embedded", action="store_true",
                        help="lint every PTX translation unit embedded "
                             "in the cuDNN/cuBLAS binaries")
    parser.add_argument("--quirks", choices=sorted(_QUIRK_PROFILES),
                        default="fixed",
                        help="semantics profile for quirk-dependence "
                             "diagnostics (default: fixed)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="known-findings file: only findings absent "
                             "from it fail the run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the current findings to --baseline "
                             "instead of comparing against it")
    args = parser.parse_args(argv)

    if not args.paths and not args.all_embedded:
        parser.error("nothing to lint: give FILE.ptx paths and/or "
                     "--all-embedded")
    if args.write_baseline and not args.baseline:
        parser.error("--write-baseline requires --baseline PATH")

    quirks = _QUIRK_PROFILES[args.quirks]

    sources: list[tuple[str, str]] = []
    for path in args.paths:
        try:
            sources.append((path, Path(path).read_text()))
        except OSError as error:
            print(f"repro-lint: cannot read {path}: {error}",
                  file=sys.stderr)
            return 2
    if args.all_embedded:
        sources.extend(embedded_units())

    try:
        findings = analyze_sources(sources, quirks=quirks)
    except ReproError as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        payload = _baseline_payload(findings, args.quirks)
        Path(args.baseline).write_text(
            json.dumps(payload, indent=2) + "\n")
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    known: set[str] = set()
    if args.baseline:
        try:
            known = _load_baseline(Path(args.baseline))
        except (OSError, ValueError, KeyError) as error:
            print(f"repro-lint: cannot load baseline "
                  f"{args.baseline}: {error}", file=sys.stderr)
            return 2
    new = [f for f in findings if f.key() not in known]

    if args.format == "json":
        print(json.dumps({
            "quirks": args.quirks,
            "files": len(sources),
            "findings": [
                {"key": f.key(), "new": f.key() not in known,
                 **f.to_dict()}
                for f in findings
            ],
        }, indent=2))
    else:
        if not findings:
            print("clean: no findings")
        else:
            for finding in findings:
                marker = "" if finding.key() in known else " [new]"
                print(finding.render() + marker)
            baselined = len(findings) - len(new)
            summary = f"{len(findings)} finding(s), {len(new)} new"
            if baselined:
                summary += f", {baselined} baselined"
            print(summary)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
