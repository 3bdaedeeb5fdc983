"""``repro-sanitize``: command-line front end of :mod:`repro.sanitize`.

Three modes, one per stage of the analysis-guided sanitizer:

* ``--all-embedded`` — the *static* stage alone: run the value-range
  memory lints (M501 shared-overlap, M502 static OOB, M503 definite
  misalignment, D303 non-pointer load) over every PTX translation unit
  embedded in the cuDNN/cuBLAS binaries.  The shipped corpus must be
  clean; any finding fails the run.
* ``--corpus`` — the *dynamic* stage's ground truth: launch every
  seeded-defect kernel (and every clean control) under the sanitizer
  at the requested tier, asserting each planted defect is reported at
  its planted pc and each clean kernel stays silent.
* ``--workload NAME`` — sanitize a registered service workload
  (``saxpy`` / ``conv`` / ``lenet``) end to end via the same
  ``{"sanitize": true}`` job config the REST service accepts.

Exit codes: 0 clean / all detected, 1 findings or missed defects,
2 usage / input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.functional.executor import FAST_MODES

#: Static-stage rules (the range pass's lints) selected by --all-embedded.
STATIC_RULES = ("M501", "M502", "M503", "D303")


def _run_static(fmt: str) -> int:
    from repro.analysis import analyze_sources, embedded_units
    from repro.errors import ReproError
    units = embedded_units()
    files = len(units)
    try:
        findings = analyze_sources(units, rules=STATIC_RULES)
    except ReproError as error:
        print(f"repro-sanitize: {error}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(json.dumps({
            "files": files,
            "findings": [f.to_dict() for f in findings],
        }, indent=2))
    elif not findings:
        print(f"static stage clean: {files} embedded files, "
              "no range-lint findings")
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s) in {files} embedded files")
    return 1 if findings else 0


def _run_corpus(fmt: str, fast_mode: str, shards: int) -> int:
    from repro.sanitize.corpus import CORPUS, run_entry
    rows = []
    failed = False
    for name in CORPUS:
        run = run_entry(name, fast_mode=fast_mode, shards=shards)
        if not run.detected:
            failed = True
        rows.append({
            "name": name,
            "expected_rule": run.entry.rule,
            "expected_pc": run.expected_pc,
            "detected": run.detected,
            "findings": run.findings,
            "counters": run.counters,
        })
    if fmt == "json":
        print(json.dumps({
            "fast_mode": fast_mode, "shards": shards, "entries": rows,
        }, indent=2))
    else:
        for row in rows:
            status = "ok  " if row["detected"] else "MISS"
            want = (f"{row['expected_rule']} @ pc {row['expected_pc']}"
                    if row["expected_rule"] else "clean")
            got = ", ".join(
                f"{f['rule']} @ pc {f['pc']} (x{f['count']})"
                for f in row["findings"]) or "no findings"
            print(f"{status} {row['name']:<20} expect {want:<18} "
                  f"got {got}")
        verdict = ("corpus FAILED" if failed
                   else "corpus passed: every defect detected, every "
                        "clean kernel silent")
        print(verdict)
    return 1 if failed else 0


def _run_workload(name: str, fmt: str, fast_mode: str, shards: int,
                  seed: int) -> int:
    from repro.sanitize.report import render_json, render_text
    from repro.service.jobs import REGISTRY
    runner = REGISTRY.get(name)
    if runner is None:
        print(f"repro-sanitize: unknown workload {name!r} "
              f"(have: {', '.join(sorted(REGISTRY))})", file=sys.stderr)
        return 2
    config = {"sanitize": True, "fast_mode": fast_mode}
    if shards:
        config["shards"] = shards
    result = runner(config, seed)
    report = result.get("sanitize", {})
    findings = report.get("findings", [])
    counters = report.get("counters", {})
    render = render_json if fmt == "json" else render_text
    print(render(findings, counters=counters))
    return 1 if findings else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sanitize",
        description="Analysis-guided sanitizer: static range lints "
                    "over the embedded PTX corpus, the seeded-defect "
                    "dynamic corpus, or a sanitized workload run.")
    parser.add_argument("--all-embedded", action="store_true",
                        help="static stage: range-lint every embedded "
                             "PTX translation unit")
    parser.add_argument("--corpus", action="store_true",
                        help="dynamic stage: run the seeded-defect "
                             "corpus and assert detection")
    parser.add_argument("--workload", metavar="NAME", default=None,
                        help="sanitize one registered service workload")
    parser.add_argument("--fast-mode", choices=FAST_MODES,
                        default="megablock",
                        help="execution tier for --corpus/--workload "
                             "(default: megablock)")
    parser.add_argument("--shards", type=int, default=0,
                        help="route --corpus/--workload through the "
                             "sharded service backend")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: 0)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    args = parser.parse_args(argv)

    if not (args.all_embedded or args.corpus or args.workload):
        parser.error("nothing to do: give --all-embedded, --corpus "
                     "and/or --workload NAME")
    status = 0
    if args.all_embedded:
        status = max(status, _run_static(args.format))
    if args.corpus and status < 2:
        status = max(status, _run_corpus(args.format, args.fast_mode,
                                         args.shards))
    if args.workload and status < 2:
        status = max(status, _run_workload(
            args.workload, args.format, args.fast_mode, args.shards,
            args.seed))
    return status


if __name__ == "__main__":
    sys.exit(main())
