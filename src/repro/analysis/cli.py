"""``python -m repro lint`` — the simlint command-line front end.

Modes:

* default — lint ``src/repro`` (or the given paths), report findings,
  exit 1 if any finding is *new* (not in the baseline) or any baseline
  entry is *stale* (its file was linted and nothing matches it any
  more), so the baseline can only shrink;
* ``--fail-on-new`` — the same gate, spelled out for CI readability;
* ``--write-baseline`` — record the current findings as the tolerated
  set and exit 0 (run after intentionally accepting a finding);
* ``--no-baseline`` — ignore the baseline: every finding is "new";
* ``--list-rules`` — print the rule codes and what they check;
* ``--explain CODE`` — print one rule's full documentation plus its
  minimal bad/good fixture pair;
* ``--format json`` — machine-readable output for tooling.

The baseline lives at ``.simlint-baseline.json`` (current directory
first, then the repository root inferred from the installed package).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import inspect

from . import core
from .rules import ALL_RULES, RULES_BY_CODE, rule_range

__all__ = ["main"]

BASELINE_NAME = ".simlint-baseline.json"


def _package_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _default_baseline(explicit: Optional[str]) -> Path:
    """Baseline location: explicit flag, else CWD, else repo root."""
    if explicit:
        return Path(explicit)
    cwd_candidate = Path.cwd() / BASELINE_NAME
    if cwd_candidate.exists():
        return cwd_candidate
    # src/repro -> repo root two levels up (editable/source checkouts).
    root_candidate = _package_dir().parent.parent / BASELINE_NAME
    if root_candidate.exists():
        return root_candidate
    return cwd_candidate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(f"simlint: FreeFlow-repro-aware static analysis "
                     f"(rules {rule_range()})"),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)")
    parser.add_argument(
        "--baseline", metavar="PATH",
        help=f"baseline file (default: {BASELINE_NAME} in CWD or repo root)")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings as the tolerated set and exit 0")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline; every finding counts as new")
    parser.add_argument(
        "--fail-on-new", action="store_true",
        help="exit 1 when findings outside the baseline exist or a "
             "baseline entry for a linted file matches nothing "
             "(this is the default behaviour; the flag spells out the "
             "CI contract)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule codes and summaries, then exit")
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print one rule's documentation and its minimal bad/good "
             "example, then exit")
    return parser


def _explain(code: str) -> int:
    rule = RULES_BY_CODE.get(code.upper())
    if rule is None:
        print(f"simlint: unknown rule {code!r} (known: {rule_range()})",
              file=sys.stderr)
        return 2
    print(f"{rule.code} — {rule.summary}")
    doc = inspect.getdoc(type(rule))
    if doc:
        print()
        print(doc)
    if rule.example_bad:
        print()
        print("Fires on:")
        print()
        for line in rule.example_bad.rstrip().splitlines():
            print(f"    {line}")
    if rule.example_good:
        print()
        print("Silent on:")
        print()
        for line in rule.example_good.rstrip().splitlines():
            print(f"    {line}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0

    if args.explain:
        return _explain(args.explain)

    paths = args.paths or [str(_package_dir())]
    findings = core.lint_paths(paths)

    baseline_path = _default_baseline(args.baseline)
    if args.write_baseline:
        core.write_baseline(baseline_path, findings)
        print(f"simlint: wrote {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    baseline = set() if args.no_baseline else core.load_baseline(
        baseline_path)
    new, known = core.partition(findings, baseline)
    linted = {core.display_path(path) for path in core.collect_files(paths)}
    matched = {finding.fingerprint() for finding in known}
    stale = sorted(entry for entry in baseline
                   if entry[1] in linted and entry not in matched)

    if args.format == "json":
        print(json.dumps({
            "new": [_record(f) for f in new],
            "baselined": [_record(f) for f in known],
            "stale": [dict(zip(("rule", "path", "snippet"), entry))
                      for entry in stale],
        }, indent=2))
    else:
        for finding in new:
            print(finding.format())
        for rule, path, snippet in stale:
            print(f"{path}: {rule} stale baseline entry, nothing matches "
                  f"{snippet!r}")
        summary = (f"simlint: {len(new)} new finding(s), "
                   f"{len(known)} baselined, {len(stale)} stale")
        if new:
            summary += (f" — fix them, add a '# simlint: disable=...' "
                        f"pragma with a reason, or rerun with "
                        f"--write-baseline to accept")
        elif stale:
            summary += " — rerun with --write-baseline to drop them"
        print(summary, file=sys.stderr if new or stale else sys.stdout)

    return 1 if new or stale else 0


def _record(finding: core.Finding) -> dict:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "snippet": finding.snippet,
    }


if __name__ == "__main__":  # pragma: no cover - direct module execution
    raise SystemExit(main())
