"""Command-line front end for the linter.

Reached two ways — ``repro lint ...`` (a subcommand of the main CLI) and
``python -m repro.analysis ...`` — both of which delegate to :func:`run`.

Exit codes follow the usual linter convention:

* ``0`` — clean (no findings at or above the ``--fail-on`` severity);
* ``1`` — findings reported;
* ``2`` — usage error (unknown rule, unreadable path, bad severity).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, TextIO

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import ReproError

__all__ = ["add_lint_arguments", "build_parser", "main", "run"]

#: Default lint target when no paths are given (repo-root invocation).
_DEFAULT_PATHS = ("src/repro",)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(_DEFAULT_PATHS),
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule (id or name; repeatable; default: all)",
    )
    parser.add_argument(
        "--fail-on",
        default="warning",
        metavar="SEVERITY",
        help="lowest severity that fails the run: warning (default) or error",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--fix-pragmas",
        action="store_true",
        help=(
            "list removable (dead) suppression pragmas and exit 0; runs "
            "the full rule set regardless of --select, since a pragma is "
            "only provably dead against every rule"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST invariant linter for the repro bit-identity contracts",
    )
    add_lint_arguments(parser)
    return parser


def _print_rules(out: TextIO) -> None:
    from repro.analysis.rules import ALL_RULES

    for rule in ALL_RULES:
        scope = ", ".join(rule.include) if rule.include else "all library code"
        if rule.exclude:
            scope += " (except " + ", ".join(rule.exclude) + ")"
        print(f"{rule.id}  {rule.name}", file=out)
        print(f"    scope: {scope}", file=out)
        print(f"    {rule.rationale}", file=out)


def _report(
    findings: List[Diagnostic],
    output_format: str,
    threshold: Severity,
    out: TextIO,
) -> int:
    """Print the report; return the number of gating findings."""
    gating = [d for d in findings if d.severity >= threshold]
    if output_format == "json":
        print(json.dumps([d.to_json() for d in findings], indent=2), file=out)
        return len(gating)
    for diag in findings:
        print(diag.format(), file=out)
    if findings:
        errors = sum(1 for d in findings if d.severity >= Severity.ERROR)
        warnings = len(findings) - errors
        print(
            f"{len(findings)} finding(s): {errors} error(s), "
            f"{warnings} warning(s)",
            file=out,
        )
    return len(gating)


def _report_dead_pragmas(
    findings: List[Diagnostic], output_format: str, out: TextIO
) -> None:
    """Print the removable-pragma listing for ``--fix-pragmas``."""
    dead = [d for d in findings if d.rule == "P2"]
    if output_format == "json":
        print(json.dumps([d.to_json() for d in dead], indent=2), file=out)
        return
    for diag in dead:
        print(diag.format(), file=out)
    noun = "pragma(s)" if dead else "pragmas"
    print(f"{len(dead)} removable {noun}", file=out)


def run(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    # The linter and its rule registry load here, not at import: the main
    # CLI imports this module to build ``repro lint``'s parser.
    from repro.analysis.linter import lint_paths
    from repro.analysis.rules import ALL_RULES, rules_by_selector

    out = out if out is not None else sys.stdout
    if args.list_rules:
        _print_rules(out)
        return 0
    if getattr(args, "fix_pragmas", False):
        findings = lint_paths(args.paths, rules=ALL_RULES)
        _report_dead_pragmas(findings, args.output_format, out)
        return 0
    rules = rules_by_selector(args.select or ())
    threshold = Severity.parse(args.fail_on)
    findings = lint_paths(args.paths, rules=rules)
    gating = _report(findings, args.output_format, threshold, out)
    return 1 if gating else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
