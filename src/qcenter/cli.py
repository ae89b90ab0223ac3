"""Command-line front end.

Exit codes: 0 all assertions passed, 1 assertion failure in some task,
2 input or output error (a scenario file that cannot be read or is not
UTF-8, JSON syntax or nesting too deep to decode, expression syntax, or a
report path that cannot be written), 3 validation error (structural or
mathematical input inconsistency).  Every input ends in one of these
codes with a one-line message, never in a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ParseError, QCenterError, ValidationError
from .report import to_json, to_text
from .scenario import build_scenario, list_presets, load_scenario, run_scenario

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcenter",
        description=(
            "Exact truncated deformation quantization of polynomial "
            "symplectic spaces: runs scenario files through product-axiom, "
            "invariant, center-comparison, lifting and specialization checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario's task list")
    run.add_argument("scenario", help="scenario JSON path or preset name")
    run.add_argument("--truncation", type=int, default=None, metavar="N")
    run.add_argument("--max-degree", type=int, default=None, metavar="D")
    run.add_argument(
        "--report", choices=("text", "json"), default="text", dest="format"
    )
    run.add_argument("--out", default=None, metavar="PATH")

    validate = sub.add_parser("validate", help="parse and validate only")
    validate.add_argument("scenario", help="scenario JSON path or preset name")

    sub.add_parser("list-presets", help="list shipped scenarios")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name, description in list_presets():
                line = f"{name}: {description}" if description else name
                print(line)
            return EXIT_OK
        if args.command == "validate":
            scenario = load_scenario(args.scenario)
            build_scenario(scenario)
            print(f"scenario {scenario.name!r} is valid")
            return EXIT_OK
        scenario = load_scenario(args.scenario)
        report = run_scenario(
            scenario, truncation=args.truncation, max_degree=args.max_degree
        )
        rendered = to_json(report) if args.format == "json" else to_text(report)
        if args.out:
            try:
                Path(args.out).write_text(rendered)
            except OSError as exc:
                print(f"output error: cannot write the report: {exc}",
                      file=sys.stderr)
                return EXIT_PARSE
        else:
            sys.stdout.write(rendered)
        return EXIT_OK if report.passed else EXIT_ASSERTION
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QCenterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    raise SystemExit(main())
