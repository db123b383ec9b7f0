"""Command-line entry points: run a scenario, validate one, or reproduce
the bundled reference tables.

Exit codes: 0 success, 1 usage error, 2 scenario parse error, 3 I/O error,
4 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from . import metrics
from .engine import run_scenario
from .model import SimulationError
from .scenario import MODE_NAMES, MissingCapacity, ParseError, Scenario, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_MISMATCH = 4

# Reference rows the repro command is gated on, keyed by service identifier.
REFERENCE_CAPACITY = {"Print": 34, "View": 123, "SendEmail": 10, "UpdateBDD": 50, "Scan": 8}
REFERENCE_OVERLOAD = {"Print": 50, "View": 124, "SendEmail": 21, "UpdateBDD": 56, "Scan": 30}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: usage: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ubisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its artifacts")
    p_run.add_argument("--scenario", required=True, help="path to a .scn file")
    p_run.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p_run.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_run.add_argument("--mode", choices=MODE_NAMES, default=None,
                       help="override [run] mode")

    p_repro = sub.add_parser("repro", help="reproduce a bundled reference table")
    p_repro.add_argument("--table", type=int, required=True, choices=[2, 3])

    p_val = sub.add_parser("validate", help="parse a scenario and report problems")
    p_val.add_argument("--scenario", required=True)
    return parser


def bundled_scenario_text(name: str = "table3.scn") -> str:
    return (resources.files("ubisim.scenarios") / name).read_text()


def load_bundled_scenario(name: str = "table3.scn") -> Scenario:
    return parse_scenario(bundled_scenario_text(name))


def _load_file(path: str) -> Scenario:
    try:
        text = Path(path).read_text(errors="replace")
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from None
    try:
        return parse_scenario(text)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None


def cmd_run(args) -> int:
    scenario = _load_file(args.scenario)
    if args.seed is not None:
        scenario.run.seed = args.seed
    if args.mode is not None:
        scenario.run.mode = args.mode
    try:
        report, _log = run_scenario(scenario, out_dir=args.out)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        # parseable but unbuildable configuration (e.g. missing capacity)
        print(f"error: scenario: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(metrics.format_summary(report))
    print(f"artifacts written to {args.out}/")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _load_file(args.scenario)
    try:
        scenario.capacities()
    except MissingCapacity as exc:
        print(f"error: scenario: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(
        f"OK: {len(scenario.services)} services, {len(scenario.nodes)} nodes, "
        f"{len(scenario.edges)} edges, {len(scenario.workload)} workload items, "
        f"{len(scenario.injections)} injections"
    )
    return EXIT_OK


def _format_table(headers: list[str], rows: list[tuple[str, list]]) -> str:
    table = [["Services", *headers]]
    for label, values in rows:
        table.append([label, *[str(v) for v in values]])
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in table
    )


def cmd_repro(args) -> int:
    scenario = load_bundled_scenario()
    services = scenario.service_names()
    mismatches: list[str] = []

    if args.table == 2:
        capacities = {s.name: s.capacity for s in scenario.services}
        print(_format_table(services, [("Normal", [capacities[s] for s in services])]))
        for svc in services:
            if capacities[svc] != REFERENCE_CAPACITY.get(svc):
                mismatches.append(
                    f"{svc}: capacity {capacities[svc]} != {REFERENCE_CAPACITY.get(svc)}"
                )
    else:
        report, log = run_scenario(scenario)
        inject_window = min(r.window for r in log.injections)
        overload = {r.service: r.load_after for r in log.injections}
        detected = {}
        for v in log.verdicts:
            if v.window != inject_window:
                continue
            for svc, o in v.overloaded.items():
                detected[svc] = o.observed
        print(_format_table(services, [
            ("Overload", [overload.get(s, "-") for s in services]),
            ("Detection", [detected.get(s, "-") for s in services]),
        ]))
        for svc in services:
            want = REFERENCE_OVERLOAD.get(svc)
            if overload.get(svc) != want:
                mismatches.append(f"{svc}: overload {overload.get(svc)} != {want}")
            if detected.get(svc) != want:
                mismatches.append(f"{svc}: detection {detected.get(svc)} != {want}")
        if report.detected != len(REFERENCE_OVERLOAD) or report.injected_overloads != len(
            REFERENCE_OVERLOAD
        ):
            mismatches.append(
                f"detection rate {report.detected}/{report.injected_overloads} != 5/5"
            )

    if mismatches:
        for m in mismatches:
            print(f"mismatch: {m}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


COMMANDS = {"run": cmd_run, "repro": cmd_repro, "validate": cmd_validate}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
