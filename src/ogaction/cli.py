"""Command-line front door: run workspace tasks, emit the fixture corpus,
and list the task catalog."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import validation
from .corpus import emit_fixture_corpus
from .errors import WorkbenchError
from .tasks import TASK_CATALOG, run_tasks
from .workspace import load_workspace


def _cmd_list(_args) -> int:
    width = max(len(name) for name in TASK_CATALOG)
    for name, (desc, _) in TASK_CATALOG.items():
        print(f"{name.ljust(width)}  {desc}")
    return 0


def _cmd_fixtures(args) -> int:
    written = emit_fixture_corpus(args.directory)
    for path in written:
        print(path)
    return 0


def _cmd_run(args) -> int:
    validation.CHECKED |= args.checked
    ws = load_workspace(args.workspace)
    reports = run_tasks(ws, args.task or None)
    reports.sort(key=lambda r: r.task_id)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for rep in reports:
            (out / f"{rep.task_id}.json").write_text(
                json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n"
            )
        summary = {
            "workspace": Path(args.workspace).name,
            "results": {r.task_id: r.status for r in reports},
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for rep in reports:
            print(rep.summary())
    return 0 if all(r.status == "pass" for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="exact workbench for partial ordered actions on prime-field algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the tasks of a workspace file")
    p_run.add_argument("workspace", help="path to a workspace JSON file")
    p_run.add_argument(
        "--task",
        action="append",
        metavar="NAME",
        help="select tasks by id or kind (repeatable; default: all)",
    )
    p_run.add_argument("--out", metavar="DIR", help="write one JSON report per task")
    p_run.add_argument("--json", action="store_true", help="print reports as JSON")
    p_run.add_argument("--checked", action="store_true", help="run every short cut's full check too")
    p_run.set_defaults(func=_cmd_run)

    p_fix = sub.add_parser("fixtures", help="write the fixture corpus")
    p_fix.add_argument("directory", help="destination directory")
    p_fix.set_defaults(func=_cmd_fixtures)

    p_list = sub.add_parser("list", help="print the task catalog")
    p_list.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WorkbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
