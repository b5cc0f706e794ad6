"""Shell validators for the telemetry formats of :mod:`repro.obs`.

``python -m repro.obs trace FILE`` checks a JSONL trace stream against
the trace schema; ``python -m repro.obs openmetrics FILE`` checks an
OpenMetrics text exposition document (the CI serve job pipes a live
``GET /metrics`` scrape through it).  Both exit 0 on a valid file and 1
on a schema/format error or an unreadable file.

The validators live here rather than under ``if __name__ ==
"__main__"`` in :mod:`repro.obs.trace` / :mod:`repro.obs.export`:
``repro.obs`` imports those modules, so running them with ``-m`` would
execute an already-imported module and make runpy warn.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List, Optional

from .export import parse_openmetrics, validate_openmetrics
from .trace import EVENT_TYPES, read_trace, validate_trace


def _check_trace(path: str) -> int:
    try:
        events = read_trace(path)
    except (OSError, ValueError) as error:
        print(f"trace: error: {error}")
        return 1
    errors = validate_trace(events)
    if errors:
        for problem in errors:
            print(f"trace: {problem}")
        print(f"{path}: {len(errors)} schema error(s)")
        return 1
    kinds: Dict[str, int] = {}
    for event in events:
        kinds[event["event"]] = kinds.get(event["event"], 0) + 1
    summary = ", ".join(f"{k}={kinds[k]}" for k in EVENT_TYPES if k in kinds)
    print(f"{path}: {len(events)} events OK ({summary})")
    return 0


def _check_openmetrics(path: str) -> int:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        print(f"openmetrics: error: {error}")
        return 1
    problems = validate_openmetrics(text)
    if problems:
        for problem in problems:
            print(f"openmetrics: {problem}")
        print(f"{path}: {len(problems)} format error(s)")
        return 1
    samples = parse_openmetrics(text)
    families = sorted({name for name, _labels, _value in samples})
    print(
        f"{path}: {len(samples)} samples OK "
        f"({len(families)} metric names)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="validate FPART telemetry files",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    sub.add_parser(
        "trace", help="validate a JSONL trace stream against the schema"
    ).add_argument("file", help="JSONL trace file")
    sub.add_parser(
        "openmetrics", help="validate an OpenMetrics text exposition document"
    ).add_argument("file", help="OpenMetrics text file")
    args = parser.parse_args(argv)
    if args.kind == "trace":
        return _check_trace(args.file)
    return _check_openmetrics(args.file)


if __name__ == "__main__":
    raise SystemExit(main())
