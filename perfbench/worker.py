"""The workload process: set up, report ready, then measure on command.

``run.py`` starts this script once per session.  It imports the
program, runs the workload's set-up and prints ``@@READY``; it then
reads one command from stdin: ``exit`` tears down and leaves, ``pass``
measures one untraced unit and ``trace`` one traced unit, printing
``@@RESULT <json>`` before tearing down.  Protocol lines go to the
original stdout; everything else the program prints is sent to stderr
so it cannot be mistaken for a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path


def _workload(name: str):
    if name == "explore":
        from workload_explore import ExploreWorkload

        return ExploreWorkload
    if name == "close-open":
        from workload_close_open import CloseOpenWorkload

        return CloseOpenWorkload
    if name == "serve":
        from workload_serve import ServeWorkload

        return ServeWorkload
    raise SystemExit(f"unknown workload {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def emit(line: str) -> None:
        protocol.write(line + "\n")
        protocol.flush()

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = _workload(args.workload)(args.seed, args.seconds, args.workdir)
    try:
        workload.setup()
        emit("@@READY")
        command = sys.stdin.readline().split()
        if not command or command[0] not in ("pass", "trace"):
            return 0
        unit = workload.measure(command[0] == "trace")
    finally:
        workload.close()
    span_file = None
    tracer = unit.pop("tracer", None)
    if tracer is not None:
        span_path = args.out / "spans" / (
            f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        )
        tracer.write(span_path)
        span_file = str(span_path)
    unit["span_file"] = span_file
    unit["worker_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit("@@RESULT " + json.dumps(unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
