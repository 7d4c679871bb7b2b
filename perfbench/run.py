"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload explore|close-open|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in its own
process (``worker.py``) against the program under ``src/``.  Set-up is
repeated in fresh processes (``SETUP_REPEATS``) and ``setup_s`` is
their median; the last process then measures.  While it runs, this
process samples the resident memory of the whole process tree (the
workload, its pool and sweep workers, the HTTP server and the load
generator) for ``peak_rss_mb``.

With ``--trace 0`` the result carries every end-to-end metric; with
``--trace 1`` it carries every per-layer metric, from one traced unit.
The metric names and units are those of ``BENCHMARK.json``.  Every
metric is printed by name with its unit; the last line of stdout is the
JSON result.  Each
run appends a row (commit, source digest, machine fingerprint, seed,
span file, tracing overhead, all metrics) to ``.bench_out/results.jsonl``.
The exit code is 1 when any output was wrong, 2 on a usage error, when
``BENCHMARK.json`` is missing or disagrees with ``contract.py``, or when
there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import contract

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-up samples per run; ``serve`` set-up builds a store and starts a
#: server, so it takes fewer.
SETUP_REPEATS = {"explore": 5, "close-open": 5, "serve": 3}
#: Passes a pass-based run measures at least, so its figure is a median.
MIN_PASSES = 2
#: Hard ceiling on one run, below the 180 s a run may take.
DEADLINE_S = 170.0
RSS_PERIOD_S = 0.05
PAGE = os.sysconf("SC_PAGE_SIZE")


def _tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, from the kernel's child lists."""
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    todo.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return found


def _rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


class RssSampler(threading.Thread):
    """Peak of the summed resident set of one process tree."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(RSS_PERIOD_S):
            self.peak = max(self.peak, _rss_bytes(_tree(self.pid)))

    def stop(self) -> None:
        self._halt.set()
        self.join()


class Worker:
    """One workload process and a reader thread for its protocol lines."""

    def __init__(self, args, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--workdir", str(workdir),
                "--out", str(OUT),
            ],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, deadline: float) -> str:
        """The next protocol line starting with ``prefix``."""
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise TimeoutError(f"workload gave no {prefix} in time") from None
            if line is None:
                raise RuntimeError(
                    f"workload exited (code {self.proc.wait()}) before {prefix}"
                )
            if line.startswith(prefix):
                return line[len(prefix):].strip()
            print(line, file=sys.stderr)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self, deadline: float) -> None:
        """Wait for the process; kill its whole group if it overstays."""
        try:
            self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _session(args, workdir: Path, command: str | None, deadline: float):
    """One workload process: set up, then ``command`` or leave.

    Returns the set-up seconds (process start to ready), the unit the
    command measured (``None`` for a set-up-only session) and the peak
    resident memory of the process tree while it measured.
    """
    started = time.perf_counter()
    worker = Worker(args, workdir)
    try:
        worker.expect("@@READY", deadline)
        setup = time.perf_counter() - started
        if command is None:
            worker.send("exit")
            worker.finish(deadline)
            return setup, None, 0
        sampler = RssSampler(worker.proc.pid)
        sampler.start()
        worker.send(command)
        unit = json.loads(worker.expect("@@RESULT", deadline))
        worker.finish(deadline)
        sampler.stop()
    except BaseException:
        worker.finish(time.monotonic())
        raise
    return setup, unit, max(sampler.peak, unit["worker_maxrss_kb"] * 1024)


def _measure(args, run_dir: Path) -> tuple[list[float], list[dict], int]:
    """Run the sessions one workload run needs.

    Pass-based workloads measure one pass per fresh process, so every
    pass starts as cold as a command-line run; with ``--trace 0`` passes
    repeat while the next one is expected to end within ``--seconds``
    (at least ``MIN_PASSES``),
    with ``--trace 1`` one traced pass runs.  ``serve`` measures its
    whole rate ladder in one process.  Set-up-only
    sessions top the set-up samples up to ``SETUP_REPEATS``.
    """
    deadline = time.monotonic() + DEADLINE_S
    setups: list[float] = []
    units: list[dict] = []
    peak = 0
    sessions = 0

    def session(command: str | None) -> dict | None:
        nonlocal peak, sessions
        sessions += 1
        setup, unit, rss = _session(
            args, run_dir / f"session{sessions}", command, deadline
        )
        setups.append(setup)
        peak = max(peak, rss)
        if unit is not None:
            units.append(unit)
        return unit

    pass_based = args.workload in contract.PASS_BASED
    if args.trace:
        session("trace")
        return setups, units, peak
    if pass_based:
        started = time.perf_counter()
        spent: list[float] = []
        while True:
            begun = time.perf_counter()
            session("pass")
            spent.append(time.perf_counter() - begun)
            elapsed = time.perf_counter() - started
            if (
                len(spent) >= MIN_PASSES
                and elapsed + statistics.median(spent) > args.seconds
            ):
                break
    else:
        # The measuring session's set-up is the last sample.
        for _ in range(SETUP_REPEATS[args.workload] - 1):
            session(None)
        session("pass")
    while len(setups) < SETUP_REPEATS[args.workload]:
        session(None)
    return setups, units, peak


def _merge(units: list[dict], trace: bool) -> dict:
    """One result from the measured units: medians of their metrics with
    ``--trace 0``, the traced unit's metrics with ``--trace 1``."""
    if trace:
        metrics = dict(units[-1]["metrics"])
    else:
        metrics = {
            name: statistics.median(unit["metrics"][name] for unit in units)
            for name in units[0]["metrics"]
        }
    return {
        "metrics": metrics,
        "detail": units[-1]["detail"],
        "attempted": sum(unit["attempted"] for unit in units),
        "failed": sum(unit["failed"] for unit in units),
        "errors": [error for unit in units for error in unit["errors"]][:20],
        "span_file": units[-1]["span_file"],
        "walls": [unit["wall"] for unit in units],
    }


def main(argv: list[str] | None = None) -> int:
    try:
        bench = contract.Benchmark()
    except (OSError, ValueError, KeyError) as error:
        print(
            f"error: cannot read the benchmark definition: {error}", file=sys.stderr
        )
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, units, peak_rss = _measure(args, run_dir)
    except (TimeoutError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = _merge(units, bool(args.trace))
    metrics = dict(result["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss / 2**20
    metrics["fail_frac"] = result["failed"] / result["attempted"]
    names = bench.per_layer if args.trace else bench.end_to_end
    missing = sorted(
        name for name in bench.required(args.workload, args.trace)
        if name not in metrics
    )
    if missing:
        print(f"error: workload did not report {missing}", file=sys.stderr)
        return 1
    gated = {
        name: {"value": metrics.get(name, 0.0), "unit": unit}
        for name, unit in names.items()
    }

    shown = dict(metrics)
    shown.update(result["detail"])
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"units {len(units)}  setups "
        + " ".join(f"{value:.3f}" for value in setups)
    )
    for name in sorted(shown):
        value = shown[name]
        if value is not None and not isinstance(value, (int, float)):
            continue  # structured detail goes to the result row only
        text = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {text:>14} {bench.unit(name)}")
    for error in result["errors"]:
        print(f"  MISMATCH {error}")

    span_file = result["span_file"]
    row = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "machine": _machine(),
        "setup_samples_s": setups,
        "unit_walls_s": result["walls"],
        "span_file": (
            str(Path(span_file).relative_to(ROOT)) if span_file else None
        ),
        "trace_overhead_s": metrics.get("trace_overhead_s"),
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "metrics": metrics,
        "detail": result["detail"],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")

    print(
        json.dumps(
            {
                "correct": row["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": gated,
            }
        )
    )
    return 0 if row["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
