"""Execution engine for the asynchronous shared-memory model (Section 2.2).

A *run* is an alternating sequence of configurations and steps (the paper's
``C0 s0 C1 ...``); here the scheduler picks which process takes the next
step, each step executes exactly one yielded operation, and the trace
records the whole schedule.  Crashes are scheduler actions: a crashed
process simply takes no further steps, which is precisely the model's
notion of a faulty process.

Algorithms are generator functions ``algorithm(ctx) -> Generator``: they
yield :mod:`repro.shm.ops` operations, receive each operation's result at
the next resumption, and *decide* by returning a value (``return v`` /
``StopIteration(v)``).  Decisions are write-once by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Mapping, Protocol, Sequence

from .ops import Invoke, Nop, Op, Read, Snapshot, Write, WriteCell
from .registers import ArraySpec, SharedMemory


def freeze_value(value: Any) -> Any:
    """Recursively convert a value into a hashable equivalent.

    Operation results and decisions are usually already hashable (ints,
    tuples of ints); lists/dicts/sets coming out of richer oracles are
    converted structurally so they can participate in state keys.
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, freeze_value(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze_value(item) for item in value)
    return value


class ProtocolError(RuntimeError):
    """An algorithm misbehaved (bad op, ended without deciding, ...)."""


class NonTerminationError(RuntimeError):
    """A fair run exceeded the step budget — wait-freedom violation evidence."""


@dataclass(frozen=True)
class ProcessContext:
    """Per-process immutable context handed to algorithm factories.

    ``pid`` is the process index, usable *only* for addressing (the model's
    index-independence discipline); ``identity`` is the initial name in
    ``[1..2n-1]`` that algorithms may compare; ``n`` is known to everybody
    (a read returns an n-vector).
    """

    pid: int
    identity: int
    n: int


Algorithm = Callable[[ProcessContext], Generator[Op, Any, Any]]


@dataclass(frozen=True)
class TraceEvent:
    """One atomic step of a run."""

    step: int
    pid: int
    op: Op
    result: Any


@dataclass
class RunResult:
    """Outcome of one run.

    ``outputs[i]`` is process i's decision, or None when it crashed (or
    the run was stopped) before deciding.  ``decided_at[i]`` is the step
    index of the decision.
    """

    n: int
    identities: tuple[int, ...]
    outputs: list[Any]
    decided_at: list[int | None]
    crashed: set[int]
    trace: list[TraceEvent]
    steps: int

    @property
    def decided(self) -> list[int]:
        """Pids that decided, in pid order."""
        return [pid for pid, value in enumerate(self.outputs) if value is not None]

    @property
    def participants(self) -> list[int]:
        """Pids that took at least one step."""
        seen = {event.pid for event in self.trace}
        return sorted(seen)

    def schedule(self) -> list[int]:
        """The pid sequence of the run (the paper's schedule notion)."""
        return [event.pid for event in self.trace]

    def steps_of(self, pid: int) -> list[TraceEvent]:
        """All steps taken by one process."""
        return [event for event in self.trace if event.pid == pid]


class SchedulerState(Protocol):
    """What a scheduler may observe when choosing the next action."""

    @property
    def step(self) -> int: ...

    @property
    def enabled(self) -> tuple[int, ...]: ...

    def steps_taken(self, pid: int) -> int: ...


@dataclass(frozen=True)
class StepAction:
    """Schedule one step of ``pid``."""

    pid: int


@dataclass(frozen=True)
class CrashAction:
    """Crash ``pid``: it takes no further steps."""

    pid: int


@dataclass(frozen=True)
class StopAction:
    """End the run now, leaving undecided processes undecided."""


Action = StepAction | CrashAction | StopAction


class Scheduler(Protocol):
    """The adversary: picks the next action given the observable state."""

    def next_action(self, state: SchedulerState) -> Action: ...


class _RuntimeState:
    """Concrete SchedulerState implementation."""

    def __init__(self, runtime: "Runtime"):
        self._runtime = runtime

    @property
    def step(self) -> int:
        return self._runtime.step_count

    @property
    def enabled(self) -> tuple[int, ...]:
        return tuple(self._runtime.enabled_pids())

    def steps_taken(self, pid: int) -> int:
        return self._runtime.per_pid_steps[pid]


class Runtime:
    """Executes one run of an n-process algorithm under a scheduler.

    Args:
        algorithm: generator function run by every process (all local
            algorithms are identical, per the model — behaviour may depend
            on the identity but not on the index).
        identities: distinct identities in ``[1..2n-1]``, one per process.
        memory: shared arrays; a fresh :class:`SharedMemory` is created when
            omitted and populated from ``arrays``.
        arrays: name -> initial value mapping for convenience.
        objects: name -> shared object (oracles) for the enriched model
            ``ASM[T]``.
        scheduler: the adversary.
        max_steps: step budget; exceeding it raises
            :class:`NonTerminationError` (all the paper's algorithms are
            wait-free and bounded).
        record_trace: disable to speed up long benchmark runs.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        identities: Sequence[int],
        scheduler: Scheduler,
        memory: SharedMemory | None = None,
        arrays: Mapping[str, Any] | None = None,
        objects: Mapping[str, Any] | None = None,
        max_steps: int = 1_000_000,
        record_trace: bool = True,
    ):
        n = len(identities)
        if n < 1:
            raise ValueError("need at least one process")
        if len(set(identities)) != n:
            raise ValueError(f"identities must be distinct, got {list(identities)}")
        self.n = n
        self.algorithm = algorithm
        self.identities = tuple(identities)
        self.scheduler = scheduler
        self.memory = memory if memory is not None else SharedMemory(n)
        for name, spec in (arrays or {}).items():
            if isinstance(spec, ArraySpec):
                self.memory.add_array(
                    name, spec.initial, n=spec.n, multi_writer=spec.multi_writer
                )
            else:
                self.memory.add_array(name, spec)
        self.objects = dict(objects or {})
        self.max_steps = max_steps
        self.record_trace = record_trace

        self._generators: list[Generator[Op, Any, Any] | None] = []
        self._pending_op: list[Op | None] = [None] * n
        self.outputs: list[Any] = [None] * n
        self.decided_at: list[int | None] = [None] * n
        self.crashed: set[int] = set()
        self.trace: list[TraceEvent] = []
        self.step_count = 0
        self.per_pid_steps = [0] * n

        for pid in range(n):
            ctx = ProcessContext(pid=pid, identity=self.identities[pid], n=n)
            self._generators.append(algorithm(ctx))
        # Local computation is free (only shared-memory accesses are steps),
        # so each process immediately runs to its first operation — or to a
        # decision, for communication-free algorithms.
        for pid in range(n):
            self._advance(pid, None, first=True)

    # ------------------------------------------------------------------

    def enabled_pids(self) -> list[int]:
        """Processes that can still take a step."""
        return [
            pid
            for pid in range(self.n)
            if pid not in self.crashed and self.outputs[pid] is None
        ]

    def run(self) -> RunResult:
        """Drive the run until everyone decided/crashed or the adversary stops."""
        state = _RuntimeState(self)
        while self.enabled_pids():
            if self.step_count >= self.max_steps:
                raise NonTerminationError(
                    f"run exceeded {self.max_steps} steps with "
                    f"{self.enabled_pids()} still undecided"
                )
            action = self.scheduler.next_action(state)
            if isinstance(action, StopAction):
                break
            if isinstance(action, CrashAction):
                self._crash(action.pid)
                continue
            if isinstance(action, StepAction):
                self.step(action.pid)
                continue
            raise ProtocolError(f"scheduler returned unknown action {action!r}")
        return self.result()

    def step(self, pid: int) -> None:
        """Execute one step of ``pid`` (public for exploration drivers).

        One step = execute the process's pending operation, then run its
        free local computation up to the next operation (or decision).
        """
        if pid in self.crashed:
            raise ProtocolError(f"process {pid} is crashed and cannot step")
        if self.outputs[pid] is not None:
            raise ProtocolError(f"process {pid} already decided and cannot step")
        op = self._pending_op[pid]
        assert op is not None
        result = self._execute(pid, op)
        if self.record_trace:
            self.trace.append(TraceEvent(self.step_count, pid, op, result))
        self.step_count += 1
        self.per_pid_steps[pid] += 1
        self._advance(pid, result)

    def _advance(self, pid: int, send_value: Any, first: bool = False) -> None:
        """Run the process's local computation to its next op or decision."""
        generator = self._generators[pid]
        assert generator is not None
        try:
            if first:
                op = next(generator)
            else:
                op = generator.send(send_value)
        except StopIteration as stop:
            self._decide(pid, stop.value)
            self._pending_op[pid] = None
            return
        self._pending_op[pid] = op

    def result(self) -> RunResult:
        return RunResult(
            n=self.n,
            identities=self.identities,
            outputs=list(self.outputs),
            decided_at=list(self.decided_at),
            crashed=set(self.crashed),
            trace=list(self.trace),
            steps=self.step_count,
        )

    # ------------------------------------------------------------------

    def _execute(self, pid: int, op: Op) -> Any:
        if isinstance(op, Write):
            self.memory.array(op.array).write(pid, op.value)
            return None
        if isinstance(op, WriteCell):
            self.memory.array(op.array).write_cell(pid, op.index, op.value)
            return None
        if isinstance(op, Read):
            return self.memory.array(op.array).read(pid, op.index)
        if isinstance(op, Snapshot):
            return self.memory.array(op.array).snapshot()
        if isinstance(op, Invoke):
            if op.obj not in self.objects:
                raise ProtocolError(
                    f"process {pid} invoked unknown object {op.obj!r}; "
                    f"available: {sorted(self.objects)}"
                )
            return self.objects[op.obj].invoke(pid, op.method, op.args)
        if isinstance(op, Nop):
            return None
        raise ProtocolError(f"process {pid} yielded a non-operation: {op!r}")

    def _decide(self, pid: int, value: Any) -> None:
        if value is None:
            raise ProtocolError(
                f"process {pid} terminated without deciding (returned None)"
            )
        self.outputs[pid] = value
        self.decided_at[pid] = self.step_count
        self._generators[pid] = None

    def _crash(self, pid: int) -> None:
        if pid in self.crashed or self.outputs[pid] is not None:
            raise ProtocolError(f"cannot crash {pid}: already crashed or decided")
        self.crashed.add(pid)
        self._generators[pid] = None


def run_algorithm(
    algorithm: Algorithm,
    identities: Sequence[int],
    scheduler: Scheduler,
    arrays: Mapping[str, Any] | None = None,
    objects: Mapping[str, Any] | None = None,
    max_steps: int = 1_000_000,
    record_trace: bool = True,
) -> RunResult:
    """One-call convenience wrapper around :class:`Runtime`."""
    runtime = Runtime(
        algorithm,
        identities,
        scheduler,
        arrays=arrays,
        objects=objects,
        max_steps=max_steps,
        record_trace=record_trace,
    )
    return runtime.run()


def default_identities(n: int, rng=None) -> tuple[int, ...]:
    """Distinct identities from ``[1..2n-1]``; random when ``rng`` given."""
    if rng is None:
        return tuple(range(1, n + 1))
    universe = list(range(1, 2 * n))
    rng.shuffle(universe)
    return tuple(universe[:n])
