"""Unit tests for the runtime (Section 2.2's runs, steps, schedules)."""

import pytest

from repro.shm import (
    ListScheduler,
    Nop,
    ProtocolError,
    NonTerminationError,
    Read,
    RoundRobinScheduler,
    Runtime,
    Snapshot,
    Write,
    run_algorithm,
)
from repro.shm.registers import ArraySpec
from repro.shm.ops import WriteCell


def write_then_snapshot(ctx):
    yield Write("A", ctx.identity)
    view = yield Snapshot("A")
    return sum(1 for cell in view if cell is not None)


class TestBasicExecution:
    def test_round_robin_run(self):
        result = run_algorithm(
            write_then_snapshot, [5, 3, 1], RoundRobinScheduler(), arrays={"A": None}
        )
        assert result.outputs == [3, 3, 3]
        assert result.steps == 6

    def test_solo_prefix_sees_fewer(self):
        # Process 0 writes and snapshots before anyone else runs.
        result = run_algorithm(
            write_then_snapshot,
            [5, 3, 1],
            ListScheduler([0, 0, 1, 1, 2, 2]),
            arrays={"A": None},
        )
        assert result.outputs == [1, 2, 3]

    def test_trace_records_steps(self):
        result = run_algorithm(
            write_then_snapshot, [5, 3], RoundRobinScheduler(), arrays={"A": None}
        )
        assert [event.pid for event in result.trace] == [0, 1, 0, 1]
        assert isinstance(result.trace[0].op, Write)
        assert isinstance(result.trace[2].op, Snapshot)

    def test_decided_at_recorded(self):
        result = run_algorithm(
            write_then_snapshot, [5, 3], RoundRobinScheduler(), arrays={"A": None}
        )
        assert result.decided_at[0] is not None
        assert result.outputs[0] == 2

    def test_schedule_accessor(self):
        result = run_algorithm(
            write_then_snapshot, [5, 3], RoundRobinScheduler(), arrays={"A": None}
        )
        assert result.schedule() == [0, 1, 0, 1]
        assert result.participants == [0, 1]
        assert result.decided == [0, 1]

    def test_read_op(self):
        def reader(ctx):
            yield Write("A", ctx.identity * 10)
            value = yield Read("A", 0)
            return value

        result = run_algorithm(
            reader, [4, 2], RoundRobinScheduler(), arrays={"A": None}
        )
        assert result.outputs == [40, 40]

    def test_nop_and_write_cell(self):
        def algo(ctx):
            yield Nop()
            yield WriteCell("M", 2, ctx.identity)
            value = yield Read("M", 2)
            return value

        result = run_algorithm(
            algo,
            [9],
            RoundRobinScheduler(),
            arrays={"M": ArraySpec(n=4, multi_writer=True)},
        )
        assert result.outputs == [9]


class TestValidation:
    def test_duplicate_identities_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_algorithm(write_then_snapshot, [5, 5], RoundRobinScheduler())

    def test_empty_process_set_rejected(self):
        with pytest.raises(ValueError):
            run_algorithm(write_then_snapshot, [], RoundRobinScheduler())

    def test_unknown_array_is_protocol_error(self):
        with pytest.raises(KeyError):
            run_algorithm(write_then_snapshot, [1, 2], RoundRobinScheduler())

    def test_unknown_object_is_protocol_error(self):
        from repro.shm import Invoke

        def algo(ctx):
            yield Invoke("NOPE", "acquire")
            return 1

        with pytest.raises(ProtocolError, match="unknown object"):
            run_algorithm(algo, [1], RoundRobinScheduler())

    def test_returning_none_is_protocol_error(self):
        def algo(ctx):
            yield Nop()
            return None

        with pytest.raises(ProtocolError, match="without deciding"):
            run_algorithm(algo, [1], RoundRobinScheduler())

    def test_yielding_garbage_is_protocol_error(self):
        def algo(ctx):
            yield "not an op"
            return 1

        with pytest.raises(ProtocolError, match="non-operation"):
            run_algorithm(algo, [1], RoundRobinScheduler())

    def test_non_termination_guard(self):
        def spinner(ctx):
            while True:
                yield Nop()

        with pytest.raises(NonTerminationError):
            run_algorithm(spinner, [1, 2], RoundRobinScheduler(), max_steps=50)


class TestStepControl:
    def test_manual_stepping(self):
        runtime = Runtime(
            write_then_snapshot, [5, 3], RoundRobinScheduler(), arrays={"A": None}
        )
        runtime.step(0)
        runtime.step(0)
        assert runtime.outputs[0] == 1
        assert runtime.enabled_pids() == [1]

    def test_stepping_decided_process_rejected(self):
        runtime = Runtime(
            write_then_snapshot, [5], RoundRobinScheduler(), arrays={"A": None}
        )
        runtime.step(0)
        runtime.step(0)
        with pytest.raises(ProtocolError, match="already decided"):
            runtime.step(0)

    def test_decision_only_algorithm_decides_without_steps(self):
        # Local computation is free: a communication-free algorithm has
        # already decided when the runtime is constructed.
        from repro.algorithms import decision_only

        algo = decision_only(lambda ctx: ctx.identity)
        runtime = Runtime(algo, [7], RoundRobinScheduler())
        assert runtime.outputs[0] == 7
        assert runtime.enabled_pids() == []

    def test_record_trace_off(self):
        result = run_algorithm(
            write_then_snapshot,
            [5, 3],
            RoundRobinScheduler(),
            arrays={"A": None},
            record_trace=False,
        )
        assert result.trace == []
        assert result.outputs == [2, 2]

