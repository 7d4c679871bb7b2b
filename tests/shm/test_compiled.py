"""Unit tests for the compiled protocol core (step tables + machines).

The differential property suite against the generator runtime lives in
``test_compiled_differential.py``; this file covers the core's own
contracts: table growth, packed execution, O(1) forks, packed state keys,
oracle packing, error parity with the generator runtime, and the
determinism rejection the compiler promises.
"""

import pytest

from repro.shm import (
    ArraySpec,
    CompiledProtocol,
    GSBOracle,
    Invoke,
    ListScheduler,
    MachineState,
    MemoryLayout,
    Nop,
    NonTerminationError,
    OracleUsageError,
    ProtocolError,
    Read,
    RegisterPermissionError,
    RoundRobinScheduler,
    Snapshot,
    Write,
    WriteCell,
    compile_protocol,
)
from repro.shm.ops import Op
from repro.core.named import k_slot


def write_then_snapshot(ctx):
    yield Write("A", ctx.identity)
    view = yield Snapshot("A")
    return tuple(view)


def make_program(n=3, algorithm=write_then_snapshot, arrays=None):
    return compile_protocol(
        algorithm, range(1, n + 1), arrays={"A": None} if arrays is None else arrays
    )


class TestCompilation:
    def test_roots_record_first_pending_ops(self):
        program = make_program()
        assert program.n == 3
        assert len(program.roots) == 3
        for pid, root in enumerate(program.roots):
            assert program.ops[root] == Write("A", pid + 1)

    def test_table_grows_on_demand_and_is_shared(self):
        program = make_program(2)
        first = program.machine()
        before = program.node_count()
        first.step(0)
        first.step(0)  # snapshot -> decide node traced
        grown = program.node_count()
        assert grown > before
        # A second machine re-walking the same path adds no nodes.
        second = program.machine()
        second.step(0)
        second.step(0)
        assert program.node_count() == grown
        assert second.outputs[0] == first.outputs[0] == (1, None)

    def test_one_trace_per_local_state(self):
        # Two interleavings reaching the same per-process histories share
        # every node: the table has one entry per distinct local state.
        program = make_program(2)
        a = program.machine()
        for pid in (0, 1, 0, 1):
            a.step(pid)
        count = program.node_count()
        b = program.machine()
        for pid in (0, 1, 0, 1):
            b.step(pid)
        assert program.node_count() == count

    def test_communication_free_decision_at_init(self):
        def silent(ctx):
            return ctx.identity
            yield  # pragma: no cover - makes it a generator

        program = compile_protocol(silent, [1, 2])
        machine = program.machine()
        assert machine.outputs == [1, 2]
        assert machine.decided_at == [0, 0]
        assert machine.enabled_pids() == []

    def test_identity_validation_matches_runtime(self):
        with pytest.raises(ValueError, match="distinct"):
            compile_protocol(write_then_snapshot, [1, 1])
        with pytest.raises(ValueError, match="at least one process"):
            compile_protocol(write_then_snapshot, [])


class TestMemoryLayout:
    def test_flat_offsets(self):
        layout = MemoryLayout(3, {"A": None, "B": ArraySpec(n=5)})
        assert layout.base == {"A": 0, "B": 3}
        assert layout.size == {"A": 3, "B": 5}
        assert layout.cell_count == 8

    def test_per_cell_initials(self):
        layout = MemoryLayout(2, {"A": [10, 20]})
        assert layout.initial_cells() == [10, 20]
        with pytest.raises(ValueError, match="initial values"):
            MemoryLayout(2, {"A": [1, 2, 3]})

    def test_signature_mismatch_rejected(self):
        layout = MemoryLayout(2, {"A": None})
        with pytest.raises(ValueError, match="does not match"):
            layout.initial_cells({"B": None})


class TestExecutionParity:
    """Each op kind behaves exactly like the generator runtime's."""

    def test_read_and_write_cell(self):
        def algorithm(ctx):
            if ctx.pid == 0:
                yield WriteCell("M", 2, ("from", ctx.identity))
            value = yield Read("M", 2)
            return value

        program = compile_protocol(
            algorithm, [1, 2], arrays={"M": ArraySpec(n=4, multi_writer=True)}
        )
        machine = program.machine()
        machine.step(0)  # write cell 2
        machine.step(1)  # read it
        machine.step(0)  # read it
        assert machine.outputs == [("from", 1), ("from", 1)]

    def test_single_writer_discipline_enforced(self):
        def trespass(ctx):
            yield WriteCell("A", 0, 1)
            return 1

        program = compile_protocol(trespass, [1, 2], arrays={"A": None})
        machine = program.machine()
        with pytest.raises(RegisterPermissionError, match="single-writer"):
            machine.step(1)

    def test_unknown_array_raises_at_execution(self):
        def lost(ctx):
            yield Write("NOPE", 1)
            return 1

        program = compile_protocol(lost, [1], arrays={"A": None})
        machine = program.machine()  # compiles fine; error is deferred
        with pytest.raises(KeyError, match="no shared array named 'NOPE'"):
            machine.step(0)

    def test_out_of_bounds_read(self):
        def off_by_one(ctx):
            value = yield Read("A", 9)
            return value

        program = compile_protocol(off_by_one, [1, 2], arrays={"A": None})
        with pytest.raises(IndexError, match="cells 0..1"):
            program.machine().step(0)

    def test_unknown_object(self):
        def invoker(ctx):
            value = yield Invoke("GHOST", "acquire")
            return value

        program = compile_protocol(invoker, [1], arrays={})
        with pytest.raises(ProtocolError, match="unknown object 'GHOST'"):
            program.machine().step(0)

    def test_non_operation_yield(self):
        def chaotic(ctx):
            yield "not an op"
            return 1

        program = compile_protocol(chaotic, [1])
        with pytest.raises(ProtocolError, match="non-operation"):
            program.machine().step(0)

    def test_deciding_none_rejected(self):
        def undecided(ctx):
            yield Nop()

        program = compile_protocol(undecided, [1])
        with pytest.raises(ProtocolError, match="without deciding"):
            program.machine().step(0)

    def test_stepping_decided_or_crashed_rejected(self):
        program = make_program(2)
        machine = program.machine()
        machine.step(0)
        machine.step(0)  # decided
        with pytest.raises(ProtocolError, match="already decided"):
            machine.step(0)
        machine.crash(1)
        with pytest.raises(ProtocolError, match="crashed and cannot step"):
            machine.step(1)
        with pytest.raises(ProtocolError, match="already crashed or decided"):
            machine.crash(1)


class TestOraclePacking:
    def _oracle_program(self, n=3):
        def algorithm(ctx):
            slot = yield Invoke("KS", GSBOracle.ACQUIRE)
            return slot

        def fresh_oracle():
            return GSBOracle(k_slot(n, n - 1), seed=7)

        program = compile_protocol(
            algorithm, range(1, n + 1), objects={"KS": fresh_oracle()}
        )
        return program, fresh_oracle

    def test_values_follow_arrival_order(self):
        program, fresh_oracle = self._oracle_program()
        oracle = fresh_oracle()
        machine = program.machine(objects={"KS": oracle})
        machine.step(2)
        machine.step(0)
        machine.step(1)
        assert machine.outputs == [
            oracle._values[1], oracle._values[2], oracle._values[0],
        ]

    def test_double_acquire_rejected(self):
        def greedy(ctx):
            first = yield Invoke("KS", GSBOracle.ACQUIRE)
            second = yield Invoke("KS", GSBOracle.ACQUIRE)
            return first + second

        oracle = GSBOracle(k_slot(3, 2), seed=0)
        program = compile_protocol(greedy, [1, 2, 3], objects={"KS": oracle})
        machine = program.machine(objects={"KS": GSBOracle(k_slot(3, 2), seed=0)})
        machine.step(0)
        with pytest.raises(OracleUsageError, match="acquired twice"):
            machine.step(0)

    def test_wrong_method_rejected(self):
        def curious(ctx):
            value = yield Invoke("KS", "peek")
            return value

        oracle = GSBOracle(k_slot(3, 2), seed=0)
        program = compile_protocol(curious, [1, 2, 3], objects={"KS": oracle})
        machine = program.machine(objects={"KS": GSBOracle(k_slot(3, 2), seed=0)})
        with pytest.raises(OracleUsageError, match="supports only 'acquire'"):
            machine.step(0)

    def test_objects_must_match_program(self):
        program, fresh_oracle = self._oracle_program()
        with pytest.raises(ValueError, match="do not match"):
            program.machine(objects={})

    def test_fork_preserves_oracle_commitment(self):
        program, fresh_oracle = self._oracle_program()
        machine = program.machine(objects={"KS": fresh_oracle()})
        machine.step(0)
        fork = machine.fork()
        for pid in (1, 2):
            machine.step(pid)
            fork.step(pid)
        assert machine.outputs == fork.outputs
        assert machine.state_key() == fork.state_key()


class TestForkAndStateKey:
    def test_fork_is_independent(self):
        program = make_program(3)
        machine = program.machine()
        machine.step(0)
        fork = machine.fork()
        assert fork.state_key() == machine.state_key()
        fork.step(1)
        machine.step(0)
        assert fork.state_key() != machine.state_key()
        assert machine.outputs[0] == (1, None, None)
        assert fork.outputs[0] is None

    def test_fork_takes_no_generator_work(self):
        # The defining property: forking never touches the algorithm.
        # Depth 20, then a fork storm — the table must not grow at all.
        def chatty(ctx):
            for index in range(10):
                yield Write("A", (ctx.identity, index))
                yield Snapshot("A")
            return 1

        program = compile_protocol(chatty, [1, 2], arrays={"A": None})
        machine = program.machine()
        for _ in range(10):
            machine.step(0)
            machine.step(1)
        assert machine.step_count == 20
        nodes = program.node_count()
        forks = [machine.fork() for _ in range(50)]
        assert program.node_count() == nodes
        assert all(f.state_key() == machine.state_key() for f in forks)

    def test_state_key_merges_decided_histories(self):
        # Two processes deciding the same value through different result
        # histories land in the same key (like the generator runtime).
        def decide_one(ctx):
            view = yield Snapshot("A")
            yield Write("A", ctx.identity)
            return 1

        program = compile_protocol(decide_one, [1, 2], arrays={"A": None})
        early = program.machine()
        early.step(0)
        early.step(0)  # pid 0 decided having seen (None, None)
        late = program.machine()
        late.step(1)  # pid 1 writes first
        late.step(0)
        late.step(0)  # pid 0 decided having seen (None, 2)
        assert early.outputs[0] == late.outputs[0] == 1
        # Memory differs (pid 1 wrote in `late`), so full keys differ, but
        # the per-pid component for pid 0 is the decided sentinel + value.
        assert early.state_key()[0][0] == late.state_key()[0][0]
        assert early.state_key()[1][0] == late.state_key()[1][0]

    def test_state_key_is_packed_and_hashable(self):
        program = make_program(2)
        machine = program.machine()
        machine.step(0)
        key = machine.state_key()
        assert isinstance(key, tuple)
        hash(key)
        pcs, outputs, cells, oracle_arrivals, generic = key
        assert len(pcs) == 2 and len(outputs) == 2
        assert len(cells) == 2  # one flat cell per process for array A
        assert oracle_arrivals == ()


class TestDeterminismRejection:
    def test_divergent_trace_rejected(self):
        import random

        rng = random.Random(0)

        def flaky(ctx):
            if rng.random() < 0.5:
                yield Nop()
            yield Write("A", ctx.identity)
            return 1

        # Keep stepping fresh machines over one shared table until the
        # retrace disagrees with the recorded ops.
        program = compile_protocol(flaky, [1, 2], arrays={"A": None})
        with pytest.raises(ProtocolError, match="not deterministic"):
            for _ in range(64):
                machine = program.machine()
                machine.step(0)
                machine.step(0)
                machine.step(0)

    def test_early_decision_rejected(self):
        flag = [False]

        def moody(ctx):
            yield Nop()
            if flag[0]:
                return 1
            yield Nop()
            return 2

        program = compile_protocol(moody, [1])
        machine = program.machine()
        machine.step(0)
        flag[0] = True  # replays now decide one op early
        with pytest.raises(ProtocolError, match="not deterministic"):
            fresh = program.machine()
            fresh.step(0)
            fresh.step(0)


class TestScheduledRuns:
    def test_run_under_scheduler(self):
        program = make_program(2)
        machine = program.machine(scheduler=RoundRobinScheduler())
        result = machine.run()
        assert result.outputs == [(1, 2), (1, 2)]
        assert result.steps == 4

    def test_run_records_trace_when_asked(self):
        program = make_program(2)
        machine = program.machine(
            scheduler=ListScheduler([0, 0, 1, 1]), record_trace=True
        )
        result = machine.run()
        assert [event.pid for event in result.trace] == [0, 0, 1, 1]
        assert all(isinstance(event.op, Op) for event in result.trace)
        assert result.participants == [0, 1]

    def test_trace_off_by_default(self):
        program = make_program(2)
        machine = program.machine(scheduler=RoundRobinScheduler())
        assert machine.run().trace == []

    def test_run_without_scheduler_rejected(self):
        program = make_program(2)
        with pytest.raises(ProtocolError, match="no scheduler"):
            program.machine().run()

    def test_max_steps_guard(self):
        def spinner(ctx):
            while True:
                yield Nop()

        program = compile_protocol(spinner, [1])
        machine = program.machine(
            scheduler=RoundRobinScheduler(), max_steps=25
        )
        with pytest.raises(NonTerminationError):
            machine.run()

    def test_fork_clones_scheduler_state(self):
        program = make_program(2)
        machine = program.machine(
            scheduler=ListScheduler([1, 1, 0, 0], then_finish=True)
        )
        fork = machine.fork()
        first = machine.run()
        second = fork.run()
        assert first.outputs == second.outputs
        assert first.steps == second.steps


class TestForkSchedulerIsolation:
    """fork() must clone the scheduler, not share it by reference: a
    shared adversary would leak mutated state (rng streams, list cursors,
    pending crash maps) between the original and the clone."""

    def test_fork_clones_random_scheduler_stream(self):
        from repro.shm import RandomScheduler

        def chatty(ctx):
            for index in range(6):
                yield Write("A", (ctx.identity, index))
                yield Snapshot("A")
            return ctx.identity

        program = compile_protocol(chatty, [1, 2, 3], arrays={"A": None})
        machine = program.machine(
            scheduler=RandomScheduler(seed=5), record_trace=True
        )
        machine.step(0)
        fork = machine.fork()
        first = machine.run()
        second = fork.run()
        # Identical rng state at fork time => identical schedules after.
        assert first.schedule() == second.schedule()

    def test_fork_clones_crash_scheduler_pending_map(self):
        from repro.shm import CrashScheduler

        program = make_program(2)
        machine = program.machine(
            scheduler=CrashScheduler(RoundRobinScheduler(), {1: 1})
        )
        fork = machine.fork()
        first = machine.run()  # consumes the pending crash entry
        second = fork.run()  # the clone must still crash pid 1 at step 1
        assert first.crashed == second.crashed == {1}

    def test_fork_honours_scheduler_clone_hook(self):
        class HookScheduler:
            def __init__(self):
                self.cloned = 0

            def clone(self):
                dup = HookScheduler()
                dup.cloned = self.cloned + 1
                return dup

            def next_action(self, state):
                from repro.shm import StepAction, StopAction

                return (
                    StepAction(min(state.enabled))
                    if state.enabled
                    else StopAction()
                )

        program = make_program(2)
        machine = program.machine(scheduler=HookScheduler())
        fork = machine.fork()
        assert fork.scheduler is not machine.scheduler
        assert fork.scheduler.cloned == 1
        assert fork.run().outputs == machine.run().outputs
