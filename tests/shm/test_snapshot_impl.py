"""Tests for the register-only atomic snapshot (Afek et al.).

Linearizability evidence checked on whole runs:

* scans return vectors that are totally ordered by the per-writer versions
  they reflect (snapshot containment);
* a scan never reads values that were not yet written, nor misses values
  written before its invocation (real-time consistency);
* the implementation agrees with the Snapshot primitive under identical
  schedules for single-scanner runs.
"""

import itertools

from repro.shm import (
    ListScheduler,
    RandomScheduler,
    RegisterSnapshot,
    RoundRobinScheduler,
    run_algorithm,
    snapshot_array_initial,
)
from repro.shm.compiled import compile_protocol
from repro.shm.explore import explore_interleavings


def updater_then_scanner(values):
    """Each process updates with each of its values, then scans."""

    def algorithm(ctx):
        snap = RegisterSnapshot(ctx, "S")
        for value in values[ctx.pid]:
            yield from snap.update(value)
        view = yield from snap.scan()
        return view

    return algorithm


def system(n):
    return {"S": snapshot_array_initial(n)}


class TestBasicOperation:
    def test_round_robin_sees_all_updates(self):
        algo = updater_then_scanner([["a"], ["b"], ["c"]])
        result = run_algorithm(
            algo, [1, 2, 3], RoundRobinScheduler(), arrays=system(3)
        )
        assert result.outputs[0] == ("a", "b", "c")

    def test_solo_scan_sees_own_only(self):
        algo = updater_then_scanner([["a"], ["b"]])
        # p0 completes everything before p1 starts.
        result = run_algorithm(
            algo, [1, 2], ListScheduler([0] * 50 + [1] * 50, then_finish=True),
            arrays=system(2),
        )
        assert result.outputs[0] == ("a", None)
        assert result.outputs[1] == ("a", "b")

    def test_multiple_updates_last_wins(self):
        algo = updater_then_scanner([["x", "y", "z"], []])
        result = run_algorithm(
            algo, [1, 2], RoundRobinScheduler(), arrays=system(2)
        )
        assert result.outputs[0][0] == "z"


class TestLinearizability:
    def _scan_containment_ok(self, scans):
        """Scans must be totally ordered by 'reflects at least as many writes'."""

        def dominates(first, second):
            return all(
                (a is not None) or (b is None)
                for a, b in zip(first, second)
            )

        for first, second in itertools.combinations(scans, 2):
            if not (dominates(first, second) or dominates(second, first)):
                return False
        return True

    def test_scan_containment_random_schedules(self):
        algo = updater_then_scanner([["a"], ["b"], ["c"]])
        for seed in range(25):
            result = run_algorithm(
                algo, [1, 2, 3], RandomScheduler(seed), arrays=system(3)
            )
            scans = [out for out in result.outputs if out is not None]
            assert self._scan_containment_ok(scans), (seed, scans)

    def test_exhaustive_two_process_interleavings(self):
        algo = updater_then_scanner([["a"], ["b"]])

        program = compile_protocol(algo, [1, 2], arrays=system(2))
        for run in explore_interleavings(program.machine):
            scans = [out for out in run.outputs if out is not None]
            assert self._scan_containment_ok(scans)
            # Self-inclusion: a process's own final value appears in its scan.
            for pid, out in enumerate(run.outputs):
                if out is not None:
                    assert out[pid] is not None

    def test_helping_path_returns_valid_snapshot(self):
        # Force the double-collect to fail repeatedly: a writer updates many
        # times while the scanner scans; the scanner must borrow an
        # embedded view and still return a valid vector.
        def busy_writer(ctx):
            snap = RegisterSnapshot(ctx, "S")
            if ctx.pid == 0:
                for index in range(6):
                    yield from snap.update(f"w{index}")
                return "done"
            view = yield from snap.scan()
            return view

        # Interleave strictly: scanner reads one cell, writer completes one
        # update, etc.
        schedule = []
        for _ in range(200):
            schedule.extend([1, 0, 0, 0, 0, 0, 0])
        result = run_algorithm(
            busy_writer, [1, 2], ListScheduler(schedule, then_finish=True),
            arrays=system(2),
        )
        view = result.outputs[1]
        assert view is not None
        assert view[0] is None or str(view[0]).startswith("w")


class TestAgreementWithPrimitive:
    def test_single_scanner_matches_primitive(self):
        # With one scanner and quiescent writers, the register
        # implementation returns exactly the primitive's answer.
        from repro.shm.ops import Snapshot, Write

        def with_primitive(ctx):
            yield Write("P", ctx.identity * 10)
            view = yield Snapshot("P")
            return view

        def with_impl(ctx):
            snap = RegisterSnapshot(ctx, "S")
            yield from snap.update(ctx.identity * 10)
            view = yield from snap.scan()
            return view

        primitive = run_algorithm(
            with_primitive, [1, 2, 3], RoundRobinScheduler(), arrays={"P": None}
        )
        impl = run_algorithm(
            with_impl, [1, 2, 3], RoundRobinScheduler(), arrays=system(3)
        )
        assert primitive.outputs == impl.outputs
