"""Single-writer multi-reader atomic register arrays (Section 2.1).

The shared memory is a set of named arrays ``A[1..n]`` where only process i
writes ``A[i]`` and every process may read every cell.  Atomicity is
enforced structurally: the runtime executes one operation per step, so
every read, write and snapshot is indivisible.

Cells track a per-writer version counter so that tests (and the snapshot
implementation) can observe write ordering without extra instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


class RegisterPermissionError(RuntimeError):
    """Raised when a process writes a cell it does not own."""


@dataclass
class ArraySpec:
    """Declarative array description for :class:`repro.shm.runtime.Runtime`.

    Passing ``arrays={"X": ArraySpec(n=9, multi_writer=True)}`` creates a
    9-cell multi-writer array; a bare value creates a single-writer array
    with one cell per process initialized to that value.
    """

    initial: Any = None
    n: int | None = None
    multi_writer: bool = False


class SharedArray:
    """A named array of n single-writer multi-reader atomic registers.

    Args:
        name: array name used by operations.
        n: number of cells (one per process index, 0-based internally).
        initial: initial cell value (the paper's ``bottom``), or an
            iterable of n per-cell initial values.
    """

    def __init__(self, name: str, n: int, initial: Any = None, multi_writer: bool = False):
        if n < 1:
            raise ValueError(f"array {name!r} needs at least one cell, got n={n}")
        self.name = name
        self.n = n
        self.multi_writer = multi_writer
        if isinstance(initial, (list, tuple)):
            if len(initial) != n:
                raise ValueError(
                    f"array {name!r}: {len(initial)} initial values for {n} cells"
                )
            self._cells = list(initial)
        else:
            self._cells = [initial] * n
        self._versions = [0] * n
        self.write_count = 0
        self.read_count = 0
        self.snapshot_count = 0

    def write(self, pid: int, value: Any) -> None:
        """Process ``pid`` writes its own cell (1WnR discipline)."""
        self._check_index(pid)
        self._cells[pid] = value
        self._versions[pid] += 1
        self.write_count += 1

    def write_cell(self, pid: int, index: int, value: Any) -> None:
        """Write any cell of a multi-writer array (MWMR primitive)."""
        if not self.multi_writer:
            raise RegisterPermissionError(
                f"array {self.name!r} is single-writer: process {pid} may not "
                f"write cell {index}; create the array with multi_writer=True"
            )
        self._check_index(index)
        self._cells[index] = value
        self._versions[index] += 1
        self.write_count += 1

    def read(self, pid: int, index: int) -> Any:
        """Any process reads any single cell."""
        self._check_index(index)
        self.read_count += 1
        return self._cells[index]

    def snapshot(self) -> tuple[Any, ...]:
        """Atomic scan of all cells (executed within one runtime step)."""
        self.snapshot_count += 1
        return tuple(self._cells)

    def versions(self) -> tuple[int, ...]:
        """Per-cell write counters; observability hook for tests."""
        return tuple(self._versions)

    def versioned_snapshot(self) -> tuple[tuple[Any, int], ...]:
        """Atomic scan pairing each value with its version counter."""
        self.snapshot_count += 1
        return tuple(zip(self._cells, self._versions))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n:
            raise IndexError(
                f"array {self.name!r} has cells 0..{self.n - 1}, got {index}"
            )

    def __repr__(self) -> str:
        return f"SharedArray({self.name!r}, n={self.n}, cells={self._cells!r})"


class SharedMemory:
    """The collection of named shared arrays of one run."""

    def __init__(self, n: int):
        self.n = n
        self._arrays: dict[str, SharedArray] = {}

    def add_array(
        self,
        name: str,
        initial: Any = None,
        n: int | None = None,
        multi_writer: bool = False,
    ) -> SharedArray:
        """Create and register an array; n defaults to the process count."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already exists")
        array = SharedArray(
            name, self.n if n is None else n, initial, multi_writer=multi_writer
        )
        self._arrays[name] = array
        return array

    def array(self, name: str) -> SharedArray:
        if name not in self._arrays:
            raise KeyError(
                f"no shared array named {name!r}; declared arrays: "
                f"{sorted(self._arrays)}"
            )
        return self._arrays[name]

    def names(self) -> Iterable[str]:
        return self._arrays.keys()

    def total_operations(self) -> dict[str, int]:
        """Aggregate operation counters across arrays (for benchmarks)."""
        totals = {"writes": 0, "reads": 0, "snapshots": 0}
        for array in self._arrays.values():
            totals["writes"] += array.write_count
            totals["reads"] += array.read_count
            totals["snapshots"] += array.snapshot_count
        return totals
