"""The compiled protocol core: step tables + array-backed machine states.

The generator runtime (:mod:`repro.shm.runtime`) is the *reference
semantics* of the model: algorithms are Python generators, which cannot be
copied, so snapshotting a live run means replaying each process's result
log (O(steps so far) resumptions) and keying a state means freezing those
logs.  Both costs would sit on the hottest path in the repository —
exhaustive exploration forks and keys at every branch point.

This module commits to a canonical machine representation *once* and makes
every downstream operation a cheap structural one (the lex-leader move of
symmetry handling, applied to the runtime itself):

* :class:`CompiledProtocol` — a tracer/compiler that turns an algorithm
  into an explicit **step table**: a trie over per-process result
  histories.  The model's discipline (Section 2.2) makes an algorithm a
  deterministic function of its context and the operation results it
  received, so a trie node *is* a local state: it records the pending
  operation (pre-packed against the memory layout) and its out-edges map
  each possible operation result to the successor state.  Nodes are traced
  on demand — each distinct local state costs one generator replay ever,
  after which every run, fork and exploration that reaches it pays a dict
  lookup.  A replay whose emitted operations diverge from the recorded
  table is rejected with a clear :class:`ProtocolError`.

* :class:`MachineState` — the array-backed runtime state: per-pid program
  counters into the step table, one flat cell list for all shared arrays
  (:class:`MemoryLayout`), and packed oracle state (the committed value
  vector plus an arrival list and an acquired-bitmask per oracle).
  ``fork()`` is a handful of ``list.copy()`` calls — **no generator
  replay** — and ``state_key()`` is a small packed tuple instead of a
  recursive freeze walk.

Semantics notes (all verified by the differential suite in
``tests/shm/test_compiled_differential.py``):

* Written values are frozen (:func:`repro.shm.runtime.freeze_value`) once
  at compile time, so cells and snapshots are hashable without a per-key
  walk.  This is observationally identical under the model's existing
  discipline that written values are immutable.
* Per-writer version counters are *not* part of the machine state: no
  operation exposes them to algorithms, so dropping them is sound and
  strictly increases memoization hits.
* Decided/crashed processes are keyed by outcome (the decided value /
  a crash sentinel), exactly like the generator runtime, so states that
  differ only in the history of a finished process still merge.
"""

from __future__ import annotations

from copy import deepcopy as _deepcopy
from itertools import chain
from typing import Any, Mapping, Sequence

from .ops import Invoke, Nop, Op, Read, Snapshot, Write, WriteCell
from .oracles import GSBOracle, OracleUsageError
from .registers import ArraySpec, RegisterPermissionError
from .runtime import (
    Algorithm,
    NonTerminationError,
    ProcessContext,
    ProtocolError,
    RunResult,
    Scheduler,
    StepAction,
    CrashAction,
    StopAction,
    TraceEvent,
    freeze_value,
)

__all__ = [
    "CompiledProtocol",
    "MachineState",
    "MemoryLayout",
    "ValueCanonicalizer",
    "compile_protocol",
]

#: Process-wide step-table counters, surfaced through
#: :func:`repro.core.cache_config.cache_stats` (registered below).
_TABLE_TOTALS = {
    "programs": 0,  # step tables compiled
    "nodes": 0,  # local states traced (post frame-merging)
    "replays": 0,  # generator replays paid to trace them
    "frame_merges": 0,  # history-trie nodes collapsed by frame signatures
    "frame_bails": 0,  # frame analyses that fell back to history nodes
    "table_imports": 0,  # pre-traced tables adopted by pool workers
}


def _register_table_counters() -> None:
    from ..core.cache_config import register_counters

    def _stats() -> dict:
        return dict(_TABLE_TOTALS)

    def _clear() -> None:
        for key in _TABLE_TOTALS:
            _TABLE_TOTALS[key] = 0

    try:
        register_counters("engine.step_tables", _stats, _clear)
    except ValueError:  # pragma: no cover - double import guard
        pass


_register_table_counters()

#: Program-counter sentinels (any non-negative value is a step-table node).
DECIDED = -1
CRASHED = -2

#: Cache-miss marker for :meth:`CompiledProtocol.stable_pc` (None is a
#: legitimate cached value there).
_UNTOKENED = object()

#: Packed opcodes of the step table's execution entries.
_OP_WRITE = 0  # (code, cell, frozen value)
_OP_READ = 1  # (code, cell)
_OP_SNAPSHOT = 2  # (code, start, stop)
_OP_INVOKE = 3  # (code, oracle index)
_OP_NOP = 4  # (code,)
_OP_GENERIC = 5  # (code, object name, method, args)
_OP_RAISE = 6  # (code, exception instance) — deferred execution error


class MemoryLayout:
    """Flat layout of the named shared arrays of one protocol system.

    Every array gets a contiguous slice of one cell list; the layout maps
    ``name -> (base, size, multi_writer)`` once so compiled step entries
    can address cells by integer offset.  Accepts the same ``arrays``
    mapping as :class:`repro.shm.runtime.Runtime` (bare initial values or
    :class:`repro.shm.registers.ArraySpec`).
    """

    __slots__ = ("n", "names", "base", "size", "multi_writer", "_specs")

    def __init__(self, n: int, arrays: Mapping[str, Any] | None = None):
        self.n = n
        self.names: list[str] = []
        self.base: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.multi_writer: dict[str, bool] = {}
        self._specs: dict[str, Any] = {}
        offset = 0
        for name, spec in (arrays or {}).items():
            if isinstance(spec, ArraySpec):
                size = self.n if spec.n is None else spec.n
                multi_writer = spec.multi_writer
            else:
                size = self.n
                multi_writer = False
            if size < 1:
                raise ValueError(
                    f"array {name!r} needs at least one cell, got n={size}"
                )
            initial = spec.initial if isinstance(spec, ArraySpec) else spec
            if isinstance(initial, (list, tuple)) and len(initial) != size:
                raise ValueError(
                    f"array {name!r}: {len(initial)} initial values for "
                    f"{size} cells"
                )
            self.names.append(name)
            self.base[name] = offset
            self.size[name] = size
            self.multi_writer[name] = multi_writer
            self._specs[name] = spec
            offset += size

    @property
    def cell_count(self) -> int:
        return sum(self.size[name] for name in self.names)

    def signature(self) -> tuple:
        """Structural identity: two layouts agree iff machines can share a
        compiled step table (same names, sizes and writer disciplines)."""
        return tuple(
            (name, self.size[name], self.multi_writer[name])
            for name in self.names
        )

    def initial_cells(self, arrays: Mapping[str, Any] | None = None) -> list:
        """A fresh flat cell list (values frozen once, at layout time).

        ``arrays`` may re-supply the initial-value mapping (e.g. a system
        factory's per-run output); its structure must match this layout.
        """
        source = self._specs if arrays is None else arrays
        if arrays is not None:
            probe = MemoryLayout(self.n, arrays)
            if probe.signature() != self.signature():
                raise ValueError(
                    f"array mapping {sorted(arrays)} does not match the "
                    f"compiled layout {sorted(self.names)}"
                )
        cells: list = []
        for name in self.names:
            spec = source[name]
            initial = spec.initial if isinstance(spec, ArraySpec) else spec
            size = self.size[name]
            if isinstance(initial, (list, tuple)):
                if len(initial) != size:
                    raise ValueError(
                        f"array {name!r}: {len(initial)} initial values for "
                        f"{size} cells"
                    )
                cells.extend(freeze_value(value) for value in initial)
            else:
                cells.extend([freeze_value(initial)] * size)
        return cells


class CompiledProtocol:
    """A step-table program compiled lazily from a generator algorithm.

    The table is a forest of per-pid tries over operation-result
    histories.  Node ``u`` records the pending operation reached after the
    result history spelled by the root-to-``u`` path (pre-packed against
    the :class:`MemoryLayout`), or a decision value for terminal nodes.
    Tracing is demand-driven: an edge miss replays the generator along the
    node's history — one replay per *distinct local state*, ever — and
    verifies en route that the emitted operations match the recorded ones,
    rejecting non-deterministic algorithms with :class:`ProtocolError`.

    One compiled program is shared by every :class:`MachineState` (and
    every fork) exploring the same ``(algorithm, identities, system
    shape)``, across schedules, crash patterns and oracle assignments
    alike — results index the trie, so differing oracle hand-outs simply
    populate different branches.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        identities: Sequence[int],
        arrays: Mapping[str, Any] | None = None,
        objects: Mapping[str, Any] | None = None,
        frame_nodes: bool = False,
    ):
        n = len(identities)
        if n < 1:
            raise ValueError("need at least one process")
        if len(set(identities)) != n:
            raise ValueError(f"identities must be distinct, got {list(identities)}")
        self.algorithm = algorithm
        self.identities = tuple(identities)
        self.n = n
        self.layout = MemoryLayout(n, arrays)
        #: Object split: GSB oracles are packed into machine arrays; any
        #: other shared object rides a generic (clone()-based) path.
        self.oracle_names: list[str] = []
        self.generic_names: list[str] = []
        for name, obj in (objects or {}).items():
            if isinstance(obj, GSBOracle):
                self.oracle_names.append(name)
            else:
                self.generic_names.append(name)
        self._oracle_index = {
            name: index for index, name in enumerate(self.oracle_names)
        }
        # The step table, one entry per node across parallel lists.
        self.ops: list[Op | None] = []  #: pending op; None marks a decision
        self.exec_table: list[tuple | None] = []  #: packed execution entry
        self.decisions: list[Any] = []  #: frozen decision value (terminals)
        self.edges: list[dict[Any, int]] = []  #: frozen result -> child
        self.parents: list[int] = []  #: parent node (-1 at roots)
        self.sent: list[Any] = []  #: raw result received on the in-edge
        self.pids: list[int] = []  #: owning process of the node
        #: With ``frame_nodes`` the table is a DAG over *local states*
        #: rather than a trie over histories: newly-traced nodes whose
        #: suspended-generator frame signature (:mod:`.localstate`)
        #: matches an existing node merge into it, so states reached
        #: along different result histories share one program counter.
        #: Histories whose frames defy sound signing (exotic yield
        #: shapes, unfreezable locals) silently keep trie identity.
        self.frame_nodes = frame_nodes
        self._absmap: dict[Any, int] = {}
        self._node_sig: dict[int, Any] = {}  #: node -> frame signature
        self._stable_tokens: dict[int, bytes | None] = {}
        #: Node-count prefix shared with other processes via
        #: export/import (0 = nothing shared): ids below this bound mean
        #: the same local state in every process that imported the same
        #: table, which is what lets orbit-memo entries travel.
        self.shared_prefix = 0
        _TABLE_TOTALS["programs"] += 1
        self.roots: list[int] = [self._trace_root(pid) for pid in range(n)]

    # -- table growth ---------------------------------------------------

    def node_count(self) -> int:
        """Distinct local states traced so far (observability)."""
        return len(self.ops)

    def _context(self, pid: int) -> ProcessContext:
        return ProcessContext(pid=pid, identity=self.identities[pid], n=self.n)

    def _trace_root(self, pid: int) -> int:
        generator = self.algorithm(self._context(pid))
        try:
            op = next(generator)
        except StopIteration as stop:
            return self._add_node(pid, -1, None, None, decision=stop.value)
        return self._add_node(
            pid, -1, None, None, op=op,
            signature=self._frame_signature(pid, generator),
        )

    def _frame_signature(self, pid: int, generator: Any) -> Any | None:
        if not self.frame_nodes:
            return None
        from .localstate import generator_signature

        signature = generator_signature(generator, freeze_value)
        if signature is None:
            # The bytecode analysis gave up: this state stays a
            # history-trie node, which silently costs memo hits.
            _TABLE_TOTALS["frame_bails"] += 1
            return None
        return (pid, signature)

    def _add_node(
        self,
        pid: int,
        parent: int,
        key: Any,
        raw_result: Any,
        op: Op | None = None,
        decision: Any = None,
        signature: Any = None,
    ) -> int:
        if op is None and decision is None:
            # Mirrors Runtime._decide: deciding None is a protocol error.
            raise ProtocolError(
                f"process {pid} terminated without deciding (returned None)"
            )
        node = len(self.ops)
        self.ops.append(op)
        self.exec_table.append(None if op is None else self._pack(pid, op))
        self.decisions.append(
            None if decision is None else freeze_value(decision)
        )
        self.edges.append({})
        self.parents.append(parent)
        self.sent.append(raw_result)
        self.pids.append(pid)
        if parent >= 0:
            self.edges[parent][key] = node
        if signature is not None:
            self._absmap[signature] = node
            self._node_sig[node] = signature
        _TABLE_TOTALS["nodes"] += 1
        return node

    def extend(self, parent: int, key: Any, raw_result: Any) -> int:
        """Trace the successor of ``parent`` under ``raw_result``.

        Replays the owning process's generator along the node's recorded
        history, checking at every hop that the emitted operation matches
        the compiled table (the determinism guarantee every other part of
        this module rests on), then records the new node.
        """
        pid = self.pids[parent]
        path: list[int] = []
        cursor = parent
        while cursor >= 0:
            path.append(cursor)
            cursor = self.parents[cursor]
        path.reverse()
        results = [self.sent[node] for node in path[1:]]
        results.append(raw_result)

        _TABLE_TOTALS["replays"] += 1
        generator = self.algorithm(self._context(pid))
        try:
            op = next(generator)
        except StopIteration:
            raise ProtocolError(
                f"process {pid} is not deterministic: replaying its result "
                "log decided immediately where the compiled table records "
                f"pending op {self.ops[path[0]]!r}"
            ) from None
        for node, result in zip(path, results):
            if op != self.ops[node]:
                raise ProtocolError(
                    f"process {pid} is not deterministic: replay produced "
                    f"{op!r} where the compiled step table records "
                    f"{self.ops[node]!r}"
                )
            try:
                op = generator.send(result)
            except StopIteration as stop:
                if node is not parent:
                    raise ProtocolError(
                        f"process {pid} is not deterministic: replaying its "
                        "result log ended in a decision before the compiled "
                        "table's pending op"
                    ) from None
                decided_sig = None
                if self.frame_nodes:
                    decided_sig = (pid, "decided", freeze_value(stop.value))
                    merged = self._merge_node(
                        parent, key, decided_sig, decision=stop.value
                    )
                    if merged is not None:
                        return merged
                return self._add_node(
                    pid, parent, key, raw_result,
                    decision=stop.value, signature=decided_sig,
                )
        signature = self._frame_signature(pid, generator)
        if signature is not None:
            merged = self._merge_node(parent, key, signature, op=op)
            if merged is not None:
                return merged
        return self._add_node(
            pid, parent, key, raw_result, op=op, signature=signature
        )

    def _merge_node(
        self, parent: int, key: Any, signature: Any,
        op: Op | None = None, decision: Any = None,
    ) -> int | None:
        """Route ``parent --key-->`` onto an existing local state, if any.

        Returns the merged node, or None when this local state is new.
        A signature collision whose pending operation disagrees means the
        frame abstraction mis-identified two states — that would corrupt
        every downstream count, so it fails loudly instead of merging.
        """
        existing = self._absmap.get(signature)
        if existing is None:
            return None
        if op is not None and self.ops[existing] != op:
            raise ProtocolError(
                f"frame-signature merge mismatch: states signed {signature!r} "
                f"record pending ops {self.ops[existing]!r} and {op!r}; "
                "the local-state analysis is unsound for this algorithm"
            )
        if decision is not None and self.decisions[existing] != freeze_value(
            decision
        ):
            raise ProtocolError(
                "frame-signature merge mismatch on decision values; "
                "the local-state analysis is unsound for this algorithm"
            )
        self.edges[parent][key] = existing
        _TABLE_TOTALS["frame_merges"] += 1
        return existing

    # -- table shipping (parent pre-trace -> pool workers) ---------------

    def table_signature(self) -> tuple:
        """Structural identity two programs must share to swap tables."""
        return (
            self.n,
            self.identities,
            self.layout.signature(),
            tuple(self.oracle_names),
            tuple(self.generic_names),
            self.frame_nodes,
        )

    def export_table(self) -> dict:
        """Picklable snapshot of the traced step table.

        Ships node data only — the algorithm's closures stay behind;
        the importer marries the data to its own (identically-built)
        program.  Frame signatures travel too (code objects are named by
        stable tokens, see :func:`repro.shm.localstate.code_token`), so
        importers keep merging new states consistently.
        """
        return {
            "signature": self.table_signature(),
            "ops": list(self.ops),
            "exec_table": list(self.exec_table),
            "decisions": list(self.decisions),
            "edges": [dict(edge) for edge in self.edges],
            "parents": list(self.parents),
            "sent": list(self.sent),
            "pids": list(self.pids),
            "roots": list(self.roots),
            "absmap": dict(self._absmap),
        }

    def import_table(self, data: Mapping[str, Any]) -> bool:
        """Adopt a pre-traced table exported by an identical program.

        Returns False (leaving this program untouched) when the export
        does not structurally match — the caller keeps its own lazily
        traced table, which is always correct, just colder.
        """
        if data.get("signature") != self.table_signature():
            return False
        if list(data["roots"]) != self.roots:
            return False
        if len(data["ops"]) < len(self.ops):
            return False
        self.ops = list(data["ops"])
        self.exec_table = list(data["exec_table"])
        self.decisions = list(data["decisions"])
        self.edges = [dict(edge) for edge in data["edges"]]
        self.parents = list(data["parents"])
        self.sent = list(data["sent"])
        self.pids = list(data["pids"])
        self._absmap = dict(data["absmap"])
        self._node_sig = {node: sig for sig, node in self._absmap.items()}
        self._stable_tokens = {}
        self.shared_prefix = len(self.ops)
        _TABLE_TOTALS["table_imports"] += 1
        return True

    def stable_pc(self, node: int) -> bytes | None:
        """Process-stable 16-byte token of a node's *local state*.

        Raw node ids are allocation order — two processes lazily tracing
        the same program in different exploration orders number the same
        local state differently, so ids cannot cross process boundaries.
        Frame signatures can: they name the local state itself (code
        token + offset + live locals), so their digest is the travel-safe
        program counter the cross-worker orbit memo keys on.  None means
        the node has no sound signature (``frame_nodes`` off, or the
        analysis bailed) and keys containing it must stay process-local.
        """
        token = self._stable_tokens.get(node, _UNTOKENED)
        if token is not _UNTOKENED:
            return token
        signature = self._node_sig.get(node)
        if signature is None:
            token = None
        else:
            import pickle
            from hashlib import blake2b

            try:
                blob = pickle.dumps(signature, protocol=4)
            except Exception:
                token = None
            else:
                token = blake2b(blob, digest_size=16).digest()
        self._stable_tokens[node] = token
        return token

    # -- packing --------------------------------------------------------

    def _pack(self, pid: int, op: Op) -> tuple:
        """Compile one pending operation against the memory layout.

        Ill-formed operations (unknown array, foreign-cell write, unknown
        object, bad oracle method) pack to a deferred ``_OP_RAISE`` entry
        so the error surfaces at *execution* time, exactly when the
        generator runtime would raise it.
        """
        layout = self.layout
        if isinstance(op, Write):
            error = self._address_error(op.array, pid)
            if error is not None:
                return (_OP_RAISE, error)
            return (
                _OP_WRITE,
                layout.base[op.array] + pid,
                freeze_value(op.value),
            )
        if isinstance(op, WriteCell):
            if op.array in layout.base and not layout.multi_writer[op.array]:
                return (
                    _OP_RAISE,
                    RegisterPermissionError(
                        f"array {op.array!r} is single-writer: process {pid} "
                        f"may not write cell {op.index}; create the array "
                        "with multi_writer=True"
                    ),
                )
            error = self._address_error(op.array, op.index)
            if error is not None:
                return (_OP_RAISE, error)
            return (
                _OP_WRITE,
                layout.base[op.array] + op.index,
                freeze_value(op.value),
            )
        if isinstance(op, Read):
            error = self._address_error(op.array, op.index)
            if error is not None:
                return (_OP_RAISE, error)
            return (_OP_READ, layout.base[op.array] + op.index)
        if isinstance(op, Snapshot):
            error = self._address_error(op.array, 0)
            if error is not None:
                return (_OP_RAISE, error)
            base = layout.base[op.array]
            return (_OP_SNAPSHOT, base, base + layout.size[op.array])
        if isinstance(op, Invoke):
            if op.obj in self._oracle_index:
                if op.method != GSBOracle.ACQUIRE:
                    return (
                        _OP_RAISE,
                        OracleUsageError(
                            f"GSBOracle supports only "
                            f"{GSBOracle.ACQUIRE!r}, got {op.method!r}"
                        ),
                    )
                return (_OP_INVOKE, self._oracle_index[op.obj])
            if op.obj in self.generic_names:
                return (_OP_GENERIC, op.obj, op.method, op.args)
            available = sorted(self.oracle_names + self.generic_names)
            return (
                _OP_RAISE,
                ProtocolError(
                    f"process {pid} invoked unknown object {op.obj!r}; "
                    f"available: {available}"
                ),
            )
        if isinstance(op, Nop):
            return (_OP_NOP,)
        return (
            _OP_RAISE,
            ProtocolError(f"process {pid} yielded a non-operation: {op!r}"),
        )

    def _address_error(self, array: str, index: int) -> Exception | None:
        if array not in self.layout.base:
            return KeyError(
                f"no shared array named {array!r}; declared arrays: "
                f"{sorted(self.layout.names)}"
            )
        if not 0 <= index < self.layout.size[array]:
            return IndexError(
                f"array {array!r} has cells 0..{self.layout.size[array] - 1}, "
                f"got {index}"
            )
        return None

    # -- machine construction -------------------------------------------

    def machine(
        self,
        scheduler: Scheduler | None = None,
        arrays: Mapping[str, Any] | None = None,
        objects: Mapping[str, Any] | None = None,
        max_steps: int = 1_000_000,
        record_trace: bool = False,
    ) -> "MachineState":
        """A fresh machine running this program (see :class:`MachineState`)."""
        return MachineState(
            self,
            scheduler=scheduler,
            arrays=arrays,
            objects=objects,
            max_steps=max_steps,
            record_trace=record_trace,
        )


def compile_protocol(
    algorithm: Algorithm,
    identities: Sequence[int],
    arrays: Mapping[str, Any] | None = None,
    objects: Mapping[str, Any] | None = None,
) -> CompiledProtocol:
    """Compile an algorithm + system shape into a shared step table."""
    return CompiledProtocol(algorithm, identities, arrays=arrays, objects=objects)


def _clone_object(obj: Any) -> Any:
    clone = getattr(obj, "clone", None)
    if callable(clone):
        return clone()
    return _deepcopy(obj)


class _MachineSchedulerState:
    """Adapter giving schedulers the observable state of a machine."""

    __slots__ = ("_machine",)

    def __init__(self, machine: "MachineState"):
        self._machine = machine

    @property
    def step(self) -> int:
        return self._machine.step_count

    @property
    def enabled(self) -> tuple[int, ...]:
        return tuple(self._machine.enabled_pids())

    def steps_taken(self, pid: int) -> int:
        return self._machine.per_pid_steps[pid]


class MachineState:
    """Array-backed runtime state over a :class:`CompiledProtocol`.

    Drop-in for :class:`repro.shm.runtime.Runtime` wherever exploration
    and the harness drive runs (``step``/``run``/``fork``/``state_key``/
    ``result``/``enabled_pids``), with the two costs the compiled core
    exists to remove:

    * ``fork()`` copies a few flat lists — O(state), zero generator work;
    * ``state_key()`` returns a packed tuple of program counters, decided
      outputs, flat cells and oracle arrival orders.

    ``record_trace`` defaults to *False* (the opposite of ``Runtime``):
    the exploration hot path neither needs nor wants per-fork trace
    copies.  Harness paths that validate traces pass ``True``.
    """

    __slots__ = (
        "program",
        "scheduler",
        "max_steps",
        "n",
        "identities",
        "outputs",
        "decided_at",
        "crashed",
        "step_count",
        "per_pid_steps",
        "trace",
        "record_trace",
        "_pc",
        "_cells",
        "_oracle_values",
        "_oracle_arrivals",
        "_oracle_acquired",
        "_generic",
    )

    def __init__(
        self,
        program: CompiledProtocol,
        scheduler: Scheduler | None = None,
        arrays: Mapping[str, Any] | None = None,
        objects: Mapping[str, Any] | None = None,
        max_steps: int = 1_000_000,
        record_trace: bool = False,
    ):
        self.program = program
        self.scheduler = scheduler
        self.max_steps = max_steps
        self.n = program.n
        self.identities = program.identities
        self.record_trace = record_trace
        self.trace: list[TraceEvent] = []
        self._cells = program.layout.initial_cells(arrays)

        objects = dict(objects or {})
        expected = set(program.oracle_names) | set(program.generic_names)
        if set(objects) != expected:
            raise ValueError(
                f"objects {sorted(objects)} do not match the compiled "
                f"program's objects {sorted(expected)}"
            )
        self._oracle_values: list[tuple] = []
        self._oracle_arrivals: list[list[int]] = []
        self._oracle_acquired: list[int] = []
        for name in program.oracle_names:
            oracle: GSBOracle = objects[name]
            self._oracle_values.append(tuple(oracle._values))
            self._oracle_arrivals.append(list(oracle._arrivals))
            mask = 0
            for pid in oracle._assigned:
                mask |= 1 << pid
            self._oracle_acquired.append(mask)
        self._generic = {name: objects[name] for name in program.generic_names}

        self.outputs: list[Any] = [None] * self.n
        self.decided_at: list[int | None] = [None] * self.n
        self.crashed: set[int] = set()
        self.step_count = 0
        self.per_pid_steps = [0] * self.n
        self._pc = list(program.roots)
        for pid, node in enumerate(self._pc):
            if program.ops[node] is None:
                # Communication-free decision: decided before any step.
                self.outputs[pid] = program.decisions[node]
                self.decided_at[pid] = 0
                self._pc[pid] = DECIDED

    # -- the runtime surface the engine and harness drive ----------------

    def enabled_pids(self) -> list[int]:
        """Processes that can still take a step."""
        return [pid for pid, node in enumerate(self._pc) if node >= 0]

    def step(self, pid: int) -> None:
        """Execute one step of ``pid``: run its pending packed operation,
        then advance its program counter along the matching table edge
        (tracing the successor on a first visit)."""
        node = self._pc[pid]
        if node < 0:
            if pid in self.crashed:
                raise ProtocolError(f"process {pid} is crashed and cannot step")
            raise ProtocolError(
                f"process {pid} already decided and cannot step"
            )
        program = self.program
        entry = program.exec_table[node]
        code = entry[0]
        cells = self._cells
        if code == _OP_WRITE:
            cells[entry[1]] = entry[2]
            result = None
        elif code == _OP_SNAPSHOT:
            result = tuple(cells[entry[1] : entry[2]])
        elif code == _OP_READ:
            result = cells[entry[1]]
        elif code == _OP_INVOKE:
            index = entry[1]
            mask = 1 << pid
            if self._oracle_acquired[index] & mask:
                raise OracleUsageError(
                    f"process {pid} acquired twice from the "
                    f"{program.oracle_names[index]!r} oracle"
                )
            arrivals = self._oracle_arrivals[index]
            result = self._oracle_values[index][len(arrivals)]
            arrivals.append(pid)
            self._oracle_acquired[index] |= mask
        elif code == _OP_NOP:
            result = None
        elif code == _OP_GENERIC:
            result = self._generic[entry[1]].invoke(pid, entry[2], entry[3])
        else:  # _OP_RAISE: a deferred compile-time diagnosis
            raise entry[1]

        if self.record_trace:
            self.trace.append(
                TraceEvent(self.step_count, pid, program.ops[node], result)
            )
        self.step_count += 1
        self.per_pid_steps[pid] += 1

        key = freeze_value(result) if code == _OP_GENERIC else result
        child = program.edges[node].get(key)
        if child is None:
            child = program.extend(node, key, result)
        if program.ops[child] is None:
            self.outputs[pid] = program.decisions[child]
            self.decided_at[pid] = self.step_count
            self._pc[pid] = DECIDED
        else:
            self._pc[pid] = child

    def crash(self, pid: int) -> None:
        """Crash ``pid``: it takes no further steps."""
        if self._pc[pid] < 0:
            raise ProtocolError(
                f"cannot crash {pid}: already crashed or decided"
            )
        self.crashed.add(pid)
        self._pc[pid] = CRASHED

    def run(self) -> RunResult:
        """Drive the run under the machine's scheduler (cf. ``Runtime.run``)."""
        if self.scheduler is None:
            raise ProtocolError(
                "machine has no scheduler; construct it with one to run()"
            )
        state = _MachineSchedulerState(self)
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
                self.crash(action.pid)
                continue
            if isinstance(action, StepAction):
                self.step(action.pid)
                continue
            raise ProtocolError(f"scheduler returned unknown action {action!r}")
        return self.result()

    def fork(self) -> "MachineState":
        """Independent copy of this mid-run state: plain array copies.

        The step table is shared (it is append-only and common to every
        machine of one program); all mutable state is flat lists copied in
        O(state) — no generator replay, no recursion, no per-step work.
        """
        dup = MachineState.__new__(MachineState)
        dup.program = self.program
        dup.scheduler = (
            None if self.scheduler is None else _clone_object(self.scheduler)
        )
        dup.max_steps = self.max_steps
        dup.n = self.n
        dup.identities = self.identities
        dup.record_trace = self.record_trace
        dup.trace = list(self.trace) if self.record_trace else []
        dup._cells = self._cells.copy()
        dup._oracle_values = self._oracle_values
        dup._oracle_arrivals = [
            arrivals.copy() for arrivals in self._oracle_arrivals
        ]
        dup._oracle_acquired = self._oracle_acquired.copy()
        dup._generic = {
            name: _clone_object(obj) for name, obj in self._generic.items()
        }
        dup.outputs = self.outputs.copy()
        dup.decided_at = self.decided_at.copy()
        dup.crashed = set(self.crashed)
        dup.step_count = self.step_count
        dup.per_pid_steps = self.per_pid_steps.copy()
        dup._pc = self._pc.copy()
        return dup

    def state_key(self) -> tuple | None:
        """Packed hashable signature of the global state.

        Program counters stand in for whole result histories (a trie node
        *is* a local state), decided processes are keyed by their frozen
        output (so equal decisions merge across histories), and the flat
        cell list is already frozen.  Returns None when a generic shared
        object exposes no ``state_key`` (disabling memoization, as in the
        generator runtime).
        """
        generic_keys: tuple = ()
        if self._generic:
            keys = []
            for name in sorted(self._generic):
                obj = self._generic[name]
                if not hasattr(obj, "state_key"):
                    return None
                keys.append((name, obj.state_key()))
            generic_keys = tuple(keys)
        return (
            tuple(self._pc),
            tuple(self.outputs),
            tuple(self._cells),
            tuple(tuple(arrivals) for arrivals in self._oracle_arrivals),
            generic_keys,
        )

    # -- value-symmetry orbit quotient -----------------------------------

    def orbit_key(self) -> tuple | None:
        """Orbit signature of this state (coarser than :meth:`state_key`).

        Two refinements over the exact key, both sound for any program
        driven here (verified by the quotient differential suite):

        * **decided outputs are factored out** — no operation reads
          another process's output, so states differing only in decided
          values share their entire future; the exploration engine
          stores suffix counters and re-fills them from the querying
          state's own outputs;
        * **oracle arrival order collapses to the acquired-pid mask** —
          a GSB oracle's future hand-outs depend only on *how many*
          values it has handed out (the committed value vector is fixed
          per exploration), and each received value is already encoded
          in its receiver's program counter.

        Returns None when a generic shared object exposes no
        ``state_key`` (same contract as :meth:`state_key`).
        """
        generic_keys: tuple = ()
        if self._generic:
            keys = []
            for name in sorted(self._generic):
                obj = self._generic[name]
                if not hasattr(obj, "state_key"):
                    return None
                keys.append((name, obj.state_key()))
            generic_keys = tuple(keys)
        return (
            tuple(self._pc),
            tuple(self._cells),
            tuple(self._oracle_acquired),
            generic_keys,
        )

    #: ``probe`` marker: the probed step does not decide its process.
    STILL_RUNNING = object()

    def probe(self, pid: int) -> tuple | None:
        """The parts of the state ``step(pid)`` would reach — without
        forking or stepping.

        Returns ``(pcs, cells, acquired, decided, oracle)``: the
        successor's program counters, flat cells and acquired masks (as
        tuples), the decided value (:data:`STILL_RUNNING` when the step
        leaves ``pid`` undecided) and the index of the oracle the step
        acquires from (-1 for none).  None when the successor cannot be
        probed structurally (an untraced table edge, a generic object,
        an oracle-misuse step that must raise for real) and the caller
        should fork + step.  ``(pcs, cells, acquired, ())`` is the
        successor's :meth:`orbit_key` — the quotient tests pin that.
        """
        if self._generic:
            return None
        pcs = self._pc
        node = pcs[pid]
        if node < 0:
            return None
        program = self.program
        entry = program.exec_table[node]
        code = entry[0]
        cells = self._cells
        acquired = self._oracle_acquired
        oracle = -1
        if code == _OP_WRITE:
            result = None
            cell = entry[1]
            if cells[cell] != entry[2]:
                cells = cells.copy()
                cells[cell] = entry[2]
        elif code == _OP_SNAPSHOT:
            result = tuple(cells[entry[1] : entry[2]])
        elif code == _OP_READ:
            result = cells[entry[1]]
        elif code == _OP_INVOKE:
            oracle = entry[1]
            mask = 1 << pid
            if acquired[oracle] & mask:
                return None  # the real step raises OracleUsageError
            result = self._oracle_values[oracle][
                len(self._oracle_arrivals[oracle])
            ]
            acquired = acquired.copy()
            acquired[oracle] |= mask
        elif code == _OP_NOP:
            result = None
        else:
            return None  # generic / deferred-raise: take the real path
        child = program.edges[node].get(result)
        if child is None:
            return None  # untraced successor: the real step must trace it
        if program.ops[child] is None:
            decided = program.decisions[child]
            child = DECIDED
        else:
            decided = MachineState.STILL_RUNNING
        pcs = pcs.copy()
        pcs[pid] = child
        return tuple(pcs), tuple(cells), tuple(acquired), decided, oracle

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


class LazyTable(dict):
    """A dict that computes a missing entry once, from ``fill(key)``.

    Lookups of present keys stay C-level (``table[key]`` or
    ``map(table.__getitem__, keys)``), which is what the hot paths that
    translate whole key tuples through memo tables rely on.
    """

    __slots__ = ("_fill",)

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


class Relabeling(dict):
    """One value permutation, as a ``value -> relabeled value`` dict.

    ``outputs`` translates whole decided-output tuples (memoised: the
    engine maps the same suffix tuples over and over) and ``inverse`` is
    the reverse permutation, itself a :class:`Relabeling`.
    """

    __slots__ = ("outputs", "inverse")

    def __init__(self, mapping: Mapping, relabel: Any):
        super().__init__(mapping)
        map_output = relabel.map_output
        self.outputs = LazyTable(
            lambda values: tuple([map_output(value, self) for value in values])
        )
        self.inverse: Relabeling | None = None


class ValueCanonicalizer:
    """Canonical relabeling of interchangeable written-but-undecided values.

    For specs whose oracle-assigned values are *interchangeable* — used
    only under equality comparisons, never arithmetic (declared per spec
    via a relabeler, see :class:`repro.shm.engine.ExplorationSpec`) — two
    states differing only by a permutation of the **free** values (those
    the oracle has finished handing out; values still pending hand-out
    are pinned by the committed vector) have isomorphic futures.  The
    canonical representative renumbers free values so their
    first-occurrence order — over the flat cell array, then over each
    live process's acquired-value history in pid order — is ascending.
    The permutation fixes the value *set* (it maps the seen free values
    onto their own sorted order), so it can never collide with values
    held invisibly (by crashed processes or in decided outputs), and it
    is idempotent: canonical states canonicalize to themselves (pinned by
    the quotient property tests).

    Program counters are canonicalized by *re-routing through the step
    table*: the node's recorded result history is relabeled and walked
    from the root (tracing on demand), so the canonical node's pending
    operation is re-derived by the algorithm itself — a relabeled
    history that diverges structurally fails loudly in
    :meth:`CompiledProtocol.extend`'s determinism check rather than
    merging unsoundly.

    Canonicalisation is table-driven: the oracle values held by each
    cell array and each node, the pending-value set per hand-out count
    and the whole relabeling per free-value order (a node map, a cell map
    and the inverse) are each computed once, so a state costs a few
    C-level passes over its key parts.
    """

    def __init__(self, program: CompiledProtocol, relabel: Any):
        self.program = program
        self.relabel = relabel
        if relabel.oracle not in program._oracle_index:
            raise ValueError(
                f"relabeler targets oracle {relabel.oracle!r}; program has "
                f"{program.oracle_names}"
            )
        self._oracle = program._oracle_index[relabel.oracle]
        cell_values = relabel.cell_values
        #: cell array -> oracle values it stores, in first-occurrence order
        self._cells_values = LazyTable(
            lambda cells: tuple(
                dict.fromkeys(
                    value for cell in cells for value in cell_values(cell)
                )
            )
        )
        #: node -> chronological tuple of oracle values its history holds
        #: (negative program counters hold none)
        self._node_values = LazyTable(self._held)
        #: (node, mapping key) -> canonical node
        self._canon_nodes: dict[tuple, int] = {}
        #: free-value order -> (node map, cell-array map, inverse), or None
        #: for the identity
        self._plans = LazyTable(self._plan)
        #: The committed value vector the pending sets below belong to.
        #: The canonicaliser is cached on the program across
        #: explorations, so the vector is keyed by identity.
        self._vector: tuple | None = None
        self._pending: LazyTable | None = None

    def canonical(self, machine: MachineState) -> tuple[tuple | None, dict | None]:
        """``(canonical orbit key, inverse mapping)`` for one state.

        The inverse mapping (canonical value -> this state's value; None
        for the identity) is what replays a memoized suffix counter back
        into this state's frame.
        """
        if machine._generic:
            # Generic shared objects are opaque to the relabeler: their
            # state keys could embed oracle values this pass would have to
            # rewrite.  Fall back to the unrelabeled orbit key (sound,
            # merely coarser-free).
            return machine.orbit_key(), None
        return self.canonical_probe(
            machine,
            (
                tuple(machine._pc),
                tuple(machine._cells),
                tuple(machine._oracle_acquired),
                None,
                -1,
            ),
        )

    def canonical_probe(
        self, machine: MachineState, parts: tuple
    ) -> tuple[tuple, dict | None]:
        """:meth:`canonical` of the successor that ``machine.probe(pid)``
        returned ``parts`` for — without forking or stepping.  (The
        machine itself passes its own parts, with no acquiring oracle.)"""
        pcs, cells, acquired, _decided, oracle = parts
        index = self._oracle
        values = machine._oracle_values[index]
        taken = len(machine._oracle_arrivals[index])
        if oracle == index:
            taken += 1
        # First-occurrence order over the cells, then over each live
        # process's held values in pid order; minus the pending values.
        order = dict.fromkeys(
            chain(
                self._cells_values[cells],
                chain.from_iterable(map(self._node_values.__getitem__, pcs)),
            )
        )
        if values is not self._vector:
            self._vector = values
            self._pending = LazyTable(lambda count: frozenset(values[count:]))
        for value in self._pending[taken]:
            order.pop(value, None)
        plan = self._plans[tuple(order)]
        if plan is None:
            return (pcs, cells, acquired, ()), None
        nodes, cells_map, inverse = plan
        return (tuple(map(nodes, pcs)), cells_map[cells], acquired, ()), inverse

    def _plan(self, free: tuple) -> tuple | None:
        """The relabeling that sorts one free-value order (None when it
        is already sorted): a bound node-map lookup, a cell-array map and
        the inverse :class:`Relabeling`."""
        mapping = {
            src: dst for src, dst in zip(free, sorted(free)) if src != dst
        }
        if not mapping:
            return None
        mapping_key = tuple(sorted(mapping.items()))
        relabel = self.relabel
        canonical_node = self._canonical_node
        nodes = LazyTable(
            lambda node: node
            if node < 0
            else canonical_node(node, mapping, mapping_key)
        )
        map_cell = relabel.map_cell
        cells = LazyTable(
            lambda row: tuple([map_cell(cell, mapping) for cell in row])
        )
        inverse = Relabeling(
            {dst: src for src, dst in mapping.items()}, relabel
        )
        inverse.inverse = Relabeling(mapping, relabel)
        inverse.inverse.inverse = inverse
        return nodes.__getitem__, cells, inverse

    def _values_at(self, node: int) -> tuple:
        """Oracle values a live process at ``node`` has observed, in
        chronological order."""
        return self._node_values[node]

    def _held(self, node: int) -> tuple:
        if node < 0:
            return ()
        program = self.program
        parent = program.parents[node]
        if parent < 0:
            return ()
        return self._node_values[parent] + tuple(
            self.relabel.result_values(program.ops[parent], program.sent[node])
        )

    def _canonical_node(
        self, node: int, mapping: dict, mapping_key: tuple
    ) -> int:
        cached = self._canon_nodes.get((node, mapping_key))
        if cached is not None:
            return cached
        program = self.program
        path: list[int] = []
        cursor = node
        while cursor >= 0:
            path.append(cursor)
            cursor = program.parents[cursor]
        path.reverse()
        relabel = self.relabel
        current = path[0]  # the root: no history to relabel
        for successor in path[1:]:
            parent = current
            result = relabel.map_result(
                program.ops[parent], program.sent[successor], mapping
            )
            child = program.edges[parent].get(result)
            if child is None:
                child = program.extend(parent, result, result)
            current = child
        self._canon_nodes[(node, mapping_key)] = current
        return current
