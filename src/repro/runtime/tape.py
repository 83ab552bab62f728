"""Tape-compiled execution: the serving-path fast lane of the runtime.

:class:`repro.runtime.engine.Executor` interprets an LA DAG recursively on
every run — structural hashing for runtime CSE, per-intermediate bufferpool
accounting, a kernel binding per node.  That bookkeeping is what the
run-time figures report, but a serving tier executing one cached plan
millions of times pays it on every request.

A :class:`TapePlan` compiles a *slot-space* plan (as stored in
:class:`repro.api.plan.PlanEntry`) once into a flat instruction tape:

* the DAG is linearized bottom-up with **object-identity sharing** (no
  structural hashing at run time — sharing was already decided at compile
  time);
* every step is a closure over the kernel :func:`repro.runtime.kernels.bind`
  picks for its node and its operand positions, so a run is one tight loop
  over the tape;
* constants (``Literal``, ``FilledMatrix``) are materialized once at tape
  compile time, not per request;
* each step records which input **slots** it transitively depends on, which
  enables the pinned-parameter reuse below.

**Pinned-parameter reuse.**  Serving requests typically rebind only the
small query-side inputs (a parameter vector, a mini-batch) while the big
data matrices stay the *same objects* request after request — the model's
pinned state.  A :class:`StepReuseCache` remembers, per tape step, the last
result together with strong references to the exact slot values it was
computed from; a later run reuses the result only when every dependency
``is`` the remembered object.  Identity (not equality) makes the check O(1)
and, because the cache keeps the operands alive, immune to id recycling.
Steps fed by varying inputs simply miss and recompute.  Callers that mutate
input arrays in place must not share value objects across requests (the
same contract NumPy views have always had).

The tape produces bitwise identical results to the interpreter — both run
the same :func:`~repro.runtime.kernels.bind` binding per node — and the
unit suite asserts parity on every workload.  What it does *not*
produce is the interpreter's per-intermediate cell/nnz accounting;
:attr:`ExecutionStats.operators_executed` and ``fused_operators`` are
filled from tape metadata and ``elapsed`` is measured, the rest stays zero.
Use the classic :func:`repro.runtime.execute_slots` when the bufferpool
statistics matter more than latency.
"""

from __future__ import annotations

import time
from itertools import count
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.lang import expr as la
from repro.reliability.faults import FaultInjector
from repro.runtime import kernels
from repro.runtime.data import MatrixValue
from repro.runtime.engine import (
    ExecutionError,
    ExecutionResult,
    ExecutionStats,
    slot_name,
)
from repro.runtime.semiring import Semiring, resolve_semiring

#: one compiled instruction: reads operand positions from the value vector,
#: writes its own position
StepFn = Callable[[List[Optional[MatrixValue]]], MatrixValue]


class TapeProfilerLike:
    """Structural interface of the per-step profiler hook.

    Kept here (rather than importing :mod:`repro.obs.profile`) so the
    runtime has no dependency on the observability package; the obs
    profiler satisfies it.
    """

    def record(
        self, step: int, seconds: float, value: Optional[MatrixValue], reused: bool
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class ValuePool:
    """A bounded pool of reusable value-vector scratch buffers.

    ``TapePlan.execute`` used to rebuild its scratch list
    (``list(values) + [None] * len(steps)``) on every request — three
    allocations per execution on the serving fast path.  The pool hands out
    preallocated buffers instead; ``prefill`` entries (position, value) are
    constants that survive across runs, everything else is cleared on
    release so request data is never pinned.

    Thread-safety relies on ``list.append``/``list.pop`` being atomic under
    the GIL; a lost race simply allocates one extra buffer.
    """

    __slots__ = ("_size", "_prefill", "_clear", "_buffers", "_limit")

    def __init__(
        self,
        size: int,
        prefill: Sequence[Tuple[int, MatrixValue]] = (),
        limit: int = 4,
    ) -> None:
        self._size = size
        self._prefill = tuple(prefill)
        pinned = {position for position, _ in self._prefill}
        self._clear = tuple(i for i in range(size) if i not in pinned)
        self._buffers: List[List[Optional[MatrixValue]]] = []
        self._limit = limit

    def acquire(self) -> List[Optional[MatrixValue]]:
        try:
            return self._buffers.pop()
        except IndexError:
            buffer: List[Optional[MatrixValue]] = [None] * self._size
            for position, value in self._prefill:
                buffer[position] = value
            return buffer

    def release(self, buffer: List[Optional[MatrixValue]]) -> None:
        if len(self._buffers) < self._limit:
            for position in self._clear:
                buffer[position] = None
            self._buffers.append(buffer)


class StepReuseCache:
    """Per-plan memo of step results keyed by the identity of their inputs.

    Holds at most one entry per tape step: ``(operand values, result)``.
    ``operand values`` are the exact slot objects the result was computed
    from; a hit requires every current operand to be the *same object*.
    The cache is not thread-safe — each serving shard owns one per plan.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Tuple[MatrixValue, ...], MatrixValue]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, step: int, operands: Tuple[MatrixValue, ...]) -> Optional[MatrixValue]:
        entry = self._entries.get(step)
        if entry is not None and len(entry[0]) == len(operands):
            for cached, current in zip(entry[0], operands):
                if cached is not current:
                    break
            else:
                self.hits += 1
                return entry[1]
        self.misses += 1
        return None

    def store(self, step: int, operands: Tuple[MatrixValue, ...], value: MatrixValue) -> None:
        self._entries[step] = (operands, value)

    def clear(self) -> None:
        self._entries.clear()


class TapePlan:
    """A slot-space LA plan compiled to a flat instruction tape.

    ``ring`` selects the executing semiring (object, registered name, or
    ``None`` for real arithmetic).  Step closures capture the ring's kernel
    set at compile time, so the per-request loop pays no ring dispatch; the
    default real tape captures exactly the historical kernels.
    """

    def __init__(
        self,
        expr: la.LAExpr,
        n_slots: int,
        ring: Union[str, Semiring, None] = None,
    ) -> None:
        self.ring = resolve_semiring(ring)
        self._kernels = kernels.for_ring(self.ring)
        self.n_slots = n_slots
        #: closures executed in order; step ``j`` writes position ``n_slots+j``
        self._steps: List[StepFn] = []
        #: per step: sorted tuple of input-slot indices it transitively reads
        self._slot_deps: List[Tuple[int, ...]] = []
        #: per step: the plan node it materializes (None for synthesized
        #: constants); profilers use this to attribute time to plan nodes
        self._step_nodes: List[Optional[la.LAExpr]] = []
        self._fused_steps = 0
        self._root = self._compile(expr)
        self._pool = ValuePool(self.n_slots + len(self._steps))

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._steps)

    @property
    def operators(self) -> int:
        return len(self._steps)

    @property
    def fused_operators(self) -> int:
        return self._fused_steps

    def step_node(self, index: int) -> Optional[la.LAExpr]:
        """The plan node tape step ``index`` materializes (None for constants)."""
        return self._step_nodes[index]

    def step_group(self, index: int) -> Tuple[la.LAExpr, ...]:
        """All plan nodes whose work step ``index`` performs (root last).

        One node per step on a plain tape; fused executors override the
        same interface so profilers can attribute a region's wall time to
        every node it folded instead of just the first.
        """
        node = self._step_nodes[index]
        return () if node is None else (node,)

    def step_label(self, index: int) -> str:
        """Human-readable operator label for tape step ``index``."""
        node = self._step_nodes[index]
        if node is None:
            return "Const"
        if isinstance(node, la.UnaryFunc):
            return f"UnaryFunc[{node.func}]"
        return type(node).__name__

    # -- execution -------------------------------------------------------------
    def execute(
        self,
        values: Sequence[MatrixValue],
        reuse: Optional[StepReuseCache] = None,
        faults: Optional[FaultInjector] = None,
        profiler: Optional["TapeProfilerLike"] = None,
    ) -> ExecutionResult:
        """Run the tape over a positional slot-value vector.

        ``values[i]`` binds slot ``i`` (already coerced to
        :class:`MatrixValue` — plans validate and coerce during binding).
        With ``reuse``, steps whose exact input objects were seen before
        return the remembered result instead of recomputing.

        Fault contract (``tape.step``): with ``faults`` given, the site is
        checked before every step with the step index as its key — it
        models a transient kernel fault mid-plan.  An injected retriable
        error aborts this run (no partial result escapes; the pooled value
        vector is cleared on release) and the serving retry loop
        re-executes the pure tape from scratch.  The ``faults is None``
        default keeps the production loop free of per-step checks.

        With ``profiler`` (see :class:`repro.obs.profile.TapeProfiler`),
        every step is individually timed and its output recorded, which
        is what attributes wall-time and intermediate cells to plan
        nodes.  All three hooks default to ``None`` so the production
        loop stays a bare dispatch over the tape; hooked runs go through
        :func:`run_hooked_steps`, which the fused tier shares.
        """
        if len(values) != self.n_slots:
            raise ExecutionError(
                f"tape expects {self.n_slots} slot values, got {len(values)}"
            )
        start = time.perf_counter()
        base = self.n_slots
        vals = self._pool.acquire()
        vals[:base] = values
        try:
            if reuse is None and faults is None and profiler is None:
                for index, step in enumerate(self._steps):
                    vals[base + index] = step(vals)
            else:
                run_hooked_steps(
                    vals,
                    zip(self._steps, count(base), self._slot_deps),
                    reuse,
                    faults,
                    profiler,
                )
            value = vals[self._root]
        finally:
            self._pool.release(vals)
        stats = ExecutionStats(
            elapsed=time.perf_counter() - start,
            operators_executed=len(self._steps),
            fused_operators=self._fused_steps,
        )
        if value is None:  # pragma: no cover - root always materialized
            raise ExecutionError("tape produced no root value")
        return ExecutionResult(value=value, stats=stats)

    # -- compilation -----------------------------------------------------------
    def _compile(self, expr: la.LAExpr) -> int:
        k = self._kernels
        positions: Dict[int, int] = {}
        deps: Dict[int, frozenset] = {}
        keep_alive: List[la.LAExpr] = []  # pins node ids for the memo's lifetime

        def visit(node: la.LAExpr) -> int:
            known = positions.get(id(node))
            if known is not None:
                return known
            keep_alive.append(node)
            if isinstance(node, la.Var):
                position = _slot_index(node.name, self.n_slots)
                dep_set = frozenset((position,))
            else:
                if isinstance(node, (la.Literal, la.FilledMatrix)):
                    # constants are materialized once, not per request
                    constant = kernels.materialize(node, k)
                    step: StepFn = lambda vals: constant
                    dep_set, fused = frozenset(), False
                else:
                    binding = kernels.bind(node, k)
                    args = [visit(child) for child in binding.operands]
                    dep_set = frozenset().union(*(deps[arg] for arg in args))
                    step, fused = _step(binding.kernel, args), binding.fused
                position = self.n_slots + len(self._steps)
                self._steps.append(step)
                self._slot_deps.append(tuple(sorted(dep_set)))
                self._step_nodes.append(node)
                self._fused_steps += fused
            positions[id(node)] = position
            deps[position] = dep_set
            return position

        return visit(expr)


def _step(kernel: Callable[..., MatrixValue], args: Sequence[int]) -> StepFn:
    """A tape instruction: ``kernel`` over the values at positions ``args``."""
    if len(args) == 1:
        (a,) = args
        return lambda vals: kernel(vals[a])
    if len(args) == 2:
        a, b = args
        return lambda vals: kernel(vals[a], vals[b])
    return lambda vals: kernel(*[vals[arg] for arg in args])


def run_hooked_steps(
    vals: List[Optional[MatrixValue]],
    steps: Iterable[Tuple[StepFn, int, Tuple[int, ...]]],
    reuse: Optional[StepReuseCache],
    faults: Optional[FaultInjector],
    profiler: Optional[TapeProfilerLike],
) -> None:
    """Run ``(step, output position, slot deps)`` triples with serving hooks.

    The one hooked step loop of :meth:`TapePlan.execute` and
    :meth:`repro.runtime.codegen.FusedPlan.execute`; step ``i`` of
    ``steps`` is the ``tape.step`` fault key, the reuse-cache entry and the
    profiler row ``i``.
    """
    for index, (step, out, deps) in enumerate(steps):
        if faults is not None:
            faults.check("tape.step", str(index))
        step_start = time.perf_counter() if profiler is not None else 0.0
        reused = False
        if reuse is not None and deps:
            operands = tuple(vals[slot] for slot in deps)
            value = reuse.lookup(index, operands)
            if value is not None:
                reused = True
            else:
                value = step(vals)
                reuse.store(index, operands, value)
        else:
            value = step(vals)
        vals[out] = value
        if profiler is not None:
            profiler.record(index, time.perf_counter() - step_start, value, reused)


def _slot_index(name: str, n_slots: int) -> int:
    """Parse a slot variable name (``@i``) into its position, validating range."""
    expected_prefix = slot_name(0)[:-1]
    if not name.startswith(expected_prefix):
        raise ExecutionError(
            f"tape plans execute slot-space expressions only; variable {name!r} "
            f"is not a slot (expected names like {slot_name(0)!r})"
        )
    try:
        slot = int(name[len(expected_prefix):])
    except ValueError as error:
        raise ExecutionError(f"malformed slot variable {name!r}") from error
    if not 0 <= slot < n_slots:
        raise ExecutionError(
            f"slot variable {name!r} out of range for {n_slots} bound slots"
        )
    return slot
