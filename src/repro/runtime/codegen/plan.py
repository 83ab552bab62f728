"""FusedPlan: a compiled region module behind the TapePlan interface.

A :class:`FusedPlan` executes the module emitted by
:mod:`repro.runtime.codegen.emit` and is drop-in compatible with
:class:`repro.runtime.tape.TapePlan` everywhere the serving tier cares:
``execute(values, reuse, faults, profiler)``, ``__len__``, ``operators``,
``fused_operators``, ``step_node``/``step_group``/``step_label``.  Hooks
(reuse, fault injection, profiling) operate at *region* granularity — a
region is the unit of work, so ``tape.step`` faults, reuse entries and
profile rows map one-to-one onto regions.

Every guarded region owns an interpreter fallback built from the same
:func:`~repro.runtime.kernels.bind` binding the tape uses: when a region's
dense guard trips at run time (a hinted-dense input arrived sparse), the
region executes step-by-step through the kernels and stays bitwise
identical to the tape.  Region roots and single-node regions call their
bound kernel through ``rt.kernels`` as well.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lang import expr as la
from repro.reliability.faults import FaultInjector
from repro.runtime import kernels
from repro.runtime.codegen.regions import Region, RegionPlan
from repro.runtime.data import MatrixValue
from repro.runtime.engine import ExecutionError, ExecutionResult, ExecutionStats
from repro.runtime.semiring import Semiring
from repro.runtime.tape import (
    StepReuseCache,
    TapeProfilerLike,
    ValuePool,
    run_hooked_steps,
)


def _ediv(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Raw-ndarray twin of ``kernels.elem_div`` (0/0 -> 0 convention)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(left, right)
        return np.where(np.isfinite(out), out, 0.0)


def _boundary(array: np.ndarray) -> MatrixValue:
    """Replay the interpreter's representation decision at a region edge."""
    return MatrixValue(array).compacted()


class _Runtime:
    """The ``rt`` namespace emitted modules execute against."""

    __slots__ = (
        "kernels",
        "fallback",
        "boundary",
        "ediv",
        "u_exp",
        "u_log",
        "u_sqrt",
        "u_abs",
        "u_sign",
        "u_round",
        "u_sigmoid",
    )

    def __init__(
        self,
        region_kernels: Tuple[Callable[..., MatrixValue], ...],
        fallback: Callable[[int, List[Optional[MatrixValue]]], MatrixValue],
    ) -> None:
        #: per region, the bound kernel of its root
        self.kernels = region_kernels
        self.fallback = fallback
        self.boundary = _boundary
        self.ediv = _ediv
        for name, fn in kernels._UNARY_KERNELS.items():
            setattr(self, f"u_{name}", fn)


def _build_fallback(
    region: Region, kernel_set: kernels.KernelSet
) -> Callable[[List[Optional[MatrixValue]]], MatrixValue]:
    """Step-by-step interpreter execution of one region (guard fallback)."""
    steps = [
        (kernels.bind(node, kernel_set).kernel, operands)
        for node, operands in region.schedule
    ]

    def run_region(vals: List[Optional[MatrixValue]]) -> MatrixValue:
        tmps: List[Optional[MatrixValue]] = [None] * len(steps)
        value: Optional[MatrixValue] = None
        for k, (fn, operands) in enumerate(steps):
            args = [
                tmps[ref] if kind == "tmp" else vals[ref] for kind, ref in operands
            ]
            value = fn(*args)
            tmps[k] = value
        assert value is not None
        return value

    return run_region


class FusedPlan:
    """A slot-space plan compiled to fused regions (TapePlan-compatible)."""

    def __init__(
        self,
        region_plan: RegionPlan,
        namespace: Dict[str, object],
        source: str,
        ring: Semiring,
    ) -> None:
        self.ring = ring
        self._kernels = kernels.for_ring(ring)
        self.n_slots = region_plan.n_slots
        self.source = source
        self.meta: Dict[str, object] = dict(namespace["META"])  # type: ignore[arg-type]
        self._run = namespace["run"]
        self._region_fns: Sequence[Callable] = namespace["REGIONS"]  # type: ignore[assignment]
        self._plan = region_plan
        self._regions = region_plan.regions
        self._root = region_plan.root_position
        self._n_positions = region_plan.n_positions
        self._consts: List[Tuple[int, MatrixValue]] = [
            (position, kernels.materialize(node, self._kernels))
            for position, node in region_plan.consts
        ]
        self._pool = ValuePool(self._n_positions, prefill=self._consts)
        self._fallbacks: Dict[int, Callable] = {
            region.index: _build_fallback(region, self._kernels)
            for region in self._regions
            if region.fused
        }
        self._fallback_runs = 0
        self._rt = _Runtime(
            tuple(kernels.bind(region.root, self._kernels).kernel for region in self._regions),
            self._run_fallback,
        )
        #: ``(step, output position, slot deps)`` per region for hooked runs
        self._hooked_steps = [
            (partial(fn, rt=self._rt), region.out_position, region.slot_deps)
            for fn, region in zip(self._region_fns, self._regions)
        ]
        self._fused_operators = region_plan.fused_operators

    def _run_fallback(
        self, region_index: int, vals: List[Optional[MatrixValue]]
    ) -> MatrixValue:
        self._fallback_runs += 1
        return self._fallbacks[region_index](vals)

    # -- introspection (TapePlan interface) ------------------------------------
    def __len__(self) -> int:
        return len(self._regions)

    @property
    def operators(self) -> int:
        return len(self._regions)

    @property
    def fused_operators(self) -> int:
        return self._fused_operators

    @property
    def fused_regions(self) -> int:
        return self._plan.fused_regions

    @property
    def fallback_runs(self) -> int:
        """How many region executions took the interpreter fallback."""
        return self._fallback_runs

    def step_node(self, index: int) -> Optional[la.LAExpr]:
        return self._regions[index].root

    def step_group(self, index: int) -> Tuple[la.LAExpr, ...]:
        """Every plan node region ``index`` materializes (root last)."""
        return self._regions[index].nodes

    def step_label(self, index: int) -> str:
        return self._regions[index].label()

    # -- execution -------------------------------------------------------------
    def execute(
        self,
        values: Sequence[MatrixValue],
        reuse: Optional[StepReuseCache] = None,
        faults: Optional[FaultInjector] = None,
        profiler: Optional[TapeProfilerLike] = None,
    ) -> ExecutionResult:
        """Run the compiled regions over a positional slot-value vector.

        Same contract as :meth:`TapePlan.execute`, through the same hooked
        step loop; the ``tape.step`` fault site, reuse entries and profiler
        rows are keyed by region index.
        """
        if len(values) != self.n_slots:
            raise ExecutionError(
                f"fused plan expects {self.n_slots} slot values, got {len(values)}"
            )
        start = time.perf_counter()
        vals = self._pool.acquire()
        vals[: self.n_slots] = values
        try:
            if reuse is None and faults is None and profiler is None:
                value = self._run(vals, self._rt)
            else:
                run_hooked_steps(vals, self._hooked_steps, reuse, faults, profiler)
                value = vals[self._root]
        finally:
            self._pool.release(vals)
        stats = ExecutionStats(
            elapsed=time.perf_counter() - start,
            operators_executed=len(self._regions),
            fused_operators=self._fused_operators,
        )
        if value is None:  # pragma: no cover - root always materialized
            raise ExecutionError("fused plan produced no root value")
        return ExecutionResult(value=value, stats=stats)
