"""Shared pieces of the benchmark: statistics, the reference oracle, inputs.

The oracle never trusts a compiled plan.  Real-ring roots are checked
against the *original* expression run through the reference interpreter
(:func:`repro.runtime.engine.execute`) with ``rtol = atol = 1e-8``; the
SSSP/REACH roots are checked bitwise against the workload's own NumPy
``reference`` evaluator (their inputs are dyadic, so every re-association
is exact).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.lang import dag
from repro.runtime.data import MatrixValue
from repro.runtime.engine import execute
from repro.workloads import get_semiring_workload, get_workload, workload_names

#: parameter-side inputs of each real family (everything else is data that
#: a deployed model pins); the same split ``benchmarks/bench_serve.py`` uses
VARYING: Dict[str, Tuple[str, ...]] = {
    "ALS": ("U", "V"),
    "GLM": ("w", "p", "mu", "beta"),
    "SVM": ("w", "s"),
    "MLR": ("P", "v"),
    "PNMF": ("W", "H"),
}

SEMIRING_FAMILIES = ("SSSP", "REACH")

RTOL = ATOL = 1e-8

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q, method="nearest"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_seconds() -> float:
    """CPU seconds the hypervisor has taken from this machine (0 if unknown)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: median seconds of one ``_reference_work()`` on the host the benchmark was
#: built on (shared 2-vCPU x86-64, Python 3.11, NumPy 2.4, OpenBLAS 0.3.31)
REFERENCE_S = 0.0017
#: runs of the reference work per checkpoint; the checkpoint takes their median
CALIBRATION_REPS = 3

_REFERENCE_SMALL = np.random.default_rng(0).random((64, 64))
_REFERENCE_LARGE = np.random.default_rng(1).random((400, 200))
_REFERENCE_SPARSE = sparse.random(2000, 500, density=0.01, random_state=2, format="csr")
_REFERENCE_VECTOR = np.random.default_rng(3).random((500, 1))


def _reference_work() -> float:
    """A fixed mix of interpreter, small dense, memory-bound and sparse work.

    It is independent of the program.  Of the mixes tried, this one tracked
    both the compile times (interpreter-bound) and the plan run times
    (NumPy/SciPy-bound) of the workload roots most closely.
    """
    total = 0
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i & 63] = i * 3 % 7
        total += table[i & 63]
    x = _REFERENCE_SMALL
    for _ in range(8):
        x = (_REFERENCE_SMALL @ x) * 0.01 + np.exp(-x)
    for _ in range(3):
        y = _REFERENCE_LARGE * 1.5 + _REFERENCE_LARGE / 3.0
        total += float(np.exp(-y).sum(axis=0)[0])
        total += float((_REFERENCE_SPARSE @ _REFERENCE_VECTOR)[0, 0])
    return total + float(x.sum())


class HostSpeed:
    """Rescales wall time on a shared host to the reference host speed.

    A shared host's speed drifts by up to 40% in phases of seconds to
    minutes, and every timing of a run moves with it.  So each timed stretch
    of a run lies between two checkpoints, and a checkpoint times a fixed
    reference workload.  The stretch's wall seconds times
    ``REFERENCE_S / reference seconds`` (the mean factor of its two
    checkpoints) is what it would have taken at the reference speed.  A
    change to the program moves the rescaled figure as it moves the wall
    time; a change of host speed moves the program and the reference alike.
    """

    def __init__(self) -> None:
        self.factors: List[float] = []

    def checkpoint(self) -> float:
        """Time the reference now; the factor of the stretch since the last checkpoint."""
        times = []
        for _ in range(CALIBRATION_REPS):
            started = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - started)
        factor = REFERENCE_S / median(times)
        previous = self.factors[-1] if self.factors else factor
        self.factors.append(factor)
        return (previous + factor) / 2.0

    def describe(self) -> str:
        factors = self.factors or [1.0]
        return (f"host speed factor (reference / measured): median {median(factors):.3f}, "
                f"min {min(factors):.3f}, max {max(factors):.3f} over {len(self.factors)} "
                f"checkpoints")


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


@dataclass
class Root:
    """One workload root with the inputs it binds."""

    family: str
    name: str
    expr: object
    workload: object
    variables: Tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.family}/{self.name}"

    @property
    def ring(self) -> str:
        return self.workload.semiring


def build_roots(size: str, semiring: bool) -> List[Root]:
    """Every real root at ``size``, plus the SSSP/REACH roots if asked."""
    workloads = [get_workload(name, size) for name in workload_names()]
    if semiring:
        workloads += [get_semiring_workload(name, size) for name in SEMIRING_FAMILIES]
    return [
        Root(
            family=workload.name,
            name=name,
            expr=expr,
            workload=workload,
            variables=tuple(var.name for var in dag.variables(expr)),
        )
        for workload in workloads
        for name, expr in workload.roots.items()
    ]


def feed(root: Root, inputs: Mapping[str, object]) -> Dict[str, object]:
    """The inputs ``root`` binds, filtered out of a family-wide input set."""
    return {name: inputs[name] for name in root.variables}


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def reference_result(root: Root, inputs: Mapping[str, MatrixValue]):
    """The independent reference value of ``root`` on ``inputs``.

    Kept in the interpreter's own representation: large sparse results stay
    sparse, so references for many input versions fit in memory.  The NumPy
    references of SSSP/REACH give scalars as 0-d arrays; they are shaped
    like the expression, as every compiled plan's result is.
    """
    if root.ring == "real":
        return execute(root.expr, feed(root, inputs)).value.data
    shape = root.expr.shape
    reference = np.asarray(root.workload.reference(dict(inputs))[root.name])
    return reference.reshape(shape.rows.size, shape.cols.size)


@dataclass
class Oracle:
    """Counts every checked output and keeps the first few mismatches."""

    checked: int = 0
    mismatches: int = 0
    examples: List[str] = field(default_factory=list)

    def check(self, label: str, root: Root, got: object, expected, seen: object = None) -> bool:
        """Whether ``got`` matches ``expected``.

        ``seen`` is an earlier output that already matched ``expected``; a
        ``got`` bitwise identical to it passes without the full comparison
        (execution is deterministic, so repeats are cheap to confirm).
        """
        self.checked += 1
        if seen is not None and _identical(got, seen):
            return True
        if _matches(root.ring == "real", got, expected):
            return True
        self.mismatches += 1
        if len(self.examples) < 5:
            self.examples.append(label)
        return False

    def fail(self, label: str) -> None:
        """Count an output that never arrived (error, shed) as a mismatch."""
        self.checked += 1
        self.mismatches += 1
        if len(self.examples) < 5:
            self.examples.append(label)


def _identical(a: MatrixValue, b: MatrixValue) -> bool:
    x, y = a.data, b.data
    if x.shape != y.shape or sparse.issparse(x) != sparse.issparse(y):
        return False
    if sparse.issparse(x):
        return (np.array_equal(x.indptr, y.indptr) and np.array_equal(x.indices, y.indices)
                and np.array_equal(x.data, y.data))
    return bool(np.array_equal(x, y))


def _matches(real: bool, got: object, expected) -> bool:
    """``allclose`` (real ring) or bitwise equality, dense or sparse."""
    value = got.data if isinstance(got, MatrixValue) else got
    if sparse.issparse(value) or sparse.issparse(expected):
        if value.shape != expected.shape:
            return False
        a, b = sparse.csr_matrix(value), sparse.csr_matrix(expected)
        if not a.has_sorted_indices:
            a = a.sorted_indices()
        if not b.has_sorted_indices:
            b = b.sorted_indices()
        if np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices):
            # same sparsity structure: compare the stored values directly
            if not real:
                return bool(np.array_equal(a.data, b.data))
            return bool(np.allclose(a.data, b.data, rtol=RTOL, atol=ATOL))
        if not real:
            return (a != b).nnz == 0
        # |a - b| <= atol + rtol * |b| everywhere; implicit zeros pass
        gap = abs(a - b) - RTOL * abs(b)
        return gap.nnz == 0 or bool(gap.max() <= ATOL)
    a = np.asarray(value, dtype=float)
    b = np.asarray(expected, dtype=float)
    # exact shapes: a transposed vector is a wrong result, not a close one
    if a.shape != b.shape:
        return False
    if real:
        return bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))
    return bool(np.array_equal(a, b))


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Mapping[str, Metric]
) -> Dict[str, object]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metric.value), "unit": metric.unit}
            for name, metric in metrics.items()
        },
    }


def describe_metrics(metrics: Mapping[str, Metric]) -> List[str]:
    return [
        f"metric {name} = {metric.value:.6g} {metric.unit} (n={metric.samples})"
        for name, metric in metrics.items()
    ]

