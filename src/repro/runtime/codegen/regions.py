"""Fusion planner: group a slot plan's tape steps into contraction regions.

The tape executor (:class:`repro.runtime.tape.TapePlan`) pays one Python
closure dispatch, one :class:`MatrixValue` allocation and one full
``count_nonzero`` compaction pass per plan node.  For chains of elementwise
operators over dense operands all of that is overhead: the chain can run as
a handful of raw-ndarray ufunc calls with no materialized
:class:`MatrixValue` intermediates at all.

This module decides *where* that is sound.  It linearizes a slot-space plan
exactly the way ``TapePlan._compile`` does (postorder, object-identity
sharing, each node's operands as :func:`repro.runtime.kernels.bind` gives
them) and then groups maximal single-consumer elementwise chains into
**regions**:

* an *interior* node is an elementwise operator (``ElemMul``/``ElemPlus``/
  ``ElemMinus``/``ElemDiv``/``Power``/``Neg``/``UnaryFunc``) consumed by
  exactly one other node of the same region;
* a region *root* is the consuming operator the chain folds into — either a
  further elementwise node with multiple consumers, or an order-sensitive
  reducer (``Sum``/``RowSums``/``ColSums``/``MatMul``) that the emitted code
  calls through the interpreter's own kernel;
* every other node (fused physical operators, ``Transpose``, constants,
  ``CastScalar``...) becomes a single-node region that executes the original
  kernel — trivially bitwise-identical to the tape.

Zero-skipping discipline (COFFEE's ``ZeroLoopScheduler`` translated to this
runtime): a chain only fuses when every operand feeding it sits in the
``dense`` sparsity band (:func:`repro.canonical.fingerprint.sparsity_band`
over the plan's slot hints).  Sparse-hinted chains stay on the sparse-aware
interpreter kernels, which already skip zeros structurally; fusing them
would densify.  Band-level gating keeps the decision a pure function of the
plan *template*, so one emitted source serves a whole size ladder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.canonical.fingerprint import sparsity_band
from repro.lang import expr as la
from repro.runtime import kernels
from repro.runtime.tape import _slot_index

#: bump when the region/emission semantics change; embedded in emitted
#: sources and in kernel-store keys so stale cached sources can never load
CODEGEN_VERSION = 2

#: operand reference inside a region: ``("val", position)`` reads the shared
#: value vector, ``("tmp", k)`` reads the k-th entry of the region schedule
Operand = Tuple[str, int]

ELEMWISE_TYPES = (
    la.ElemMul,
    la.ElemPlus,
    la.ElemMinus,
    la.ElemDiv,
    la.Power,
    la.Neg,
    la.UnaryFunc,
)

#: node types an elementwise chain may fold into (the region roots)
ROOT_FOLD_TYPES = ELEMWISE_TYPES + (la.Sum, la.RowSums, la.ColSums, la.MatMul)


class CodegenUnsupported(RuntimeError):
    """The plan contains a construct the code generator cannot lower."""


@dataclass
class Region:
    """One contraction region: an optional elementwise chain plus its root.

    ``schedule`` lists ``(node, operands)`` in dependency order with the
    root node last; interiors never escape the region, only the root value
    is written back to the shared value vector at ``out_position``.
    """

    index: int
    out_position: int
    schedule: List[Tuple[la.LAExpr, Tuple[Operand, ...]]]
    #: positions of external values any *elementwise* member reads — these
    #: must be dense at run time for the emitted raw-ndarray body to be
    #: sound; the emitted guard falls back to the kernels otherwise
    guard_positions: Tuple[int, ...]
    #: input-slot indices the region transitively depends on (reuse keying)
    slot_deps: Tuple[int, ...]

    @property
    def root(self) -> la.LAExpr:
        return self.schedule[-1][0]

    @property
    def fused(self) -> bool:
        """True when this region actually fuses work (multi-node chain)."""
        return len(self.schedule) > 1

    @property
    def nodes(self) -> Tuple[la.LAExpr, ...]:
        return tuple(node for node, _ in self.schedule)

    def label(self) -> str:
        def name(node: la.LAExpr) -> str:
            if isinstance(node, la.UnaryFunc):
                return f"UnaryFunc[{node.func}]"
            return type(node).__name__

        if not self.fused:
            return name(self.root)
        interior = "+".join(name(node) for node, _ in self.schedule[:-1])
        return f"Fused[{interior}->{name(self.root)}]"


@dataclass
class RegionPlan:
    """The fusion planner's output: constants, regions, and the layout."""

    n_slots: int
    #: total length of the value vector (slots + constants + region outputs)
    n_positions: int
    #: constant nodes materialized once per plan: ``(position, node)``
    consts: List[Tuple[int, la.LAExpr]]
    regions: List[Region]
    root_position: int

    @property
    def fused_regions(self) -> int:
        return sum(1 for region in self.regions if region.fused)

    @property
    def fused_operators(self) -> int:
        """Fused-work count matching the tape's ``fused_operators`` spirit:
        multi-node chains plus fused physical operators."""
        real_kernels = kernels.for_ring(None)
        return sum(
            1
            for region in self.regions
            if region.fused or kernels.bind(region.root, real_kernels).fused
        )

    def structure_digest(self) -> str:
        """Stable digest of the fusion structure (not the emitted text)."""
        parts: List[str] = [f"v{CODEGEN_VERSION}", f"slots={self.n_slots}"]
        for position, node in self.consts:
            parts.append(f"const@{position}:{_node_token(node)}")
        for region in self.regions:
            ops = ";".join(
                f"{_node_token(node)}({','.join(f'{k}{i}' for k, i in operands)})"
                for node, operands in region.schedule
            )
            parts.append(f"region@{region.out_position}:{ops}")
        parts.append(f"root={self.root_position}")
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _node_token(node: la.LAExpr) -> str:
    """Canonical per-node token for digests (payload included)."""
    if isinstance(node, la.Literal):
        return f"Literal[{node.value!r}]"
    if isinstance(node, la.FilledMatrix):
        return (
            f"Filled[{node.value!r},{node.fill_shape.rows.size},"
            f"{node.fill_shape.cols.size}]"
        )
    if isinstance(node, la.Power):
        return f"Power[{node.exponent!r}]"
    if isinstance(node, la.UnaryFunc):
        return f"UnaryFunc[{node.func}]"
    if isinstance(node, la.WDivMM):
        return f"WDivMM[{node.multiply_left}]"
    return type(node).__name__


@dataclass
class _Scheduled:
    node: la.LAExpr
    position: int
    operands: Tuple[int, ...]
    dep_set: frozenset = field(default_factory=frozenset)


def plan_regions(
    expr: la.LAExpr,
    n_slots: int,
    slot_sparsity: Optional[Mapping[int, Optional[float]]] = None,
) -> RegionPlan:
    """Plan fusion regions for a slot-space expression.

    ``slot_sparsity`` maps slot index to the plan's sparsity hint (missing
    or ``None`` means dense).  Raises :class:`CodegenUnsupported` for nodes
    outside the tape's operator set or symbolic ``FilledMatrix`` dims.
    """
    hints: Mapping[int, Optional[float]] = slot_sparsity or {}
    real_kernels = kernels.for_ring(None)

    consts: List[Tuple[int, la.LAExpr]] = []
    sched: List[_Scheduled] = []
    index: Dict[int, int] = {}
    keep_alive: List[la.LAExpr] = []
    dense: Dict[int, bool] = {}
    dep_sets: Dict[int, frozenset] = {}
    counter = [n_slots]

    def new_position() -> int:
        position = counter[0]
        counter[0] += 1
        return position

    def visit(node: la.LAExpr) -> int:
        known = index.get(id(node))
        if known is not None:
            return known
        keep_alive.append(node)
        if isinstance(node, la.Var):
            slot = _slot_index(node.name, n_slots)
            index[id(node)] = slot
            dense[slot] = sparsity_band(hints.get(slot)) == "dense"
            dep_sets[slot] = frozenset((slot,))
            return slot
        if isinstance(node, la.Literal):
            position = new_position()
            consts.append((position, node))
            index[id(node)] = position
            dense[position] = True
            dep_sets[position] = frozenset()
            return position
        if isinstance(node, la.FilledMatrix):
            if node.fill_shape.rows.size is None or node.fill_shape.cols.size is None:
                raise CodegenUnsupported(
                    "FilledMatrix requires concrete dimensions to execute"
                )
            position = new_position()
            consts.append((position, node))
            index[id(node)] = position
            # MatrixValue.filled(0.0, ...) materializes an empty CSR matrix
            dense[position] = node.value != 0.0
            dep_sets[position] = frozenset()
            return position
        try:
            children = kernels.bind(node, real_kernels).operands
        except kernels.ExecutionError as error:
            raise CodegenUnsupported(str(error)) from error
        operands = tuple(visit(child) for child in children)
        position = new_position()
        index[id(node)] = position
        dep_sets[position] = frozenset().union(
            *(dep_sets[op] for op in operands)
        )
        dense[position] = _predict_dense(node, operands, dense)
        sched.append(_Scheduled(node, position, operands, dep_sets[position]))
        return position

    root_position = visit(expr)
    by_position = {entry.position: i for i, entry in enumerate(sched)}

    # -- consumer counts (per occurrence; the plan root has an external one)
    consumers: Dict[int, List[int]] = {}
    for i, entry in enumerate(sched):
        for op in entry.operands:
            consumers.setdefault(op, []).append(i)
    consumers.setdefault(root_position, []).append(-1)

    # -- fusion decision: which scheduled nodes fold into their consumer
    fuse_into: Dict[int, int] = {}
    for i, entry in enumerate(sched):
        if not isinstance(entry.node, ELEMWISE_TYPES):
            continue
        users = consumers.get(entry.position, [])
        if len(users) != 1 or users[0] == -1:
            continue
        consumer = sched[users[0]]
        if not isinstance(consumer.node, ROOT_FOLD_TYPES):
            continue
        # zero-skipping gate: the chain value and everything feeding it must
        # sit in the dense band, otherwise the sparse-aware kernels win
        if not dense[entry.position]:
            continue
        if not all(dense[op] for op in entry.operands):
            continue
        fuse_into[i] = users[0]

    # -- region assignment (reverse order: consumers are scheduled later)
    region_root: Dict[int, int] = {}  # sched index -> sched index of its root
    for i in range(len(sched) - 1, -1, -1):
        target = fuse_into.get(i)
        if target is not None and target in region_root:
            region_root[i] = region_root[target]
        elif target is not None:
            region_root[i] = region_root.setdefault(target, target)
        else:
            region_root.setdefault(i, i)

    members: Dict[int, List[int]] = {}
    for i in range(len(sched)):
        members.setdefault(region_root[i], []).append(i)

    regions: List[Region] = []
    for root_idx in sorted(members):
        group = sorted(members[root_idx])
        group.remove(root_idx)
        group.append(root_idx)  # interiors in schedule order, root last
        local = {sched[i].position: k for k, i in enumerate(group[:-1])}
        schedule: List[Tuple[la.LAExpr, Tuple[Operand, ...]]] = []
        guard: List[int] = []
        for i in group:
            entry = sched[i]
            refs: List[Operand] = []
            for op in entry.operands:
                tmp = local.get(op)
                if tmp is not None:
                    refs.append(("tmp", tmp))
                else:
                    refs.append(("val", op))
                    if isinstance(entry.node, ELEMWISE_TYPES) and op not in guard:
                        guard.append(op)
            schedule.append((entry.node, tuple(refs)))
        root_entry = sched[root_idx]
        regions.append(
            Region(
                index=len(regions),
                out_position=root_entry.position,
                schedule=schedule,
                guard_positions=tuple(guard),
                slot_deps=tuple(sorted(root_entry.dep_set)),
            )
        )

    return RegionPlan(
        n_slots=n_slots,
        n_positions=counter[0],
        consts=consts,
        regions=regions,
        root_position=root_position,
    )


def _predict_dense(
    node: la.LAExpr, operands: Sequence[int], dense: Dict[int, bool]
) -> bool:
    """Template-stable density prediction for the fusion gate.

    Only node types and sparsity *bands* flow in, never runtime data, so
    one template always plans the same regions.  Predictions err on the
    sparse side: a wrong "dense" merely routes a region through its runtime
    guard to the interpreter fallback.
    """
    ops_dense = all(dense[op] for op in operands)
    if isinstance(node, (ELEMWISE_TYPES, la.MatMul, la.Transpose)):
        return ops_dense
    if isinstance(node, (la.Sum, la.CastScalar, la.WSLoss, la.WCeMM)):
        return True  # scalars are always dense
    if isinstance(node, (la.RowSums, la.ColSums)):
        return True  # sum kernels return dense arrays on either input
    if isinstance(node, (la.SProp, la.MMChain)):
        return True  # both kernels produce dense (then compacted) results
    return False  # WDivMM and anything else: conservatively sparse
