"""Python source backend: emit one compiled function per region plan.

The emitted module is deterministic text — a pure function of the
:class:`~repro.runtime.codegen.regions.RegionPlan` — which is what makes it
cacheable in-process (keyed by source hash) and through the
:class:`~repro.serialize.store.PlanStore` (keyed by template/config digest).
Constants are *not* baked into the source; they live on the runtime
namespace (``rt``), so the source stays size-free and one cached module
serves a whole plan-template size ladder.

Bitwise-parity contract (the repo convention: ``np.array_equal`` against
the interpreter):

* single-node regions and kernel-call region roots call the interpreter's
  own bound kernel (``rt.kernels[i]``, from :func:`repro.runtime.kernels.
  bind`) — identical by construction;
* multi-node regions compute interiors on raw dense ndarrays using exactly
  the kernels' formulas in the kernels' operand order (``l + -1.0 * r`` for
  subtraction, ``x * -1.0`` for negation, the same masked ``np.divide`` for
  division) — for finite data these are value-identical to any sparse
  detour the interpreter might have taken;
* at every order-sensitive boundary (a ``Sum``/``RowSums``/``ColSums``/
  ``MatMul`` root, or a chain value leaving the region) the emitted code
  replays the interpreter's representation decision via ``rt.boundary`` =
  ``MatrixValue(t).compacted()`` before handing the value to the kernel, so
  downstream accumulation order and dense/sparse representation match the
  tape exactly;
* every region with a raw-ndarray body is guarded: if any elementwise
  operand is sparse at run time, ``rt.fallback`` executes the region with
  the interpreter kernels step by step.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.lang import expr as la
from repro.runtime.codegen.regions import (
    CODEGEN_VERSION,
    ELEMWISE_TYPES,
    Operand,
    Region,
    RegionPlan,
)


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def emit_source(plan: RegionPlan, ring_name: str) -> str:
    """Emit the module source for one region plan (deterministic text)."""
    lines: List[str] = [
        f"# repro-codegen v{CODEGEN_VERSION} ring={ring_name} "
        f"regions={len(plan.regions)} fused={plan.fused_regions}",
        '"""Generated fused-kernel module - do not edit (see docs/codegen.md)."""',
        "",
        "import numpy as np",
        "",
    ]
    for region in plan.regions:
        lines.extend(_emit_region(region))
        lines.append("")
    lines.append("def run(vals, rt):")
    for region in plan.regions:
        lines.append(
            f"    vals[{region.out_position}] = _region_{region.index}(vals, rt)"
        )
    lines.append(f"    return vals[{plan.root_position}]")
    lines.append("")
    region_names = ", ".join(f"_region_{r.index}" for r in plan.regions)
    trailing = "," if len(plan.regions) == 1 else ""
    lines.append(f"REGIONS = ({region_names}{trailing})")
    lines.append(
        "META = {"
        f'"version": {CODEGEN_VERSION}, "ring": {ring_name!r}, '
        f'"regions": {len(plan.regions)}, '
        f'"fused_regions": {plan.fused_regions}, '
        f'"fused_operators": {plan.fused_operators}'
        "}"
    )
    lines.append("")
    return "\n".join(lines)


def _emit_region(region: Region) -> List[str]:
    if not region.fused:
        operands = region.schedule[0][1]
        return [
            f"def _region_{region.index}(vals, rt):",
            f"    return {_kernel_call(region, [_val_ref(op) for op in operands])}",
        ]
    return _emit_fused_region(region)


def _val_ref(operand: Operand) -> str:
    kind, value = operand
    if kind != "val":  # pragma: no cover - single-node regions read vals only
        raise AssertionError("single-node region with a temporary operand")
    return f"vals[{value}]"


def _emit_fused_region(region: Region) -> List[str]:
    body: List[str] = [f"def _region_{region.index}(vals, rt):"]
    # dense guard over every external operand an elementwise member reads
    for position in region.guard_positions:
        body.append(f"    v{position} = vals[{position}]")
    if region.guard_positions:
        guard = " or ".join(f"v{p}.is_sparse" for p in region.guard_positions)
        body.append(f"    if {guard}:")
        body.append(f"        return rt.fallback({region.index}, vals)")
    for position in region.guard_positions:
        body.append(f"    x{position} = v{position}.data")

    root, root_operands = region.schedule[-1]
    chain = list(region.schedule[:-1])
    root_is_elemwise = isinstance(root, ELEMWISE_TYPES)
    if root_is_elemwise:
        chain.append((root, root_operands))
    for k, (node, operands) in enumerate(chain):
        body.append(f"    t{k} = {_interior_expr(node, operands)}")

    if root_is_elemwise:
        body.append(f"    return rt.boundary(t{len(chain) - 1})")
    else:
        refs = [_boundary_ref(op) for op in root_operands]
        body.append(f"    return {_kernel_call(region, refs)}")
    return body


def _ref(operand: Operand) -> str:
    """Raw-ndarray reference for an interior expression."""
    kind, value = operand
    if kind == "tmp":
        return f"t{value}"
    return f"x{value}"


def _boundary_ref(operand: Operand) -> str:
    """MatrixValue reference for a kernel-call operand at a region boundary."""
    kind, value = operand
    if kind == "tmp":
        return f"rt.boundary(t{value})"
    return f"vals[{value}]"


def _interior_expr(node: la.LAExpr, operands: Tuple[Operand, ...]) -> str:
    """Raw-ndarray expression replicating the kernel formula bitwise."""
    refs = [_ref(op) for op in operands]
    if isinstance(node, la.ElemMul):
        return f"({refs[0]} * {refs[1]})"
    if isinstance(node, la.ElemPlus):
        return f"({refs[0]} + {refs[1]})"
    if isinstance(node, la.ElemMinus):
        # kernels.elem_add(a, b, sign=-1.0) computes ``left + sign * right``
        return f"({refs[0]} + -1.0 * {refs[1]})"
    if isinstance(node, la.ElemDiv):
        return f"rt.ediv({refs[0]}, {refs[1]})"
    if isinstance(node, la.Power):
        return f"np.power({refs[0]}, {node.exponent!r})"
    if isinstance(node, la.Neg):
        # kernels.negate is scalar_mul(-1.0, a) = ``matrix * -1.0``
        return f"({refs[0]} * -1.0)"
    if isinstance(node, la.UnaryFunc):
        return f"rt.u_{node.func}({refs[0]})"
    raise AssertionError(f"not an interior node: {type(node).__name__}")


def _kernel_call(region: Region, refs: List[str]) -> str:
    """Call of the region root's bound interpreter kernel."""
    return f"rt.kernels[{region.index}]({', '.join(refs)})"
