"""Codegen switch, module compilation and the two source caches.

``compile_fused`` is the single entry point: it plans regions, obtains the
module source (from the :class:`~repro.serialize.store.PlanStore` kernel
tier when a template digest is given, emitting otherwise), compiles it once
and returns a :class:`FusedPlan` — or ``None`` whenever the interpreter
should run instead.  ``build_executable`` wraps that decision for callers
that just want *something with the TapePlan interface*.

Fallback matrix (every cell lands on the tape executor, bitwise identical):

=====================  ==========================================
condition              behaviour
=====================  ==========================================
``backend="off"``      no codegen, plain :class:`TapePlan`
non-real semiring      no codegen (ring kernels are dense-generic
                       and own their own dispatch)
unsupported node       no codegen (``CodegenUnsupported``)
sparse region input    that region runs its interpreter fallback
at run time            (``FusedPlan.fallback_runs``)
=====================  ==========================================

Caching: compiled module namespaces are memoized in-process keyed by
(source hash, ring); the source text itself is persisted through the
plan store keyed by template digest + config digest + ring + codegen
version, so a warm-starting process reuses audited sources instead of
re-emitting them.  Sources are size-free (constants live on the runtime
namespace), which is what lets one cached module serve a template's whole
size ladder.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.runtime.codegen.emit import emit_source, source_digest
from repro.runtime.codegen.plan import FusedPlan
from repro.runtime.codegen.regions import (
    CODEGEN_VERSION,
    CodegenUnsupported,
    plan_regions,
)
from repro.runtime.semiring import Semiring, resolve_semiring
from repro.runtime.tape import TapePlan

#: ``"auto"`` compiles fused code wherever it applies, ``"off"`` never does
BACKENDS = ("auto", "off")

_CACHE_LIMIT = 256
_MODULE_CACHE: "OrderedDict[Tuple[str, str], Dict[str, object]]" = OrderedDict()
_CACHE_LOCK = threading.Lock()


def resolve_backend(backend: Optional[str] = None) -> str:
    """Validate a codegen request (``None`` means ``"auto"``)."""
    choice = backend or "auto"
    if choice not in BACKENDS:
        raise ValueError(f"unknown codegen backend {choice!r}; expected {BACKENDS}")
    return choice


def clear_module_cache() -> None:
    """Drop every in-process compiled module (tests / cache-bust tooling)."""
    with _CACHE_LOCK:
        _MODULE_CACHE.clear()


def _cached_module(source: str, ring_name: str) -> Dict[str, object]:
    key = (source_digest(source), ring_name)
    with _CACHE_LOCK:
        cached = _MODULE_CACHE.get(key)
        if cached is not None:
            _MODULE_CACHE.move_to_end(key)
            return cached
    namespace: Dict[str, object] = {}
    code = compile(source, f"<repro-codegen:{key[0][:12]}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own deterministic emitter output
    with _CACHE_LOCK:
        _MODULE_CACHE[key] = namespace
        while len(_MODULE_CACHE) > _CACHE_LIMIT:
            _MODULE_CACHE.popitem(last=False)
    return namespace


def compile_fused(
    expr,
    n_slots: int,
    ring: Union[str, Semiring, None] = None,
    slot_sparsity: Optional[Mapping[int, Optional[float]]] = None,
    backend: Optional[str] = None,
    store=None,
    digest: str = "",
) -> Optional[FusedPlan]:
    """Compile a slot-space plan to a :class:`FusedPlan`, or ``None``.

    ``None`` means "run the interpreter": backend off, non-real ring, or a
    construct codegen cannot lower.  ``store``/``digest`` enable the
    persistent source tier (keyed by the plan's template digest).
    """
    resolved_ring = resolve_semiring(ring)
    choice = resolve_backend(backend)
    if choice == "off" or not resolved_ring.is_real:
        return None
    try:
        region_plan = plan_regions(expr, n_slots, slot_sparsity)
    except CodegenUnsupported:
        return None

    source: Optional[str] = None
    if store is not None and digest:
        loaded = store.load_kernel(digest, resolved_ring.name)
        if loaded is not None and _source_matches(loaded, region_plan, resolved_ring.name):
            source = loaded
    if source is None:
        source = emit_source(region_plan, resolved_ring.name)
        if store is not None and digest:
            store.save_kernel(digest, source, resolved_ring.name)

    try:
        namespace = _cached_module(source, resolved_ring.name)
    except Exception:
        # a stored source that passed its checksum but does not compile —
        # regenerate from scratch rather than failing the request path
        source = emit_source(region_plan, resolved_ring.name)
        if store is not None and digest:
            store.save_kernel(digest, source, resolved_ring.name)
        namespace = _cached_module(source, resolved_ring.name)
    return FusedPlan(region_plan, namespace, source, resolved_ring)


def _source_matches(source: str, region_plan, ring_name: str) -> bool:
    """A cached source is trusted only if its header matches this plan."""
    expected = (
        f"# repro-codegen v{CODEGEN_VERSION} ring={ring_name} "
        f"regions={len(region_plan.regions)} fused={region_plan.fused_regions}"
    )
    return source.splitlines()[:1] == [expected]


def build_executable(
    expr,
    n_slots: int,
    ring: Union[str, Semiring, None] = None,
    slot_sparsity: Optional[Mapping[int, Optional[float]]] = None,
    backend: Optional[str] = None,
    store=None,
    digest: str = "",
) -> Union[FusedPlan, TapePlan]:
    """A TapePlan-interface executor: fused when possible, tape otherwise."""
    fused = compile_fused(
        expr,
        n_slots,
        ring=ring,
        slot_sparsity=slot_sparsity,
        backend=backend,
        store=store,
        digest=digest,
    )
    if fused is not None:
        return fused
    return TapePlan(expr, n_slots, ring=ring)
