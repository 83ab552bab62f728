"""Fused-kernel code generation for tape plans.

Lowers a slot-space plan to fused, cached, executable Python with bitwise
interpreter parity, plus the columnwise batching analysis the serving tier
uses to stack same-fingerprint matvec requests into one matmat.  See ``docs/codegen.md``.
"""

from repro.runtime.codegen.backend import (
    BACKENDS,
    build_executable,
    clear_module_cache,
    compile_fused,
    resolve_backend,
)
from repro.runtime.codegen.batching import stackable_slot
from repro.runtime.codegen.emit import emit_source, source_digest
from repro.runtime.codegen.plan import FusedPlan
from repro.runtime.codegen.regions import (
    CODEGEN_VERSION,
    CodegenUnsupported,
    Region,
    RegionPlan,
    plan_regions,
)

__all__ = [
    "BACKENDS",
    "CODEGEN_VERSION",
    "CodegenUnsupported",
    "FusedPlan",
    "Region",
    "RegionPlan",
    "build_executable",
    "clear_module_cache",
    "compile_fused",
    "emit_source",
    "plan_regions",
    "resolve_backend",
    "source_digest",
    "stackable_slot",
]
