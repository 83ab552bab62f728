"""Per-layer tracing for the benchmark's traced runs (``--trace 1``).

Nothing here edits the program.  :class:`LayerTracer` wraps the public
entry points of each layer (module functions and methods, looked up where
their callers bind them) for the duration of a traced phase, records one
span per call in memory, and puts the originals back afterwards.  A span
is ``(id, name, start, end, parent, request, phase, thread)``: the parent
is the innermost open span on the same thread, and ``request`` is the
benchmark's own request id, carried by a thread-local that the client
thread sets around ``submit`` and that ``bind_signature`` sets on shard
threads from the identity of the request's input mapping.

A layer's *self time* is its span's duration minus the durations of its
direct children (children nest strictly inside their parent on one
thread, so the sum is exactly the covered part).

The program's own observability (``repro.obs``) is never enabled: it
would instrument every run, and the end-to-end runs must measure the
program as shipped.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: span record field positions
ID, NAME, START, END, PARENT, REQUEST, PHASE, THREAD = range(8)


class LayerTracer:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.phase = ""
        #: id(input mapping) -> benchmark request id, for shard-side spans
        self.request_of_inputs: Dict[int, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def set_request(self, request: Optional[int]) -> None:
        self._local.request = request

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += value

    def _wrap(self, original: Callable, entry: "Entry") -> Callable:
        tracer = self
        spans = self.spans
        ids = self._ids
        local = self._local
        name, before, after, request_from = entry.name, entry.before, entry.after, entry.request_from

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if request_from is not None:
                request = tracer.request_of_inputs.get(id(request_from(args, kwargs)))
                if request is not None:
                    local.request = request
            span = [
                next(ids), name, time.perf_counter(), None,
                stack[-1][ID] if stack else None,
                getattr(local, "request", None), tracer.phase, threading.get_ident(),
            ]
            snapshot = before(args) if before is not None else None
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, result, snapshot)
            return result

        traced.__wrapped__ = original
        return traced

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (idempotent while installed)."""
        if self._originals:
            return
        for entry in _entry_points():
            original = getattr(entry.owner, entry.attr)
            self._originals.append((entry.owner, entry.attr, original))
            setattr(entry.owner, entry.attr, self._wrap(original, entry))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- analysis --------------------------------------------------------------
    def closed(self, phase: str) -> List[list]:
        return [s for s in self.spans if s[PHASE] == phase and s[END] is not None]

    def self_times(self, phase: str) -> Dict[int, float]:
        """Span id -> self seconds for every closed span of ``phase``."""
        spans = self.closed(phase)
        own = {s[ID]: s[END] - s[START] for s in spans}
        for s in spans:
            if s[PARENT] in own:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_totals(self, phase: str) -> Dict[str, Tuple[int, float]]:
        """Layer name -> (calls, total self seconds) in ``phase``."""
        own = self.self_times(phase)
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for s in self.closed(phase):
            totals[s[NAME]][0] += 1
            totals[s[NAME]][1] += own[s[ID]]
        return {name: (int(calls), seconds) for name, (calls, seconds) in totals.items()}

    def phase_count(self, phase: str, name: str) -> float:
        return self.counts.get((phase, name), 0.0)

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        """Write every span plus per-phase layer self times as JSON."""
        phases = sorted({s[PHASE] for s in self.spans})
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "request", "phase", "thread"],
            "spans": self.spans,
            "self_times": {
                phase: {
                    name: {"calls": calls, "self_ms": seconds * 1e3}
                    for name, (calls, seconds) in sorted(self.layer_totals(phase).items())
                }
                for phase in phases
            },
            "counts": {f"{phase}:{name}": value for (phase, name), value in self.counts.items()},
        }
        payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)


# ---------------------------------------------------------------------------
# The wrapped entry points, by layer
# ---------------------------------------------------------------------------


class Entry(NamedTuple):
    """One wrapped entry point.

    ``before(args)`` runs as the call starts; its value reaches
    ``after(tracer, args, result, before_value)`` when the call returns.
    ``request_from(args, kwargs)`` returns the request's input mapping,
    whose identity names the benchmark request a shard-side call serves.
    """

    owner: object
    attr: str
    name: str
    after: Optional[Callable] = None
    request_from: Optional[Callable] = None
    before: Optional[Callable] = None


def _after_saturate(tracer: LayerTracer, args, report, _) -> None:
    tracer.count("egraph.iterations", report.num_iterations)
    tracer.count("egraph.enodes", report.final_enodes)
    tracer.count("egraph.limit_stops", 0 if report.saturated else 1)


def _after_ilp(tracer: LayerTracer, args, result, _) -> None:
    stats = args[0].last_stats
    if stats is not None:
        tracer.count("extract.ilp_vars", stats.num_variables)
        tracer.count("extract.ilp_fallbacks", 1 if stats.used_fallback else 0)


def _after_compile(tracer: LayerTracer, args, artifact, _) -> None:
    tracer.count("optimizer.compiles")
    if artifact.report.improved:
        tracer.count("optimizer.improved")


def _fallback_runs(args) -> int:
    return args[0].fallback_runs


def _after_fused(tracer: LayerTracer, args, result, runs_before: int) -> None:
    # a fused plan executes on the one shard that owns it, so the change
    # over one call is that call's own interpreter fallbacks
    tracer.count("runtime.fused_fallbacks", args[0].fallback_runs - runs_before)


def _bind_inputs(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("inputs")


def _entry_points() -> List[Entry]:
    """Every wrapped entry point, by layer.

    Functions imported by name are wrapped in the module that calls them,
    since that binding is the one the call resolves.
    """
    from repro.api import plan as api_plan
    from repro.api import session as api_session
    from repro.cost.la_cost import LACostModel
    from repro.egraph.runner import Runner
    from repro.extract.greedy import GreedyExtractor
    from repro.extract.ilp import ILPExtractor
    from repro.optimizer import pipeline
    from repro.runtime.codegen.plan import FusedPlan
    from repro.runtime.engine import Executor
    from repro.runtime.tape import TapePlan
    from repro.serialize.store import PlanStore
    from repro.serve import engine as serve_engine
    from repro.serve import worker as serve_worker

    return [
        Entry(api_session.Session, "compile", "api.compile"),
        Entry(api_session, "compile_expression", "optimizer.compile", _after_compile),
        Entry(api_session, "derive_guard", "optimizer.guard"),
        Entry(api_session, "signature_of", "canonical.fingerprint"),
        Entry(api_session, "slot_expression", "canonical.fingerprint"),
        Entry(serve_engine, "signature_of", "canonical.fingerprint"),
        Entry(pipeline, "lower", "translate.lower"),
        Entry(pipeline, "lift", "translate.lift"),
        Entry(pipeline, "simplify", "translate.lift"),
        Entry(Runner, "run", "egraph.saturate", _after_saturate),
        Entry(ILPExtractor, "extract", "extract.extract", _after_ilp),
        Entry(GreedyExtractor, "extract", "extract.extract"),
        Entry(LACostModel, "cost", "cost.model"),
        Entry(Executor, "execute_slots", "runtime.interp"),
        Entry(api_plan, "bind_signature", "api.bind"),
        Entry(serve_worker, "bind_signature", "api.bind", request_from=_bind_inputs),
        Entry(TapePlan, "execute", "runtime.execute"),
        Entry(FusedPlan, "execute", "runtime.execute", _after_fused, before=_fallback_runs),
        Entry(serve_worker, "build_executable", "runtime.build"),
        Entry(PlanStore, "save", "serialize.save"),
        Entry(PlanStore, "save_kernel", "serialize.save"),
        Entry(PlanStore, "load", "serialize.load"),
        Entry(PlanStore, "load_template", "serialize.load"),
        Entry(PlanStore, "load_kernel", "serialize.load"),
        Entry(serve_engine.ServingEngine, "submit", "serve.submit"),
    ]


#: every per-layer metric a traced run reports: name -> unit
PER_LAYER_UNITS: Dict[str, str] = {
    "egraph.saturate_ms": "ms",
    "egraph.iterations": "count",
    "egraph.enodes": "count",
    "egraph.limit_stops": "count",
    "extract.extract_ms": "ms",
    "extract.ilp_vars": "count",
    "extract.ilp_fallbacks": "count",
    "translate.lower_ms": "ms",
    "translate.lift_ms": "ms",
    "canonical.fingerprint_ms": "ms",
    "optimizer.guard_ms": "ms",
    "optimizer.improved_frac": "ratio",
    "optimizer.unproductive_s": "s",
    "cost.model_calls": "count",
    "cost.model_ms": "ms",
    "runtime.interp_ms": "ms",
    "runtime.execute_ms": "ms",
    "runtime.fused_fallbacks": "count",
    "runtime.build_ms": "ms",
    "runtime.step_reuse_ratio": "ratio",
    "api.bind_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.busy_frac": "ratio",
    "serve.result_cache_hit_ratio": "ratio",
    "serve.stacked_ratio": "ratio",
    "serve.batch_size_mean": "count",
    "serialize.save_ms": "ms",
    "serialize.load_ms": "ms",
    "trace.overhead_pct": "%",
}


def compile_layers(tracer: LayerTracer, phase: str, compile_seconds: Dict[str, float],
                   improved: Dict[str, bool]) -> Dict[str, float]:
    """Compile-side layer metrics of one traced pass over every root.

    Times are total self milliseconds over the pass; counts are totals.
    """
    totals = tracer.layer_totals(phase)

    def self_ms(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] * 1e3

    unproductive = sum(s for root, s in compile_seconds.items() if not improved[root])
    return {
        "egraph.saturate_ms": self_ms("egraph.saturate"),
        "egraph.iterations": tracer.phase_count(phase, "egraph.iterations"),
        "egraph.enodes": tracer.phase_count(phase, "egraph.enodes"),
        "egraph.limit_stops": tracer.phase_count(phase, "egraph.limit_stops"),
        "extract.extract_ms": self_ms("extract.extract"),
        "extract.ilp_vars": tracer.phase_count(phase, "extract.ilp_vars"),
        "extract.ilp_fallbacks": tracer.phase_count(phase, "extract.ilp_fallbacks"),
        "translate.lower_ms": self_ms("translate.lower"),
        "translate.lift_ms": self_ms("translate.lift"),
        "canonical.fingerprint_ms": self_ms("canonical.fingerprint"),
        "optimizer.guard_ms": self_ms("optimizer.guard"),
        "optimizer.improved_frac": sum(improved.values()) / max(1, len(improved)),
        "optimizer.unproductive_s": unproductive,
        "cost.model_calls": float(totals.get("cost.model", (0, 0.0))[0]),
        "cost.model_ms": self_ms("cost.model"),
    }


def mean_self_ms(tracer: LayerTracer, phase: str, name: str) -> float:
    calls, seconds = tracer.layer_totals(phase).get(name, (0, 0.0))
    return seconds * 1e3 / calls if calls else 0.0


def total_self_ms(tracer: LayerTracer, phase: str, name: str) -> float:
    return tracer.layer_totals(phase).get(name, (0, 0.0))[1] * 1e3
