"""Workloads ``serve-fresh`` and ``serve-hot``: a 2-shard ``ServingEngine``.

Both serve the 14 real roots under ``OptimizerConfig.sampling_greedy()``
(the warm-up CLI's default preset) from one client thread.  Data inputs
are pinned (the same value objects on every request); parameter inputs
vary.

* ``serve-fresh`` (size M): closed loop with 2 clients; roots drawn at
  random from the seed; every request's parameters are new value objects,
  so the identity-keyed result cache never hits.
* ``serve-hot`` (size S): a batch loader submitting bursts of 200; roots
  round-robin; 70% of requests reuse one of 6 popular parameter versions
  (the same objects every time), 30% are fresh.

Set-up (timed, repeated ``SETUPS`` times, median reported) is store
warm-up (every root compiled into a new plan store) + engine start +
``warm()`` + one request per root, so codegen build is included.

Every reported time is wall clock.  The single-threaded stretches (each
set-up compile, the engine start, each round of plan runs) lie between two
:class:`common.HostSpeed` checkpoints and are rescaled to the reference
host speed.  Serving throughput and latency are what a caller of the engine
waits, as measured: the client and both shards share the interpreter lock,
whose hand-offs follow a wall-clock switch interval, so they do not scale
with single-thread speed (rescaled, they spread more than raw).  What does
move them is CPU the hypervisor steals, so serving runs in 1-second windows
and leaves out those with host steal.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.api import PlanStore, Session
from repro.optimizer import OptimizerConfig
from repro.runtime.data import MatrixValue
from repro.serve import ServingEngine

from common import (
    VARYING,
    HostSpeed,
    Metric,
    Oracle,
    build_roots,
    feed,
    geomean,
    median,
    peak_rss_mb,
    percentile,
    reference_result,
    steal_seconds,
)
from layers import (
    END, ID, NAME, PARENT, PER_LAYER_UNITS, REQUEST, START, THREAD,
    LayerTracer, compile_layers, mean_self_ms, total_self_ms,
)

SHARDS = 2
SETUPS = 5
#: CompiledPlan.run calls per root for plan_run_ms
PLAN_RUNS = 30
#: serving runs in windows of this length; traced runs alternate untraced
#: and traced windows
WINDOW_S = 1.0
#: a window from which the hypervisor took more CPU seconds than this (host
#: steal, from /proc/stat) is left out of throughput and latency
STEAL_FREE_S = 0.02
#: serve-hot also reports its cache counts over this many first bursts, a
#: fixed request prefix that two runs of one seed can be compared on
PREFIX_BURSTS = 10


@dataclass(frozen=True)
class Shape:
    size: str
    #: distinct parameter versions fresh requests draw their numbers from
    versions: int
    popular: int = 0
    popular_fraction: float = 0.0
    clients: int = 0
    burst: int = 0


SHAPES = {
    "serve-fresh": Shape(size="M", versions=4, clients=2),
    "serve-hot": Shape(size="S", versions=8, popular=6, popular_fraction=0.7, burst=200),
}


@dataclass
class Request:
    id: int
    root: int
    version: int
    inputs: Dict[str, object]
    #: wall clock (perf_counter) at submit and at completion
    submitted: float = 0.0
    done_at: float = 0.0
    future: Optional[object] = None


def _versions(base: Dict[str, MatrixValue], names, rng, count: int) -> List[Dict[str, MatrixValue]]:
    """``count`` parameter versions: the base values scaled elementwise.

    Factors in [0.9, 1.1] keep every parameter in its generator's domain
    (probabilities stay in (0, 1), PNMF factors stay positive).
    """
    versions = []
    for _ in range(count):
        version = {}
        for name in names:
            data = base[name].to_dense()
            version[name] = MatrixValue(data * rng.uniform(0.9, 1.1, size=data.shape))
        versions.append(version)
    return versions


class _Traffic:
    """Per-run request material: roots, pinned data, versions, references."""

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        self.roots = build_roots(shape.size, semiring=False)
        rng = np.random.default_rng(seed)
        pinned = {}
        versions = {}
        for root in self.roots:
            if root.family not in pinned:
                pinned[root.family] = root.workload.inputs(seed)
                versions[root.family] = _versions(
                    pinned[root.family], VARYING[root.family], rng, shape.versions
                )
        # popular versions are the first `popular` versions, as fixed objects
        self.inputs = [
            [feed(root, {**pinned[root.family], **version}) for version in versions[root.family]]
            for root in self.roots
        ]
        self.references = [
            [reference_result(root, inputs) for inputs in per_version]
            for root, per_version in zip(self.roots, self.inputs)
        ]
        self.varying = [VARYING[root.family] for root in self.roots]
        self.rng = np.random.default_rng(seed + 1)
        self.count = 0

    def next(self) -> Request:
        shape = self.shape
        if shape.burst:
            root = self.count % len(self.roots)
        else:
            root = int(self.rng.integers(len(self.roots)))
        popular = shape.popular and self.rng.random() < shape.popular_fraction
        if popular:
            version = int(self.rng.integers(shape.popular))
            inputs = dict(self.inputs[root][version])
        else:
            version = int(self.rng.integers(shape.versions))
            inputs = {
                name: MatrixValue(value.data) if name in self.varying[root] else value
                for name, value in self.inputs[root][version].items()
            }
        request = Request(self.count, root, version, inputs)
        self.count += 1
        return request


class _Setup:
    """One deploy: warm a fresh store, start the engine, first requests.

    Each compile, and the engine start with its first requests, lies
    between host-speed checkpoints; ``seconds`` is the sum of the rescaled
    stretches, without the checkpoints themselves.
    """

    def __init__(self, traffic: _Traffic, config: OptimizerConfig, workdir: str,
                 speed: HostSpeed) -> None:
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
        speed.checkpoint()
        started = time.perf_counter()
        session = Session(config, store=PlanStore(self.store_dir, config))
        self.compile_s: Dict[str, float] = {}
        self.plans = {}
        for root in traffic.roots:
            self.plans[root.label] = session.compile(root.expr)
            self.compile_s[root.label] = (time.perf_counter() - started) * speed.checkpoint()
            started = time.perf_counter()
        self.engine = ServingEngine(
            shards=SHARDS,
            config=config,
            store=PlanStore(self.store_dir, config),
            supervise=False,
        )
        self.warm_compilations = self.engine.warm([root.expr for root in traffic.roots])
        first = [
            self.engine.submit(root.expr, traffic.inputs[index][0])
            for index, root in enumerate(traffic.roots)
        ]
        wait(first)
        self.seconds = sum(self.compile_s.values()) + (
            time.perf_counter() - started) * speed.checkpoint()
        self.first = first

    def check_first(self, traffic: _Traffic, oracle: Oracle) -> None:
        for index, future in enumerate(self.first):
            root = traffic.roots[index]
            try:
                value = future.result().value
            except Exception as error:
                oracle.fail(f"{root.label} first request: {type(error).__name__}")
                continue
            oracle.check(f"{root.label} first request", root, value, traffic.references[index][0])

    def close(self) -> None:
        self.engine.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _stamp(request: Request) -> None:
    request.done_at = time.perf_counter()


class _Client:
    """Issues requests, stamps completions, checks every response."""

    def __init__(self, engine, traffic: _Traffic, oracle: Oracle, tracer) -> None:
        self.engine = engine
        self.traffic = traffic
        self.oracle = oracle
        self.tracer = tracer
        self.traced = False
        self.requests: List[Request] = []
        self.latencies: List[float] = []
        #: engine stats once the first PREFIX_BURSTS bursts completed
        self.prefix = None
        #: (root, version) -> an output that matched the reference
        self.matched: Dict[tuple, MatrixValue] = {}

    def issue(self) -> Request:
        request = self.traffic.next()
        tracer = self.tracer if self.traced else None
        if tracer is not None:
            tracer.request_of_inputs[id(request.inputs)] = request.id
            tracer.set_request(request.id)
        request.submitted = time.perf_counter()
        future = self.engine.submit(self.traffic.roots[request.root].expr, request.inputs)
        if tracer is not None:
            tracer.set_request(None)
        future.add_done_callback(lambda _, r=request: _stamp(r))
        request.future = future
        self.requests.append(request)
        return request

    def check(self, request: Request) -> None:
        root = self.traffic.roots[request.root]
        label = f"{root.label} request {request.id}"
        # keep timings only: results and inputs are released once checked
        future, request.future, request.inputs = request.future, None, None
        try:
            result = future.result()
        except Exception as error:
            self.oracle.fail(f"{label}: {type(error).__name__}")
            return
        self.latencies.append(request.done_at - request.submitted)
        key = (request.root, request.version)
        if self.oracle.check(label, root, result.value,
                             self.traffic.references[request.root][request.version],
                             self.matched.get(key)):
            self.matched.setdefault(key, result.value)

    def closed_loop(self, until: float, clients: int) -> None:
        outstanding = {}
        for _ in range(clients):
            request = self.issue()
            outstanding[request.future] = request
        while outstanding:
            done, _ = wait(list(outstanding), return_when=FIRST_COMPLETED)
            finished = [outstanding.pop(future) for future in done]
            for _ in finished:
                if time.perf_counter() < until:
                    request = self.issue()
                    outstanding[request.future] = request
            for request in finished:
                self.check(request)

    def bursts(self, until: float, size: int) -> None:
        previous: List[Request] = []
        while time.perf_counter() < until:
            burst = [self.issue() for _ in range(size)]
            for request in previous:
                self.check(request)
            wait([request.future for request in burst])
            previous = burst
            if len(self.requests) == PREFIX_BURSTS * size:
                self.prefix = self.engine.stats()
        for request in previous:
            self.check(request)


def _serve(client: _Client, shape: Shape, until: float) -> None:
    if shape.burst:
        client.bursts(until, shape.burst)
    else:
        client.closed_loop(until, shape.clients)


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> Dict[str, object]:
    shape = SHAPES[workload]
    config = OptimizerConfig.sampling_greedy()
    traffic = _Traffic(shape, seed)
    oracle = Oracle()
    tracer = LayerTracer() if trace else None
    speed = HostSpeed()

    setups: List[_Setup] = []
    live: Optional[_Setup] = None
    try:
        for index in range(SETUPS):
            traced_setup = trace and index == SETUPS - 1
            if traced_setup:
                tracer.phase = "setup"
                tracer.install()
            try:
                live = _Setup(traffic, config, workdir, speed)
            finally:
                if traced_setup:
                    tracer.uninstall()
            setups.append(live)
            live.check_first(traffic, oracle)
            if live.warm_compilations:
                oracle.fail("engine.warm() compiled plans the store should have held")
            if index < SETUPS - 1:
                live.close()
                live = None
        setup = setups[-1]
        engine = setup.engine

        # CompiledPlan.run on the served plans (the interpreter path)
        if trace:
            tracer.phase = "plan_run"
            tracer.install()
        plan_runs: Dict[str, List[float]] = {root.label: [] for root in traffic.roots}
        plans = [engine.plan_for(root.expr) for root in traffic.roots]
        try:
            # round-robin over roots, so each root's samples spread over the phase
            speed.checkpoint()
            for _ in range(PLAN_RUNS):
                times = {}
                for index, root in enumerate(traffic.roots):
                    started = time.perf_counter()
                    try:
                        result = plans[index].run(traffic.inputs[index][0])
                    except Exception as error:
                        oracle.fail(f"{root.label} plan run: {type(error).__name__}")
                        continue
                    times[root.label] = time.perf_counter() - started
                    oracle.check(f"{root.label} plan run", root, result.value,
                                 traffic.references[index][0])
                factor = speed.checkpoint()
                for label, elapsed in times.items():
                    plan_runs[label].append(elapsed * factor)
        finally:
            if trace:
                tracer.uninstall()

        before = engine.stats()
        cpu_started = time.process_time()
        steal_started = steal_seconds()
        client = _Client(engine, traffic, oracle, tracer)
        # untraced / traced windows: [requests, wall seconds]
        windows = {False: [0, 0.0], True: [0, 0.0]}
        # untraced windows without host steal: [requests, wall seconds, latencies]
        clean = [0, 0.0, []]
        stolen_windows = 0
        end = time.perf_counter() + seconds
        while True:
            now = time.perf_counter()
            if now >= end:
                break
            traced = trace and bool(len(client.requests)) and not client.traced
            if trace:
                client.traced = traced
                if traced:
                    tracer.phase = "serve"
                    tracer.install()
            served_before = len(client.requests)
            timed_before = len(client.latencies)
            stolen = steal_seconds()
            try:
                _serve(client, shape, min(end, now + WINDOW_S))
            finally:
                if trace and traced:
                    tracer.uninstall()
            stolen = steal_seconds() - stolen
            wall = time.perf_counter() - now
            windows[traced][0] += len(client.requests) - served_before
            windows[traced][1] += wall
            if traced:
                continue
            if stolen > STEAL_FREE_S:
                stolen_windows += 1
                continue
            clean[0] += len(client.requests) - served_before
            clean[1] += wall
            clean[2].extend(client.latencies[timed_before:])
        after = engine.stats()
        cpu_seconds = time.process_time() - cpu_started
        steal = steal_seconds() - steal_started
        requests = client.requests
        served_wall = windows[False][1] + windows[True][1]
        served = after.served - before.served
    finally:
        if live is not None:
            live.close()

    # a host that stole from most windows leaves too few: then all are used
    steal_free = clean[1] >= windows[False][1] / 2
    timed = clean if steal_free else [*windows[False], client.latencies]

    roots = traffic.roots
    attempted = oracle.checked
    lines = [
        f"setup warm() compilations: {[s.warm_compilations for s in setups]}",
        f"served {served} requests in {served_wall:.2f}s wall; "
        f"result-cache hits {after.result_cache_hits - before.result_cache_hits}; "
        f"stacked {after.stacked_requests - before.stacked_requests}; "
        f"batches {after.batches - before.batches}; errors {after.errors - before.errors}",
        f"process CPU {cpu_seconds / len(requests) * 1e3:.3f} ms per request, "
        f"{cpu_seconds / served_wall:.2f} s per s; host steal {steal:.2f} CPU s",
        f"untraced windows with host steal over {STEAL_FREE_S} CPU s: {stolen_windows}, "
        + ("left out" if steal_free else "too many to leave out; every window used"),
        speed.describe(),
    ]
    if client.prefix is not None:
        prefix = client.prefix
        lines.append(
            f"first {PREFIX_BURSTS} bursts: result-cache hits "
            f"{prefix.result_cache_hits - before.result_cache_hits}; stacked "
            f"{prefix.stacked_requests - before.stacked_requests}; batches "
            f"{prefix.batches - before.batches}")

    # per-root compile time: median over set-ups
    compile_s = {label: median([s.compile_s[label] for s in setups]) for label in setup.compile_s}
    if not trace:
        metrics = {
            "setup_s": Metric(median([s.seconds for s in setups]), "s", len(setups)),
            "compile_s": Metric(sum(compile_s.values()), "s", len(setups)),
            "compile_geomean_ms": Metric(
                geomean([v * 1e3 for v in compile_s.values()]), "ms", len(setups)),
            "plan_cost_ratio": Metric(
                geomean([p.report.optimized_cost / p.report.original_cost
                         for p in setup.plans.values()]), "ratio", len(roots)),
            "plan_run_ms": Metric(
                geomean([median(t) * 1e3 for t in plan_runs.values() if t]), "ms",
                sum(len(t) for t in plan_runs.values())),
            "throughput_rps": Metric(timed[0] / timed[1], "1/s", timed[0]),
            "latency_p50_ms": Metric(percentile(timed[2], 50) * 1e3, "ms", len(timed[2])),
            "latency_p99_ms": Metric(percentile(timed[2], 99) * 1e3, "ms", len(timed[2])),
            "success_frac": Metric(1.0 - oracle.mismatches / max(1, attempted), "ratio",
                                   attempted),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        }
        payload: Dict[str, object] = {}
    else:
        metrics, payload = _per_layer(tracer, setup, client, windows, before, after)
    payload["setups_s"] = [s.seconds for s in setups]
    return {
        "lines": lines,
        "metrics": metrics,
        "attempted": attempted,
        "failed": oracle.mismatches,
        "examples": oracle.examples,
        "payload": payload,
    }


def _per_layer(tracer: LayerTracer, setup: _Setup, client: _Client, windows, before, after):
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update(compile_layers(
        tracer, "setup", setup.compile_s,
        {label: plan.report.improved for label, plan in setup.plans.items()},
    ))
    values["runtime.build_ms"] = total_self_ms(tracer, "setup", "runtime.build")
    values["runtime.fused_fallbacks"] = tracer.phase_count("serve", "runtime.fused_fallbacks")
    values["serialize.save_ms"] = total_self_ms(tracer, "setup", "serialize.save")
    values["serialize.load_ms"] = total_self_ms(tracer, "setup", "serialize.load")
    values["runtime.interp_ms"] = mean_self_ms(tracer, "plan_run", "runtime.interp")
    values["runtime.execute_ms"] = mean_self_ms(tracer, "serve", "runtime.execute")
    values["api.bind_ms"] = mean_self_ms(tracer, "serve", "api.bind")
    values["serve.submit_ms"] = mean_self_ms(tracer, "serve", "serve.submit")

    client_thread = threading.get_ident()
    own = tracer.self_times("serve")
    spent: Dict[int, float] = {}
    busy = 0.0
    for span in tracer.closed("serve"):
        if span[THREAD] == client_thread:
            continue
        if span[PARENT] is None:
            busy += span[END] - span[START]
        if span[REQUEST] is not None and span[NAME] in ("api.bind", "runtime.execute"):
            spent[span[REQUEST]] = spent.get(span[REQUEST], 0.0) + own[span[ID]]
    waits = [
        (request.done_at - request.submitted - spent[request.id]) * 1e3
        for request in client.requests
        if request.id in spent
    ]
    values["serve.queue_wait_ms"] = median(waits) if waits else 0.0
    traced_requests, traced_wall = windows[True]
    values["serve.busy_frac"] = busy / (SHARDS * traced_wall) if traced_wall else 0.0

    served = after.served - before.served
    reuse_hits = sum(s["step_reuse_hits"] for s in after.per_shard) - sum(
        s["step_reuse_hits"] for s in before.per_shard)
    reuse_misses = sum(s["step_reuse_misses"] for s in after.per_shard) - sum(
        s["step_reuse_misses"] for s in before.per_shard)
    batches = after.batches - before.batches
    values["serve.result_cache_hit_ratio"] = (
        (after.result_cache_hits - before.result_cache_hits) / served if served else 0.0)
    values["serve.stacked_ratio"] = (
        (after.stacked_requests - before.stacked_requests) / served if served else 0.0)
    values["serve.batch_size_mean"] = served / batches if batches else 0.0
    values["runtime.step_reuse_ratio"] = (
        reuse_hits / (reuse_hits + reuse_misses) if reuse_hits + reuse_misses else 0.0)

    untraced_requests, untraced_wall = windows[False]
    if traced_wall and untraced_wall and traced_requests:
        values["trace.overhead_pct"] = (
            (untraced_requests / untraced_wall) / (traced_requests / traced_wall) - 1.0
        ) * 100.0
    metrics = {
        name: Metric(value, PER_LAYER_UNITS[name], traced_requests)
        for name, value in values.items()
    }
    return metrics, {"tracer": tracer, "windows": {str(k): v for k, v in windows.items()}}


def work_dir(out_dir: str) -> str:
    path = os.path.join(out_dir, "tmp")
    os.makedirs(path, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=path)
