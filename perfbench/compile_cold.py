"""Workload ``compile-cold``: cold-compile every root, then run each plan.

The run is a series of sweeps over all 18 roots at size S.  The first
sweep cold-compiles every root, each in a fresh ``Session()`` with no
store: the 14 real roots (ALS/GLM/SVM/MLR/PNMF) under the default
``OptimizerConfig()`` (ILP extraction) and the 4 SSSP/REACH roots under
their own rings.  Later sweeps re-compile, again in fresh sessions, the
roots whose compile time so far is under ``REPEAT_BELOW_S``.  Every sweep
runs each root's plan ``RUNS_PER_SWEEP`` times through
``CompiledPlan.run`` and checks every output against the oracle.  Sweeps
repeat while the run has time left; a root's figures are medians over all
of its samples.  A new expression's latency is its time to first result:
the root's median compile time plus its median run time.

Set-up is what a library user does before the first compile: build the
workload families and generate their inputs from the seed.

Every compile, block of runs and set-up lies between two
:class:`common.HostSpeed` checkpoints and is rescaled to the reference host
speed.  The one exception is time an ILP solve spends up to its wall-clock
``ilp_time_limit``: a limit of wall seconds is the same on any host, so it is
kept as measured.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List

from repro.api import Session
from repro.extract.ilp import ILPExtractor
from repro.optimizer import OptimizerConfig

from common import (
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
)
from layers import LayerTracer, PER_LAYER_UNITS, compile_layers, mean_self_ms

SIZE = "S"
#: CompiledPlan.run calls per root in each sweep
RUNS_PER_SWEEP = 60
SETUPS = 15
#: later sweeps re-compile a root while its compile time so far is below this
REPEAT_BELOW_S = 1.0


def _setup(seed: int):
    started = time.perf_counter()
    roots = build_roots(SIZE, semiring=True)
    inputs = {}
    for root in roots:
        if root.family not in inputs:
            inputs[root.family] = root.workload.inputs(seed)
    return time.perf_counter() - started, roots, inputs


class _ILPStatus:
    """Collects ``ILPExtractor.last_stats`` per extraction (status only).

    One wrapped call per sum-product region; the per-root rows need the
    solver outcome and the pipeline builds its extractor internally.  It
    also sums the seconds of calls that ran into the solver's time limit.
    """

    def __init__(self) -> None:
        self.statuses: List[str] = []
        self.limited_s = 0.0
        self._original = ILPExtractor.extract

    def __enter__(self) -> "_ILPStatus":
        original = self._original
        statuses = self.statuses

        def extract(extractor, egraph, root):
            started = time.perf_counter()
            result = original(extractor, egraph, root)
            elapsed = time.perf_counter() - started
            if elapsed >= extractor.time_limit:
                self.limited_s += elapsed
            stats = extractor.last_stats
            statuses.append(stats.solver_status if stats is not None else "none")
            return result

        ILPExtractor.extract = extract
        return self

    def __exit__(self, *exc_info) -> None:
        ILPExtractor.extract = self._original


def _compile(root, oracle: Oracle):
    """One cold compile in a fresh session.

    Returns ``(plan, seconds, ILP statuses, seconds the ILP spent up to its
    time limit)``.
    """
    config = OptimizerConfig() if root.ring == "real" else OptimizerConfig(semiring=root.ring)
    with _ILPStatus() as ilp:
        started = time.perf_counter()
        try:
            plan = Session(config).compile(root.expr)
        except Exception as error:  # a failed compile is a failed attempt
            oracle.fail(f"{root.label} compile: {type(error).__name__}")
            return None
        return plan, time.perf_counter() - started, ilp.statuses, ilp.limited_s


def _sweep(roots, inputs, references, oracle: Oracle, state, compile_all: bool,
           speed: HostSpeed) -> None:
    """Compile (where due) and run every root once more.

    A root is compiled on the first sweep, on every sweep if
    ``compile_all``, and otherwise while its compile time so far is under
    ``REPEAT_BELOW_S``.  Sweeping rather than finishing one root at a time
    spreads each root's samples over the run, so a slow second on a shared
    host moves its median less.  Each root's compile and runs end with a
    host-speed checkpoint, which also starts the next root's.
    """
    speed.checkpoint()
    for root in roots:
        entry = state[root.label]
        if entry["failed"]:
            continue
        compiled = None
        if compile_all or entry["plan"] is None or sum(entry["compiles"]) < REPEAT_BELOW_S:
            compiled = _compile(root, oracle)
            if compiled is None:
                entry["failed"] = True
                continue
            plan, seconds, statuses, limited = compiled
            entry["digests"].add(hashlib.sha256(str(plan.optimized).encode()).hexdigest()[:16])
            if entry["plan"] is None:
                entry.update(plan=plan, statuses=statuses)
        bound = feed(root, inputs[root.family])
        runs = []
        for _ in range(RUNS_PER_SWEEP):
            started = time.perf_counter()
            try:
                result = entry["plan"].run(bound)
            except Exception as error:
                oracle.fail(f"{root.label} run: {type(error).__name__}")
                continue
            runs.append(time.perf_counter() - started)
            oracle.check(root.label, root, result.value, references[root.label])
        factor = speed.checkpoint()
        entry["runs"].extend(elapsed * factor for elapsed in runs)
        if compiled is not None:
            entry["compiles"].append((seconds - limited) * factor + limited)


def _row(label: str, entry: Dict[str, object]) -> Dict[str, object]:
    runs, compiles = entry["runs"], entry["compiles"]
    if entry["failed"] or not runs:
        return {"root": label, "failed": True}
    report = entry["plan"].report
    return dict(
        root=label,
        failed=False,
        compile_ms=median(compiles) * 1e3,
        # a new expression's latency: compile() until its first result
        first_result_ms=(median(compiles) + median(runs)) * 1e3,
        compiles=len(compiles),
        translate_ms=report.phase_times.translate * 1e3,
        saturate_ms=report.phase_times.saturate * 1e3,
        extract_ms=report.phase_times.extract * 1e3,
        ilp_status=";".join(entry["statuses"]) or "-",
        cost_before=report.original_cost,
        cost_after=report.optimized_cost,
        improved=bool(report.improved),
        run_ms=median(runs) * 1e3,
        runs=len(runs),
        plan_digest=";".join(sorted(entry["digests"])),
    )


def _row_line(row: Dict[str, object]) -> str:
    if row["failed"]:
        return f"root {row['root']} FAILED"
    return (
        f"root {row['root']} compile_ms={row['compile_ms']:.1f} (x{row['compiles']}) "
        f"translate_ms={row['translate_ms']:.1f} saturate_ms={row['saturate_ms']:.1f} "
        f"extract_ms={row['extract_ms']:.1f} ilp={row['ilp_status']} "
        f"cost={row['cost_before']:.0f}->{row['cost_after']:.0f} "
        f"run_ms={row['run_ms']:.3f} (x{row['runs']}) plan={row['plan_digest']}"
    )


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    speed = HostSpeed()
    setups = []
    speed.checkpoint()
    for _ in range(SETUPS):
        elapsed, roots, inputs = _setup(seed)
        setups.append(elapsed * speed.checkpoint())
    references = {root.label: reference_result(root, inputs[root.family]) for root in roots}
    oracle = Oracle()
    state = {root.label: {"compiles": [], "digests": set(), "runs": [], "plan": None,
                          "failed": False}
             for root in roots}

    tracer = LayerTracer() if trace else None
    sweeps = 0
    started = time.perf_counter()
    if trace:
        # three sweeps that each compile every root once, so layer totals are
        # per compile: the first warms the process, the second is traced and
        # the third is the untraced one it is compared with
        for sweeps in (1, 2, 3):
            if sweeps == 2:
                tracer.phase = "sweep"
                tracer.install()
            try:
                _sweep(roots, inputs, references, oracle, state, True, speed)
            finally:
                tracer.uninstall()
    else:
        while sweeps == 0 or time.perf_counter() - started < seconds:
            _sweep(roots, inputs, references, oracle, state, False, speed)
            sweeps += 1

    rows = [_row(root.label, state[root.label]) for root in roots]
    ok = [row for row in rows if not row["failed"]]
    lines = [_row_line(row) for row in rows]
    lines.append(f"sweeps {sweeps}; roots with more than one plan digest: "
                 f"{sum(';' in row['plan_digest'] for row in ok)}")
    lines.append(speed.describe())

    attempted = oracle.checked
    metrics = {}
    if ok and not trace:
        compile_ms = [row["compile_ms"] for row in ok]
        first_ms = [row["first_result_ms"] for row in ok]
        compiles = sum(row["compiles"] for row in ok)
        runs = [value for root in roots for value in state[root.label]["runs"]]
        metrics = {
            "setup_s": Metric(median(setups), "s", len(setups)),
            "compile_s": Metric(sum(compile_ms) / 1e3, "s", compiles),
            "compile_geomean_ms": Metric(geomean(compile_ms), "ms", compiles),
            "plan_cost_ratio": Metric(
                geomean([row["cost_after"] / row["cost_before"] for row in ok]),
                "ratio", len(ok)),
            "plan_run_ms": Metric(geomean([row["run_ms"] for row in ok]), "ms", len(runs)),
            # every root runs equally often: runs per second at the roots' medians
            "throughput_rps": Metric(
                len(ok) / sum(row["run_ms"] for row in ok) * 1e3, "1/s", len(runs)),
            "latency_p50_ms": Metric(percentile(first_ms, 50), "ms", len(first_ms)),
            "latency_p99_ms": Metric(percentile(first_ms, 99), "ms", len(first_ms)),
            "success_frac": Metric(1.0 - oracle.mismatches / max(1, attempted), "ratio", attempted),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        }

    payload: Dict[str, object] = {"rows": rows, "setups_s": setups}
    if trace and ok:
        traced = {row["root"]: state[row["root"]]["compiles"] for row in ok}
        per_layer = {name: 0.0 for name in PER_LAYER_UNITS}
        per_layer.update(compile_layers(
            tracer, "sweep",
            {label: compiles[1] for label, compiles in traced.items()},
            {row["root"]: row["improved"] for row in ok},
        ))
        per_layer["runtime.interp_ms"] = mean_self_ms(tracer, "sweep", "runtime.interp")
        per_layer["api.bind_ms"] = mean_self_ms(tracer, "sweep", "api.bind")
        per_layer["trace.overhead_pct"] = (
            geomean([compiles[1] for compiles in traced.values()])
            / geomean([compiles[2] for compiles in traced.values()]) - 1.0
        ) * 100.0
        metrics = {
            name: Metric(value, PER_LAYER_UNITS[name], len(ok))
            for name, value in per_layer.items()
        }
        payload["tracer"] = tracer
    return {
        "lines": lines,
        "metrics": metrics,
        "attempted": attempted,
        "failed": oracle.mismatches,
        "examples": oracle.examples,
        "payload": payload,
    }
