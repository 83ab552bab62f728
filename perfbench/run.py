"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0

Workloads: ``compile-cold``, ``serve-fresh``, ``serve-hot`` (see
``perfbench/README.md``).  ``--trace 0`` measures the program untouched and
reports the end-to-end metrics; ``--trace 1`` wraps each layer's entry
points, reports the per-layer metrics and the tracing overhead, and writes
every span to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output matched the reference oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("compile-cold", "serve-fresh", "serve-hot")

END_TO_END = (
    "setup_s", "compile_s", "compile_geomean_ms", "plan_cost_ratio", "plan_run_ms",
    "throughput_rps", "latency_p50_ms", "latency_p99_ms", "success_frac", "peak_rss_mb",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: the program's sources are missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    from repro import obs

    import common
    import compile_cold
    import layers
    import serve

    os.makedirs(OUT_DIR, exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "compile-cold":
        result = compile_cold.run(args.seed, args.seconds, trace)
    else:
        workdir = serve.work_dir(OUT_DIR)
        try:
            result = serve.run(args.workload, args.seed, args.seconds, trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    problems = list(result["examples"])
    if obs.is_enabled():
        problems.append("repro.obs was enabled during the run")
    expected = set(layers.PER_LAYER_UNITS) if trace else set(END_TO_END)
    metrics = result["metrics"]
    if set(metrics) != expected:
        problems.append(f"metrics missing: {sorted(expected - set(metrics))}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    payload = result["payload"]
    tracer = payload.pop("tracer", None)
    record = {"lines": result["lines"], "problems": problems, **payload}
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as handle:
        json.dump(record, handle, default=str)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, f"{stem}-spans.json"), {"workload": args.workload})

    for line in result["lines"] + common.describe_metrics(metrics):
        print(line)
    for problem in problems:
        print(f"problem: {problem}")
    correct = not problems and result["failed"] == 0
    print(json.dumps(common.result_line(
        correct, max(1, result["attempted"]), result["failed"], metrics)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
