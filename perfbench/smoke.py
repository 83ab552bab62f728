"""Smoke test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It checks, in about three minutes:

1. the oracle rejects doctored references (a perturbed real result, a
   one-ulp change to a bitwise SSSP result, a sparse result) and results
   shaped as the transposed vector;
2. a serve run whose references were doctored reports failed outputs;
3. every workload, at a one-second run length, prints every metric that
   ``BENCHMARK.json`` names, with its unit, for ``--trace 0`` and ``1``;
4. a directory holding only ``BENCHMARK.json`` and the benchmark's files
   makes the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import common  # noqa: E402
import serve  # noqa: E402
from run import OUT_DIR, WORKLOADS  # noqa: E402


def check_oracle() -> None:
    roots = {root.label: root for root in common.build_roots("S", semiring=True)}
    vectors = 0
    for label in ("GLM/gradient", "SSSP/relax", "MLR/weighted_rows"):
        root = roots[label]
        inputs = root.workload.inputs(3)
        reference = common.reference_result(root, inputs)
        oracle = common.Oracle()
        assert oracle.check(label, root, reference, reference), label
        if hasattr(reference, "tocsr"):
            doctored = reference.tocsr(copy=True)
            doctored.data[0] += 1e-3
        else:
            doctored = np.array(reference, dtype=float, copy=True)
            flat = doctored.reshape(-1)
            finite = np.flatnonzero(np.isfinite(flat))[0]
            if root.ring == "real":
                flat[finite] += 1e-3
            else:
                flat[finite] = np.nextafter(flat[finite], np.inf)
        assert not oracle.check(label, root, reference, doctored), f"{label}: doctored passed"
        assert (oracle.checked, oracle.mismatches) == (2, 1), label
        if reference.shape[1] == 1:
            # a plan that returns the transposed vector is wrong
            transposed = reference.T
            assert not oracle.check(label, root, transposed, reference), f"{label}: transposed passed"
            assert (oracle.checked, oracle.mismatches) == (3, 2), label
            vectors += 1
    assert vectors >= 2, "no vector root covered the transposed case"
    print("oracle: doctored and transposed references rejected")


def check_doctored_run() -> None:
    original = serve.reference_result

    def doctored(root, inputs):
        reference = original(root, inputs)
        return reference * 1.001 + 1e-3 if root.label == "GLM/gradient" else reference

    serve.reference_result = doctored
    workdir = serve.work_dir(OUT_DIR)
    try:
        result = serve.run("serve-hot", 1, 0.5, False, workdir)
    finally:
        serve.reference_result = original
        shutil.rmtree(workdir, ignore_errors=True)
    assert result["failed"] > 0, "a doctored reference went unnoticed"
    print(f"doctored serve-hot run: {result['failed']} of {result['attempted']} outputs failed")


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        units = {metric["name"]: metric["unit"] for metric in spec[group]}
        for workload in WORKLOADS:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            assert out.returncode == 0, f"{workload} trace {trace}:\n{out.stdout}\n{out.stderr}"
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == units, f"{workload} trace {trace}: {printed} != {units}"
            for name in units:
                assert any(line.startswith(f"metric {name} = ") for line in lines), name
            print(f"{workload} --trace {trace}: {len(units)} metrics with units")


def check_bare_directory() -> None:
    bare = os.path.join(OUT_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and not out.stdout.strip(), out.stdout
    print("bare directory: exits non-zero without a result")


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    check_oracle()
    check_doctored_run()
    check_bare_directory()
    check_metrics()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
