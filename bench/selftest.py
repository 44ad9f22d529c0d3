"""Fast self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Runs ``points`` on antiprism8 alone and ``branch5`` on a two-segment window,
untraced and traced, and checks that:

- every output check passes and every expected function records calls
  under the name its caller looks up;
- span self-times account for the traced pass, and every wrapper is
  removed again afterwards;
- the scalar-op count repeats exactly between two counting passes;
- the metric names, units and directions in BENCHMARK.json are the ones the
  harness reports.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
from spans import OpCounter  # noqa: E402
from workloads import Branch5, Points  # noqa: E402


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def count_ops(workload) -> int:
    counter = OpCounter()
    counter.install()
    try:
        run.timed_pass(workload, "selftest-count")
    finally:
        counter.uninstall()
    return counter.count


def main() -> int:
    run._import_package()
    from vortexcert import cli, continuation, intervals

    originals = (continuation.hess_hstar, cli.cmd_continue, cli.ProcessPoolExecutor, intervals.Interval.__mul__)
    os.makedirs(run.OUT, exist_ok=True)
    os.makedirs(run.WORK, exist_ok=True)

    tiny_branch = Branch5(omega_to=0.205, step=0.0025)
    # a window this short needs no bisection inside stability_over_segment
    tiny_branch.expect_called = [m for m in Branch5.expect_called if not m.endswith(".revalidations")]
    for workload in (Points(["antiprism8"]), tiny_branch):
        metrics, results, problems, _ = run.run_untraced(workload, seconds=0.0)
        check(not problems and results[0].failed == 0, f"{workload.name} tiny untraced pass: {problems}")
        check(set(metrics) == set(run.END_TO_END) and all(v > 0 for v in metrics.values()),
              f"{workload.name} end-to-end metrics all measured and nonzero")
        trace_path = os.path.join(run.OUT, f"selftest-{workload.name}.spans.jsonl")
        metrics, results, problems, _ = run.run_traced(workload, 0, trace_path)
        check(not problems, f"{workload.name} tiny traced pass: {problems}")
        check(set(metrics) == set(run.per_layer_units()), f"{workload.name} per-layer metrics all measured")
        check(metrics["trace.remainder_s"] >= 0.0, f"{workload.name} self-times plus remainder give the wall time")
        with open(trace_path) as f:
            check(sum(1 for _ in f) == metrics["trace.spans"], f"{workload.name} spans written")
        first = count_ops(workload)
        check(first > 0 and first == count_ops(workload), f"{workload.name} scalar-op count repeats exactly ({first})")

    check(
        originals == (continuation.hess_hstar, cli.cmd_continue, cli.ProcessPoolExecutor, intervals.Interval.__mul__),
        "wrappers removed after each pass",
    )

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    check(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches the harness")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(declared == run.per_layer_units(), "BENCHMARK.json per_layer matches the harness")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads match")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
