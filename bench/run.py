"""vortexcert pipeline benchmark.

    python3 bench/run.py --workload {branch5,stall8,points} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all          # every workload, one table

Runs from the root of a source checkout and imports ``src/vortexcert``
(nothing is installed).  With ``--trace 0`` it measures the end-to-end
metrics: untraced passes are repeated until ``--seconds`` have passed (at
least one) and timings are medians over passes.  With ``--trace 1`` it makes
one untraced reference pass, one traced pass that yields the per-layer
metrics, and one counting pass for ``intervals.scalar_ops``.  Every pass
checks its outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; run info
(environment, inputs, artifact sha256) goes to the lines before it and to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 15


def _import_package():
    """Import vortexcert from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vortexcert", "__init__.py")):
        raise SystemExit(f"error: no vortexcert sources under {SRC}")
    sys.path.insert(0, SRC)
    import vortexcert

    if os.path.dirname(os.path.dirname(os.path.abspath(vortexcert.__file__))) != SRC:
        raise SystemExit(f"error: imported vortexcert from {vortexcert.__file__}, not {SRC}")


sys.path.insert(0, HERE)
from spans import OpCounter, Tracer, layer_metrics, traced_metric_names  # noqa: E402
from workloads import WORKLOADS, artifact_hashes  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "certified_share": ("ratio", "higher"),
}


def per_layer_units() -> dict:
    """Every per-layer metric with (unit, better)."""
    units = {}
    for name in traced_metric_names():
        field = name.rpartition(".")[2]
        if name.endswith("_s"):
            units[name] = ("s", "lower")
        elif field == "useful_ratio":
            units[name] = ("ratio", "higher")
        elif field == "fail_Z_p50":
            units[name] = ("ratio", "lower")
        else:
            units[name] = ("count", "lower")
    units.update({
        "intervals.scalar_ops": ("count", "lower"),
        "intervals.mul_ns": ("ns", "lower"),
        "intervals.add_ns": ("ns", "lower"),
        "continuation.segments": ("count", "lower"),
        "continuation.mean_segment_width": ("omega", "higher"),
        "trace.wall_s": ("s", "lower"),
        "trace.untraced_wall_s": ("s", "lower"),
        "trace.overhead": ("ratio", "lower"),
        "trace.self_s_total": ("s", "lower"),
        "trace.remainder_s": ("s", "lower"),
        "trace.spans": ("count", "lower"),
    })
    return units


# -- measurement --------------------------------------------------------------


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def timed_pass(workload, tag):
    """One pass in a fresh directory: (wall s, CPU s incl. children, result)."""
    d = os.path.join(WORK, f"{workload.name}-{os.getpid()}-{tag}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    try:
        c0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        result = workload.run_pass(d)
        wall = time.perf_counter() - t0
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - c0
        result.artifacts = artifact_hashes(d)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return wall, cpu, result


def measure_setup(workload) -> float:
    """Median time for a fresh interpreter to import vortexcert and build the
    workload's fixtures (one unrecorded probe first, so .pyc files exist)."""
    spec = ";".join(f"{name}:{label or ''}" for name, label in workload.fixtures)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, spec]
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60).stdout
        if i:
            times.append(float(out.split()[-1]))
    return statistics.median(times)


def interval_kernel_ns(seed: int, n: int = 20000, reps: int = 5) -> dict:
    """Median ns per scalar Interval product and sum on seeded operands."""
    import numpy as np
    from vortexcert.intervals import Interval

    rng = np.random.default_rng(seed)
    mid = rng.uniform(-4.0, 4.0, size=(2, n))
    rad = rng.uniform(0.0, 1e-9, size=(2, n))
    xs = [Interval(m - r, m + r) for m, r in zip(mid[0], rad[0])]
    ys = [Interval(m - r, m + r) for m, r in zip(mid[1], rad[1])]
    out = {}
    for key, op in (("intervals.mul_ns", Interval.__mul__), ("intervals.add_ns", Interval.__add__)):
        per_rep = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for a, b in zip(xs, ys):
                op(a, b)
            per_rep.append((time.perf_counter() - t0) / n * 1e9)
        out[key] = statistics.median(per_rep)
    return out


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "seed": seed,
    }


def _problems_of(results) -> list:
    problems = [p for r in results for p in r.problems]
    if len({json.dumps(r.artifacts, sort_keys=True) for r in results}) > 1:
        problems.append("passes of one run wrote different artifacts")
    return problems


def run_untraced(workload, seconds: float):
    setup_s = measure_setup(workload)
    walls, cpus, results = [], [], []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        wall, cpu, result = timed_pass(workload, len(walls))
        walls.append(wall)
        cpus.append(cpu)
        results.append(result)
    rss_kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
        "certified_share": min(r.certified_share for r in results),
    }
    info = {"passes": len(walls), "wall_s_per_pass": walls, "cpu_s_per_pass": cpus}
    return metrics, results, _problems_of(results), info


def run_traced(workload, seed: int, trace_path: str):
    ref_wall, _, ref = timed_pass(workload, "reference")

    tracer = Tracer(f"{workload.name}-seed{seed}-pid{os.getpid()}")
    tracer.install()
    try:
        t_origin = time.perf_counter()
        wall, _, traced = timed_pass(workload, "traced")
    finally:
        tracer.uninstall()
    tracer.write(trace_path, t_origin)

    counter = OpCounter()
    counter.install()
    try:
        counting_wall, _, counted = timed_pass(workload, "counting")
    finally:
        counter.uninstall()

    metrics = layer_metrics(tracer)
    metrics.update(interval_kernel_ns(seed))
    self_total = sum(tracer.self_times())
    metrics.update({
        "intervals.scalar_ops": counter.count,
        "continuation.segments": traced.segments,
        "continuation.mean_segment_width": traced.certified_width / traced.segments if traced.segments else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": ref_wall,
        "trace.overhead": wall / ref_wall,
        "trace.self_s_total": self_total,
        "trace.remainder_s": wall - self_total,
        "trace.spans": len(tracer.spans),
    })

    results = [ref, traced, counted]
    problems = _problems_of(results)
    missing = [m for m in workload.expect_called if not metrics.get(m)]
    if missing:
        problems.append("no calls recorded for " + ", ".join(missing))
    if abs(self_total - tracer.root_time()) > 1e-6 * (1 + len(tracer.spans)) or self_total > wall:
        problems.append(f"span self-times {self_total:.6f} s do not account for the traced pass ({wall:.6f} s)")
    return metrics, [traced], problems, {"counting_pass_wall_s": counting_wall}


# -- entry points ---------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    _import_package()
    workload = WORKLOADS[name].from_seed(seed)
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    if trace:
        metrics, results, problems, info = run_traced(workload, seed, stem + ".spans.jsonl")
        units = per_layer_units()
    else:
        metrics, results, problems, info = run_untraced(workload, seconds)
        units = END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))

    attempted = results[0].attempted if trace else sum(r.attempted for r in results)
    failed = results[0].failed if trace else sum(r.failed for r in results)
    info.update({
        "workload": name,
        "environment": environment(seed),
        "inputs": workload.inputs(),
        "details": results[0].details,
        "artifacts_sha256": results[0].artifacts,
        "problems": problems,
    })
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units if k in metrics},
    }
    with open(stem + ".json", "w") as f:
        json.dump({"info": info, "result": summary}, f, indent=1)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("info " + json.dumps(info))
    print(json.dumps(summary))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        print(f"  {'fail_ratio':<56} {res['failed'] / res['attempted']:.6g} ratio")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<56} {v['value']:.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
