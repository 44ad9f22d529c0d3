"""Spans and counters for vortexcert, recorded from outside the package.

Nothing here edits ``src/``: a layer is measured by replacing its public
functions with wrappers for the length of one pass and restoring them
afterwards.  Each wrapper is installed under every name that a caller looks
up, because ``continuation`` and ``stability`` import model functions by
name (patching ``model.hess_hstar`` alone would miss
``continuation.hess_hstar``).

Validations that run inside ``continue --workers K`` pool processes happen in
other address spaces; the parent sees them only through the pool wrapper
(``cli.pool.tasks`` and ``cli.pool.wait_s``).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

def _modules():
    import vortexcert
    from vortexcert import catalog, cli, continuation, intervals, model, stability

    mods = {
        "intervals": intervals,
        "model": model,
        "continuation": continuation,
        "stability": stability,
        "catalog": catalog,
        "cli": cli,
    }
    return mods, [vortexcert, *mods.values()]


def _targets():
    """(layer, function, exceptions that count as its documented failure,
    whether calls are split into interval and float mode)."""
    from vortexcert import continuation as cont
    from vortexcert import intervals as iv
    from vortexcert import stability as stab

    return [
        ("intervals", "verify_invertible", (iv.NotVerified,), False),
        ("intervals", "complex_det_enclosure", (), False),
        ("model", "full_hstar_hessian", (), False),
        ("model", "hess_hstar", (), True),
        ("model", "grad_hstar", (), True),
        ("continuation", "nk_validate_segment", (cont.NotValidated,), False),
        ("continuation", "nk_validate_point", (cont.NotValidated,), False),
        ("continuation", "newton_polish", (cont.NoConvergence,), False),
        ("continuation", "jacobian_F", (), True),
        ("stability", "stability_over_segment", (), False),
        ("stability", "build_slice", (stab.SliceConstructionError,), False),
        ("stability", "assemble_blocks", (), False),
        ("stability", "stability_test", (), False),
        ("stability", "validate_simple_eigenpair", (stab.NotIsolated,), False),
        ("stability", "count_eigenvalues_winding", (stab.BoundaryHit,), False),
        ("catalog", "fixture", (), False),
    ]


CLI_COMMANDS = ("certify", "continue", "stability", "diagram")


def _is_interval(args) -> bool:
    return bool(args) and isinstance(args[0], np.ndarray) and args[0].dtype == object


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def replace_everywhere(self, modules, original, replacement):
        """Install ``replacement`` under every module name bound to ``original``."""
        hits = 0
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)
                    hits += 1
        return hits

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, and
    whether it failed.  Spans stay in memory until ``write``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []  # [name, start, end, parent, mode, failed, Z]
        self._stack = []
        self._patches = _Patches()
        self.pool_tasks = 0
        self.pool_wait_s = 0.0

    # -- recording ----------------------------------------------------------

    def _open(self, name, mode=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, mode, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, fails, split_mode):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, ("interval" if _is_interval(args) else "float") if split_mode else None)
            try:
                return fn(*args, **kwargs)
            except fails as exc:
                span[5] = True
                span[6] = getattr(exc, "Z", None)
                raise
            finally:
                tracer._close(span)

        return wrapper

    def _wrap_command(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(args):
            span = tracer._open(name)
            try:
                rc = fn(args)
                span[5] = rc != 0
                return rc
            finally:
                tracer._close(span)

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Counts tasks and the time the parent is blocked on the pool."""

            def __enter__(self):
                self._span = tracer._open("cli.pool")
                return super().__enter__()

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tracer.pool_tasks += min((len(it) for it in iterables), default=0)
                return super().map(fn, *iterables, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.pool_wait_s += time.perf_counter() - self._span[1]
                    tracer._close(self._span)

        return TracedPool

    # -- installation -------------------------------------------------------

    def install(self):
        mods, everywhere = _modules()
        for layer, fname, fails, split_mode in _targets():
            original = getattr(mods[layer], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, fails, split_mode)
            if self._patches.replace_everywhere(everywhere, original, wrapper) == 0:
                raise RuntimeError(f"{layer}.{fname} not found")
        cli = mods["cli"]
        for command in CLI_COMMANDS:
            attr = f"cmd_{command}"
            self._patches.set(cli, attr, self._wrap_command(f"cli.{command}", getattr(cli, attr)))
        self._patches.set(cli, "ProcessPoolExecutor", self._pool_class())

    def uninstall(self):
        self._patches.undo()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def root_time(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str, t_origin: float):
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, mode, failed, Z) in enumerate(self.spans):
                rec = {
                    "trace": self.trace_id,
                    "id": i,
                    "parent": parent,
                    "name": name,
                    "start_s": t0 - t_origin,
                    "end_s": t1 - t_origin,
                }
                if mode:
                    rec["mode"] = mode
                if failed:
                    rec["failed"] = True
                if Z is not None:
                    rec["Z"] = Z
                f.write(json.dumps(rec) + "\n")


def traced_metric_names() -> list:
    """Names of the per-layer metrics ``layer_metrics`` reports."""
    names = []
    for layer, fname, fails, split_mode in _targets():
        base = f"{layer}.{fname}"
        names += [f"{base}.calls", f"{base}.self_s"]
        if fails:
            names.append(f"{base}.fails")
        if split_mode:
            names += [f"{base}.interval_calls", f"{base}.float_calls"]
    for command in CLI_COMMANDS:
        names += [f"cli.{command}.calls", f"cli.{command}.self_s", f"cli.{command}.fails"]
    return names + [
        "continuation.nk_validate_segment.p50_s",
        "continuation.nk_validate_segment.p95_s",
        "continuation.nk_validate_segment.useful_ratio",
        "continuation.fail_Z_p50",
        "stability.stability_over_segment.revalidations",
        "stability.stability_over_segment.invertibility_checks",
        "cli.pool.tasks",
        "cli.pool.wait_s",
    ]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (0 for a function that did not
    run, and for a percentile or ratio without samples)."""
    selfs = tracer.self_times()
    out = dict.fromkeys(traced_metric_names(), 0)
    durations, fail_Z = [], []
    for i, (name, t0, t1, parent, mode, failed, Z) in enumerate(tracer.spans):
        if name == "cli.pool":
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        if failed:
            out[f"{name}.fails"] += 1
        if mode:
            out[f"{name}.{mode}_calls"] += 1
        if name == "continuation.nk_validate_segment":
            durations.append(t1 - t0)
            if failed and Z is not None and math.isfinite(Z):
                fail_Z.append(Z)
            if tracer.has_ancestor(i, "stability.stability_over_segment"):
                out["stability.stability_over_segment.revalidations"] += 1
        if name == "intervals.verify_invertible" and tracer.has_ancestor(i, "stability.stability_over_segment"):
            out["stability.stability_over_segment.invertibility_checks"] += 1
    if durations:
        durations.sort()
        seg = "continuation.nk_validate_segment"
        out[f"{seg}.p50_s"] = statistics.median(durations)
        out[f"{seg}.p95_s"] = _percentile(durations, 0.95)
        out[f"{seg}.useful_ratio"] = (out[f"{seg}.calls"] - out[f"{seg}.fails"]) / out[f"{seg}.calls"]
    if fail_Z:
        out["continuation.fail_Z_p50"] = statistics.median(fail_Z)
    out["cli.pool.tasks"] = tracer.pool_tasks
    out["cli.pool.wait_s"] = tracer.pool_wait_s
    return out


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[k]


OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pos__", "__pow__", "__abs__",
)


class OpCounter:
    """Counts every ``Interval`` and ``ComplexInterval`` arithmetic operator
    call.  Kept out of the traced pass: the operators hold most of the run
    time, so wrapping them would distort the span self-times."""

    def __init__(self):
        self.count = 0
        self._patches = _Patches()

    def install(self):
        from vortexcert.intervals import ComplexInterval, Interval

        for cls in (Interval, ComplexInterval):
            for name in OPERATORS:
                if name in cls.__dict__:
                    self._patches.set(cls, name, self._counted(cls.__dict__[name]))

    def _counted(self, op):
        counter = self

        def counted(*args):
            counter.count += 1
            return op(*args)

        return counted

    def uninstall(self):
        self._patches.undo()
