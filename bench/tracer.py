"""Outside-in tracing of the invdiff layers.

The tracer replaces public functions with timing wrappers at the names their
callers look up (the CLI's imports, and the norms and fit that
stability_scan calls), so the program itself is unchanged. Spans are kept in
memory and written out when the benchmark ends. Every layer time reported
is self time: a span's duration minus the spans it directly contains.

Each thread keeps its own span stack, and every span records its thread. A
span opened on a worker thread has no parent, so its time is not taken off
the span that started the thread: with threads, the self time of a span
that waits on workers still holds that wait.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    parent: int | None
    run: int
    thread: int = 0
    end_ns: int = 0
    error: bool = False
    counts: dict = field(default_factory=dict)


def _solve_counts(args, result):
    mesh = args[0].mesh
    return {"dof": (mesh.n - 1) ** mesh.dim, "iters": result[-1].iterations}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _subcube_counts(args, result):
    return {"subcubes": len(result.flags),
            "ok": sum(flag == "ok" for flag in result.flags)}


def _scan_counts(args, result):
    samples = result[0]
    return {"pairs": len(samples), "excluded": sum(s.excluded for s in samples)}


# (module, attribute, span name, counts taken from the arguments and result)
TARGETS = (
    ("invdiff.cli", "solve_1d", "forward.solve", _solve_counts),
    ("invdiff.cli", "solve_fd_2d", "forward.solve", _solve_counts),
    ("invdiff.cli", "write_field_csv", "field.csv_write", _file_bytes),
    ("invdiff.cli", "read_field_csv", "field.csv_read", _file_bytes),
    ("invdiff.cli", "recover_pwc", "recovery.recover", _subcube_counts),
    ("invdiff.cli", "recover_1d", "recovery.recover", None),
    ("invdiff.cli", "compute_weight", "positivity.weight", None),
    ("invdiff.cli", "fit_pc_beta", "positivity.fit", None),
    ("invdiff.cli", "mollify", "mollify.mollify", None),
    ("invdiff.cli", "approximation_functional", "mollify.functional", None),
    ("invdiff.cli", "stability_scan", "experiments.scan", _scan_counts),
    # a generator: each next() is its own span, so the solves between
    # yields are not counted as pair generation
    ("invdiff.cli", "coefficient_family", "experiments.family", None),
    ("invdiff.experiments", "norm_h10", "field.norm", None),
    ("invdiff.experiments", "grid_l2", "field.norm", None),
    ("invdiff.experiments", "fit_exponent", "experiments.fit", None),
)
# counts that must repeat exactly between runs with one seed
EXACT_COUNTS = ("forward.iters", "forward.dof", "recovery.subcubes",
                "experiments.pairs", "field.csv_write_mb", "field.csv_read_mb")

# unit of every per-layer metric, in the order they are reported
UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.calls": "count",
    "forward.solve_s": "s", "forward.calls": "count", "forward.iters": "count",
    "forward.failed": "count", "forward.ms_per_iter": "ms",
    "forward.dof": "count",
    "field.csv_write_s": "s", "field.csv_write_mb": "MB",
    "field.csv_read_s": "s", "field.csv_read_mb": "MB", "field.norm_s": "s",
    "recovery.recover_s": "s", "recovery.subcubes": "count",
    "recovery.ok_frac": "ratio",
    "positivity.weight_s": "s", "positivity.fit_s": "s",
    "mollify.mollify_s": "s", "mollify.functional_s": "s",
    "mollify.calls": "count",
    "experiments.family_s": "s", "experiments.scan_s": "s",
    "experiments.fit_s": "s", "experiments.pairs": "count",
    "experiments.excluded": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
    "trace.est_overhead_s": "s",
}

_MARK = "__bench_span__"
_SPANS_LOCK = threading.Lock()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._local = threading.local()
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        s = Span(name, time.perf_counter_ns(), stack[-1] if stack else None,
                 self.run, threading.get_ident())
        # append and len together, so that another thread's span cannot
        # take this index
        with _SPANS_LOCK:
            stack.append(len(self.spans))
            self.spans.append(s)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end_ns = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counts is not None:
                    s.counts = counts(args, result)
            return result
        return wrapper

    def _wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                yield item
        return wrapper

    def install(self):
        assert_clean()
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap(original, name, counts)
            setattr(wrapper, _MARK, name)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__, sort_keys=True) + "\n")

    def run_metrics(self) -> list:
        """The layer metrics of each run, in run order."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        runs, spans = {}, {}
        for s, child in zip(self.spans, child_ns):
            spans[s.run] = spans.get(s.run, 0) + 1
            layer = runs.setdefault(s.run, {}).setdefault(
                s.name, {"self_s": 0.0, "calls": 0, "errors": 0})
            layer["self_s"] += (s.end_ns - s.start_ns - child) * 1e-9
            layer["calls"] += 1
            layer["errors"] += s.error
            for key, value in s.counts.items():
                layer[key] = layer.get(key, 0) + value
        return [_metrics_of_run(runs[run]) | {"trace.spans": spans[run]}
                for run in sorted(runs)]


def span_cost_s(calls=2000, repeats=7) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op minus a bare one.

    The median of several batches, taken in this process, so that an
    estimate of the tracing overhead need not come from the difference of
    two pass times, which drift in machine speed can swamp.
    """
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "trace.calibrate", None)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _metrics_of_run(layers: dict) -> dict:
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    iters = get("forward.solve", "iters")
    subcubes = get("recovery.recover", "subcubes")
    return {
        "cli.self_s": get("cli.main", "self_s"),
        "cli.calls": get("cli.main", "calls"),
        "forward.solve_s": get("forward.solve", "self_s"),
        "forward.calls": get("forward.solve", "calls"),
        "forward.iters": iters,
        "forward.failed": get("forward.solve", "errors"),
        "forward.ms_per_iter": (1e3 * get("forward.solve", "self_s") / iters
                                if iters else 0.0),
        "forward.dof": get("forward.solve", "dof"),
        "field.csv_write_s": get("field.csv_write", "self_s"),
        "field.csv_write_mb": get("field.csv_write", "bytes") / 1e6,
        "field.csv_read_s": get("field.csv_read", "self_s"),
        "field.csv_read_mb": get("field.csv_read", "bytes") / 1e6,
        "field.norm_s": get("field.norm", "self_s"),
        "recovery.recover_s": get("recovery.recover", "self_s"),
        "recovery.subcubes": subcubes,
        "recovery.ok_frac": (get("recovery.recover", "ok") / subcubes
                             if subcubes else 0.0),
        "positivity.weight_s": get("positivity.weight", "self_s"),
        "positivity.fit_s": get("positivity.fit", "self_s"),
        "mollify.mollify_s": get("mollify.mollify", "self_s"),
        "mollify.functional_s": get("mollify.functional", "self_s"),
        "mollify.calls": get("mollify.mollify", "calls"),
        "experiments.family_s": get("experiments.family", "self_s"),
        "experiments.scan_s": get("experiments.scan", "self_s"),
        "experiments.fit_s": get("experiments.fit", "self_s"),
        "experiments.pairs": get("experiments.scan", "pairs"),
        "experiments.excluded": get("experiments.scan", "excluded"),
    }


def assert_clean():
    """Raise if any traced name still holds a wrapper."""
    for module_name, attr, _, _ in TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        if hasattr(fn, _MARK):
            raise RuntimeError(f"{module_name}.{attr} is still wrapped")
