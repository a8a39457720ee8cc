"""invdiff benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; invdiff is imported from its src/.
One run sets the workload up several times in fresh interpreters (set-up
time), then drives its commands through invdiff.cli.main in this process,
one command at a time, pass after pass until S seconds have passed (a
closed loop with one client). Afterwards every command's outputs are checked.

--trace 0 reports the end-to-end metrics, measured with no wrapper
installed. --trace 1 alternates untraced passes with passes in which every
layer is wrapped (see tracer.py) and reports the per-layer metrics; the
tracing overhead is the median traced pass minus the median untraced pass,
and, not swamped by drift in machine speed, the spans of a traced pass times
the cost of one wrapper measured in this process.
Human-readable lines come first; the last line of standard output is the
JSON result. Spans go to .bench_work/traces/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads its BLAS, here and in every set-up interpreter.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = tuple(WORKLOADS)

# Set-up repeats: at least MIN, then more while their total time is under
# the budget, up to MAX. The median of many sub-second set-ups is steadier
# than that of a few.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 12, 6.0
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MiB"}


def run_setups(name, seed, indir, size):
    """Set the workload up in fresh interpreters; return the ready reports."""
    least, most = (SETUP_MIN, SETUP_MAX) if size == "full" else (1, 1)
    reports = []
    while len(reports) < least or (
            len(reports) < most
            and sum(r["setup_s"] for r in reports) < SETUP_BUDGET_S):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), name, str(seed),
             str(indir), size],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t0
        reports.append(report)
    return reports


def timed_passes(run_pass, seconds):
    """Run passes until seconds have passed; return each pass's time."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(run_pass())
    return times


class Runner:
    """Runs the passes of one workload and keeps each command's exit code."""

    def __init__(self, workload, main, indir, outdir, tracer):
        self.workload, self.main = workload, main
        self.indir, self.outdir, self.tracer = indir, outdir, tracer
        self.results = []  # (pass directory, [(label, exit code)])

    def run_pass(self, traced=False):
        if not traced:
            tracing.assert_clean()
        out = self.outdir / f"pass-{len(self.results)}"
        self.tracer.run = len(self.results)
        codes = []
        t0 = time.perf_counter()
        for label, argv in self.workload.commands(self.indir, out):
            codes.append((label, self._call(argv, traced)))
        elapsed = time.perf_counter() - t0
        self.results.append((out, codes))
        return elapsed

    def _call(self, argv, traced):
        try:
            if traced:
                with self.tracer.span("cli.main"):
                    return self.main(argv)
            return self.main(argv)
        except Exception:  # a crash counts as a failed command
            traceback.print_exc()
            return -1

    def check(self):
        """Check every command of every pass; return the failure messages."""
        failures = []
        first = {}
        for out, codes in self.results:
            for label, code in codes:
                try:
                    if code != 0:
                        raise ValueError(f"exit code {code}")
                    self.workload.check(label, out, self.indir)
                    files = _read_tree(out / label)
                    if first.setdefault(label, files) != files:
                        raise ValueError("outputs differ from the first pass")
                except Exception as exc:  # malformed output fails the command
                    failures.append(f"{out.name}/{label}: {exc}")
        return failures


def _read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def run_workload(name, seed, seconds, trace, size="full"):
    """Set up, run and check one workload; return (result, report lines)."""
    sys.path.insert(0, str(SRC))
    import invdiff.cli

    workload = build(name, seed, size)
    run_dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    try:
        setups = run_setups(name, seed, run_dir / "inputs", size)
        if len({r["digest"] for r in setups}) != 1:
            raise RuntimeError("set-ups with one seed produced different inputs")
        tracer = tracing.Tracer()
        runner = Runner(workload, invdiff.cli.main, run_dir / "inputs",
                        run_dir / "out", tracer)

        def untraced_then_traced():
            wall = runner.run_pass()
            tracer.install()
            try:
                return wall, runner.run_pass(traced=True)
            finally:
                tracer.uninstall()

        # alternating passes see the same machine state, so the difference
        # of their medians is the tracing overhead
        walls = timed_passes(untraced_then_traced if trace else runner.run_pass,
                             seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            walls, traced = zip(*walls)
        failures = runner.check()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(codes) for _, codes in runner.results)
    lines = [f"workload {name} seed {seed}: {len(walls)} untraced pass(es), "
             f"{attempted} commands, {len(failures)} failed "
             f"(fail_frac {len(failures) / attempted:g})"]
    lines += [f"FAIL {f}" for f in failures]
    correct = not failures
    median = statistics.median
    if trace:
        per_run = tracer.run_metrics()
        if any(m[k] != per_run[0][k] for m in per_run
               for k in tracing.EXACT_COUNTS):
            correct = False
            lines.append("FAIL exact counts differ between traced passes")
        values = {key: statistics.median_low(m[key] for m in per_run)
                  for key in per_run[0]}
        values["cli.import_s"] = median(r["import_s"] for r in setups)
        values["trace.overhead_s"] = median(traced) - median(walls)
        values["trace.est_overhead_s"] = (values["trace.spans"]
                                          * tracing.span_cost_s())
        units = tracing.UNITS
        trace_path = WORK / "traces" / f"{name}-seed{seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        lines.append(f"{len(traced)} traced pass(es); spans in {trace_path}")
    else:
        values = {
            "setup_s": median(r["setup_s"] for r in setups),
            "wall_s": median(walls),
            "work_per_s": workload.work() / median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        lines.append(f"setup_s is the median of {len(setups)} set-ups, wall_s "
                     f"the median of {len(walls)} passes; work_per_s counts "
                     f"{workload.work_unit} ({workload.work()} per pass)")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    lines += [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append("record " + json.dumps(run_record(name, seed, size)))
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def run_record(name, seed, size):
    import numpy
    import scipy
    return {
        "workload": name, "seed": seed, "size": size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu": _cpu_model(), "caches": _cache_sizes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=2 * CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit code {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invdiff" / "__init__.py").is_file():
        print(f"bench: no invdiff source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
