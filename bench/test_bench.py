"""Self-checks of the benchmark at small sizes: every workload runs, passes
its output checks and reports the metrics BENCHMARK.json declares; exact
counts repeat between two runs with one seed; another seed gives other
inputs; and without invdiff's source the benchmark fails without a result.
"""

import json
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import prepare
import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_smoke_reports_end_to_end_metrics():
    result, _ = run.run_workload("lab-1d", 2, 0, False, "smoke")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_passes_checks_and_repeats_exact_counts(name):
    first, _ = run.run_workload(name, 1, 0, True, "smoke")
    second, _ = run.run_workload(name, 1, 0, True, "smoke")
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} \
            == units("per_layer") == tracer.UNITS
    for key in tracer.EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key]
    assert first["metrics"]["cli.calls"]["value"] == \
        first["attempted"] // 2
    tracer.assert_clean()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_determines_inputs(name, tmp_path):
    import invdiff.cli

    indir = tmp_path / "inputs"
    digests = []
    for seed in (1, 1, 2):
        shutil.rmtree(indir, ignore_errors=True)
        indir.mkdir()
        workloads.build(name, seed, "smoke").prepare(indir, invdiff.cli.main)
        digests.append(prepare.digest(indir))
    assert digests[0] == digests[1] != digests[2]


def test_tracer_attributes_self_time():
    t = tracer.Tracer()
    t.spans = [
        tracer.Span("cli.main", 0, None, 0, end_ns=10_000_000),
        tracer.Span("forward.solve", 2_000_000, 0, 0, end_ns=9_000_000,
                    counts={"dof": 9, "iters": 7}),
    ]
    (m,) = t.run_metrics()
    assert m["cli.self_s"] == pytest.approx(0.003)
    assert m["forward.solve_s"] == pytest.approx(0.007)
    assert m["forward.ms_per_iter"] == pytest.approx(1.0)
    assert m["forward.iters"] == 7 and m["forward.dof"] == 9


def test_tracer_keeps_one_span_stack_per_thread():
    t = tracer.Tracer()
    inside = threading.Barrier(2)

    def work(name):
        with t.span(name):
            with t.span(name + ".inner"):
                inside.wait(timeout=10)

    threads = [threading.Thread(target=work, args=(n,)) for n in "ab"]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    by_name = {s.name: s for s in t.spans}
    for name in "ab":
        inner = by_name[name + ".inner"]
        assert t.spans[inner.parent] is by_name[name]
        assert inner.thread == by_name[name].thread
        assert by_name[name].parent is None
    assert by_name["a"].thread != by_name["b"].thread


def test_span_cost_is_positive():
    assert 0 < tracer.span_cost_s(calls=200, repeats=3) < 1e-3


def test_five_point_residual_detects_a_wrong_solution():
    n = 16
    a = workloads.pwc_cells(np.linspace(1, 2, 16), n, 4)
    u = np.ones((n - 1, n - 1))
    assert workloads.five_point_residual(a, u) > 0.5


def test_fails_without_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lab-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
