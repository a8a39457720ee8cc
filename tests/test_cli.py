import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invdiff
from invdiff.cli import (main, EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL,
                         _build_coefficient)
from invdiff.mesh import Mesh
from invdiff.field import write_field_csv, read_field_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(command, config, out):
    return main([command, "--config", config, "--out", str(out)])


def reject_constant(name):
    raise ValueError(f"JSON artifact holds {name}, which is not JSON")


SOLVE_2D = {
    "mesh": {"dim": 2, "n": 64},
    "coefficient": {"kind": "constant", "value": 1.0,
                    "lambda": 0.5, "Lambda": 2.0},
    "rhs": {"constant": 1.0},
    "solver": {"tol": 1e-10},
}


class TestSolve:
    def test_2d_writes_interior_nodes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SOLVE_2D)
        assert run("solve", cfg, tmp_path / "out") == EXIT_OK
        lines = (tmp_path / "out" / "u.csv").read_text().strip().split("\n")
        assert len(lines) == 63 * 63 + 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["solver"] == "fd2d"
        assert report["residual"] <= 1e-10
        assert set(report) == {"iterations", "residual", "solver",
                               "config_hash", "version"}

    def test_1d_point_mass_hat(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mesh": {"dim": 1, "n": 1024},
            "coefficient": {"kind": "constant", "value": 1.0,
                            "lambda": 0.5, "Lambda": 2.0},
            "rhs": {"constant": 0.0, "point_masses": [[0.5, 2.0]]},
        })
        assert run("solve", cfg, tmp_path / "out") == EXIT_OK
        mesh = Mesh(1, 1024)
        u = read_field_csv(tmp_path / "out" / "u.csv", mesh, "nodes")
        x = mesh.node_coords_1d()
        assert np.max(np.abs(u - np.minimum(x, 1 - x))) <= mesh.h

    def test_unknown_key_rejected_by_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", SOLVE_2D | {"bogus": 1})
        assert run("solve", cfg, tmp_path / "out") == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_missing_config(self, tmp_path):
        assert run("solve", str(tmp_path / "none.json"),
                   tmp_path / "out") == EXIT_CONFIG

    def test_constant_without_bounds_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "mesh": {"dim": 1, "n": 64},
            "coefficient": {"kind": "constant", "value": 1.0},
            "rhs": {"constant": 1.0},
        })
        assert run("solve", cfg, tmp_path / "out") == EXIT_CONFIG

    def test_unusable_out_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", SOLVE_2D)
        (tmp_path / "afile").write_text("")
        assert run("solve", cfg, tmp_path / "afile" / "sub") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invdiff: I/O error:")
        assert len(err.strip().splitlines()) == 1

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SOLVE_2D)
        run("solve", cfg, tmp_path / "a")
        main(["solve", "--config", cfg, "--out", str(tmp_path / "b"),
              "--threads", "8"])
        assert (tmp_path / "a" / "u.csv").read_bytes() == \
            (tmp_path / "b" / "u.csv").read_bytes()
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()


class TestRecover:
    def prep_linear_solve(self, tmp_path):
        mesh = Mesh(1, 2048)
        write_field_csv(tmp_path / "a.csv", mesh,
                        1.0 + mesh.cell_centers_1d(), "cells")
        cfg = write_config(tmp_path, "solve.json", {
            "mesh": {"dim": 1, "n": 2048},
            "coefficient": {"kind": "file", "path": str(tmp_path / "a.csv"),
                            "lambda": 0.5, "Lambda": 2.5},
            "rhs": {"constant": 1.0},
        })
        assert run("solve", cfg, tmp_path / "fwd") == EXIT_OK

    def test_1d_round_trip_gamma(self, tmp_path):
        self.prep_linear_solve(tmp_path)
        cfg = write_config(tmp_path, "rec.json", {
            "mesh": {"dim": 1, "n": 2048},
            "mode": "1d",
            "u_file": str(tmp_path / "fwd" / "u.csv"),
            "rhs": {"constant": 1.0},
            "w_excl": 0.02,
            "lambda": 0.5, "Lambda": 2.5,
        })
        assert run("recover", cfg, tmp_path / "rec") == EXIT_OK
        payload = json.loads((tmp_path / "rec" / "recovery.json").read_text())
        assert payload["gamma_hat"] == pytest.approx(0.4427, abs=1e-3)
        assert {"config_hash", "version", "w_excl"} <= set(payload)
        mesh = Mesh(1, 2048)
        a_rec = read_field_csv(tmp_path / "rec" / "a_rec.csv", mesh, "cells")
        truth = 1.0 + mesh.cell_centers_1d()
        assert np.sqrt(np.mean((a_rec - truth) ** 2)) <= 0.01 * np.sqrt(np.mean(truth ** 2))

    def test_1d_clamped_cells_counted(self, tmp_path):
        self.prep_linear_solve(tmp_path)
        payloads = []
        for lam, Lam in ((0.5, 2.5), (1.2, 1.8)):
            cfg = write_config(tmp_path, "rec.json", {
                "mesh": {"dim": 1, "n": 2048},
                "mode": "1d",
                "u_file": str(tmp_path / "fwd" / "u.csv"),
                "rhs": {"constant": 1.0},
                "w_excl": 0.02,
                "lambda": lam, "Lambda": Lam,
            })
            out = tmp_path / f"rec_{lam}"
            assert run("recover", cfg, out) == EXIT_OK
            payloads.append(json.loads((out / "recovery.json").read_text()))
        assert payloads[0]["n_clamped"] == 0
        # the truth 1 + x leaves [1.2, 1.8] on about 40% of the cells
        assert 0.35 * 2048 < payloads[1]["n_clamped"] < 0.45 * 2048

    def test_pwc_round_trip(self, tmp_path):
        n = 128
        mesh = Mesh(2, n)
        q = np.add.outer(np.arange(n) // (n // 4), np.arange(n) // (n // 4)) % 2
        avals = np.where(q == 0, 1.0, 2.0)
        write_field_csv(tmp_path / "a.csv", mesh, avals, "cells")
        cfg = write_config(tmp_path, "solve.json", {
            "mesh": {"dim": 2, "n": n},
            "coefficient": {"kind": "file", "path": str(tmp_path / "a.csv"),
                            "lambda": 1.0, "Lambda": 2.0},
            "rhs": {"constant": 1.0},
            "solver": {"tol": 1e-11},
        })
        assert run("solve", cfg, tmp_path / "fwd") == EXIT_OK
        rec_cfg = write_config(tmp_path, "rec.json", {
            "mesh": {"dim": 2, "n": n},
            "mode": "pwc",
            "u_file": str(tmp_path / "fwd" / "u.csv"),
            "rhs": {"constant": 1.0},
            "partition_n": 4,
            "lambda": 1.0, "Lambda": 2.0,
        })
        assert run("recover", rec_cfg, tmp_path / "rec") == EXIT_OK
        rows = (tmp_path / "rec" / "a_rec.csv").read_text().strip().split("\n")[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        flags = [r.split(",")[2] for r in rows]
        assert all(flag == "ok" for flag in flags)
        from invdiff.mesh import Partition
        part = Partition(mesh, 4)
        truth = np.array([avals[part.cell_mask(k)][0] for k in range(16)])
        assert np.max(np.abs(values - truth) / truth) <= 0.05

    def test_missing_u_file(self, tmp_path):
        cfg = write_config(tmp_path, "rec.json", {
            "mesh": {"dim": 1, "n": 64},
            "mode": "1d",
            "u_file": str(tmp_path / "nope.csv"),
            "rhs": {"constant": 1.0},
            "w_excl": 0.02,
            "lambda": 0.5, "Lambda": 2.0,
        })
        assert run("recover", cfg, tmp_path / "rec") == EXIT_CONFIG

    @pytest.mark.parametrize("row", ["1.5,1,2", "1,1,abc"])
    def test_malformed_u_file(self, tmp_path, capsys, row):
        (tmp_path / "u.csv").write_text(f"i,j,value\n{row}\n")
        cfg = write_config(tmp_path, "rec.json", {
            "mesh": {"dim": 2, "n": 2},
            "mode": "pwc",
            "u_file": str(tmp_path / "u.csv"),
            "rhs": {"constant": 1.0},
            "partition_n": 1,
            "lambda": 0.5, "Lambda": 2.0,
        })
        assert run("recover", cfg, tmp_path / "rec") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("invdiff: config error:")


class TestScan:
    SCAN = {
        "mesh": {"dim": 1, "n": 4096},
        "experiment": {"family": "step-1d-lowerbound", "seeds": [0],
                       "n_pairs": 10, "floor": 1e-8},
    }

    def test_lower_bound_family_fit(self, tmp_path):
        cfg = write_config(tmp_path, "scan.json", self.SCAN)
        assert run("scan", cfg, tmp_path / "out") == EXIT_OK
        fit = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert 0.28 <= fit["alpha_hat"] <= 0.39
        assert fit["status"] == "ok"
        assert {"config_hash", "version", "c_hat", "r2",
                "n_used", "n_excluded"} <= set(fit)

    def test_empty_seed_list(self, tmp_path):
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 4096},
            "experiment": {"family": "step-1d-lowerbound", "seeds": []},
        })
        assert run("scan", cfg, tmp_path / "out") == EXIT_CONFIG

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "scan.json", self.SCAN)
        run("scan", cfg, tmp_path / "a")
        run("scan", cfg, tmp_path / "b")
        assert (tmp_path / "a" / "samples.csv").read_bytes() == \
            (tmp_path / "b" / "samples.csv").read_bytes()
        assert (tmp_path / "a" / "fit.json").read_bytes() == \
            (tmp_path / "b" / "fit.json").read_bytes()

    def test_floor_vs_tol_guard(self, tmp_path):
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 2, "n": 16},
            "solver": {"tol": 1e-8},
            "experiment": {"family": "smooth-fourier", "seeds": [1],
                           "floor": 1e-8},
        })
        assert run("scan", cfg, tmp_path / "out") == EXIT_CONFIG

    def test_1d_floor_has_no_solver_tolerance(self, tmp_path):
        # the 1D solve is direct: a floor below 10x the 2D default
        # tolerance is the scan's to choose
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 256},
            "experiment": {"family": "smooth-fourier", "seeds": [1],
                           "floor": 1e-12},
        })
        assert run("scan", cfg, tmp_path / "out") == EXIT_OK
        assert (tmp_path / "out" / "fit.json").exists()

    def test_descending_amplitudes_checked_at_the_largest(self, tmp_path,
                                                          capsys):
        # eps_min above the default eps_max of 0.1: the largest amplitude
        # is the first, and it leaves the class
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 256},
            "experiment": {"family": "smooth-fourier", "seeds": [3],
                           "eps_min": 0.3},
        })
        assert run("scan", cfg, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "invdiff: config error: perturbation amplitudes would leave "
            "the class\n")
        assert not (tmp_path / "out" / "fit.json").exists()

    @pytest.mark.parametrize("family", ["smooth-fourier", "pwc-random"])
    @pytest.mark.parametrize("lam, Lam", [(2.0, 1.0), (1.0, 1.0)])
    def test_empty_class_named_before_any_solve(self, tmp_path, capsys,
                                                monkeypatch, family, lam, Lam):
        import invdiff.cli as cli
        solves = []
        monkeypatch.setattr(cli, "solve_1d", lambda *args: solves.append(args))
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 64},
            "experiment": {"family": family, "seeds": [1],
                           "lambda": lam, "Lambda": Lam},
        })
        assert run("scan", cfg, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"invdiff: config error: need 0 < lam < Lam, got ({lam}, {Lam})\n")
        assert not solves
        assert not list((tmp_path / "out").iterdir())

    def test_step_family_takes_one_seed(self, tmp_path, capsys):
        # the family draws nothing from its seeds: a second seed would
        # repeat every pair
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 256},
            "experiment": {"family": "step-1d-lowerbound", "seeds": [1, 2],
                           "n_pairs": 3},
        })
        out = tmp_path / "out"
        assert run("scan", cfg, out) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "invdiff: config error: bad config at experiment/seeds: [1, 2] "
            "has 2 items, not 1 to 1\n")
        assert not out.exists()

    def test_negative_seeds_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 256},
            "experiment": {"family": "smooth-fourier", "seeds": [-1]},
        })
        out = tmp_path / "out"
        assert run("scan", cfg, out) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("invdiff: config error:")
        assert not out.exists()

    # scan pairs run on --threads workers; every byte must stay the same
    @pytest.mark.parametrize("experiment", [
        {"family": "smooth-fourier", "seeds": [2, 3], "n_pairs": 6},
        {"family": "pwc-random", "seeds": [4, 5], "n_pairs": 6},
    ])
    def test_2d_scan_bytes_for_any_threads(self, tmp_path, experiment):
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 2, "n": 32}, "experiment": experiment})
        outs = [tmp_path / f"t{k}" for k in (1, 2, 3)]
        for k, out in zip((1, 2, 3), outs):
            assert main(["scan", "--config", cfg, "--out", str(out),
                         "--threads", str(k)]) == EXIT_OK
        for name in ("samples.csv", "fit.json"):
            ref = (outs[0] / name).read_bytes()
            assert all((out / name).read_bytes() == ref for out in outs[1:])

    @pytest.mark.parametrize("dim,threads", [(1, 1), (2, 1), (2, 2)])
    def test_fit_reports_solver_effort(self, tmp_path, dim, threads):
        solver = {"solver": {"tol": 1e-10}} if dim == 2 else {}
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": dim, "n": 16 if dim == 2 else 256},
            "experiment": {"family": "smooth-fourier", "seeds": [1, 2],
                           "n_pairs": 3}} | solver)
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--threads", str(threads)]) == EXIT_OK
        effort = json.loads((tmp_path / "out" / "fit.json").read_text())["solver"]
        assert set(effort) == {"solves", "iterations_min", "iterations_max",
                               "iterations_sum", "residual_max"}
        assert effort["solves"] == 12
        if dim == 1:
            assert effort["iterations_max"] == effort["iterations_sum"] == 0
        else:
            assert 1 <= effort["iterations_min"] <= effort["iterations_max"]
            assert (12 * effort["iterations_min"] <= effort["iterations_sum"]
                    <= 12 * effort["iterations_max"])
            assert 0 < effort["residual_max"] <= 1e-10

    def test_solver_effort_survives_thread_switches(self, tmp_path):
        # more workers than cores, switching threads as often as possible:
        # a lost report or a mixed-up sample would show
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 256},
            "experiment": {"family": "smooth-fourier", "seeds": [1, 2, 3],
                           "n_pairs": 12}})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in (1, 4):
                assert main(["scan", "--config", cfg, "--out",
                             str(tmp_path / f"t{k}"), "--threads",
                             str(k)]) == EXIT_OK
        finally:
            sys.setswitchinterval(interval)
        fits = [json.loads((tmp_path / f"t{k}" / "fit.json").read_text())
                for k in (1, 4)]
        assert fits[0] == fits[1] and fits[1]["solver"]["solves"] == 72
        assert ((tmp_path / "t1" / "samples.csv").read_bytes()
                == (tmp_path / "t4" / "samples.csv").read_bytes())


    def test_degenerate_fit_is_nan(self, tmp_path, capfd):
        # at n = 4 the snapped offsets coincide: the 3 used samples share
        # one e_h10, so no slope can be fitted
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 4},
            "experiment": {"family": "step-1d-lowerbound", "seeds": [0],
                           "n_pairs": 12}})
        assert run("scan", cfg, tmp_path / "out") == EXIT_OK
        text = (tmp_path / "out" / "fit.json").read_text()
        fit = json.loads(text)
        # JSON has no NaN: the unfittable values are written as null
        assert fit["alpha_hat"] is None and fit["c_hat"] is None
        assert fit["r2"] == 0.0
        assert fit["n_used"] == 3 and fit["status"] == "insufficient-range"
        assert capfd.readouterr().err == ""
        json.loads(text, parse_constant=reject_constant)

    def test_overflowing_constant_is_null(self, tmp_path, capfd):
        # two samples fit a slope near 1000, whose intercept overflows exp
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 2, "n": 4},
            "experiment": {"family": "pwc-random", "seeds": [1, 5009],
                           "n_pairs": 1}})
        assert run("scan", cfg, tmp_path / "out") == EXIT_OK
        text = (tmp_path / "out" / "fit.json").read_text()
        fit = json.loads(text, parse_constant=reject_constant)
        assert fit["c_hat"] is None and fit["alpha_hat"] > 100
        assert fit["n_used"] == 2 and fit["status"] == "insufficient-range"
        assert capfd.readouterr().err == ""


class TestPcfit:
    @pytest.mark.parametrize("mesh", [{"dim": 1, "n": 256},
                                      {"dim": 2, "n": 32}])
    def test_carries_the_solve_report(self, tmp_path, mesh):
        payload = {"mesh": mesh,
                   "coefficient": {"kind": "fourier", "seed": 3,
                                   "lambda": 0.5, "Lambda": 2.0},
                   "rhs": {"constant": 1.0}}
        if mesh["dim"] == 2:
            payload["solver"] = {"tol": 1e-9}
        cfg = write_config(tmp_path, "s.json", payload)
        assert run("solve", cfg, tmp_path / "s") == EXIT_OK
        cfg = write_config(tmp_path, "p.json", payload | {"fit": {"n_bins": 8}})
        assert run("pcfit", cfg, tmp_path / "p") == EXIT_OK
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        fit = json.loads((tmp_path / "p" / "pcfit.json").read_text())
        keys = ("iterations", "residual", "solver")
        assert {k: fit[k] for k in keys} == {k: report[k] for k in keys}

    def test_1d_torsion_flat(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "mesh": {"dim": 1, "n": 16384},
            "coefficient": {"kind": "constant", "value": 1.0,
                            "lambda": 0.5, "Lambda": 2.0},
            "rhs": {"constant": 1.0},
            "fit": {"n_bins": 12},
        })
        assert run("pcfit", cfg, tmp_path / "out") == EXIT_OK
        fit = json.loads((tmp_path / "out" / "pcfit.json").read_text())
        assert -0.1 <= fit["beta_hat"] <= 0.1
        lines = (tmp_path / "out" / "envelope.csv").read_text().split("\n")
        assert lines[0] == "log_dist,log_wmin"

    def test_2d_torsion_envelope_via_cli(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "mesh": {"dim": 2, "n": 128},
            "coefficient": {"kind": "constant", "value": 1.0,
                            "lambda": 0.5, "Lambda": 2.0},
            "rhs": {"constant": 1.0},
            "solver": {"tol": 1e-10},
            "fit": {"n_bins": 12},
        })
        assert run("pcfit", cfg, tmp_path / "out") == EXIT_OK
        fit = json.loads((tmp_path / "out" / "pcfit.json").read_text())
        # honest window for the corner-resonant envelope at this mesh
        assert 0.9 <= fit["beta_hat"] <= 1.45
        assert {"config_hash", "version"} <= set(fit)

    def test_degenerate_weight_exits_numerical(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "mesh": {"dim": 1, "n": 64},
            "coefficient": {"kind": "constant", "value": 1.0,
                            "lambda": 0.5, "Lambda": 2.0},
            "rhs": {"constant": 0.0},
            "fit": {"n_bins": 8},
        })
        assert run("pcfit", cfg, tmp_path / "out") == EXIT_NUMERICAL

    def test_overflowing_weight_exits_numerical(self, tmp_path, capfd):
        # u stays finite, but a |grad u|^2 + f u overflows
        cfg = write_config(tmp_path, "p.json", {
            "mesh": {"dim": 1, "n": 256},
            "coefficient": {"kind": "constant", "value": 1.0,
                            "lambda": 0.5, "Lambda": 2.0},
            "rhs": {"constant": 1e300},
            "fit": {"n_bins": 8},
        })
        assert run("pcfit", cfg, tmp_path / "out") == EXIT_NUMERICAL
        assert capfd.readouterr().err == (
            "invdiff: numerical failure: weight overflows to non-finite values\n")
        assert not (tmp_path / "out" / "pcfit.json").exists()


class TestMollcheck:
    @pytest.mark.parametrize("field,lo,hi", [("step", 0.4, 0.6),
                                             ("smooth", 0.9, 1.1)])
    def test_slopes(self, tmp_path, field, lo, hi):
        cfg = write_config(tmp_path, "m.json", {
            "mesh": {"dim": 1, "n": 2048},
            "field": field,
        })
        assert run("mollcheck", cfg, tmp_path / "out") == EXIT_OK
        payload = json.loads((tmp_path / "out" / "mollcheck.json").read_text())
        assert lo <= payload["slope"] <= hi


def test_threads_validation(tmp_path):
    cfg = write_config(tmp_path, "c.json", SOLVE_2D)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == EXIT_CONFIG


SOLVE_1D = {
    "mesh": {"dim": 1, "n": 64},
    "coefficient": {"kind": "constant", "value": 1.0,
                    "lambda": 0.5, "Lambda": 2.0},
    "rhs": {"constant": 1.0},
}
PWC_2D = {
    "mesh": {"dim": 2, "n": 16},
    "coefficient": {"kind": "pwc", "partition_n": 4, "seed": 1,
                    "lambda": 0.5, "Lambda": 2.0},
    "rhs": {"constant": 1.0},
}
FIT = {"fit": {"n_bins": 6}}


def scan_config(dim):
    return {"mesh": {"dim": dim, "n": 16 if dim == 2 else 256},
            "experiment": {"family": "smooth-fourier", "seeds": [1],
                           "n_pairs": 2}}


class TestSolverDispatch:
    # an in-bounds coefficient whose inverse overflows
    TINY_1D = SOLVE_1D | {"coefficient": {"kind": "constant", "value": 1e-310,
                                          "lambda": 1e-320, "Lambda": 1.0}}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command,payload", [("solve", TINY_1D),
                                                 ("pcfit", TINY_1D | FIT)])
    def test_1d_overflow_is_numerical_failure(self, tmp_path, capsys,
                                              command, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        assert run(command, cfg, tmp_path / "out") == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("invdiff: numerical failure:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command,payload", [("solve", PWC_2D),
                                                 ("scan", scan_config(2)),
                                                 ("pcfit", PWC_2D | FIT)])
    def test_max_iter_reaches_2d_solver(self, tmp_path, command, payload):
        for max_iter, code in [(1, EXIT_NUMERICAL), (200, EXIT_OK)]:
            cfg = write_config(tmp_path, "c.json", payload | {
                "solver": {"tol": 1e-12, "max_iter": max_iter}})
            assert run(command, cfg, tmp_path / f"out{max_iter}") == code


# the benchmark's tracer wraps these names in invdiff.cli, so every command
# must call them through the module at call time
@pytest.mark.parametrize("name,command,payload", [
    ("solve_1d", "solve", SOLVE_1D),
    ("solve_1d", "scan", scan_config(1)),
    ("solve_1d", "pcfit", SOLVE_1D | FIT),
    ("solve_fd_2d", "solve", PWC_2D),
    ("solve_fd_2d", "scan", scan_config(2)),
    ("solve_fd_2d", "pcfit", PWC_2D | FIT),
    ("write_field_csv", "solve", PWC_2D),
    ("read_field_csv", "recover", {
        "mesh": {"dim": 1, "n": 64}, "mode": "1d", "u_file": "u.csv",
        "rhs": {"constant": 1.0}, "lambda": 0.5, "Lambda": 2.0}),
])
def test_commands_call_traced_names(tmp_path, monkeypatch, name, command,
                                    payload):
    import invdiff.cli as cli
    mesh = Mesh(1, 64)
    x = mesh.node_coords_1d()
    write_field_csv(tmp_path / "u.csv", mesh, 0.5 * x * (1 - x), "nodes")
    monkeypatch.chdir(tmp_path)
    original, calls = getattr(cli, name), []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    cfg = write_config(tmp_path, "c.json", payload)
    assert run(command, cfg, tmp_path / "out") == EXIT_OK
    assert calls


def reference_fourier_coefficient(spec, mesh):
    """The kind: fourier builder that rebuilt sin(pi k x) for each series."""
    lam, Lam = spec["lambda"], spec["Lambda"]
    rng = np.random.default_rng([spec.get("seed", 0)])
    k_max = spec.get("k_max", 6)
    k = np.arange(1, k_max + 1)
    xi = rng.standard_normal(k_max)
    x = mesh.cell_centers_1d()
    series = np.sum(xi[:, None] * k[:, None] ** -2.0
                    * np.sin(np.pi * k[:, None] * x[None, :]), axis=0)
    if mesh.dim == 2:
        eta = rng.standard_normal(k_max)
        series_y = np.sum(eta[:, None] * k[:, None] ** -2.0
                          * np.sin(np.pi * k[:, None] * x[None, :]), axis=0)
        series = np.add.outer(series, series_y)
    bound = float(np.max(np.abs(series)))
    mid, half = 0.5 * (lam + Lam), 0.5 * (Lam - lam)
    if bound > 0:
        series = series * (0.7 * half / bound)
    return mid + series


@pytest.mark.parametrize("dim,n", [(1, 1000), (1, 65536), (2, 33), (2, 128)])
@pytest.mark.parametrize("seed,k_max", [(0, 6), (5, 1), (17, 10)])
def test_fourier_coefficient_bytes(dim, n, seed, k_max):
    spec = {"kind": "fourier", "seed": seed, "k_max": k_max,
            "lambda": 0.5, "Lambda": 2.0}
    mesh = Mesh(dim, n)
    a = _build_coefficient({"coefficient": spec}, mesh)
    assert np.array_equal(a.values, reference_fourier_coefficient(spec, mesh))


def with_value(payload, path, value):
    """A deep copy of payload with the entry at the slash path set (or added)."""
    payload = json.loads(json.dumps(payload))
    *parents, last = path.split("/")
    node = payload
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return payload


FOURIER_1D = SOLVE_1D | {"coefficient": {"kind": "fourier", "lambda": 0.5,
                                         "Lambda": 2.0}}


# JSON Schema counts 64.0 as an integer and 2.0 as equal to the enum member 2;
# the config checker takes neither, nor a bool for a number
@pytest.mark.parametrize("command,payload,path,value", [
    ("solve", SOLVE_1D, "mesh/n", 64.0),
    ("solve", SOLVE_1D, "mesh/dim", 2.0),
    ("scan", scan_config(1), "experiment/seeds/0", 1.0),
    ("solve", SOLVE_2D, "solver/max_iter", 100.0),
    ("pcfit", SOLVE_1D | FIT, "fit/n_bins", 6.0),
    ("mollcheck", {"mesh": {"dim": 1, "n": 256}, "field": "step"}, "n_t", 5.0),
    ("solve", PWC_2D, "coefficient/partition_n", 2.0),
    ("scan", with_value(scan_config(1), "experiment/family", "pwc-random"),
     "experiment/partition_n", 2.0),
    ("solve", FOURIER_1D, "coefficient/k_max", 3.0),
    ("solve", PWC_2D, "coefficient/seed", 1.0),
    ("scan", scan_config(1), "experiment/n_pairs", 3.0),
    ("solve", SOLVE_1D, "mesh/dim", True),
    ("solve", SOLVE_1D, "coefficient/value", True),
])
def test_integral_floats_and_bools_rejected(tmp_path, capsys, command, payload,
                                            path, value):
    cfg = write_config(tmp_path, "c.json", with_value(payload, path, value))
    assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"invdiff: config error: bad config at {path}: ")
    assert len(err.strip().splitlines()) == 1


# each config names a key its case does not read, or a value its case
# cannot take, and runs nothing
@pytest.mark.parametrize("command,payload,args,named", [
    ("scan", {"mesh": {"dim": 1, "n": 256}, "experiment": {
        "family": "step-1d-lowerbound", "seeds": [0], "lambda": 0.1,
        "Lambda": 9.0, "partition_n": 7}}, [],
     ["'Lambda'", "'lambda'", "'partition_n'"]),
    ("solve", with_value(SOLVE_1D, "coefficient", {
        "kind": "constant", "value": 1.0, "lambda": 0.5, "Lambda": 2.0,
        "seed": 1, "k_max": 3, "alpha": 0.5, "path": "a.csv",
        "partition_n": 2, "values": [1.0, 1.5]}), [],
     ["'alpha'", "'k_max'", "'partition_n'", "'path'", "'seed'", "'values'"]),
    ("recover", {"mesh": {"dim": 1, "n": 64}, "mode": "1d", "u_file": "u.csv",
                 "rhs": {"constant": 1.0}, "partition_n": 3, "lambda": 0.5,
                 "Lambda": 2.0}, [], ["'partition_n'"]),
    ("solve", with_value(PWC_2D, "coefficient/values", [1.0] * 16), [],
     ["'seed'"]),
    ("mollcheck", {"mesh": {"dim": 2, "n": 64}, "field": "step"}, [],
     ["mesh/dim"]),
    ("scan", with_value(scan_config(1), "experiment/seeds", []), [],
     ["experiment/seeds"]),
])
def test_config_the_case_does_not_read_is_config_error(
        tmp_path, capsys, command, payload, args, named):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                 *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invdiff: config error:")
    assert len(err.strip().splitlines()) == 1
    assert all(name in err for name in named), err


# json.load parses NaN and Infinity, and 1e999 as an infinite float
@pytest.mark.parametrize("command,payload,path,shown", [
    ("scan", TestScan.SCAN, "experiment/floor", "NaN"),
    ("solve", SOLVE_2D, "solver/tol", "Infinity"),
    ("solve", SOLVE_2D, "coefficient/value", "-Infinity"),
    ("solve", SOLVE_2D, "solver/tol", "1e999"),
])
def test_non_finite_numbers_rejected(tmp_path, capsys, command, payload, path,
                                     shown):
    cfg = write_config(tmp_path, "c.json", with_value(payload, path, "@"))
    Path(cfg).write_text(Path(cfg).read_text().replace('"@"', shown))
    assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invdiff: config error:") and shown in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_seed_flag_is_unrecognised(tmp_path, capsys):
    # a scan runs the config's seeds only, so its config_hash names them
    cfg = write_config(tmp_path, "c.json", scan_config(1))
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--config", cfg, "--out", str(tmp_path / "out"),
              "--seed", "4"])
    assert exit_info.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the 1D solve is direct and reads no solver settings
@pytest.mark.parametrize("command,payload", [("solve", SOLVE_1D),
                                             ("scan", scan_config(1)),
                                             ("pcfit", SOLVE_1D | FIT)])
def test_1d_solver_block_is_config_error(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "c.json",
                       payload | {"solver": {"tol": 1e-10}})
    assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invdiff: config error: bad config at solver: ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_repeated_key_is_config_error(tmp_path, capsys):
    # json.load alone would keep the last value and run at n = 128
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SOLVE_1D).replace('"n": 64', '"n": 64, "n": 128'))
    assert run("solve", str(cfg), tmp_path / "out") == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "invdiff: config error: config repeats the key 'n'\n")
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_scipy(tmp_path):
    # the CLI module loads no scipy, and configs are checked without a JSON
    # Schema library; a 2D solve loads scipy's pocketfft extension by itself,
    # not the scipy.fft package with scipy.special and numpy's test modules
    cfg = write_config(tmp_path, "c.json", SOLVE_2D)
    unwanted = ("scipy", "jsonschema", "referencing", "rpds", "attrs", "attr")
    heavy = ("scipy.fft", "scipy.special", "numpy.f2py", "numpy.testing")
    script = (
        "import sys\n"
        "import invdiff.cli\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {unwanted}))\n"
        f"code = invdiff.cli.main(['solve', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        f"print(code, [m for m in {heavy} if m in sys.modules])\n")
    src = str(Path(invdiff.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=os.environ | {"PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []"]


def test_thread_pool_loads_only_for_parallel_scans(tmp_path):
    # concurrent.futures is imported by a scan with --threads above 1 only
    cfg = write_config(tmp_path, "c.json", scan_config(1))
    script = (
        "import sys\n"
        "import invdiff.cli\n"
        "loaded = lambda: 'concurrent.futures' in sys.modules\n"
        "print(loaded())\n"
        "for k in ('1', '2'):\n"
        f"    code = invdiff.cli.main(['scan', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--threads', k])\n"
        "    print(code, loaded())\n")
    src = str(Path(invdiff.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=os.environ | {"PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "0 False", "0 True"]


# a mesh past 2**27 cells, or a count that would allocate more values than
# that, is refused before any array is allocated
@pytest.mark.parametrize("payload,mesh", [
    (SOLVE_2D, {"dim": 2, "n": 10 ** 10}),
    (SOLVE_1D, {"dim": 1, "n": 2 ** 27 + 1}),
    (with_value(FOURIER_1D, "coefficient/k_max", 10 ** 8), SOLVE_1D["mesh"]),
    (with_value(scan_config(1), "experiment/n_pairs", 10 ** 12),
     {"dim": 1, "n": 256}),
    ({"field": "step", "n_t": 10 ** 12}, {"dim": 1, "n": 256}),
    (SOLVE_1D | {"fit": {"n_bins": 10 ** 12}}, SOLVE_1D["mesh"]),
])
def test_oversized_mesh_is_config_error(tmp_path, capsys, payload, mesh):
    cfg = write_config(tmp_path, "c.json", payload | {"mesh": mesh})
    command = next((name for key, name in [("experiment", "scan"),
                                           ("field", "mollcheck"),
                                           ("fit", "pcfit")]
                    if key in payload), "solve")
    assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invdiff: config error:") and "exceeds" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("where", ["config", "u_file header", "coefficient row"])
def test_non_utf8_input_is_config_error(tmp_path, capsys, where):
    mesh = Mesh(1, 64)
    a_csv, u_csv = tmp_path / "a.csv", tmp_path / "u.csv"
    write_field_csv(a_csv, mesh, np.ones(mesh.cell_shape), "cells")
    write_field_csv(u_csv, mesh, np.ones(mesh.node_shape), "nodes")
    if where == "u_file header":
        command, payload = "recover", {
            "mesh": {"dim": 1, "n": 64}, "mode": "1d", "u_file": str(u_csv),
            "rhs": {"constant": 1.0}, "lambda": 0.5, "Lambda": 2.0}
    else:
        command, payload = "solve", SOLVE_1D | {"coefficient": {
            "kind": "file", "path": str(a_csv), "lambda": 0.5, "Lambda": 2.0}}
    cfg = Path(write_config(tmp_path, "c.json", payload))
    bad, old, new = {"config": (cfg, b"{", b'{"\xff": 0, '),
                     "u_file header": (u_csv, b"i", b"\xffi"),
                     "coefficient row": (a_csv, b"\n0,", b"\n0\xff,")}[where]
    bad.write_bytes(bad.read_bytes().replace(old, new, 1))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invdiff: config error:")
    assert str(bad) in err and "not UTF-8" in err


RECOVER_PWC_1D = {"mesh": {"dim": 1, "n": 64}, "mode": "pwc",
                  "u_file": "u.csv", "rhs": {"constant": 1.0},
                  "partition_n": 2, "lambda": 0.5, "Lambda": 2.0}
PREFIX = {EXIT_CONFIG: "invdiff: config error: ",
          EXIT_NUMERICAL: "invdiff: numerical failure: "}


# the raise behind each of these is reached by no other test
@pytest.mark.parametrize("command,payload,code,message", [
    ("solve", with_value(SOLVE_2D, "coefficient", {"kind": "step"}),
     EXIT_CONFIG, "step coefficient is dim-1 only"),
    ("solve", with_value(PWC_2D, "coefficient", {
        "kind": "pwc", "partition_n": 4, "values": [1.0, 1.5, 1.0],
        "lambda": 0.5, "Lambda": 2.0}),
     EXIT_CONFIG, "pwc needs 16 values, got 3"),
    ("mollcheck", {"mesh": {"dim": 1, "n": 64}, "field": "step",
                   "t_max": 0.01},
     EXIT_CONFIG, "t range empty: [0.0625, 0.01]"),
    ("scan", with_value(scan_config(2), "experiment/family",
                        "step-1d-lowerbound"),
     EXIT_CONFIG, "step-1d-lowerbound is a dim-1 family"),
    ("scan", with_value(scan_config(1), "experiment/eps_max", 0.5),
     EXIT_CONFIG, "perturbation amplitudes would leave the class"),
    ("recover", {"mesh": {"dim": 2, "n": 4}, "mode": "1d", "u_file": "u.csv",
                 "rhs": {"constant": 1.0}, "lambda": 0.5, "Lambda": 2.0},
     EXIT_CONFIG, "recover_1d requires a dim-1 mesh"),
    ("pcfit", with_value(SOLVE_1D | FIT, "mesh/n", 2),
     EXIT_NUMERICAL, "no cells beyond one layer (max dist 0.25 <= h)"),
    ("pcfit", with_value(with_value(SOLVE_1D, "mesh/n", 8), "fit",
                         {"n_bins": 40}),
     EXIT_NUMERICAL, "only 0 usable envelope bins out of 40"),
    ("solve", "{mesh",
     EXIT_CONFIG, "config is not valid JSON: Expecting property name "
                  "enclosed in double quotes: line 1 column 2 (char 1)"),
], ids=["step-2d", "pwc-value-count", "t-range", "step-family-2d",
        "eps-max", "recover-1d-on-2d", "pcfit-one-layer", "pcfit-bins",
        "not-json"])
def test_error_path_names_the_fault(tmp_path, capsys, monkeypatch, command,
                                   payload, code, message):
    monkeypatch.chdir(tmp_path)
    mesh = Mesh(2, 4)  # the recover case's u_file
    write_field_csv("u.csv", mesh, np.zeros(mesh.node_shape), "nodes")
    cfg = tmp_path / "c.json"
    cfg.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert run(command, str(cfg), tmp_path / "out") == code
    assert capsys.readouterr().err == PREFIX[code] + message + "\n"


# a right side the command cannot use fails before the output directory is
# made, so before any solve or read
@pytest.mark.parametrize("command,payload", [("pcfit", SOLVE_1D | FIT),
                                             ("recover", RECOVER_PWC_1D)])
def test_point_masses_fail_before_compute(tmp_path, capsys, monkeypatch,
                                          command, payload):
    monkeypatch.chdir(tmp_path)
    mesh = Mesh(1, 64)  # the recover case's u_file
    write_field_csv("u.csv", mesh, np.ones(mesh.node_shape), "nodes")
    cfg = write_config(tmp_path, "c.json", with_value(
        payload, "rhs/point_masses", [[0.5, 1.0]]))
    assert run(command, cfg, tmp_path / "out") == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "invdiff: config error: bad config at rhs: "
        "unknown key(s) 'point_masses'\n")
    assert not (tmp_path / "out").exists()
