import json

import numpy as np
import pytest

from invdiff.cli import main, EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL
from invdiff.mesh import Mesh
from invdiff.field import write_field_csv, read_field_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(command, config, out):
    return main([command, "--config", config, "--out", str(out)])


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
            "mesh": {"dim": 1, "n": 256},
            "solver": {"tol": 1e-8},
            "experiment": {"family": "smooth-fourier", "seeds": [1],
                           "floor": 1e-8},
        })
        assert run("scan", cfg, tmp_path / "out") == EXIT_CONFIG

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, "scan.json", {
            "mesh": {"dim": 1, "n": 512},
            "experiment": {"family": "smooth-fourier", "seeds": [3],
                           "n_pairs": 9},
        })
        out1, out2 = tmp_path / "s3", tmp_path / "s4"
        assert main(["scan", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["scan", "--config", cfg, "--out", str(out2),
                     "--seed", "4"]) == EXIT_OK
        assert (out1 / "samples.csv").read_bytes() != \
            (out2 / "samples.csv").read_bytes()


class TestPcfit:
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
