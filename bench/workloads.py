"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed, lists the CLI
commands of one timed pass, and checks every command's outputs with the
benchmark's own code. The CLI receives only generated inputs: explicit pwc
values, or a coefficient field CSV written here. Every input a pass reads is
written during set-up, so the commands of a pass are independent of each
other and of earlier passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TOL = 1e-10

# Smooth-fourier pairs are in the linear regime, so the fitted exponent is
# near 1: it measured 0.94 to 1.07 over 200 seeds at N=32.
SCAN_2D_ALPHA = (0.85, 1.15)
# Perturbation amplitudes span three decades, so that e_h10 spans the two
# decades a fit needs on every seed (one decade fails on about 1 seed in 10).
SCAN_EPS_MIN = 1e-4

SIZES = {
    "full": {
        "forward-2d": {"n": 512, "partition_n": 8},
        "recover-2d": {"n": 512, "partition_n": 32},
        "scan-2d": {"n": 128, "seeds": 2, "n_pairs": 12},
        "lab-1d": {"n": 65536, "n_bins": 12, "n_t": 12, "seeds": 4},
    },
    # small sizes for the benchmark's own tests; the checks are the same
    "smoke": {
        "forward-2d": {"n": 32, "partition_n": 8},
        "recover-2d": {"n": 128, "partition_n": 8},
        "scan-2d": {"n": 32, "seeds": 2, "n_pairs": 12},
        "lab-1d": {"n": 8192, "n_bins": 12, "n_t": 12, "seeds": 4},
    },
}


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def run_cli(main, argv):
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited with {code}")


def pwc_cells(values: np.ndarray, n: int, partition_n: int) -> np.ndarray:
    """Cell values of a 2D piecewise constant with subcube q = q1 * n + q2."""
    q1 = np.arange(n) // (n // partition_n)
    return values[q1[:, None] * partition_n + q1[None, :]]


def write_pwc_solve(path: Path, n: int, partition_n: int, values: np.ndarray):
    """Config of a 2D solve with f = 1 and explicit pwc values in [1, 2]."""
    write_json(path, {
        "mesh": {"dim": 2, "n": n},
        "coefficient": {"kind": "pwc", "partition_n": partition_n,
                        "values": values.tolist(), "lambda": 1.0, "Lambda": 2.0},
        "rhs": {"constant": 1.0},
        "solver": {"tol": TOL},
    })


def five_point_residual(a: np.ndarray, u: np.ndarray) -> float:
    """Relative residual of the harmonic-flux five-point system for f = 1.

    a holds the N x N cell values, u the (N-1) x (N-1) interior nodes.
    """
    n = a.shape[0]
    full = np.zeros((n + 1, n + 1))
    full[1:n, 1:n] = u
    kx = 2.0 * a[:, :-1] * a[:, 1:] / (a[:, :-1] + a[:, 1:])
    ky = 2.0 * a[:-1, :] * a[1:, :] / (a[:-1, :] + a[1:, :])
    flux_x = kx * np.diff(full, axis=0)[:, 1:-1]
    flux_y = ky * np.diff(full, axis=1)[1:-1, :]
    au = -(np.diff(flux_x, axis=0) + np.diff(flux_y, axis=1))
    b = np.full_like(au, 1.0 / n ** 2)
    return float(np.linalg.norm(b - au) / np.linalg.norm(b))


def read_nodes_2d(path: Path, n: int) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    idx = np.arange(1, n)
    if (rows.shape != ((n - 1) ** 2, 3)
            or not np.array_equal(rows[:, 0], np.repeat(idx, n - 1))
            or not np.array_equal(rows[:, 1], np.tile(idx, n - 1))):
        raise ValueError(f"{path.name} does not list the {n - 1}^2 interior nodes")
    return rows[:, 2].reshape(n - 1, n - 1)


def read_cells_1d(path: Path, n: int) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    if rows.shape != (n, 2) or not np.array_equal(rows[:, 0], np.arange(n)):
        raise ValueError(f"{path.name} does not list the {n} cells")
    return rows[:, 1]


def write_cells_1d(path: Path, values: np.ndarray):
    """A 1D cell field in the CLI's field CSV format."""
    lines = [f"{i},{v:.17g}" for i, v in enumerate(values)]
    path.write_text("index,value\n" + "\n".join(lines) + "\n")


def smooth_1d(rng, n: int) -> np.ndarray:
    """Smooth coefficient in [1.15, 1.85]: a sine series with k^-2 decay."""
    k = np.arange(1, 7)
    x = (np.arange(n) + 0.5) / n
    series = (rng.standard_normal(k.size) * k ** -2.0) @ np.sin(np.pi * np.outer(k, x))
    return 1.5 + 0.35 * series / np.max(np.abs(series))


def family_seeds(rng, count: int) -> list:
    return [int(s) for s in rng.choice(100000, size=count, replace=False)]


class Workload:
    """One fixed set of CLI commands and the inputs they read."""

    name = ""
    work_unit = ""

    def prepare(self, indir: Path, main):
        """Write every input of a pass to indir; main is invdiff.cli.main."""
        raise NotImplementedError

    def commands(self, indir: Path, out: Path) -> list:
        """(label, argv) of each command in one pass, writing below out."""
        raise NotImplementedError

    def check(self, label: str, out: Path, indir: Path):
        """Raise ValueError if the outputs of command label are wrong."""
        raise NotImplementedError

    def work(self) -> int:
        """Units of work_unit done by one pass."""
        raise NotImplementedError


class Forward2D(Workload):
    name = "forward-2d"
    work_unit = "dof"

    def __init__(self, seed: int, n: int, partition_n: int):
        self.n, self.partition_n = n, partition_n
        rng = np.random.default_rng([seed, 1])
        self.values = rng.uniform(1.0, 2.0, partition_n ** 2)

    def prepare(self, indir, main):
        write_pwc_solve(indir / "solve.json", self.n, self.partition_n,
                        self.values)

    def commands(self, indir, out):
        return [("solve", ["solve", "--config", str(indir / "solve.json"),
                           "--out", str(out / "solve")])]

    def check(self, label, out, indir):
        report = read_json(out / "solve" / "report.json")
        if not (report["iterations"] > 0 and report["residual"] <= TOL):
            raise ValueError(f"solver report {report}")
        u = read_nodes_2d(out / "solve" / "u.csv", self.n)
        a = pwc_cells(self.values, self.n, self.partition_n)
        residual = five_point_residual(a, u)
        if not residual <= 10 * TOL:
            raise ValueError(f"five-point residual {residual:.3e} > {10 * TOL:g}")

    def work(self):
        return (self.n - 1) ** 2


class Recover2D(Workload):
    name = "recover-2d"
    work_unit = "subcubes"

    def __init__(self, seed: int, n: int, partition_n: int):
        self.n, self.partition_n = n, partition_n
        rng = np.random.default_rng([seed, 2])
        self.values = rng.uniform(1.0, 2.0, partition_n ** 2)

    def prepare(self, indir, main):
        write_pwc_solve(indir / "solve.json", self.n, self.partition_n,
                        self.values)
        run_cli(main, ["solve", "--config", str(indir / "solve.json"),
                       "--out", str(indir / "u")])
        write_json(indir / "recover.json", {
            "mesh": {"dim": 2, "n": self.n},
            "mode": "pwc",
            "u_file": str(indir / "u" / "u.csv"),
            "rhs": {"constant": 1.0},
            "partition_n": self.partition_n,
            "lambda": 1.0, "Lambda": 2.0,
        })

    def commands(self, indir, out):
        return [("recover", ["recover", "--config", str(indir / "recover.json"),
                             "--out", str(out / "recover")])]

    def check(self, label, out, indir):
        lines = (out / "recover" / "a_rec.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(self.values.size)):
            raise ValueError("a_rec.csv does not list every subcube")
        flagged = sum(r[2] != "ok" for r in rows)
        if flagged:
            raise ValueError(f"{flagged} subcubes flagged")
        rec = np.array([float(r[1]) for r in rows])
        err = float(np.max(np.abs(rec - self.values) / self.values))
        if not err <= 1e-3:
            raise ValueError(f"max relative recovery error {err:.3e} > 1e-3")

    def work(self):
        return self.values.size


class Scan2D(Workload):
    name = "scan-2d"
    work_unit = "pairs"

    def __init__(self, seed: int, n: int, seeds: int, n_pairs: int):
        self.n, self.n_pairs = n, n_pairs
        self.seeds = family_seeds(np.random.default_rng([seed, 3]), seeds)

    def prepare(self, indir, main):
        write_json(indir / "scan.json", {
            "mesh": {"dim": 2, "n": self.n},
            "solver": {"tol": TOL},
            "experiment": {"family": "smooth-fourier", "seeds": self.seeds,
                           "n_pairs": self.n_pairs, "eps_min": SCAN_EPS_MIN},
        })

    def commands(self, indir, out):
        return [("scan", ["scan", "--config", str(indir / "scan.json"),
                          "--out", str(out / "scan"), "--threads", "2"])]

    def check(self, label, out, indir):
        fit = read_json(out / "scan" / "fit.json")
        lo, hi = SCAN_2D_ALPHA
        if (fit["status"] != "ok" or fit["n_used"] != self.work()
                or fit["n_excluded"] != 0 or not lo <= fit["alpha_hat"] <= hi):
            raise ValueError(f"scan fit {fit}")

    def work(self):
        return len(self.seeds) * self.n_pairs


class Lab1D(Workload):
    name = "lab-1d"
    work_unit = "cmds"
    labels = ("solve", "recover", "pcfit", "mollcheck", "scan")

    def __init__(self, seed: int, n: int, n_bins: int, n_t: int, seeds: int):
        self.n, self.n_bins, self.n_t = n, n_bins, n_t
        rng = np.random.default_rng([seed, 4])
        self.coefficient = smooth_1d(rng, n)
        self.pc_value = float(rng.uniform(1.0, 2.0))
        self.seeds = family_seeds(rng, seeds)

    def prepare(self, indir, main):
        mesh = {"dim": 1, "n": self.n}
        rhs = {"constant": 1.0}
        write_cells_1d(indir / "a.csv", self.coefficient)
        write_json(indir / "solve.json", {
            "mesh": mesh, "rhs": rhs,
            "coefficient": {"kind": "file", "path": str(indir / "a.csv"),
                            "lambda": 1.0, "Lambda": 2.0},
        })
        run_cli(main, ["solve", "--config", str(indir / "solve.json"),
                       "--out", str(indir / "u")])
        write_json(indir / "recover.json", {
            "mesh": mesh, "rhs": rhs, "mode": "1d",
            "u_file": str(indir / "u" / "u.csv"),
            "lambda": 1.0, "Lambda": 2.0,
        })
        write_json(indir / "pcfit.json", {
            "mesh": mesh, "rhs": rhs,
            "coefficient": {"kind": "pwc", "partition_n": 1,
                            "values": [self.pc_value],
                            "lambda": 1.0, "Lambda": 2.0},
            "fit": {"n_bins": self.n_bins},
        })
        write_json(indir / "mollcheck.json", {
            "mesh": mesh, "field": "step", "kernel": "bump", "n_t": self.n_t,
        })
        write_json(indir / "scan.json", {
            "mesh": mesh,
            "experiment": {"family": "smooth-fourier", "seeds": self.seeds,
                           "eps_min": SCAN_EPS_MIN},
        })

    def commands(self, indir, out):
        return [(label, [label, "--config", str(indir / f"{label}.json"),
                         "--out", str(out / label)])
                for label in self.labels]

    def check(self, label, out, indir):
        out = out / label
        if label == "solve":
            # the same config produced the u.csv that recover reads
            if (out / "u.csv").read_bytes() != (indir / "u" / "u.csv").read_bytes():
                raise ValueError("u.csv differs from the set-up solve")
        elif label == "recover":
            rec = read_cells_1d(out / "a_rec.csv", self.n)
            err = float(np.linalg.norm(rec - self.coefficient)
                        / np.linalg.norm(self.coefficient))
            if not err <= 1e-6:
                raise ValueError(f"relative L2 recovery error {err:.3e} > 1e-6")
        elif label == "pcfit":
            beta = read_json(out / "pcfit.json")["beta_hat"]
            if not -0.1 <= beta <= 0.1:
                raise ValueError(f"pcfit beta_hat {beta} outside [-0.1, 0.1]")
        elif label == "mollcheck":
            slope = read_json(out / "mollcheck.json")["slope"]
            if not 0.4 <= slope <= 0.6:
                raise ValueError(f"mollcheck slope {slope} outside [0.4, 0.6]")
        else:
            fit = read_json(out / "fit.json")
            if fit["status"] != "ok":
                raise ValueError(f"scan fit {fit}")

    def work(self):
        return len(self.labels)


WORKLOADS = {w.name: w for w in (Forward2D, Recover2D, Scan2D, Lab1D)}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, **SIZES[size][name])
