"""Every CSV artifact is written by field.write_csv. The reference_* writers
below are the per-value f-string loops each artifact had before; the bytes
written must not change."""

import json

import numpy as np
import pytest

from invdiff.cli import main
from invdiff.experiments import PairSample, write_samples_csv
from invdiff.field import write_csv, write_field_csv
from invdiff.mesh import Mesh, Partition
from invdiff.positivity import PositivityFit, write_envelope_csv
from invdiff.recovery import PwcRecovery

# values whose text is easy to get wrong: signed zero, the smallest
# subnormal, both ends of the exponent range, and integral floats
SPECIAL = [-0.0, 5e-324, 1e300, -1e-300, 0.0, 1.0, -2.0, 1e20, 1e-20,
           2.2250738585072014e-308, 0.1, np.pi, -1.7976931348623157e308]


def values_with_specials(n, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
    values[:len(SPECIAL)] = SPECIAL
    return values


def reference_write_field_csv(path, mesh, values, location):
    lo, hi = (0, mesh.n) if location == "cells" else (1, mesh.n)
    with open(path, "w") as f:
        if mesh.dim == 1:
            f.write("index,value\n")
            for k, i in enumerate(range(lo, hi)):
                f.write(f"{i},{values[k]:.17g}\n")
        else:
            f.write("i,j,value\n")
            for ki, i in enumerate(range(lo, hi)):
                for kj, j in enumerate(range(lo, hi)):
                    f.write(f"{i},{j},{values[ki, kj]:.17g}\n")


def reference_write_pwc_csv(path, rec):
    with open(path, "w") as f:
        f.write("q_index,value,flag\n")
        for q, (v, flag) in enumerate(zip(rec.values, rec.flags)):
            f.write(f"{q},{v:.17g},{flag}\n")


def reference_write_envelope_csv(path, fit):
    with open(path, "w") as f:
        f.write("log_dist,log_wmin\n")
        for d, v in zip(fit.log_dist, fit.log_wmin):
            f.write(f"{d:.17g},{v:.17g}\n")


def reference_write_samples_csv(path, samples):
    with open(path, "w") as f:
        f.write("seed,delta_l2,e_h10,excluded\n")
        for s in samples:
            f.write(f"{s.metadata['seed']},{s.delta_l2:.17g},"
                    f"{s.e_h10:.17g},{int(s.excluded)}\n")


def reference_write_moll_csv(path, ts, vals):
    with open(path, "w") as fobj:
        fobj.write("t,functional\n")
        for t, v in zip(ts, vals):
            fobj.write(f"{t:.17g},{v:.17g}\n")


def same_bytes(tmp_path, write, reference):
    write(tmp_path / "new.csv")
    reference(tmp_path / "ref.csv")
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# sizes past one 2048-row write, so rows cross chunk boundaries
@pytest.mark.parametrize("dim,n", [(1, 5000), (2, 50)])
@pytest.mark.parametrize("location", ["cells", "nodes"])
def test_field_csv_bytes(tmp_path, dim, n, location):
    mesh = Mesh(dim, n)
    shape = mesh.cell_shape if location == "cells" else mesh.node_shape
    values = values_with_specials(int(np.prod(shape))).reshape(shape)
    assert same_bytes(
        tmp_path,
        lambda p: write_field_csv(p, mesh, values, location),
        lambda p: reference_write_field_csv(p, mesh, values, location))


def test_pwc_recovery_csv_bytes(tmp_path):
    part = Partition(Mesh(2, 16), 4)
    values = values_with_specials(part.n_subcubes)
    values[-1] = np.nan  # a zero denominator
    flags = ("ok", "unstable-denominator", "out-of-range") * 5 + ("ok",)
    rec = PwcRecovery(part, values, flags)
    assert same_bytes(tmp_path, rec.write_csv,
                      lambda p: reference_write_pwc_csv(p, rec))


# seeds past the int64 range are written as Python writes them too
@pytest.mark.parametrize("seeds", [[0, 7, 10001, -5], [3, 2 ** 70]])
def test_samples_csv_bytes(tmp_path, seeds):
    values = values_with_specials(2 * len(SPECIAL), seed=1)
    samples = [PairSample(delta_l2=values[2 * k], e_h10=values[2 * k + 1],
                          metadata={"seed": seeds[k % len(seeds)]},
                          excluded=k % 3 == 1)
               for k in range(len(SPECIAL))]
    assert any(s.excluded for s in samples)
    assert same_bytes(tmp_path, lambda p: write_samples_csv(p, samples),
                      lambda p: reference_write_samples_csv(p, samples))


def test_envelope_csv_bytes(tmp_path):
    values = values_with_specials(2 * len(SPECIAL), seed=2)
    fit = PositivityFit(c_hat=1.0, beta_hat=2.0, n_bins=len(SPECIAL), r2=1.0,
                        log_dist=values[::2], log_wmin=values[1::2])
    assert same_bytes(tmp_path, lambda p: write_envelope_csv(p, fit),
                      lambda p: reference_write_envelope_csv(p, fit))


def test_moll_csv_bytes(tmp_path):
    ts = values_with_specials(len(SPECIAL), seed=3)
    vals = list(values_with_specials(len(SPECIAL), seed=4)[::-1])
    assert same_bytes(tmp_path, lambda p: write_csv(p, "t,functional", [ts, vals]),
                      lambda p: reference_write_moll_csv(p, ts, vals))


def test_mollcheck_writes_reference_moll_csv(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"mesh": {"dim": 1, "n": 256}, "field": "smooth"}))
    assert main(["mollcheck", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    written = (tmp_path / "moll.csv").read_text()
    ts, vals = np.loadtxt(tmp_path / "moll.csv", delimiter=",", skiprows=1,
                          unpack=True)
    reference_write_moll_csv(tmp_path / "ref.csv", ts, vals)
    assert written == (tmp_path / "ref.csv").read_text()
