"""Every CSV artifact is written by field.write_csv, with the header and
columns the CLI gives it. The reference_* writers below are the per-value
f-string loops each artifact had before; the bytes written must not
change."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invdiff import field
from invdiff.cli import main
from invdiff.experiments import PairSample
from invdiff.field import write_csv, write_field_csv
from invdiff.mesh import Mesh, Partition
from invdiff.positivity import PositivityFit
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
    assert same_bytes(
        tmp_path,
        lambda p: write_csv(p, "q_index,value,flag",
                            [np.arange(len(rec.flags)), rec.values, rec.flags]),
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
    assert same_bytes(
        tmp_path,
        lambda p: write_csv(p, "seed,delta_l2,e_h10,excluded",
                            [[s.metadata["seed"] for s in samples],
                             [s.delta_l2 for s in samples],
                             [s.e_h10 for s in samples],
                             [s.excluded for s in samples]]),
        lambda p: reference_write_samples_csv(p, samples))


def test_envelope_csv_bytes(tmp_path):
    values = values_with_specials(2 * len(SPECIAL), seed=2)
    fit = PositivityFit(c_hat=1.0, beta_hat=2.0, n_bins=len(SPECIAL), r2=1.0,
                        log_dist=values[::2], log_wmin=values[1::2])
    assert same_bytes(
        tmp_path,
        lambda p: write_csv(p, "log_dist,log_wmin", [fit.log_dist, fit.log_wmin]),
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


# --- write_csv against per-row % formatting --------------------------------

def reference_csv(header, columns):
    """The bytes of the per-row % loop write_csv had: %.17g for floats, %d for
    integers and booleans, %s for strings and objects."""
    formats = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d", "U": "%s", "O": "%s"}
    columns = [np.asarray(c) for c in columns]
    line = ",".join(formats[c.dtype.kind] for c in columns) + "\n"
    rows = zip(*(c.tolist() for c in columns))
    return (header + "\n" + "".join(line % row for row in rows)).encode()


def written(write):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write(path)
        return path.read_bytes()


def csv_bytes(header, columns):
    return written(lambda path: write_csv(path, header, columns))


def float_text(value):
    return csv_bytes("x", [[value]]).decode().split("\n")[1]


bit_patterns = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40).map(
    lambda bits: np.array(bits, np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(bit_patterns)
def test_floats_from_bit_patterns(x):
    assert csv_bytes("x", [x]) == reference_csv("x", [x])


@settings(deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_floats_from_strategy(values):
    assert csv_bytes("x", [values]) == reference_csv("x", [values])


# 17-digit decimals of every exponent from 1e-13 to 1e18, and the floats
# next to them, so that rounding meets the power-of-ten and tie edges
@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(10 ** 16, 10 ** 17 - 1), st.integers(-29, 2),
                          st.sampled_from([-1, 0, 1]), st.booleans()),
                min_size=1, max_size=40))
def test_floats_near_decimal_edges(draws):
    x = np.array([float(f"{'-' if neg else ''}{q}e{p}") for q, p, _, neg in draws])
    x = np.array([np.nextafter(v, np.inf * step) if step else v
                  for v, (_, _, step, _) in zip(x, draws)])
    assert csv_bytes("x", [x]) == reference_csv("x", [x])


@pytest.mark.parametrize("value,text", [
    (1234567890123456.25, "1234567890123456.2"),  # ties go to the even digit
    (1234567890123456.75, "1234567890123456.8"),
    (-1234567890123456.25, "-1234567890123456.2"),
    (1e-5, "1.0000000000000001e-05"),
    (1e-4, "0.0001"),
    (9999999999999998.0, "9999999999999998"),
    (1e16, "10000000000000000"),
    (99999999999999999.0, "1e+17"),
    (1e-11, "9.9999999999999994e-12"),
    (np.nextafter(1e-11, 1.0), "1.0000000000000001e-11"),
    (0.1, "0.10000000000000001"),
    (1.0, "1"),
    (-2.5, "-2.5"),
    (0.0, "0"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (np.nan, "nan"),
    (np.inf, "inf"),
    (-np.inf, "-inf"),
])
def test_float_text_examples(value, text):
    assert float_text(value) == text == "%.17g" % value


@settings(deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40),
       st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_int64_and_uint64(signed, unsigned):
    columns = [np.array(signed, np.int64), np.array(unsigned, np.uint64)]
    n = min(len(signed), len(unsigned))
    columns = [c[:n] for c in columns]
    assert csv_bytes("i,u", columns) == reference_csv("i,u", columns)


def test_integer_edges_bools_strings_and_objects():
    ints = np.array([-2 ** 63, 2 ** 63 - 1, 0, -1, 9999, 10000, -10000,
                     10 ** 16 - 1, 10 ** 16, -10 ** 18, 7, 123456789], np.int64)
    n = len(ints)
    columns = [ints, ints.astype(np.int32), ints.astype(np.int8),
               ints.astype(np.uint8), np.array([2 ** 64 - 1] * n, np.uint64),
               np.arange(n) % 3 == 1,
               np.array(("ok", "unstable-denominator", "out-of-range") * 4),
               np.array([3, 2 ** 70, -2 ** 70, 0] * 3, dtype=object)]
    assert all(np.asarray(c).dtype.kind == kind for c, kind in zip(columns, "iiiuubUO"))
    assert csv_bytes("h", columns) == reference_csv("h", columns)
    assert csv_bytes("seed", [[3, 2 ** 70]]) == b"seed\n3\n1180591620717411303424\n"


def test_empty_and_non_ascii_strings_float32_and_no_rows():
    columns = [np.array(["", "ünï", "ok", ""]), np.array([""] * 4),
               np.array([None, 1.5, "x", 2 ** 80], dtype=object),
               np.full(4, 0.1, np.float32), np.arange(4, dtype=np.uint64)]
    assert csv_bytes("h", columns) == reference_csv("h", columns)
    assert csv_bytes("h", [np.array([])]) == b"h\n"


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_rows_around_one_chunk(delta):
    n = field._CSV_CHUNK_ROWS + delta
    columns = [np.arange(n) - n // 2, values_with_specials(n, seed=delta + 5),
               np.arange(n) % 2 == 0, np.array(["ok", "out-of-range"] * n)[:n]]
    assert csv_bytes("q,v,b,f", columns) == reference_csv("q,v,b,f", columns)


@settings(deadline=None)
@given(bit_patterns)
def test_field_csv_matches_reference_writer(x):
    mesh = Mesh(1, len(x) + 1)
    assert (written(lambda path: write_field_csv(path, mesh, x, "nodes"))
            == written(lambda path: reference_write_field_csv(path, mesh, x, "nodes")))


def test_benchmark_range_values_take_the_exact_path(tmp_path, monkeypatch):
    # the value range of solver output and coefficients never reaches the
    # per-value %.17g fallback
    def refuse(values):
        raise AssertionError(f"per-value formatting of {values[:3]}")

    monkeypatch.setattr(field, "_python_float_text", refuse)
    with pytest.raises(AssertionError):
        write_csv(tmp_path / "zero.csv", "x", [[0.0]])
    coefficient = {"kind": "constant", "value": 1.0, "lambda": 0.5, "Lambda": 2.0}
    for dim, n in [(2, 64), (1, 4096)]:
        cfg = tmp_path / f"solve{dim}.json"
        cfg.write_text(json.dumps({"mesh": {"dim": dim, "n": n},
                                   "coefficient": coefficient,
                                   "rhs": {"constant": 1.0}}))
        out = tmp_path / f"out{dim}"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "u.csv").read_text().splitlines()) == (n - 1) ** dim + 1
    mesh = Mesh(1, 4096)
    a = 1.25 + 0.75 * np.sin(2 * np.pi * mesh.cell_centers_1d())
    write_field_csv(tmp_path / "a.csv", mesh, a, "cells")
