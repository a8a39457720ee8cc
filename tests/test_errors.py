# The exit-code policy: each error class names its code through one of two
# bases, and cli.main alone turns an error into a stderr line and a code.

import importlib
import inspect
import json
import os
import pkgutil
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invdiff
from invdiff import InputError, NumericalError, cli
from invdiff.experiments import (PairSample, coefficient_family,
                                 envelope_constant, lower_bound_closed_form,
                                 stability_scan)
from invdiff.field import FieldArgumentError, weighted_l2_sq, write_field_csv
from invdiff.forward import series_cube
from invdiff.mesh import Mesh, MeshArgumentError, Partition

# every error class the package defines, with the builtin base its callers
# may catch it by
BUILTIN_BASES = {
    "ConfigError": ValueError, "MeshArgumentError": ValueError,
    "FieldArgumentError": ValueError, "FieldInvariantError": ValueError,
    "ResolutionError": ValueError, "SolverError": RuntimeError,
    "DegenerateFitError": ValueError, "RecoveryFailureError": RuntimeError,
    "MalformedInputError": ValueError, "AmbiguousPivotError": ValueError,
}


def defined_errors():
    for info in pkgutil.iter_modules(invdiff.__path__):
        module = importlib.import_module(f"invdiff.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__
                    and issubclass(cls, BaseException)
                    and cls not in (InputError, NumericalError)):
                yield cls


ERRORS = sorted(defined_errors(), key=lambda cls: cls.__name__)


def test_every_error_class_is_listed():
    assert sorted(cls.__name__ for cls in ERRORS) == sorted(BUILTIN_BASES)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_class_has_one_exit_base(cls):
    assert issubclass(cls, InputError) != issubclass(cls, NumericalError)
    assert issubclass(cls, BUILTIN_BASES[cls.__name__])


SOLVE_1D = {
    "mesh": {"dim": 1, "n": 64},
    "coefficient": {"kind": "constant", "value": 1.0,
                    "lambda": 0.5, "Lambda": 2.0},
    "rhs": {"constant": 1.0},
}


def write_config(tmp_path, payload):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    return str(path)


# classes cli never names still get the code of their base
@pytest.mark.parametrize("base,code,line", [
    (NumericalError, cli.EXIT_NUMERICAL, "invdiff: numerical failure: boom\n"),
    (InputError, cli.EXIT_CONFIG, "invdiff: config error: boom\n"),
], ids=["numerical", "input"])
def test_main_maps_each_base_to_its_exit_code(tmp_path, capsys, monkeypatch,
                                              base, code, line):
    class UnnamedError(base):
        pass

    def fail(config, out):
        raise UnnamedError("boom")

    monkeypatch.setitem(cli.COMMANDS, "solve", fail)
    cfg = write_config(tmp_path, SOLVE_1D)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == line


def test_main_lets_other_errors_through(tmp_path, monkeypatch):
    def fail(config, out):
        raise ValueError("a defect, not an input")

    monkeypatch.setitem(cli.COMMANDS, "solve", fail)
    cfg = write_config(tmp_path, SOLVE_1D)
    with pytest.raises(ValueError, match="a defect"):
        cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])


def limit_memory():
    # 2 GiB of address space (with one BLAS thread, whose buffers count too):
    # a regression that allocates by the config's counts fails with
    # MemoryError instead of taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


@pytest.mark.parametrize("command,payload,code,prefix", [
    ("scan", {"mesh": {"dim": 1, "n": 256},
              "experiment": {"family": "smooth-fourier", "seeds": [1],
                             "n_pairs": 10 ** 12}},
     cli.EXIT_CONFIG, "invdiff: config error: "),
    ("solve", SOLVE_1D | {"coefficient": {"kind": "fourier", "k_max": 10 ** 8,
                                          "lambda": 0.5, "Lambda": 2.0}},
     cli.EXIT_CONFIG, "invdiff: config error: "),
    ("solve", None, cli.EXIT_CONFIG, "invdiff: I/O error: "),
    # a mesh under the cell limit whose arrays do not fit in 2 GiB together
    ("solve", SOLVE_1D | {"mesh": {"dim": 1, "n": 2 ** 26}},
     cli.EXIT_NUMERICAL, "invdiff: out of memory: "),
], ids=["n_pairs", "k_max", "missing_config", "out_of_memory"])
def test_process_exit_code(tmp_path, command, payload, code, prefix):
    cfg = (write_config(tmp_path, payload) if payload
           else str(tmp_path / "none.json"))
    src = str(Path(invdiff.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "invdiff.cli", command, "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, preexec_fn=limit_memory,
        env=os.environ | {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stderr.startswith(prefix)
    assert not list(tmp_path.glob("out/*"))


MESH_1D = Mesh(1, 8)
PART_2D = Partition(Mesh(2, 8), 2)


# the argument guards of library calls that no command can reach with a
# schema-valid config: each raises its class with its message
@pytest.mark.parametrize("call,cls,message", [
    (lambda tmp: next(coefficient_family("smooth-fourier", [1], MESH_1D,
                                         n_pairs=0)),
     FieldArgumentError, "n_pairs must be >= 1, got 0"),
    (lambda tmp: stability_scan([], None, floor=0),
     FieldArgumentError, "floor must be > 0, got 0"),
    (lambda tmp: envelope_constant(
        [PairSample(1.0, 1.0, {}, excluded=True)], 0.5),
     FieldArgumentError, "no included samples"),
    (lambda tmp: lower_bound_closed_form(0.5, alpha=1.0),
     FieldArgumentError, "alpha must be in (0,1), got 1.0"),
    (lambda tmp: lower_bound_closed_form(0.5, alpha=0.0),
     FieldArgumentError, "alpha must be in (0,1), got 0.0"),
    (lambda tmp: weighted_l2_sq(MESH_1D, np.ones(7), np.ones(8)),
     FieldArgumentError, "weighted_l2_sq inputs must be cellwise"),
    (lambda tmp: weighted_l2_sq(MESH_1D, np.ones(8), np.ones((8, 1))),
     FieldArgumentError, "weighted_l2_sq inputs must be cellwise"),
    (lambda tmp: write_field_csv(tmp / "a.csv", MESH_1D, np.ones(8), "faces"),
     FieldArgumentError, "location must be 'cells' or 'nodes', got 'faces'"),
    (lambda tmp: write_field_csv(tmp / "a.csv", MESH_1D, np.ones(8), "nodes"),
     FieldArgumentError, "array shape (8,) != (7,)"),
    (lambda tmp: series_cube([0.5], 9, 2),
     FieldArgumentError, "point [0.5] does not match d=2"),
    (lambda tmp: Partition(MESH_1D, 0),
     MeshArgumentError, "partition n must be >= 1, got 0"),
    (lambda tmp: PART_2D.cell_mask(4),
     MeshArgumentError, "subcube index 4 out of range"),
    (lambda tmp: PART_2D.cell_mask(-1),
     MeshArgumentError, "subcube index -1 out of range"),
    (lambda tmp: PART_2D.subcube_center(4),
     MeshArgumentError, "subcube index 4 out of range"),
    (lambda tmp: PART_2D.subcube_center(-1),
     MeshArgumentError, "subcube index -1 out of range"),
], ids=["family_n_pairs", "scan_floor", "envelope_all_excluded",
        "closed_form_alpha_1", "closed_form_alpha_0", "weighted_ratio_shape",
        "weighted_w_shape", "field_csv_location", "field_csv_shape",
        "series_cube_point", "partition_n", "cell_mask_high", "cell_mask_low",
        "subcube_center_high", "subcube_center_low"])
def test_library_argument_guards(tmp_path, call, cls, message):
    with pytest.raises(cls) as info:
        call(tmp_path)
    assert type(info.value) is cls and str(info.value) == message
    assert not list(tmp_path.iterdir())
