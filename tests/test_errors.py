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

import pytest

import invdiff
from invdiff import InputError, NumericalError, cli

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
