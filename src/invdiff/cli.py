# Command-line front end: config-driven runs emitting CSV/JSON artifacts.
# A run reads only its config file, and this module alone sets each
# artifact's file name, CSV header and columns, and JSON keys.
#
# Exit codes: 0 success, 2 config/usage or I/O error (InputError, OSError),
# 3 numerical failure (NumericalError) or out of memory (MemoryError).

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .mesh import Mesh, Partition, MAX_CELLS, InputError, NumericalError
from .field import (CoefficientField, ScalarField, write_csv, write_field_csv,
                    read_field_csv)
from .forward import RightHandSide, solve_1d, solve_fd_2d, DEFAULT_TOL
from .positivity import compute_weight, fit_pc_beta, power_law_fit
from .mollify import MollifierSpec, mollify, approximation_functional, KERNELS
from .recovery import recover_pwc, recover_1d
from .experiments import (coefficient_family, stability_scan, sine_basis,
                          sine_series, step_coefficient, PIVOT_ALPHA0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(InputError):
    pass


# --------------------------------------------------------------------------
# Config schemas. additionalProperties is false everywhere: unknown keys are
# rejected by name before any compute starts.

def _object(properties: dict, required=()) -> dict:
    """A closed object schema: a key outside properties is rejected by name."""
    return {"type": "object", "properties": properties,
            "required": list(required), "additionalProperties": False}


def _one_of(key: str, cases: dict) -> dict:
    """oneOf over {tag: (properties, required keys)}. Each case requires key
    first and pins it to its tag with const, so the tag picks the one case
    a config can match, and a key that case does not read is unknown."""
    return {"oneOf": [_object({key: {"const": tag}} | properties,
                              [key, *required])
                      for tag, (properties, required) in cases.items()]}


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_CLASS = {"lambda": _POSITIVE, "Lambda": _POSITIVE}
_PARTITION_N = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer", "minimum": 0}
_MESH_N = {"type": "integer", "minimum": 2}
_MESH_SCHEMA = _object({"dim": {"enum": [1, 2]}, "n": _MESH_N}, ["dim", "n"])

_COEFFICIENT_SCHEMA = _one_of("kind", {
    "constant": ({"value": {"type": "number"}} | _CLASS,
                 ["value", "lambda", "Lambda"]),
    "pwc": ({"partition_n": _PARTITION_N,
             "values": {"type": "array", "items": {"type": "number"}},
             "seed": _SEED} | _CLASS, ["partition_n", "lambda", "Lambda"]),
    "fourier": ({"seed": _SEED, "k_max": {"type": "integer", "minimum": 1,
                                          "maximum": MAX_CELLS}} | _CLASS,
                ["lambda", "Lambda"]),
    # the class bounds default to step_coefficient's
    "step": ({"alpha": {"type": "number", "exclusiveMinimum": 0,
                        "exclusiveMaximum": 1}} | _CLASS, []),
    "file": ({"path": {"type": "string"}} | _CLASS,
             ["path", "lambda", "Lambda"]),
})

_CONSTANT_RHS = {"constant": {"type": "number"}}
# pcfit and pwc recovery need a smooth right side: no point masses
_SMOOTH_RHS_SCHEMA = _object(_CONSTANT_RHS)
_RHS_SCHEMA = _object(_CONSTANT_RHS | {
    "point_masses": {
        "type": "array",
        "items": {"type": "array", "items": {"type": "number"},
                  "minItems": 2, "maxItems": 2},
    },
})

_SOLVER_SCHEMA = _object({"tol": _POSITIVE,
                          "max_iter": {"type": "integer", "minimum": 1}})

_RECOVER = {"mesh": _MESH_SCHEMA, "u_file": {"type": "string"},
            "rhs": _RHS_SCHEMA} | _CLASS

# the keys every scan family reads
_FAMILY = {
    "seeds": {"type": "array", "items": _SEED, "minItems": 1},
    "n_pairs": {"type": "integer", "minimum": 1, "maximum": MAX_CELLS},
    "floor": _POSITIVE,
    "eps_min": _POSITIVE,
    "eps_max": _POSITIVE,
}

SCHEMAS = {
    "solve": _object({
        "mesh": _MESH_SCHEMA,
        "coefficient": _COEFFICIENT_SCHEMA,
        "rhs": _RHS_SCHEMA,
        "solver": _SOLVER_SCHEMA,
    }, ["mesh", "coefficient", "rhs"]),
    "recover": _one_of("mode", {
        "pwc": (_RECOVER | {"rhs": _SMOOTH_RHS_SCHEMA,
                            "partition_n": _PARTITION_N},
                [*_RECOVER, "partition_n"]),
        "1d": (_RECOVER | {"w_excl": _POSITIVE}, list(_RECOVER)),
    }),
    "scan": _object({
        "mesh": _MESH_SCHEMA,
        "solver": _SOLVER_SCHEMA,
        "experiment": _one_of("family", {
            "smooth-fourier": (_FAMILY | _CLASS, ["seeds"]),
            "pwc-random": (_FAMILY | _CLASS | {"partition_n": _PARTITION_N},
                           ["seeds"]),
            # step_coefficient's class bounds; it draws nothing, so one seed
            "step-1d-lowerbound": (
                _FAMILY | {"seeds": _FAMILY["seeds"] | {"maxItems": 1}}, ["seeds"]),
        }),
    }, ["mesh", "experiment"]),
    "pcfit": _object({
        "mesh": _MESH_SCHEMA,
        "coefficient": _COEFFICIENT_SCHEMA,
        "rhs": _SMOOTH_RHS_SCHEMA,
        "solver": _SOLVER_SCHEMA,
        "fit": _object({"n_bins": {"type": "integer", "minimum": 4,
                                   "maximum": MAX_CELLS}}, ["n_bins"]),
    }, ["mesh", "coefficient", "rhs", "fit"]),
    "mollcheck": _object({
        "mesh": _object({"dim": {"const": 1}, "n": _MESH_N}, ["dim", "n"]),
        "field": {"enum": ["step", "smooth"]},
        "kernel": {"enum": list(KERNELS)},
        "t_min_cells": {"type": "number", "minimum": 2},
        "t_max": _POSITIVE,
        "n_t": {"type": "integer", "minimum": 3, "maximum": MAX_CELLS},
    }, ["mesh", "field"]),
}


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}
# (keyword, test the value must pass, what failing it means)
_BOUNDS = (("minimum", operator.ge, "is less than the minimum of"),
           ("exclusiveMinimum", operator.gt,
            "is less than or equal to the minimum of"),
           ("maximum", operator.le, "exceeds the maximum of"),
           ("exclusiveMaximum", operator.lt,
            "is greater than or equal to the maximum of"))


def _is(value, member) -> bool:
    return type(value) is type(member) and value == member


def _check(value, schema: dict, path: str = "") -> None:
    """Check a parsed config against one of the SCHEMAS tables.

    Implements only the keywords the tables use. A oneOf is checked as the
    one case whose const matches the key every case requires first, which
    is JSON Schema's oneOf for such cases. Stricter than JSON Schema in two
    ways: an integer is a JSON integer, never an integral float or a bool
    (nor is a bool a number), and an enum or const member matches in type
    as well as value, so neither 2.0 nor true is a mesh dim.
    """
    def fail(reason):
        raise ConfigError(f"bad config at {path or 'top level'}: {reason}")

    def bad(reason):
        fail(f"{json.dumps(value)} {reason}")

    def at(key):
        return f"{path}/{key}" if path else str(key)

    if "oneOf" in schema:
        cases = schema["oneOf"]
        key = cases[0]["required"][0]
        # without the key, the first case names it, or the value's type
        schema = cases[0]
        if isinstance(value, dict) and key in value:
            tags = [case["properties"][key]["const"] for case in cases]
            _check(value[key], {"enum": tags}, at(key))
            schema = next(case for case, tag in zip(cases, tags)
                          if _is(value[key], tag))
    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind])):
        bad(f"is not of type {kind!r}")
    if "enum" in schema and not any(_is(value, e) for e in schema["enum"]):
        bad(f"is not one of {json.dumps(schema['enum'])}")
    if "const" in schema and not _is(value, schema["const"]):
        bad(f"is not {json.dumps(schema['const'])}")
    for key, passes, reason in _BOUNDS:
        if key in schema and not passes(value, schema[key]):
            bad(f"{reason} {schema[key]!r}")
    if isinstance(value, list):
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            bad(f"has {len(value)} items, not {lo} to {hi}")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), at(i))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is a required property")
        extra = sorted(set(value) - set(props))
        if schema.get("additionalProperties", True) is False and extra:
            fail(f"unknown key(s) {', '.join(map(repr, extra))}")
        for key, item in value.items():
            _check(item, props.get(key, {}), at(key))


def _finite(text: str) -> float:
    """json.load hook for every non-integer number, NaN and Infinity included."""
    number = float(text)
    if not math.isfinite(number):
        raise ConfigError(f"config holds the non-finite number {text}")
    return number


def _unique_keys(pairs) -> dict:
    """json.load hook for every object: a repeated key is an error, where
    json.load would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_config(path, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f, parse_float=_finite, parse_constant=_finite,
                               object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _check(config, SCHEMAS[command])
    # the schema cannot say it: the mesh dim sits in another object
    if "solver" in config and config["mesh"]["dim"] == 1:
        raise ConfigError("bad config at solver: a dim-1 mesh is solved "
                          "directly, so no solver settings apply")
    return config


def _json_value(value):
    """value with each non-finite float, nested ones too, as None (null)."""
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path, payload: dict, config: dict):
    """Write payload stamped with the config's hash and the program version."""
    stamp = {"config_hash": _config_hash(config), "version": __version__}
    with open(path, "w") as f:
        json.dump(_json_value(payload | stamp), f, sort_keys=True, indent=2,
                  allow_nan=False)
        f.write("\n")


# config keys -> the coefficient_family (and step_coefficient) parameters
_FAMILY_ARGS = {"lambda": "lam", "Lambda": "Lam", "n_pairs": "n_pairs",
                "partition_n": "partition_n", "eps_min": "eps_min",
                "eps_max": "eps_max"}


def _build_coefficient(config, mesh: Mesh) -> CoefficientField:
    spec = config["coefficient"]
    kind = spec["kind"]
    if kind == "step":
        if mesh.dim != 1:
            raise ConfigError("step coefficient is dim-1 only")
        bounds = {_FAMILY_ARGS[k]: spec[k] for k in ("lambda", "Lambda")
                  if k in spec}
        return step_coefficient(mesh, spec.get("alpha", PIVOT_ALPHA0), **bounds)
    lam, Lam = spec["lambda"], spec["Lambda"]
    if kind == "constant":
        return CoefficientField.constant(mesh, spec["value"], lam, Lam)
    if kind == "file":
        values = read_field_csv(spec["path"], mesh, "cells")
        return CoefficientField(mesh, values, lam, Lam)
    if kind == "pwc":
        part = Partition(mesh, spec["partition_n"])
        if "values" in spec:
            if "seed" in spec:
                raise ConfigError("pwc with 'values' draws nothing from 'seed'")
            vals_q = np.asarray(spec["values"], dtype=float)
            if vals_q.shape != (part.n_subcubes,):
                raise ConfigError(
                    f"pwc needs {part.n_subcubes} values, got {vals_q.size}")
        else:
            rng = np.random.default_rng([spec.get("seed", 0)])
            vals_q = rng.uniform(lam, Lam, part.n_subcubes)
        return CoefficientField(mesh, vals_q[part.subcube_of_cells()], lam, Lam)
    # fourier
    rng = np.random.default_rng([spec.get("seed", 0)])
    k_max = spec.get("k_max", 6)
    if k_max * mesh.n > MAX_CELLS:
        raise ConfigError(f"fourier basis of {k_max} x {mesh.n} values exceeds "
                          f"the limit of {MAX_CELLS}")
    basis = sine_basis(mesh.cell_centers_1d(), k_max)
    series = sine_series(rng.standard_normal(k_max), basis)
    if mesh.dim == 2:
        series_y = sine_series(rng.standard_normal(k_max), basis)
        series = np.add.outer(series, series_y)
    bound = float(np.max(np.abs(series)))
    mid, half = 0.5 * (lam + Lam), 0.5 * (Lam - lam)
    if bound > 0:
        series = series * (0.7 * half / bound)
    return CoefficientField(mesh, mid + series, lam, Lam)


def _build_rhs(config, mesh: Mesh) -> RightHandSide:
    spec = config.get("rhs", {})
    return replace(RightHandSide.constant(mesh, spec.get("constant", 0.0)),
                   point_masses=spec.get("point_masses", ()))


def _solve(a: CoefficientField, f: RightHandSide, solver: dict):
    """Forward solve for the mesh dimension of `a`; returns (u, report)."""
    if a.mesh.dim == 1:
        u, _, report = solve_1d(a, f)
        return u, report
    return solve_fd_2d(a, f, **solver)


# --------------------------------------------------------------------------
# Subcommands

def cmd_solve(config, out: Path):
    mesh = Mesh(**config["mesh"])
    a = _build_coefficient(config, mesh)
    f = _build_rhs(config, mesh)
    u, report = _solve(a, f, config.get("solver", {}))
    write_field_csv(out / "u.csv", mesh, u.values, "nodes")
    _write_json(out / "report.json", asdict(report), config)


def cmd_recover(config, out: Path):
    mesh = Mesh(**config["mesh"])
    u = ScalarField(mesh, read_field_csv(config["u_file"], mesh, "nodes"))
    f = _build_rhs(config, mesh)
    lam, Lam = config["lambda"], config["Lambda"]
    if config["mode"] == "pwc":
        part = Partition(mesh, config["partition_n"])
        rec = recover_pwc(u, f, part, bounds=(lam, Lam))
        write_csv(out / "a_rec.csv", "q_index,value,flag",
                  [np.arange(len(rec.flags)), rec.values, rec.flags])
        payload = {"mode": "pwc", "partition_n": part.n,
                   "n_flagged": sum(fl != "ok" for fl in rec.flags)}
    else:
        rec = recover_1d(u, f, config.get("w_excl"), lam=lam, Lam=Lam)
        write_field_csv(out / "a_rec.csv", mesh, rec.values, "cells")
        payload = {"mode": "1d", "n_clamped": rec.n_clamped,
                   "gamma_hat": rec.gamma_hat, "w_excl": rec.w_excl}
    _write_json(out / "recovery.json", payload, config)


def cmd_scan(config, out: Path, threads: int = 1):
    mesh = Mesh(**config["mesh"])
    exp = config["experiment"]
    solver = config.get("solver", {})
    f = RightHandSide.constant(mesh, 1.0)
    reports = []

    def solve(a):
        u, report = _solve(a, f, solver)
        reports.append(report)
        return u

    kwargs = {arg: exp[key] for key, arg in _FAMILY_ARGS.items() if key in exp}
    pairs = coefficient_family(exp["family"], exp["seeds"], mesh, **kwargs)
    # stability_scan rejects a floor below 10x the 2D solver tolerance before
    # it draws the first pair; the 1D solve is direct and has no tolerance
    floor = {"floor": exp["floor"]} if "floor" in exp else {}
    tol = solver.get("tol", DEFAULT_TOL) if mesh.dim == 2 else None
    samples, fit = stability_scan(pairs, solve, **floor, workers=threads,
                                  solver_tol=tol)
    write_csv(out / "samples.csv", "seed,delta_l2,e_h10,excluded",
              [[s.metadata["seed"] for s in samples],
               [s.delta_l2 for s in samples], [s.e_h10 for s in samples],
               [s.excluded for s in samples]])
    # aggregates that do not depend on the order the solves finished in
    iterations = [r.iterations for r in reports]
    effort = {"solves": len(reports), "iterations_min": min(iterations),
              "iterations_max": max(iterations),
              "iterations_sum": sum(iterations),
              "residual_max": max(r.residual for r in reports)}
    _write_json(out / "fit.json", asdict(fit) | {"solver": effort}, config)


def cmd_pcfit(config, out: Path):
    mesh = Mesh(**config["mesh"])
    a = _build_coefficient(config, mesh)
    f = _build_rhs(config, mesh)
    u, report = _solve(a, f, config.get("solver", {}))
    w = compute_weight(a, u, f)
    fit = fit_pc_beta(w, config["fit"]["n_bins"])
    write_csv(out / "envelope.csv", "log_dist,log_wmin",
              [fit.log_dist, fit.log_wmin])
    payload = {"c_hat": fit.c_hat, "beta_hat": fit.beta_hat, "r2": fit.r2,
               "n_bins": fit.n_bins}
    _write_json(out / "pcfit.json", payload | asdict(report), config)


def cmd_mollcheck(config, out: Path):
    mesh = Mesh(**config["mesh"])
    x = mesh.cell_centers_1d()
    if config["field"] == "step":
        lam, Lam = 1.0, 2.0
        a = CoefficientField(mesh, np.where(x < 0.5, lam, Lam), lam, Lam)
    else:
        a = CoefficientField(mesh, 2.0 + np.sin(2 * np.pi * x), 0.5, 3.5)
    kernel = config.get("kernel", MollifierSpec.kernel)  # its default kernel
    t_lo = config.get("t_min_cells", 4) * mesh.h
    t_hi = config.get("t_max", 0.1)
    if t_hi <= t_lo:
        raise ConfigError(f"t range empty: [{t_lo}, {t_hi}]")
    ts = np.geomspace(t_lo, t_hi, config.get("n_t", 8))
    vals = [approximation_functional(a, mollify(a, MollifierSpec(t, kernel)), t)
            for t in ts]
    slope = power_law_fit(np.log(ts), np.log(vals))[0]
    write_csv(out / "moll.csv", "t,functional", [ts, vals])
    _write_json(out / "mollcheck.json",
                {"slope": slope, "field": config["field"], "kernel": kernel},
                config)


COMMANDS = {
    "solve": cmd_solve,
    "recover": cmd_recover,
    "scan": cmd_scan,
    "pcfit": cmd_pcfit,
    "mollcheck": cmd_mollcheck,
}

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="invdiff",
        description="Forward solves, coefficient recovery, positivity fits and "
                    "stability scans for -div(a grad u) = f on the unit cube.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="scan pairs measured at once (other commands "
                             "ignore it; results are identical for any value)")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = _load_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "scan":
            cmd_scan(config, out, threads=args.threads)
        else:
            COMMANDS[args.command](config, out)
    except InputError as exc:
        print(f"invdiff: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"invdiff: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"invdiff: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"invdiff: I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
