# Command-line front end: config-driven runs emitting CSV/JSON artifacts.
#
# Exit codes: 0 success, 2 config/usage or I/O error, 3 numerical failure.

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .mesh import Mesh, Partition, MeshArgumentError
from .field import (CoefficientField, ScalarField, FieldArgumentError,
                    FieldInvariantError, write_csv, write_field_csv,
                    read_field_csv)
from .forward import (RightHandSide, SolverError, solve_1d, solve_fd_2d,
                      DEFAULT_TOL)
from .positivity import (compute_weight, fit_pc_beta, DegenerateFitError,
                         write_envelope_csv, _loglog_fit)
from .mollify import MollifierSpec, mollify, approximation_functional, KERNELS
from .recovery import (recover_pwc, recover_1d, RecoveryFailureError,
                       MalformedInputError, AmbiguousPivotError)
from .experiments import (coefficient_family, stability_scan, write_samples_csv,
                          sine_basis, sine_series, step_coefficient,
                          PIVOT_ALPHA0, FAMILY_TAGS, EPS_RANGE)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# --------------------------------------------------------------------------
# Config schemas. additionalProperties is false everywhere: unknown keys are
# rejected by name before any compute starts.

_MESH_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"enum": [1, 2]},
        "n": {"type": "integer", "minimum": 2},
    },
    "required": ["dim", "n"],
    "additionalProperties": False,
}

_COEFFICIENT_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["constant", "pwc", "fourier", "step", "file"]},
        "value": {"type": "number"},
        "lambda": {"type": "number", "exclusiveMinimum": 0},
        "Lambda": {"type": "number", "exclusiveMinimum": 0},
        "partition_n": {"type": "integer", "minimum": 1},
        "values": {"type": "array", "items": {"type": "number"}},
        "seed": {"type": "integer", "minimum": 0},
        "k_max": {"type": "integer", "minimum": 1},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "path": {"type": "string"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_RHS_SCHEMA = {
    "type": "object",
    "properties": {
        "constant": {"type": "number"},
        "point_masses": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
        },
    },
    "additionalProperties": False,
}

_SOLVER_SCHEMA = {
    "type": "object",
    "properties": {
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "max_iter": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}

SCHEMAS = {
    "solve": {
        "type": "object",
        "properties": {
            "mesh": _MESH_SCHEMA,
            "coefficient": _COEFFICIENT_SCHEMA,
            "rhs": _RHS_SCHEMA,
            "solver": _SOLVER_SCHEMA,
        },
        "required": ["mesh", "coefficient", "rhs"],
        "additionalProperties": False,
    },
    "recover": {
        "type": "object",
        "properties": {
            "mesh": _MESH_SCHEMA,
            "mode": {"enum": ["pwc", "1d"]},
            "u_file": {"type": "string"},
            "rhs": _RHS_SCHEMA,
            "partition_n": {"type": "integer", "minimum": 1},
            "w_excl": {"type": "number", "exclusiveMinimum": 0},
            "lambda": {"type": "number", "exclusiveMinimum": 0},
            "Lambda": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["mesh", "mode", "u_file", "rhs", "lambda", "Lambda"],
        "additionalProperties": False,
    },
    "scan": {
        "type": "object",
        "properties": {
            "mesh": _MESH_SCHEMA,
            "solver": _SOLVER_SCHEMA,
            "experiment": {
                "type": "object",
                "properties": {
                    "family": {"enum": list(FAMILY_TAGS)},
                    "seeds": {"type": "array",
                              "items": {"type": "integer", "minimum": 0}},
                    "n_pairs": {"type": "integer", "minimum": 1},
                    "floor": {"type": "number", "exclusiveMinimum": 0},
                    "partition_n": {"type": "integer", "minimum": 1},
                    "eps_min": {"type": "number", "exclusiveMinimum": 0},
                    "eps_max": {"type": "number", "exclusiveMinimum": 0},
                    "lambda": {"type": "number", "exclusiveMinimum": 0},
                    "Lambda": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["family", "seeds"],
                "additionalProperties": False,
            },
        },
        "required": ["mesh", "experiment"],
        "additionalProperties": False,
    },
    "pcfit": {
        "type": "object",
        "properties": {
            "mesh": _MESH_SCHEMA,
            "coefficient": _COEFFICIENT_SCHEMA,
            "rhs": _RHS_SCHEMA,
            "solver": _SOLVER_SCHEMA,
            "fit": {
                "type": "object",
                "properties": {"n_bins": {"type": "integer", "minimum": 4}},
                "required": ["n_bins"],
                "additionalProperties": False,
            },
        },
        "required": ["mesh", "coefficient", "rhs", "fit"],
        "additionalProperties": False,
    },
    "mollcheck": {
        "type": "object",
        "properties": {
            "mesh": _MESH_SCHEMA,
            "field": {"enum": ["step", "smooth"]},
            "kernel": {"enum": list(KERNELS)},
            "t_min_cells": {"type": "number", "minimum": 2},
            "t_max": {"type": "number", "exclusiveMinimum": 0},
            "n_t": {"type": "integer", "minimum": 3},
        },
        "required": ["mesh", "field"],
        "additionalProperties": False,
    },
}


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}
# (keyword, test the value must pass, what failing it means)
_BOUNDS = (("minimum", operator.ge, "less than the minimum of"),
           ("exclusiveMinimum", operator.gt,
            "less than or equal to the minimum of"),
           ("exclusiveMaximum", operator.lt,
            "greater than or equal to the maximum of"))


def _check(value, schema: dict, path: str = "") -> None:
    """Check a parsed config against one of the SCHEMAS tables.

    Implements only the keywords the tables use. Stricter than JSON Schema
    in two ways: an integer is a JSON integer, never an integral float or a
    bool (nor is a bool a number), and an enum member matches in type as
    well as value, so neither 2.0 nor true is a mesh dim.
    """
    def fail(reason):
        raise ConfigError(f"bad config at {path or 'top level'}: {reason}")

    def bad(reason):
        fail(f"{json.dumps(value)} {reason}")

    def at(key):
        return f"{path}/{key}" if path else str(key)

    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind])):
        bad(f"is not of type {kind!r}")
    if "enum" in schema and not any(type(value) is type(e) and value == e
                                    for e in schema["enum"]):
        bad(f"is not one of {json.dumps(schema['enum'])}")
    for key, passes, reason in _BOUNDS:
        if key in schema and not passes(value, schema[key]):
            bad(f"is {reason} {schema[key]!r}")
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


def _load_config(path, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f, parse_float=_finite, parse_constant=_finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _check(config, SCHEMAS[command])
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


def _build_mesh(config) -> Mesh:
    return Mesh(config["mesh"]["dim"], config["mesh"]["n"])


# config keys -> the coefficient_family (and step_coefficient) parameters
_FAMILY_ARGS = {"lambda": "lam", "Lambda": "Lam", "n_pairs": "n_pairs",
                "partition_n": "partition_n"}


def _build_coefficient(config, mesh: Mesh) -> CoefficientField:
    spec = config["coefficient"]
    kind = spec["kind"]
    lam = spec.get("lambda")
    Lam = spec.get("Lambda")
    if kind == "step":
        if mesh.dim != 1:
            raise ConfigError("step coefficient is dim-1 only")
        bounds = {_FAMILY_ARGS[k]: spec[k] for k in ("lambda", "Lambda")
                  if k in spec}
        return step_coefficient(mesh, spec.get("alpha", PIVOT_ALPHA0), **bounds)
    if lam is None or Lam is None:
        raise ConfigError(f"{kind} coefficient needs 'lambda' and 'Lambda'")
    if kind == "constant":
        if "value" not in spec:
            raise ConfigError("constant coefficient needs 'value'")
        return CoefficientField.constant(mesh, spec["value"], lam, Lam)
    if kind == "file":
        if "path" not in spec:
            raise ConfigError("file coefficient needs 'path'")
        try:
            values = read_field_csv(spec["path"], mesh, "cells")
        except FileNotFoundError:
            raise ConfigError(f"coefficient file not found: {spec['path']}")
        return CoefficientField(mesh, values, lam, Lam)
    if kind == "pwc":
        n = spec.get("partition_n")
        if n is None:
            raise ConfigError("pwc coefficient needs 'partition_n'")
        part = Partition(mesh, n)
        if "values" in spec:
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
    values = np.full(mesh.cell_shape, float(spec.get("constant", 0.0)))
    return RightHandSide(mesh, values, point_masses=spec.get("point_masses", ()))


def _solve(a: CoefficientField, f: RightHandSide, solver: dict):
    """Forward solve for the mesh dimension of `a`; returns (u, report)."""
    if a.mesh.dim == 1:
        u, _, report = solve_1d(a, f)
        return u, report
    return solve_fd_2d(a, f, **solver)


# --------------------------------------------------------------------------
# Subcommands

def cmd_solve(config, out: Path) -> int:
    mesh = _build_mesh(config)
    a = _build_coefficient(config, mesh)
    f = _build_rhs(config, mesh)
    u, report = _solve(a, f, config.get("solver", {}))
    write_field_csv(out / "u.csv", mesh, u.values, "nodes")
    _write_json(out / "report.json", report.to_json_dict(), config)
    return EXIT_OK


def cmd_recover(config, out: Path) -> int:
    mesh = _build_mesh(config)
    try:
        u_values = read_field_csv(config["u_file"], mesh, "nodes")
    except FileNotFoundError:
        raise ConfigError(f"input u missing: {config['u_file']}")
    u = ScalarField(mesh, u_values)
    f = _build_rhs(config, mesh)
    lam, Lam = config["lambda"], config["Lambda"]
    if config["mode"] == "pwc":
        if "partition_n" not in config:
            raise ConfigError("pwc recovery needs 'partition_n'")
        part = Partition(mesh, config["partition_n"])
        rec = recover_pwc(u, f, part, bounds=(lam, Lam))
        rec.write_csv(out / "a_rec.csv")
        payload = {"mode": "pwc", "partition_n": part.n,
                   "n_flagged": sum(fl != "ok" for fl in rec.flags)}
    else:
        rec = recover_1d(u, f, config.get("w_excl"), lam=lam, Lam=Lam)
        write_field_csv(out / "a_rec.csv", mesh, rec.values, "cells")
        payload = ({"mode": "1d", "n_clamped": rec.n_clamped}
                   | rec.to_json_dict())
    _write_json(out / "recovery.json", payload, config)
    return EXIT_OK


def cmd_scan(config, out: Path, seed_override=None, threads: int = 1) -> int:
    mesh = _build_mesh(config)
    exp = config["experiment"]
    seeds = [seed_override] if seed_override is not None else exp["seeds"]
    if not seeds:
        raise ConfigError("experiment needs a non-empty seed list")
    solver = config.get("solver", {})
    f = RightHandSide.constant(mesh, 1.0)
    reports = []

    def solve(a):
        u, report = _solve(a, f, solver)
        reports.append(report)
        return u

    kwargs = {arg: exp[key] for key, arg in _FAMILY_ARGS.items() if key in exp}
    kwargs["eps_range"] = (exp.get("eps_min", EPS_RANGE[0]),
                           exp.get("eps_max", EPS_RANGE[1]))

    def all_pairs():
        for seed in seeds:
            yield from coefficient_family(exp["family"], seed, mesh, **kwargs)

    # stability_scan rejects a floor below 10x the solver tolerance before
    # it draws the first pair
    floor = {"floor": exp["floor"]} if "floor" in exp else {}
    samples, fit = stability_scan(all_pairs(), solve, **floor, workers=threads,
                                  solver_tol=solver.get("tol", DEFAULT_TOL))
    write_samples_csv(out / "samples.csv", samples)
    # aggregates that do not depend on the order the solves finished in
    iterations = [r.iterations for r in reports]
    effort = {"solves": len(reports), "iterations_min": min(iterations),
              "iterations_max": max(iterations),
              "iterations_sum": sum(iterations),
              "residual_max": max(r.final_relative_residual for r in reports)}
    _write_json(out / "fit.json", fit.to_json_dict() | {"solver": effort},
                config)
    return EXIT_OK


def cmd_pcfit(config, out: Path) -> int:
    mesh = _build_mesh(config)
    a = _build_coefficient(config, mesh)
    f = _build_rhs(config, mesh)
    u, report = _solve(a, f, config.get("solver", {}))
    w = compute_weight(a, u, f)
    fit = fit_pc_beta(w, config["fit"]["n_bins"])
    write_envelope_csv(out / "envelope.csv", fit)
    _write_json(out / "pcfit.json", fit.to_json_dict() | report.to_json_dict(),
                config)
    return EXIT_OK


def cmd_mollcheck(config, out: Path) -> int:
    mesh = _build_mesh(config)
    if mesh.dim != 1:
        raise ConfigError("mollcheck runs on dim-1 meshes")
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
    slope = float(_loglog_fit(np.log(ts), np.log(vals))[0])
    write_csv(out / "moll.csv", "t,functional", [ts, vals])
    _write_json(out / "mollcheck.json",
                {"slope": slope, "field": config["field"], "kernel": kernel},
                config)
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "recover": cmd_recover,
    "scan": cmd_scan,
    "pcfit": cmd_pcfit,
    "mollcheck": cmd_mollcheck,
}

_CONFIG_ERRORS = (ConfigError, MeshArgumentError, FieldArgumentError,
                  FieldInvariantError)
_NUMERICAL_ERRORS = (SolverError, DegenerateFitError, RecoveryFailureError,
                     MalformedInputError, AmbiguousPivotError)


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
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed list (scan only)")
    args = parser.parse_args(argv)

    if args.threads < 1:
        print(f"invdiff: --threads must be >= 1, got {args.threads}",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.seed < 0:
        print(f"invdiff: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.command != "scan":
        print(f"invdiff: --seed applies to scan only, not {args.command}",
              file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = _load_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "scan":
            return cmd_scan(config, out, seed_override=args.seed,
                            threads=args.threads)
        return COMMANDS[args.command](config, out)
    except _CONFIG_ERRORS as exc:
        print(f"invdiff: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"invdiff: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"invdiff: I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
