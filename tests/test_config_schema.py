# The CLI's config checker against jsonschema, the reference implementation
# of the JSON Schema tables it reads.

import copy

import pytest

from invdiff.cli import SCHEMAS, ConfigError, _check

jsonschema = pytest.importorskip("jsonschema")

# the keywords _check implements; a table using any other would be ignored
IMPLEMENTED = {"type", "properties", "required", "additionalProperties", "enum",
               "minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum",
               "items", "minItems", "maxItems"}
BOUNDS = {"minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"}

# one config per command that sets every key its table knows
FULL = {
    "solve": {
        "mesh": {"dim": 2, "n": 64},
        "coefficient": {"kind": "pwc", "value": 1.0, "lambda": 0.5,
                        "Lambda": 2.0, "partition_n": 4, "values": [1.0, 1.5],
                        "seed": 3, "k_max": 6, "alpha": 0.5, "path": "a.csv"},
        "rhs": {"constant": 1.0, "point_masses": [[0.5, 2.0]]},
        "solver": {"tol": 1e-10, "max_iter": 100},
    },
    "recover": {
        "mesh": {"dim": 1, "n": 64}, "mode": "pwc", "u_file": "u.csv",
        "rhs": {"constant": 1.0, "point_masses": [[0.25, 1.0]]},
        "partition_n": 2, "w_excl": 0.02, "lambda": 0.5, "Lambda": 2.0,
    },
    "scan": {
        "mesh": {"dim": 1, "n": 256},
        "solver": {"tol": 1e-10, "max_iter": 100},
        "experiment": {"family": "smooth-fourier", "seeds": [1, 2],
                       "n_pairs": 3, "floor": 1e-8, "partition_n": 2,
                       "eps_min": 1e-3, "eps_max": 0.1, "lambda": 0.5,
                       "Lambda": 2.0},
    },
    "pcfit": {
        "mesh": {"dim": 1, "n": 64},
        "coefficient": {"kind": "fourier", "lambda": 0.5, "Lambda": 2.0,
                        "seed": 1, "k_max": 3},
        "rhs": {"constant": 1.0},
        "solver": {"tol": 1e-10, "max_iter": 100},
        "fit": {"n_bins": 6},
    },
    "mollcheck": {
        "mesh": {"dim": 1, "n": 256}, "field": "step", "kernel": "bump",
        "t_min_cells": 4, "t_max": 0.1, "n_t": 5,
    },
}
# what every node of a full config is replaced by in turn
VALUES = [0, 1, 2, 3, 4, -1, 64, 2 ** 27 + 1, 0.5, 1.0, 2.0, 64.0, -0.5, 1e-12,
          True, False, None, "", "pwc", "1d", "box", "smooth-fourier", [], [1],
          {}]
DELETE = object()


def nodes(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from nodes(item, path + (key,))


def mutants(config):
    """(config, path, new value or None) for every replaced or deleted node
    and every object given an extra key."""
    yield config, (), None
    for path, value in nodes(config):
        if isinstance(value, dict):
            extra = copy.deepcopy(config)
            node = extra
            for key in path:
                node = node[key]
            node["extra"] = 1
            yield extra, path, None
        if not path:
            continue
        for new in VALUES + [DELETE]:
            mutant = copy.deepcopy(config)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if new is DELETE:
                del parent[path[-1]]
                yield mutant, path, None
            else:
                parent[path[-1]] = new
                yield mutant, path, new


def subschema(schema, path):
    for key in path:
        schema = schema["items"] if isinstance(key, int) else \
            schema["properties"].get(key, {})
    return schema


def integral_float_for_integer(schema, path, value):
    """True where JSON Schema counts a float like 64.0 as an integer."""
    if not isinstance(value, float) or not value.is_integer():
        return False
    sub = subschema(schema, path)
    return sub.get("type") == "integer" or any(
        type(e) is int for e in sub.get("enum", ()))


def accepts(config, schema):
    try:
        _check(config, schema)
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_check_agrees_with_jsonschema(command):
    schema = SCHEMAS[command]
    # the validator jsonschema.validate builds, after its metaschema check
    oracle = jsonschema.validators.validator_for(schema)
    oracle.check_schema(schema)
    oracle = oracle(schema)
    mismatches, n_integral = [], 0
    for config, path, new in mutants(FULL[command]):
        expected = oracle.is_valid(config)
        if expected and integral_float_for_integer(schema, path, new):
            expected, n_integral = False, n_integral + 1
        if accepts(config, schema) != expected:
            mismatches.append((path, new, expected))
    assert not mismatches
    # the one allowed difference is exercised, and stays the only one
    assert n_integral > 0
    assert accepts(FULL[command], schema)


def test_schemas_use_only_implemented_keywords():
    def walk(schema, where):
        assert set(schema) <= IMPLEMENTED, where
        assert schema.get("type", "object") in {"object", "array", "string",
                                                "number", "integer"}, where
        assert schema.get("additionalProperties", False) is False, where
        if BOUNDS & set(schema):
            assert schema.get("type") in {"number", "integer"}, where
        for key, sub in schema.get("properties", {}).items():
            walk(sub, f"{where}/{key}")
        if "items" in schema:
            assert isinstance(schema["items"], dict), where
            walk(schema["items"], f"{where}/items")

    for command, schema in SCHEMAS.items():
        walk(schema, command)
