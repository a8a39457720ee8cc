# The CLI's config checker against jsonschema, the reference implementation
# of the JSON Schema tables it reads.

import copy

import pytest

from invdiff.cli import SCHEMAS, ConfigError, _check
from invdiff.experiments import FAMILY_TAGS

jsonschema = pytest.importorskip("jsonschema")

# the keywords _check implements; a table using any other would be ignored
IMPLEMENTED = {"type", "properties", "required", "additionalProperties", "enum",
               "minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum",
               "items", "minItems", "maxItems", "oneOf", "const"}
BOUNDS = {"minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"}

MESH_2D = {"dim": 2, "n": 64}
RHS = {"constant": 1.0, "point_masses": [[0.5, 2.0]]}
SOLVER = {"tol": 1e-10, "max_iter": 100}
CLASS = {"lambda": 0.5, "Lambda": 2.0}
FAMILY = {"seeds": [1, 2], "n_pairs": 3, "floor": 1e-8, "eps_min": 1e-3,
          "eps_max": 0.1}
RECOVER = {"mesh": {"dim": 1, "n": 64}, "u_file": "u.csv",
           "rhs": {"constant": 1.0, "point_masses": [[0.25, 1.0]]}} | CLASS

# per command, one config per case (coefficient kind, recover mode, scan
# family) that sets every key its case knows
FULL = {
    "solve": [{"mesh": MESH_2D, "coefficient": coefficient, "rhs": RHS,
               "solver": SOLVER} for coefficient in [
        {"kind": "constant", "value": 1.0} | CLASS,
        {"kind": "pwc", "partition_n": 4, "values": [1.0, 1.5],
         "seed": 3} | CLASS,
        {"kind": "fourier", "seed": 3, "k_max": 6} | CLASS,
        {"kind": "step", "alpha": 0.5} | CLASS,
        {"kind": "file", "path": "a.csv"} | CLASS,
    ]],
    "recover": [
        # pwc recovery takes a smooth right side only
        {"mode": "pwc", "partition_n": 2} | RECOVER
        | {"rhs": {"constant": 1.0}},
        {"mode": "1d", "w_excl": 0.02} | RECOVER,
    ],
    "scan": [{"mesh": {"dim": 1, "n": 256}, "solver": SOLVER,
              "experiment": experiment} for experiment in [
        {"family": "smooth-fourier"} | FAMILY | CLASS,
        {"family": "pwc-random", "partition_n": 2} | FAMILY | CLASS,
        # the step family draws nothing, so it takes one seed
        {"family": "step-1d-lowerbound"} | FAMILY | {"seeds": [1]},
    ]],
    "pcfit": [{
        "mesh": {"dim": 1, "n": 64},
        "coefficient": {"kind": "fourier", "seed": 1, "k_max": 3} | CLASS,
        "rhs": {"constant": 1.0},
        "solver": SOLVER,
        "fit": {"n_bins": 6},
    }],
    "mollcheck": [{
        "mesh": {"dim": 1, "n": 256}, "field": "step", "kernel": "bump",
        "t_min_cells": 4, "t_max": 0.1, "n_t": 5,
    }],
}

# what every node of a full config is replaced by in turn
VALUES = [0, 1, 2, 3, 4, -1, 64, 2 ** 27 + 1, 0.5, 1.0, 2.0, 64.0, -0.5, 1e-12,
          True, False, None, "", "pwc", "1d", "box", "smooth-fourier", [], [1],
          [1, 2], {}]
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


def case(schema, config):
    """The case of a oneOf that config's tag picks; any other schema as is."""
    if "oneOf" not in schema:
        return schema
    cases = schema["oneOf"]
    tag = config[cases[0]["required"][0]]
    return next(c for c in cases if c["properties"][c["required"][0]]
                == {"const": tag})


def subschema(schema, path, config):
    """The schema of config's node at path, each oneOf resolved by config."""
    for key in path:
        schema = case(schema, config)
        schema = schema["items"] if isinstance(key, int) else \
            schema["properties"].get(key, {})
        config = config[key]
    return case(schema, config)


def integral_float_for_integer(schema, path, value, config):
    """True where JSON Schema counts a float like 64.0 as an integer."""
    if not isinstance(value, float) or not value.is_integer():
        return False
    sub = subschema(schema, path, config)
    return sub.get("type") == "integer" or any(
        type(e) is int for e in sub.get("enum", [sub.get("const")]))


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
    for full in FULL[command]:
        assert accepts(full, schema)
        for config, path, new in mutants(full):
            expected = oracle.is_valid(config)
            if expected and integral_float_for_integer(schema, path, new, full):
                expected, n_integral = False, n_integral + 1
            if accepts(config, schema) != expected:
                mismatches.append((path, new, expected))
    assert not mismatches
    # the one allowed difference is exercised, and stays the only one
    assert n_integral > 0


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
        if "oneOf" in schema:
            # discriminated: every case requires one key first and pins it
            # with its own const, so the tag picks the only case that can
            # match, as _check assumes
            assert set(schema) == {"oneOf"}, where
            cases = schema["oneOf"]
            key = cases[0]["required"][0]
            tags = []
            for i, sub in enumerate(cases):
                assert sub["type"] == "object", where
                assert sub["required"][0] == key, where
                assert set(sub["properties"][key]) == {"const"}, where
                tags.append(sub["properties"][key]["const"])
                walk(sub, f"{where}/oneOf/{i}")
            assert len(set(tags)) == len(tags), where
        if "items" in schema:
            assert isinstance(schema["items"], dict), where
            walk(schema["items"], f"{where}/items")

    for command, schema in SCHEMAS.items():
        walk(schema, command)


def test_scan_cases_are_the_family_tags():
    cases = SCHEMAS["scan"]["properties"]["experiment"]["oneOf"]
    tags = {case["properties"]["family"]["const"] for case in cases}
    assert tags == set(FAMILY_TAGS)


# a oneOf keeps the errors of the flat table it replaced: the missing tag,
# an unknown tag among the known ones, and a key the case does not read
@pytest.mark.parametrize("coefficient,error", [
    ({"lambda": 0.5}, "at coefficient: 'kind' is a required property"),
    ({"kind": "box"}, 'at coefficient/kind: "box" is not one of '
                      '["constant", "pwc", "fourier", "step", "file"]'),
    (FULL["solve"][0]["coefficient"] | {"seed": 1},
     "at coefficient: unknown key(s) 'seed'"),
])
def test_case_errors_name_the_key(coefficient, error):
    with pytest.raises(ConfigError) as info:
        _check(FULL["solve"][0] | {"coefficient": coefficient}, SCHEMAS["solve"])
    assert str(info.value) == f"bad config {error}"
