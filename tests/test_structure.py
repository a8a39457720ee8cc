"""Source-level rules that no runtime test can see."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "invdiff"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list:
    """(line, module, name) of each underscore name that `path` imports
    from another module of the package; dunders such as __version__ are
    public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.lineno, node.module, alias.name)
                      for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return found


def unused_imports(path: Path) -> list:
    """(line, name) of each name that `path` imports and never uses."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, (alias.asname or alias.name).split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def scipy_imports(path: Path) -> list:
    """(line, module) of each `import scipy...` or `from scipy... import`
    statement in `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return [(line, name) for line, name in found
            if name.split(".")[0] == "scipy"]


def package_imports(path: Path) -> list:
    """(line, module, name) of each public name that `path` imports from an
    invdiff module, `from .x import y` or `from invdiff.x import y`; the
    module is "" for the package root."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level > 0:
            module = node.module or ""
        elif (node.module or "").split(".")[0] == "invdiff":
            module = node.module.partition(".")[2]
        else:
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names
                  if not alias.name.startswith("_")]
    return found


def public_names(module: str) -> set:
    """The __all__ of a package module, read from its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(set(ast.literal_eval(node.value)) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"])


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    assert private_imports(path) == []


def test_rule_sees_a_private_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .positivity import (fit_pc_beta,\n"
                      "                         _loglog_fit)\n"
                      "from . import __version__\n")
    assert private_imports(source) == [(1, "positivity", "_loglog_fit")]


# __init__.py imports only to re-export
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"]
                         + TESTS, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_rule_sees_an_unused_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from __future__ import annotations\n"
                      "import itertools\n"
                      "import os.path\n"
                      "import numpy as np\n"
                      "from .mesh import Mesh, InputError as Bad\n"
                      "def f(x: Mesh):\n"
                      "    return np.sqrt(os.path.getsize(x))\n")
    assert unused_imports(source) == [(2, "itertools"), (5, "Bad")]


# forward._pocketfft loads scipy's sine transform without the scipy.fft
# package and is the only route to scipy
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path) == []


def test_rule_sees_a_scipy_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import numpy, scipy.fft\n"
                      "from scipy import ndimage\n"
                      "def f():\n"
                      "    import scipy as sp\n"
                      "from scipyx import y\n"
                      "from .scipy import z\n")
    assert scipy_imports(source) == [(1, "scipy.fft"), (2, "scipy"), (4, "scipy")]


# the package root holds the version and the two error roots whose exit
# codes the CLI documents; every other name lives in its module
ROOT_NAMES = {"__version__", "InputError", "NumericalError"}


def unlisted(module: str, name: str) -> bool:
    if module == "":  # a submodule or a root name
        return name not in {p.stem for p in SOURCES} | ROOT_NAMES
    # the CLI module is an entry point and lists nothing
    return module != "cli" and name not in public_names(module)


# a name another module or a test imports is public: its module lists it
# in __all__
@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_imported_names_are_in_all(path):
    assert [(line, module, name) for line, module, name in package_imports(path)
            if unlisted(module, name)] == []


def test_rule_sees_an_unlisted_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .mesh import Mesh, MAX_ROWS, _private\n"
                      "from invdiff.field import grid_l2, gradient\n"
                      "from invdiff import field, Mesh, InputError\n"
                      "from invdiff.cli import main\n"
                      "import numpy\n")
    assert package_imports(source) == [
        (1, "mesh", "Mesh"), (1, "mesh", "MAX_ROWS"),
        (2, "field", "grid_l2"), (2, "field", "gradient"),
        (3, "", "field"), (3, "", "Mesh"), (3, "", "InputError"),
        (4, "cli", "main")]
    assert [(module, name) for _, module, name in package_imports(source)
            if unlisted(module, name)] == [
        ("mesh", "MAX_ROWS"), ("field", "gradient"), ("", "Mesh")]


def test_package_root_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets}
    assert names == ROOT_NAMES
