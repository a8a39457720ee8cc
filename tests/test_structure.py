"""Source-level rules that no runtime test can see."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "invdiff").glob("*.py"))
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
