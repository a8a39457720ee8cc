"""Source-level rules that no runtime test can see."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "invdiff").glob("*.py"))


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
