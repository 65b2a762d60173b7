"""Every name a module of the package imports is used in that module.

This stands in for a linter's unused-import rule. ``__init__.py`` is exempt:
its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import edgesign

MODULES = sorted(p for p in Path(edgesign.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` that no expression refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import exp, log\nprint(os.sep, exp(1))\n"
    assert unused_imports(source) == [(2, "system"), (3, "log")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
