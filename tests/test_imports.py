"""Every import in the package and the tests is used.

``__init__.py`` is left out: its imports are the package's public names.
"""

import ast
import os

import pytest

import qtokens

PACKAGE_DIR = os.path.dirname(qtokens.__file__)
TESTS_DIR = os.path.dirname(__file__)


def _modules():
    for directory in (PACKAGE_DIR, TESTS_DIR):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(directory, name)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced after."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "import json\nimport os\nfrom math import exp, log\nprint(os.sep, exp(1))\n"
    assert unused_imports(source) == ["json (line 1)", "log (line 3)"]


@pytest.mark.parametrize(
    "path", list(_modules()), ids=lambda p: os.path.relpath(p, os.path.dirname(TESTS_DIR))
)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
