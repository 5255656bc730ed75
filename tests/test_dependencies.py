"""The runtime dependency is numpy alone: no module of the package imports anything else.

Every module under ``src/offdiag`` is parsed, not imported, so an import
guarded by ``try`` or placed inside a function is caught as well.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "offdiag"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "offdiag"}


def imported_packages(tree):
    """Top-level package of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


MODULES = sorted(PACKAGE.rglob("*.py"))


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "analysis.py", "subspaces.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(imported_packages(tree)) <= ALLOWED


def test_guard_catches_a_third_party_import():
    tree = ast.parse("import json\nfrom scipy.linalg import eigh\nfrom . import io\n")
    assert set(imported_packages(tree)) - ALLOWED == {"scipy"}
