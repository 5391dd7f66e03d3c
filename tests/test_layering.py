"""The brute-force layer lives in ``oracles`` alone: the production
modules neither import it nor keep a copy of its helpers."""

import ast
import importlib
from pathlib import Path

import pytest

import monideal
from monideal import oracles

PRODUCTION = ("lattice", "newton", "ilambda", "monoid", "rees")
ORACLE_HELPERS = {"box_enumerate", "le_pr", "vec_scale", "dot", "in_gamma", "omega_dot"}


def _tree(name: str) -> ast.Module:
    path = Path(importlib.import_module(f"monideal.{name}").__file__)
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> set[str]:
    """Every module an import statement names, relative ones as written
    after their dots, and every name it imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
    return found


def _bound_names(tree: ast.Module) -> set[str]:
    """Names of every function, method and class defined anywhere in the
    module, plus every name an import binds."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.asname or alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_does_not_import_oracles(name):
    imported = _imported_names(_tree(name))
    assert not {m for m in imported if m.split(".")[-1] == "oracles"}, (name, imported)


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_holds_no_oracle_helper(name):
    assert not _bound_names(_tree(name)) & ORACLE_HELPERS, name


def test_package_names_are_the_oracle_helpers():
    for name in ORACLE_HELPERS:
        assert callable(getattr(oracles, name)), name
    assert monideal.box_enumerate is oracles.box_enumerate
    assert monideal.le_pr is oracles.le_pr
    assert monideal.in_gamma is oracles.in_gamma
