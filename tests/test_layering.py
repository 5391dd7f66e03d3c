"""The production modules import one another along a fixed graph, and
the brute-force layer lives in ``oracles`` alone: the production modules
and the package neither import it nor keep a copy of its helpers.  One
function, ``newton.as_rational``, turns values into Fractions."""

import ast
from pathlib import Path

import pytest

import monideal
from monideal import oracles

# the package modules each production module imports: lattice is the base
# layer and imports none, so no pure-power code can move back into it
IMPORT_GRAPH = {
    "lattice": set(),
    "newton": {"lattice"},
    "ilambda": {"lattice"},
    "monoid": {"ilambda", "lattice"},
    "rees": {"ilambda", "lattice", "monoid"},
}
PRODUCTION = tuple(IMPORT_GRAPH)
PACKAGE = Path(monideal.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
ORACLE_HELPERS = {"box_enumerate", "le_pr", "vec_scale", "dot", "in_gamma", "omega_dot"}


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
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


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules the module's import statements name, relative
    (``from .x import y``, ``from . import x``) or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"monideal.{base}".rstrip(".")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    inside = {name.split(".")[1] for name in found if name.startswith("monideal.")}
    return inside & MODULES


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
def test_production_import_graph(name):
    assert _package_imports(_tree(name)) == IMPORT_GRAPH[name], name


@pytest.mark.parametrize("name", PRODUCTION + ("__init__",))
def test_production_module_does_not_import_oracles(name):
    imported = _imported_names(_tree(name))
    assert not {m for m in imported if m.split(".")[-1] == "oracles"}, (name, imported)


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_holds_no_oracle_helper(name):
    assert not _bound_names(_tree(name)) & ORACLE_HELPERS, name


def test_package_names_are_the_oracle_helpers():
    """The helpers are callables of ``oracles`` and no name of the package,
    nor is ``monoid.membership_table``, the brute-force table they read."""
    for name in ORACLE_HELPERS:
        assert callable(getattr(oracles, name)), name
        assert not hasattr(monideal, name), name
    assert not hasattr(monideal, "membership_table")


def _fraction_casts(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every call of ``Fraction`` with one
    argument that is not a literal; Fraction(1) and Fraction(x, d) are not
    casts.  Module-level calls have no enclosing function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", getattr(child.func, "attr", None)) == "Fraction"
                and len(child.args) + len(child.keywords) == 1
                and not (child.args and isinstance(child.args[0], ast.Constant))
            ):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name", sorted(MODULES - {"oracles"}))
def test_rational_input_has_one_owner(name):
    casts = _fraction_casts(_tree(name))
    if name == "newton":
        casts = [(owner, line) for owner, line in casts if owner != "as_rational"]
    assert not casts, (name, casts)


def test_fraction_cast_guard_sees_a_cast():
    tree = ast.parse(
        "_F1 = Fraction(1)\n"
        "def as_rational(x):\n    return Fraction(x)\n"
        "def f(p, d):\n    return [Fraction(x, d) for x in p], fractions.Fraction(*p)\n"
    )
    assert _fraction_casts(tree) == [("as_rational", 3), ("f", 5)]
