"""The package's surface stays minimal: every module-level import is used,
and every exported name and every public module-level function is reached
by the library itself, a demo or an acceptance criterion (ROADMAP item 9's
rule)."""

from __future__ import annotations

import ast
from pathlib import Path

import momentkit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "momentkit"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")

# Exports kept without a reaching caller, each decided by a ROADMAP item.
UNREACHED_BY_DECISION = (
    "square_positive_check",  # item 7 adopts it in the forward criterion
    "reverse_seminorm_construction",  # item 9: earns a stage or a demo, or goes
)

# Public functions kept without a reaching caller because tests use them as oracles.
TEST_ORACLES = (
    "exact_tail",  # the exact tail weight sum of a measure
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree: ast.AST) -> set[str]:
    """Identifiers read as a Name or an Attribute anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _named(tree: ast.AST) -> set[str]:
    """Identifiers that ``tree`` references or imports by name."""
    imported = {
        alias.name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return _referenced(tree) | imported


def test_module_level_imports_are_used():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_only_symalg_imports_the_sparse_products():
    """``multiply`` builds a product element; the library's other layers
    read moments through the dense table and never multiply elements, so no
    module but ``symalg`` imports it (demos and tests may)."""
    importers = sorted(
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "symalg.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "multiply" for alias in node.names)
    )
    assert importers == []


# Top-level definitions whose ``terms`` is a Carleman diagnostic's t_n, not
# an element's coefficient map.
CARLEMAN_TERMS = ("moments.py:CarlemanDiagnostic", "scenarios.py:_run_carleman")


def test_only_symalg_knows_the_coefficient_layout():
    """An element is one vector in monomials_up_to order, and symalg owns that
    layout: no other module reads an element's sparse ``terms`` view, and no
    module built on symalg computes slice offsets with ``math.comb`` (they
    take ``_graded_slice``).  errors and scenarios count monomials with it
    for the config caps without importing symalg."""
    found = []
    for path in MODULES:
        if path.name == "symalg.py":
            continue
        tree = _tree(path)
        on_symalg = any(
            isinstance(node, ast.ImportFrom) and node.module == "symalg" for node in tree.body
        )
        for top in tree.body:
            owner = f"{path.name}:{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr == "terms" and owner not in CARLEMAN_TERMS:
                    found.append(f"{owner}:{node.lineno} .terms")
                if on_symalg and node.attr == "comb" and getattr(node.value, "id", "") == "math":
                    found.append(f"{owner}:{node.lineno} math.comb")
    assert found == []


def _reached() -> set[str]:
    """Names the library, the demos or the acceptance tests reach."""
    reached = set()
    for path in MODULES:
        reached |= _referenced(_tree(path))
    for path in sorted((ROOT / "demos").glob("*.py")):
        reached |= _named(_tree(path))
    return reached | _named(_tree(ROOT / "tests" / "test_acceptance.py"))


def test_every_export_is_reached():
    assert set(UNREACHED_BY_DECISION) <= set(momentkit.__all__)
    unreached = sorted(set(momentkit.__all__) - _reached() - set(UNREACHED_BY_DECISION))
    assert unreached == []


def test_exemptions_are_unreached():
    """An exempt name that something now reaches is a stale exemption."""
    exempt = set(UNREACHED_BY_DECISION) | set(TEST_ORACLES)
    assert sorted(exempt & _reached()) == []


def test_every_public_function_is_reached():
    defined = {
        node.name
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert set(TEST_ORACLES) <= defined
    exempt = set(UNREACHED_BY_DECISION) | set(TEST_ORACLES)
    assert sorted(defined - _reached() - exempt) == []
