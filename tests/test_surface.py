"""The package's surface stays minimal: every module-level import is used,
and every exported name is reached by the library itself, a demo or an
acceptance criterion (ROADMAP item 9's rule)."""

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
    "localizing_matrix",  # item 7 adopts it in the forward criterion
    "reverse_seminorm_construction",  # item 9: earns a stage or a demo, or goes
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


def test_every_export_is_reached():
    reached = set()
    for path in MODULES:
        reached |= _referenced(_tree(path))
    for path in sorted((ROOT / "demos").glob("*.py")):
        reached |= _named(_tree(path))
    reached |= _named(_tree(ROOT / "tests" / "test_acceptance.py"))
    assert set(UNREACHED_BY_DECISION) <= set(momentkit.__all__)
    unreached = sorted(set(momentkit.__all__) - reached - set(UNREACHED_BY_DECISION))
    assert unreached == []
