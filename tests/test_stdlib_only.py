"""The core stays stdlib-only: every absolute import in ``capow`` is stdlib or ``capow``."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "capow"


def absolute_imports(tree: ast.AST):
    """Yield (enclosing function or None, top-level module) for each absolute import."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield function, alias.name.split(".")[0]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                yield function, child.module.split(".")[0]
            yield from visit(child, function)

    yield from visit(tree, None)


def test_core_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    outside = []
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        for function, module in absolute_imports(tree):
            if module not in sys.stdlib_module_names and module != "capow":
                outside.append(f"{source.name}:{function or '<module>'} imports {module}")
    assert outside == []
