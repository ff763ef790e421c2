"""Dead-API guard: every public top-level function or class in the package is
either exported by `quiverhom/__init__.py` or used by another definition."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quiverhom"


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_public_definition_is_exported_or_used():
    exported = {alias.name
                for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    definitions = []   # (module, name, node)
    statements = []    # every top-level statement but an import
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statements.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((path.name, node.name, node))
    unused = [f"{module}:{name}" for module, name, node in definitions
              if name not in exported
              and not any(name in _names(other) for other in statements if other is not node)]
    assert unused == []
