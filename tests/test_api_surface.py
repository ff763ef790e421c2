"""Dead-API guard: every public top-level function or class in the package is
either exported by `quiverhom/__init__.py` or used by another definition, and
every public method of a package class is referenced somewhere."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "quiverhom"


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


def test_every_public_method_is_referenced():
    # a method is reached as `.name`, so any attribute of that name in the
    # package or the tests counts as a use
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))]
    attributes = {n.attr for tree in [*modules.values(), *tests] for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
    unused = [f"{path.name}:{cls.name}.{fn.name}"
              for path, tree in modules.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_") and fn.name not in attributes]
    assert unused == []
