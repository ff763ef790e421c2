"""Dead-API guard: the package holds what the commands, README's library
quickstart and the benchmark tracer reach, and nothing only tests call.

- Every top-level function or class, public or private, is reached, name
  by name and transitively through the definitions it mentions, from
  `cli.py`, from the quickstart, or from a package name that
  `bench/tracer.py` binds.
- Every public method of a package class is referenced as an attribute in
  `src` or in the benchmark's own code; references from tests do not count.
- No top-level function or class name is defined twice in one module.

Names are matched by spelling, so a name shared by two definitions reaches
both: the guard can miss dead code, but it does not flag live code.  The
last check closes that gap within a module, where a later definition
rebinds the name and leaves the earlier one unreachable.
"""

import ast
from collections import Counter
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quiverhom"
TRACER = ROOT / "bench" / "tracer.py"


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _modules() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _quickstart_names() -> set:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return _names(ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1)))


def _tracer_names() -> set:
    """Attributes the tracer reads off the package modules it binds by layer
    name, such as `homology.standard_resolution`."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in layers}


def test_every_definition_is_reached():
    mentions = {}      # top-level name -> names its definitions mention
    defs = []          # (module, name) of each top-level function or class
    roots = _quickstart_names() | _tracer_names()
    for path, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if path.name == "cli.py":
                roots |= _names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                # other top-level statements run on import
                roots |= _names(node)
                continue
            for name in defined:
                mentions.setdefault(name, set()).update(_names(node) - {name})
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, node.name))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(mentions.get(name, ()))
    assert [f"{module}:{name}" for module, name in defs if name not in reached] == []


def test_every_public_method_is_referenced():
    # a method is reached as `.name`, so any attribute of that name in the
    # package or in the benchmark's own code counts as a use
    modules = _modules()
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TRACER.parent.glob("*.py"))]
    attributes = {n.attr for tree in [*modules.values(), *bench] for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
    unused = [f"{path.name}:{cls.name}.{fn.name}"
              for path, tree in modules.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_") and fn.name not in attributes]
    assert unused == []


def test_no_top_level_name_is_defined_twice():
    twice = [f"{path.name}:{name}" for path, tree in _modules().items()
             for name, n in Counter(node.name for node in tree.body
                                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))).items()
             if n > 1]
    assert twice == []
