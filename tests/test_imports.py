"""Import hygiene of the package and its tests, checked on the syntax tree.

No linter is a dependency, so four of its rules are kept here with the
standard library's ``ast``: every imported name is used, no netsmith
module reaches into another one's private (underscore) names, the
package imports at module level only, so a module's dependencies are
all in its header, and every name in the package's ``__all__`` is bound
in its ``__init__`` and listed once.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "netsmith"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imports(tree):
    """(bound name, imported name, node) for each name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.name, node


def _exported(tree) -> list:
    """The names listed in __all__, in order."""
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names += [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return names


def _used_names(tree) -> set:
    """Names read anywhere or listed in __all__."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_exported(tree))


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_imported_name_is_used():
    unused = []
    for path in SOURCES:
        tree = _parse(path)
        used = _used_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{node.lineno} {bound}"
                   for bound, _, node in _imports(tree) if bound not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_module_imports_another_modules_private_name():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for bound, name, node in _imports(_parse(path)):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "netsmith")
            if internal and name.startswith("_") and not name.startswith("__"):
                private.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not private, "private cross-module imports:\n" + "\n".join(private)


def test_package_imports_at_module_level_only():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        top = {id(node) for node in tree.body}
        nested += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert not nested, "imports below module level:\n" + "\n".join(nested)


def test_every_export_is_bound_once():
    tree = _parse(PACKAGE / "__init__.py")
    exported = _exported(tree)
    bound = {b for b, _, _ in _imports(tree)} | {
        t.id for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)}
    assert exported, "__init__.py has no __all__"
    stale = [name for name in exported if name not in bound]
    twice = sorted({name for name in exported if exported.count(name) > 1})
    assert not stale, f"__all__ names nothing binds: {stale}"
    assert not twice, f"__all__ lists names more than once: {twice}"
