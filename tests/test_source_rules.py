"""Rules on the package's source, read from its syntax trees.

No module-level import goes unread, and no private module-level name
outlives its readers, so a folded helper or import that is left behind
fails here.  Each failure names ``path:line: name``, with the path
relative to the repository root.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freefactor"


def source_trees() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(ROOT)): ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }


def loads(node) -> set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_no_unused_imports():
    # a name bound by a module-level import must be read somewhere in its
    # module (__future__ imports and the package __init__ excepted)
    unused = []
    for path, tree in source_trees().items():
        if path.endswith("__init__.py"):
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = loads(tree)
        unused += [f"{path}:{line}: {name}" for name, line in bound.items() if name not in read]
    assert unused == [], "\n".join(unused)


def test_no_unread_private_names():
    # a private module-level function, class or constant (one leading
    # underscore) must be read somewhere in src/freefactor outside its own
    # definition: by name elsewhere in its module, or imported or read as
    # an attribute anywhere, so no helper outlives its callers
    trees = source_trees()
    from_outside = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                from_outside.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                from_outside.update(alias.name for alias in node.names)
    unread = []
    for path, tree in trees.items():
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            read = from_outside.union(*map(loads, tree.body[:i] + tree.body[i + 1 :]))
            unread += [
                f"{path}:{node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    assert unread == [], "\n".join(unread)
