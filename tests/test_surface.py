"""Every public name of a superq module has a reader.

The library surface is what ``cli`` and ``verify`` read, what the modules
read of each other, and what the README quickstart uses.  A public name is
one in the module's ``__all__`` (every top-level class and function of a
module without one).  It passes when another superq module reads it (the
package's ``__init__`` re-exports do not count), when its own module reads
it beyond its definition, or when the quickstart reads it.
"""

import ast
from pathlib import Path

import superq

from conftest import quickstart_source

PACKAGE = Path(superq.__file__).parent

# Public names that nothing above reads, each kept for a reason of its own.
EXEMPT = {
    "fock.FockVector": "the benchmark's per-layer report reads its span fock.FockVector (ROADMAP item 1)",
}


def public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not node.name.startswith("_")
    ]


def reads(tree: ast.Module, modules) -> set[str]:
    """The names a module reads: loaded names, names imported from a module, and module.name attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def unread_public_names() -> set[str]:
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    # a definition is no read, and neither is an __all__ entry, a string
    reached = reads(ast.parse(quickstart_source()), trees).union(
        *(reads(tree, trees) for tree in trees.values())
    )
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in public_names(tree)
        if name not in reached
    }


def test_every_public_name_has_a_reader():
    assert unread_public_names() == set(EXEMPT)
