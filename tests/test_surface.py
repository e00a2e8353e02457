"""Every public name of a superq module has a reader, and every public class member runs.

The library surface is what ``cli`` and ``verify`` read, what the modules
read of each other, and what the README quickstart uses.  A public name is
one in the module's ``__all__`` (every top-level class and function of a
module without one).  It passes when another superq module reads it (the
package's ``__init__`` re-exports do not count), when its own module reads
it beyond its definition, or when the quickstart reads it.

A public class member is a method or property without a leading underscore
that a superq class defines.  It passes when the emitting commands of
``conftest.EMITTING_ARGVS`` or the quickstart call it, traced under
``sys.setprofile``; the emitting commands' reach is the one the mutation
gate's coverage test reads, traced once per session.

The package also writes every square one way, as ``x * x``; no module
holds a ``** 2``.
"""

import ast
from pathlib import Path

import superq

from conftest import exec_quickstart, function_names, quickstart_source, reached_functions

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


def public_members() -> set[str]:
    """module.Class.name of each public method and property a superq class defines."""
    return {
        name
        for name in function_names().values()
        if name.count(".") == 2 and not name.rsplit(".", 1)[1].startswith("_")
    }


def test_every_public_class_member_is_reached(emitting_reach):
    assert public_members() - emitting_reach - reached_functions([exec_quickstart]) == set()


def squares_by_power() -> list[str]:
    """module:line of each ``x ** 2`` in a superq module, where every square is x * x (README)."""
    return sorted(
        f"{path.stem}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    )


def test_every_square_is_a_product():
    sites = squares_by_power()
    assert not sites, f"** 2 at {', '.join(sites)}"
