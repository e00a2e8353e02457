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
holds a ``** 2``.  A builtin ``max`` or ``min`` drops a NaN that is not its
first argument, so each one sits on integers or on values checked finite,
as ``BUILTIN_EXTREMA`` lists; a float reduction goes through numpy.  Its
one BLAS reduction is ``superstate._vecdot``, the only reader of
``np.vecdot``; ``entanglement`` alone reads its Gram kernels, which the
other modules reach through ``_gram_measures``; and every exception class
of ``errors`` is raised somewhere.
"""

import ast
from pathlib import Path

import superq

from conftest import exec_quickstart, function_names, quickstart_source, reached_functions

PACKAGE = Path(superq.__file__).parent

# Public names that nothing above reads, each kept for a reason of its own.
EXEMPT = {
    "fock.FockVector": "the benchmark's per-layer report reads its span fock.FockVector (ROADMAP item 13)",
    "entanglement.entanglement_entropy_bits": (
        "the benchmark's per-layer report reads its span entanglement.entanglement_entropy_bits"
        " (ROADMAP item 13)"
    ),
    "entanglement.reduced_boson_density": (
        "the one-state rho of the library, which verify builds as one DensityMatrix stack; the"
        " benchmark's per-layer report reads its span (ROADMAP item 13)"
    ),
    "superstate.commutator_suite": (
        "the library's commutator residuals of a zeta set, which verify reads through"
        " _commutator_residuals on its own A stack; the benchmark's per-layer report reads its span"
        " (ROADMAP item 13)"
    ),
}


def modules() -> dict[str, ast.Module]:
    """Each superq module's parsed source, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


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
    trees = {name: tree for name, tree in modules().items() if name != "__init__"}
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


INDEX = "integer index and size arithmetic"
# Each builtin max or min call of a superq module, by (module.function, builtin), with why no NaN reaches it.
BUILTIN_EXTREMA = {
    ("cli.sweep_thetas", "max"): INDEX,
    ("fock.required_displacement_dim", "min"): INDEX,
    ("superstate.BlockOperator.max_abs", "max"): INDEX,
    ("superstate.BlockOperator.max_abs", "min"): INDEX,
    ("superstate._fill", "max"): INDEX,
    ("superstate._band_apply", "max"): INDEX,
    ("superstate._band_matmul", "max"): INDEX,
    ("superstate._band_matmul", "min"): INDEX,
    ("verify.required_suite_dim", "max"): INDEX,
    ("moebius.ExtendedComplex.__post_init__", "max"): "the scale test, after u and v are checked finite",
    ("verify._suite_entangle", "max"): "the clamp max(0.0, z_sq), behind a math.isfinite(z_sq) test",
}


def builtin_extrema() -> set[tuple[str, str]]:
    """(module.function, builtin) of each builtin max or min call in a superq module.

    The function is the innermost named definition that holds the call,
    with its class: ``superstate.BlockOperator.max_abs``.
    """
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in {"max", "min"}:
                found.add((scope, child.func.id))
            visit(child, scope)

    for module, tree in modules().items():
        visit(tree, module)
    return found


def test_every_builtin_max_and_min_has_a_reason():
    assert builtin_extrema() == set(BUILTIN_EXTREMA)


def vecdot_sites() -> list[str]:
    """module.function of each vecdot a superq module reads, by the top-level definition that holds it."""
    return [
        f"{module}.{getattr(node, 'name', node.lineno)}"
        for module, tree in modules().items()
        for node in tree.body
        for inner in ast.walk(node)
        if (isinstance(inner, ast.Attribute) and inner.attr == "vecdot")
        or (isinstance(inner, ast.alias) and inner.name == "vecdot")
    ]


def test_one_dot_kernel():
    # BLAS rounds a dot shorter than 8 entries in its tail loop; the kernel pads them
    assert vecdot_sites() == ["superstate._vecdot"]


GRAM_KERNELS = {"_gram_entries", "_concurrence", "_entropies"}


def test_one_gram_kernel():
    # the Gram pass and the two quantities read from it, outside their module only through _gram_measures
    trees = modules()
    readers = {module for module, tree in trees.items() if reads(tree, trees) & GRAM_KERNELS}
    assert readers == {"entanglement"}


def unraised_exceptions() -> set[str]:
    """The exception classes of errors.py that no raise statement of a superq module names."""
    trees = modules()
    declared = {node.name for node in trees["errors"].body if isinstance(node, ast.ClassDef)}
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return declared - raised


def test_every_exception_class_is_raised():
    assert unraised_exceptions() == set()
