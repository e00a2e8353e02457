import cmath
import contextlib
import importlib
import inspect
import io
import math
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import superq
from superq import fock, uncertainty
from superq.cli import main as cli_main
from superq.moebius import BlochPoint, ExtendedComplex
from superq.superstate import BlockOperator

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

# Every memo of the package; a test that counts work must not depend on
# what an earlier test left in them.
MEMOS = (
    fock._memoised_columns,
    fock._memoised_oracle_columns,
    fock._log_factorials,
    uncertainty._memoised_quadratures,
)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def rebind(monkeypatch, original, replacement) -> int:
    """Replace ``original`` wherever a superq module binds it; return how many bindings."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "superq" or name.startswith("superq.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                bound += 1
    return bound


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts, and leaves, with every memo empty; the value clears them again."""
    clear_memos()
    yield clear_memos
    clear_memos()


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""

    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def golden_dir():
    return GOLDEN_DIR


def quickstart_source() -> str:
    """The Python block under the README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```", start)]


def exec_quickstart() -> None:
    """Run the README quickstart, which prints nothing, in a fresh namespace."""
    exec(compile(quickstart_source(), "README.md", "exec"), {})


# The package's reach: verify --suite all and one argv of each emitting command.
EMITTING_ARGVS = [
    ["verify", "--suite", "all", "--dim", "64"],
    ["state", "--theta", "1", "--zeta-re", "1"],
    ["coherent", "--theta", "1", "--zeta-re", "1", "--alpha-re", "0.5"],
    ["concurrence", "--theta", "1", "--zeta-re", "1"],
    ["entropy", "--zeta-re", "1"],
    ["uncertainty", "--theta", "1", "--zeta-re", "1", "--alpha-re", "0.5"],
    ["fibonacci", "--n-max", "5"],
    ["sweep", "--zeta-re", "1", "--grid", "3,3"],
]


def cli_run(argv):
    """A call that runs the CLI on argv, discards its stdout and requires exit 0."""

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        assert code == 0, argv

    return run


def function_names() -> dict:
    """module.name (or module.Class.name) of each function the package's source defines, by code object.

    A memo counts as the function it wraps; a nested function has no name of
    its own and counts as part of the function that defines it.
    """
    package = Path(superq.__file__).parent
    names = {}
    for info in pkgutil.iter_modules(superq.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"superq.{info.name}")
        for attr, value in vars(module).items():
            members = [(attr, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                members = [(f"{attr}.{name}", member) for name, member in vars(value).items()]
            for name, member in members:
                # a property's getter, a classmethod's function
                func = inspect.unwrap(getattr(member, "fget", None) or getattr(member, "__func__", member))
                code = getattr(func, "__code__", None)
                # the module that defines it, not one that imports it
                if code is not None and Path(code.co_filename) == package / f"{info.name}.py":
                    names[code] = f"{info.name}.{name}"
    return names


def reached_functions(calls) -> set[str]:
    """The function_names of every superq function that running the calls reaches, under sys.setprofile."""
    names, found = function_names(), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            found.add(names[frame.f_code])

    for call in calls:
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
    return found


@pytest.fixture(scope="session")
def emitting_reach() -> frozenset[str]:
    """reached_functions of EMITTING_ARGVS from cold memos, traced once per session."""
    clear_memos()
    return frozenset(reached_functions(map(cli_run, EMITTING_ARGVS)))


# Independent references the tests build without the package's own routes.


def float17_corpus() -> np.ndarray:
    """Values at the edges of the kernel: every power of 2 and of 10 and their neighbours, ties."""
    tens = np.array([float(f"1e{exponent}") for exponent in range(-323, 309)])
    corpus = [
        [0.0, -0.0, np.finfo(np.float64).max, -np.finfo(np.float64).max],
        np.ldexp(1.0, np.arange(-1074, 1024)),
        tens,
        np.nextafter(tens, 0.0),
        np.nextafter(tens, np.inf),
        # integers about 10**16 and 10**17, where the 17 digits carry into an 18th
        10.0**16 + np.arange(-40, 41),
        10.0**17 + 16 * np.arange(-40, 41),
        # the 17th digit of each is a tie: half-even gives ...12 and ...38
        [562949953421312.125, 562949953421312.375],
    ]
    values = np.concatenate(corpus)
    return np.concatenate([values, -values])


def basis_ket(n: int, dim: int) -> np.ndarray:
    """The number state |n> of a dim-level space, as a complex128 vector."""
    return np.eye(1, dim, n, dtype=np.complex128)[0]


def block_operator(ul, ur, ll, lr) -> BlockOperator:
    """The BlockOperator whose blocks are four dense square matrices, from their nonzero diagonals."""
    blocks = [np.asarray(block, dtype=np.complex128) for block in (ul, ur, ll, lr)]
    bands = []
    for block in blocks:
        rows, cols = np.nonzero(block)
        bands.append({int(k): np.diagonal(block, k) for k in np.unique(cols - rows)})
    return BlockOperator(blocks[0].shape[0], tuple(bands))


def dense(op: BlockOperator) -> np.ndarray:
    """The dense 2*dim x 2*dim matrix of a BlockOperator, from its dense block accessors."""
    return np.block([[op.ul, op.ur], [op.ll, op.lr]])


def guarded_max_abs(full_matrix: np.ndarray, dim: int, guard: int = fock.GUARD_BAND) -> float:
    """Max-norm of a dense 2*dim x 2*dim matrix over both blocks' boson levels below dim - guard."""
    keep = np.r_[0 : dim - guard, dim : 2 * dim - guard]
    return float(np.abs(full_matrix[np.ix_(keep, keep)]).max())


def guarded_norm(state, guard: int = fock.GUARD_BAND) -> float:
    """Euclidean norm of a SuperVector over both blocks' boson levels below dim - guard."""
    return float(np.linalg.norm(state.coeffs[:, : state.coeffs.shape[1] - guard]))


def bloch_to_zeta(point: BlochPoint) -> ExtendedComplex:
    """Stereographic projection of a sphere point, the inverse of zeta_to_bloch."""
    if point.theta == math.pi:
        # cos(pi/2) rounds to 6.1e-17, not 0; the south pole is exactly the pole
        return ExtendedComplex.infinity()
    half = 0.5 * point.theta
    return ExtendedComplex(cmath.rect(math.sin(half), point.phi), math.cos(half))
