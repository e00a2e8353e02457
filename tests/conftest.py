import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from superq import fock, serialize, uncertainty
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
    serialize._key_text,
)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


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


# Independent references the tests build without the package's own routes.


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


def guarded_max_abs(full_matrix: np.ndarray, dim: int, guard: int = fock.GUARD_BAND) -> float:
    """Max-norm of a dense 2*dim x 2*dim matrix over both blocks' boson levels below dim - guard."""
    keep = np.r_[0 : dim - guard, dim : 2 * dim - guard]
    return float(np.abs(full_matrix[np.ix_(keep, keep)]).max())


def bloch_to_zeta(point: BlochPoint) -> ExtendedComplex:
    """Stereographic projection of a sphere point, the inverse of zeta_to_bloch."""
    if point.theta == math.pi:
        # cos(pi/2) rounds to 6.1e-17, not 0; the south pole is exactly the pole
        return ExtendedComplex.infinity()
    half = 0.5 * point.theta
    return ExtendedComplex(cmath.rect(math.sin(half), point.phi), math.cos(half))
