from pathlib import Path

import pytest

from superq import fock, serialize, uncertainty
from superq.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"

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
