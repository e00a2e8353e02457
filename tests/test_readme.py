"""The README's library quickstart runs, and every value its comments state holds.

Each commented expression is checked within a stated tolerance, not by its
repr: the BLAS kernel can move the last bit of a Gram sum.  Each of the
README's CLI examples runs too, and prints JSON or CSV that parses.
"""

import ast
import csv
import io
import json
import re
import shlex
from fractions import Fraction

import pytest

from conftest import README, quickstart_source

# Each commented expression of the quickstart: the value it states, and how far off it may be.
STATED = {
    "concurrence_gram(state)": (0.5, 1e-15),
    "concurrence_superqubit(base.theta, zeta)": (0.5, 1e-15),
    "residual.norm()": (0.0, 1e-14),
    "pole_probabilities(coherent, zeta, params.alpha)[0]": (0.5, 1e-15),
    "quadrature_stats_closed(params).var_x": (0.625, 1e-15),
    "quadrature_stats_numeric(params, dim=96).var_x": (0.625, 1e-15),
    "fibonacci_record(5, dim=64).dispersion_closed": (Fraction(5, 8), 0),
}


def run_quickstart() -> dict:
    """Run the quickstart statement by statement; return the value of each bare expression by its source."""
    source = quickstart_source()
    namespace: dict = {}
    values = {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            expression = compile(ast.Expression(statement.value), "README.md", "eval")
            values[ast.get_source_segment(source, statement)] = eval(expression, namespace)
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
    return values


def test_every_commented_value_holds():
    values = run_quickstart()
    assert values.keys() == STATED.keys()
    for expression, (stated, tolerance) in STATED.items():
        value = values[expression]
        assert type(value) is type(stated), expression
        assert abs(value - stated) <= tolerance, (expression, value)


def cli_examples() -> list[str]:
    """The lines of the README's sh block of superq commands."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    (examples,) = [block for block in blocks if block.startswith("superq ")]
    return examples.splitlines()


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_runs(run_cli, line):
    # the example's "> file" redirect is dropped; run_cli captures stdout
    command, *argv = shlex.split(line.partition(" > ")[0])
    assert command == "superq"
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    if argv[0] in ("sweep", "fibonacci"):
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1
    else:
        json.loads(out)
