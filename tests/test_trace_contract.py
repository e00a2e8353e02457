"""The benchmark's span tracer keeps working on the package as it stands.

``perfbench/run.py --trace 1`` wraps every public function and every
dataclass ``__post_init__`` of the package, then reads named spans back in
``run.per_layer``.  These tests load the harness unmodified, trace a few CLI
calls, and check that every span it reads exists and that each constructed
state is counted.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from superq import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """perfbench/run.py loaded as a module; its sys.path and environment edits are undone after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    return run


def traced(run, *argvs):
    """Run each argv through cli.main under the tracer; return (aggregate, counts)."""
    tracer = run.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code == 0, (argv, err.getvalue())
    finally:
        tracer.uninstall()
    return tracer.aggregate(), tracer.counts


def test_per_layer_reads_every_span(harness):
    layers, counts = traced(
        harness,
        ["sweep", "--zeta-re", "0.8", "--zeta-im", "0.3", "--grid", "3,4", "--dim", "8"],
        ["coherent", "--zeta-re", "1", "--theta", "1.1", "--alpha-re", "0.5", "--dim", "24"],
        ["verify", "--suite", "all", "--dim", "36", "--n-max", "5"],
    )
    metrics, _ = harness.per_layer(layers, counts, harness.Tally())
    assert set(metrics) <= set(harness.UNITS)
    assert metrics["cli.main.calls"] == 3
    assert metrics["verify.checks"] > 0
    for name in ("superstate.SuperVector", "superstate.BlockOperator"):
        assert metrics[f"{name}.constructions"] > 0, name


def test_uninstall_restores_the_package(harness):
    before = cli.main
    traced(harness, ["entropy", "--zeta-re", "0.5", "--dim", "4"])
    assert cli.main is before
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize(
    "argv,states",
    [
        # none: a sweep's states are one coefficient array for the whole grid
        (["sweep", "--zeta-re", "0.8", "--grid", "3,4", "--dim", "8"], 0),
        (["sweep", "--zeta-inf", "--grid", "1,5", "--dim", "4"], 0),
        # the displaced state alone: its low levels and the poles' are displaced as one array
        (["coherent", "--zeta-re", "1", "--theta", "1.1", "--alpha-re", "0.5", "--dim", "24"], 1),
        (["state", "--zeta-re", "1", "--n", "2", "--dim", "4"], 1),
    ],
)
def test_every_state_built_is_counted(harness, argv, states):
    layers, _ = traced(harness, argv)
    assert layers["superstate.SuperVector"]["calls"] == states
