"""superq benchmark: drives ``superq.cli.main(argv)`` in-process, one client, closed loop.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's argv stream is generated from ``--seed``; calls run
back to back (each starts when the previous one returns) with stdout and
stderr captured, until ``--seconds`` have passed and the current round is
complete.  Every output is checked.  Latencies are scaled to the machine's
usual speed with the reference kernels of ``reference.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays a fixed
prefix of the stream once untraced and once with span tracing installed,
and prints the per-layer metrics.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up interpreters.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
from reference import SpeedProbe  # noqa: E402
from tracer import SUITES, Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Tally:
    """Outcomes of a sequence of calls."""

    latencies: list[float] = field(default_factory=list)
    kinds: list[tuple] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    # machine speed over each call, relative to its usual speed, and its
    # (Python, LAPACK) parts (timed run only)
    speeds: list[float] = field(default_factory=list)
    speed_parts: list[tuple[float, float]] = field(default_factory=list)
    rounds: int = 0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: list[dict] = field(default_factory=list)
    worst_tol_ratio: float = 0.0


def import_superq():
    if not (SRC / "superq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no superq source under {SRC}; run from the root of a superq checkout")
    sys.path.insert(0, str(SRC))
    import superq
    import superq.cli

    if Path(superq.__file__).resolve().parent != SRC / "superq":
        sys.exit(f"perfbench: superq imported from {superq.__file__}, not from {SRC}")
    return superq


def invoke(cli, argv):
    """One cli.main call with captured output: (exit code, stdout, stderr, start, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback breaks the CLI contract: record it, go on
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), err.getvalue(), started, elapsed


def run_calls(cli, workload, calls, tally: Tally, tracer=None, probe: SpeedProbe | None = None) -> None:
    """Run calls back to back, check each one, and add them to the tally."""
    for call in calls:
        if tracer is not None:
            tracer.current_request = tally.attempted
        if probe is not None:
            probe.maybe_sample()
        code, stdout, stderr, started, elapsed = invoke(cli, call.argv)
        tally.attempted += 1
        tally.starts.append(started)
        tally.latencies.append(elapsed)
        tally.kinds.append(call.kind)
        outcome = workload.check(call, code, stdout, stderr)
        if outcome.worst_tol_ratio is not None:
            tally.worst_tol_ratio = max(tally.worst_tol_ratio, outcome.worst_tol_ratio)
        if outcome.ok:
            tally.items += outcome.items
            continue
        tally.failed += 1
        if outcome.defect is None:
            tally.correct = False
        tally.failures.append(
            {
                "argv": list(call.argv),
                "exit": code,
                "problem": outcome.problem,
                "defect": outcome.defect or "UNEXPECTED",
                "grid_t": call.grid_t,
            }
        )


def setup_once(probe: SpeedProbe) -> float:
    """Wall time of a fresh interpreter (same executable and environment) that imports superq,
    scaled to the machine's usual speed like every call (see reference.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe.maybe_sample()
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import superq"], env=env, cwd=ROOT, check=True)
    ended = time.perf_counter()
    probe.sample()
    return probe.speed(started, ended) * (ended - started)


def tail_latency(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it, or None."""
    n = len(latencies)
    if n < 20:
        return None
    ordered = sorted(latencies)
    return {"value_ms": 1e3 * ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def metadata(seed: int, superq) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip()
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        with contextlib.suppress(OSError):
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (base / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "seed": seed,
        "git_commit": git_commit(),
        "superq_version": superq.__version__,
        "loop": "closed, 1 client, in-process cli.main, stdout captured",
    }


def timed_run(cli, workload, seed: int, seconds: float, setup_repeats: int) -> tuple[Tally, list[float]]:
    """Whole rounds until ``seconds`` have passed; set-up interpreters spread evenly between rounds.

    Interference on a shared machine comes in bursts of a few seconds, so the
    set-up samples are taken at spread-out times rather than back to back.
    """
    probe = SpeedProbe(workload.lapack_share)
    setup_once(probe)  # unrecorded: the first interpreter may write bytecode caches
    tally = Tally()
    setup_times: list[float] = []
    started = time.perf_counter()
    for calls in workload.rounds(seed):
        run_calls(cli, workload, calls, tally, probe=probe)
        tally.rounds += 1
        elapsed = time.perf_counter() - started
        if len(setup_times) < setup_repeats * min(1.0, elapsed / seconds):
            setup_times.append(setup_once(probe))
        if elapsed >= seconds:
            break
    probe.sample()
    while len(setup_times) < setup_repeats:
        setup_times.append(setup_once(probe))
    intervals = [(start, start + latency) for start, latency in zip(tally.starts, tally.latencies)]
    tally.speeds = [probe.speed(*interval) for interval in intervals]
    tally.speed_parts = [probe.speeds(*interval) for interval in intervals]
    return tally, setup_times


def scaled_latencies(tally: Tally) -> list[float]:
    """Each call's latency scaled to the machine's usual speed (see reference.py)."""
    return [speed * latency for speed, latency in zip(tally.speeds, tally.latencies)]


def kind_medians(tally: Tally) -> dict[tuple, float]:
    """Per kind of call, the median of its scaled latencies in the run."""
    by_kind = defaultdict(list)
    for kind, latency in zip(tally.kinds, scaled_latencies(tally)):
        by_kind[kind].append(latency)
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def end_to_end(workload, tally: Tally, setup_times) -> tuple[dict, list[str]]:
    # Each round runs every kind once, so a round takes the sum of the kinds'
    # median latencies, and its median call is their median.  Medians per
    # kind keep a burst of interference in one long call out of the rate.
    scaled = scaled_latencies(tally)
    medians = kind_medians(tally)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": tally.items / tally.rounds / sum(medians.values()),
        "op_p50_ms": 1e3 * statistics.median(medians.values()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [f"  {name:<16} {value:.6g} {UNITS[name]}" for name, value in metrics.items()]
    tail = tail_latency(scaled)
    if tail is None:
        lines.append(f"  {'op_tail_ms':<16} n/a ms (only {len(tally.latencies)} calls; needs >= 20)")
    else:
        lines.append(
            f"  {'op_tail_ms':<16} {tail['value_ms']:.6g} ms (p{tail['percentile']:.1f} of {tail['samples']} calls)"
        )
    lines.append(f"  {'error_ratio':<16} {tally.failed / tally.attempted:.6g} 1 ({tally.failed}/{tally.attempted})")
    if workload.name == "verify_all":
        lines.append(f"  {'worst_tol_ratio':<16} {tally.worst_tol_ratio:.6g} 1")
    lines.append(
        f"  calls {tally.attempted} in {tally.rounds} rounds of {len(medians)} kinds, items {tally.items}, "
        f"setup samples {len(setup_times)}"
    )
    lines.append(
        f"  unscaled wall time: items_per_s {tally.items / sum(tally.latencies):.6g} 1/s, "
        f"op_p50_ms {1e3 * statistics.median(tally.latencies):.6g} ms; "
        f"machine speed vs usual: median {statistics.median(tally.speeds):.3g}, "
        f"range {min(tally.speeds):.3g}..{max(tally.speeds):.3g}"
    )
    return metrics, lines


def traced_run(cli, workload, seed: int) -> tuple[dict, list[str], Tally, Tracer]:
    calls = workload.calls(seed, workload.trace_calls)
    plain = Tally()
    run_calls(cli, workload, calls, plain)
    tracer = Tracer()
    tracer.install()
    traced = Tally()
    try:
        run_calls(cli, workload, calls, traced, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    untraced_rate = plain.items / sum(plain.latencies)
    traced_rate = traced.items / sum(traced.latencies)
    metrics, notes = per_layer(layers, tracer.counts, traced)
    metrics["trace.untraced_items_per_s"] = untraced_rate
    metrics["trace.traced_items_per_s"] = traced_rate
    metrics["trace.overhead_items_per_s"] = traced_rate - untraced_rate
    return metrics, notes, traced, tracer


def per_layer(layers: dict, counts: Counter, tally: Tally) -> tuple[dict, list[str]]:
    """The named per-layer metrics; counts marked (computed) come from arguments, not timers."""
    metrics: dict[str, float] = {}
    notes: list[str] = []

    def span(name, *fields):
        entry = layers[name]
        for f in fields:
            metrics[f"{name}.{f}"] = entry.get(f, 0.0)

    span("fock.displacement_operator", "calls", "self_ms", "distinct_ratio", "dim_exponent")
    metrics["fock.displacement_operator.dim3_sum"] = counts["fock.displacement_operator.dim3_sum"]
    for name in ("fock.FockVector", "superstate.SuperVector", "moebius.ExtendedComplex", "superstate.BlockOperator"):
        metrics[f"{name}.constructions"] = layers[name]["calls"]
    for op in ("matmul", "apply"):
        span(f"superstate.BlockOperator.{op}", "calls", "self_ms")
    metrics["superstate.BlockOperator.matmul.dim3_sum"] = counts["superstate.BlockOperator.matmul.dim3_sum"]
    for name in (
        "superstate.super_qubit_state",
        "superstate.super_coherent_state",
        "superstate.pole_probabilities",
        "superstate.commutator_suite",
        "entanglement.concurrence_gram",
        "entanglement.entanglement_entropy_bits",
        "entanglement.reduced_boson_density",
        "uncertainty.fibonacci_record",
        "moebius.bloch_cartesian",
        "moebius.zeta_to_bloch",
    ):
        span(name, "calls", "self_ms")
    span("uncertainty.quadrature_operators", "calls", "self_ms", "distinct_ratio")
    span("uncertainty.quadrature_stats_numeric", "calls", "self_ms", "dim_exponent")
    for suite in SUITES:
        metrics[f"verify.suite.{suite}.ms"] = layers[f"verify.suite.{suite}"]["total_ms"]
    metrics["verify.checks"] = counts["verify.checks"]
    for name in ("serialize.dumps", "serialize.csv_text"):
        span(name, "calls", "self_ms")
        metrics[f"{name}.bytes"] = counts[f"{name}.bytes"]
    span("cli.main", "calls", "self_ms")
    metrics["cli.main.exit_nonzero"] = sum(1 for f in tally.failures if f["exit"] not in (0, None))

    for name in ("fock.displacement_operator", "uncertainty.quadrature_stats_numeric"):
        key = f"{name}.dim_exponent"
        entry = layers[name]
        if "dim_medians_ms" in entry:
            medians = ", ".join(f"{d}: {t:.4g}" for d, t in sorted(entry["dim_medians_ms"].items()))
            notes.append(f"  {key}: median self ms by dim {{{medians}}}")
        if not math.isfinite(metrics[key]) or "dim_medians_ms" not in entry:
            notes.append(f"  {key}: n/a (fewer than 2 dims traced), reported as 0")
            metrics[key] = 0.0
    return metrics, notes


def run_all(args) -> int:
    """Each workload in its own interpreter; nonzero exit if any is incorrect or fails to run."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv)
        if proc.returncode != 0:
            print(f"# {name}: incorrect output or exit {proc.returncode}", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny dims and grids, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    superq = import_superq()
    cli = superq.cli
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    meta = metadata(args.seed, superq)
    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print("# meta " + json.dumps(meta, sort_keys=True))

    warm = Tally()
    run_calls(cli, workload, workload.warmup_calls(), warm)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, notes, tally, tracer = traced_run(cli, workload, args.seed)
        tracer.write(stem.with_suffix(".spans.csv.gz"))
        print(f"# per-layer metrics over {tally.attempted} traced calls (counts marked computed)")
        for name, value in metrics.items():
            computed = " (computed)" if name.endswith(("dim3_sum", "distinct_ratio", "dim_exponent", ".bytes")) else ""
            print(f"  {name:<48} {value:.6g} {UNITS[name]}{computed}")
        print("\n".join(notes))
    else:
        tally, setup_times = timed_run(cli, workload, args.seed, args.seconds, 3 if args.smoke else SETUP_REPEATS)
        metrics, lines = end_to_end(workload, tally, setup_times)
        print("# end-to-end metrics")
        print("\n".join(lines))

    if tally.failures:
        print(f"# {len(tally.failures)} failed call(s) of {tally.attempted}, by defect")
        by_defect = defaultdict(list)
        for failure in tally.failures:
            by_defect[failure["defect"]].append(failure)
        for defect, failures in sorted(by_defect.items()):
            print(f"  {defect}: {len(failures)} call(s). {KNOWN_DEFECTS.get(defect, 'matches no known defect')}")
            t_values = sorted({f["grid_t"] for f in failures if f["grid_t"]})
            if t_values:
                print(f"    sweep T: {t_values}")
            print(f"    first: exit={failures[0]['exit']} {failures[0]['problem']}")
    (stem.with_suffix(".json")).write_text(
        json.dumps(
            {
                "meta": meta,
                "metrics": metrics,
                "failures": tally.failures,
                "calls": [
                    [list(kind), latency, speed, *parts]
                    for kind, latency, speed, parts in zip(tally.kinds, tally.latencies, tally.speeds, tally.speed_parts)
                ],
            }
        )
    )
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
