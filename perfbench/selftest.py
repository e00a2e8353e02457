"""Self-test of the benchmark in smoke mode (tiny dims and grids, under a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
one seed gives identical argv streams and two seeds different ones, that
per-layer counts repeat exactly at one seed, that a round holds each kind of
call once, that the tracer rebinds every superq namespace holding a traced
function and restores them all, and that the known sweep defects stay
visible: the theta-rounding failures equal the drawn calls whose T hits it,
and the share of failed calls is the same on two seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, theta_grid_overshoots  # noqa: E402

SEED = 7
# Byte totals are left out: verify's JSON carries wall_time_ms, whose
# printed length varies from run to run.
COUNT_UNITS = ("count",)
# verify --suite all builds D(alpha) 94 times, whatever the dim.
DISPLACEMENTS_PER_VERIFY_REPORT = 94


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run(workload: str, trace: int, seed: int = SEED) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    expect(result["correct"], f"{workload} trace={trace} reported incorrect output")
    return result, "\n".join(lines[:-1])


def check_metrics(declared: list[dict], result: dict, report: str, label: str) -> None:
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    expect(sorted(metrics) == sorted(names), f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ")
    for m in declared:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        expect(isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number")
        expect(f" {m['name']} " in report or f"{m['name']} " in report, f"{label}: {m['name']} not in report")


def superq_attributes():
    """(name, value) of every attribute of every loaded superq module."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "superq" or mod_name.startswith("superq."):
            for attr, value in vars(module).items():
                yield f"{mod_name}.{attr}", value


def check_rebinding() -> None:
    import superq.cli  # noqa: F401  (loads every traced module)

    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(original) for _, _, original in tracer._restore}
        left = [name for name, value in superq_attributes() if id(value) in originals]
        expect(not left, f"still bound to untraced originals: {left[:5]}")
        expect(tracer.counts["rebinds.fock.displacement_operator"] >= 4, "displacement_operator rebound too rarely")
    finally:
        tracer.uninstall()
    left = [name for name, value in superq_attributes() if hasattr(value, "__wrapped__")]
    expect(not left, f"wrappers left after uninstall: {left[:5]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names differ from BENCHMARK.json")

    check_rebinding()
    for name, cls in WORKLOADS.items():
        workload = cls()
        first = [c.argv for c in workload.calls(SEED, 60)]
        expect(first == [c.argv for c in cls().calls(SEED, 60)], f"{name}: one seed gave two argv streams")
        expect(first != [c.argv for c in workload.calls(SEED + 1, 60)], f"{name}: two seeds gave one argv stream")
        rounds = workload.rounds(SEED)
        kinds, next_kinds = [c.kind for c in next(rounds)], [c.kind for c in next(rounds)]
        expect(len(set(kinds)) == len(kinds), f"{name}: a round holds one kind of call twice")
        expect(sorted(kinds) == sorted(next_kinds), f"{name}: two rounds hold different kinds of call")

    for name in WORKLOADS:
        result, report = run(name, 0)
        check_metrics(spec["end_to_end"], result, report, f"{name} trace=0")
        for metric in ("op_tail_ms", "error_ratio"):
            expect(metric in report, f"{name}: {metric} missing from the report")
        if name == "sweep_grid":
            failures = json.loads((HERE / "out" / f"{name}-seed{SEED}-trace0.json").read_text())["failures"]
            drawn = WORKLOADS[name](smoke=True).calls(SEED, result["attempted"])
            expected = sum(theta_grid_overshoots(call.grid_t) for call in drawn)
            seen = sum(f["defect"] == "sweep_theta_rounding" for f in failures)
            expect(expected > 0 and seen == expected, f"theta defect failures {seen}, drawn T hitting it {expected}")
            other, _ = run(name, 0, SEED + 1)
            shares = (result["failed"] / result["attempted"], other["failed"] / other["attempted"])
            expect(shares[0] == shares[1], f"failed shares {shares} differ between two seeds")

        traced, report = run(name, 1)
        check_metrics(spec["per_layer"], traced, report, f"{name} trace=1")
        again, _ = run(name, 1)
        for metric in spec["per_layer"]:
            if metric["unit"] in COUNT_UNITS:
                key = metric["name"]
                first, second = traced["metrics"][key]["value"], again["metrics"][key]["value"]
                expect(first == second, f"{name}: {key} gave {first} then {second} at one seed")
        displacements = traced["metrics"]["fock.displacement_operator.calls"]["value"]
        if name == "verify_all":
            reports = traced["attempted"]
            expect(
                displacements == DISPLACEMENTS_PER_VERIFY_REPORT * reports,
                f"{displacements} displacements for {reports} verify reports",
            )
        if name == "sweep_grid":
            expect(displacements == 0, f"sweep_grid made {displacements} displacement calls")

    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
