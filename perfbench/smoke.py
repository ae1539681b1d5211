"""Smoke test of the benchmark: every workload, untraced and traced, at tiny
sizes, in about a minute.

    python3 perfbench/smoke.py

Checks that each run exits 0 with every op and digest correct, that the
metric names and units it emits are exactly those in BENCHMARK.json, and
that in the traced run the layer each workload is there to reach was
traced and the layers' self times add up to the op wall time.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
# The layer each workload is there to reach (the prediction table in
# README.md): a wrapper that the tracer's rebinding misses shows up here
# as zero calls.
REQUIRED_LAYERS = {
    "cli_mix": "cli.main",
    "verify_deep": "weights.weight_table_of",
    "zeta_series": "series.TruncSeries.exp",
    "flag_oracle": "cells.brute_force_flag_count",
}


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=CHECKOUT, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from run import WORKLOAD_NAMES

    names = tuple(w["name"] for w in spec["workloads"])
    assert names == WORKLOAD_NAMES, f"BENCHMARK.json workloads {names} != run.py {WORKLOAD_NAMES}"
    for workload in WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[section]}
            assert emitted == declared, (
                f"{workload} --trace {trace}: emitted but not declared "
                f"{sorted(emitted.items() - declared.items())}, declared but not emitted "
                f"{sorted(declared.items() - emitted.items())}"
            )
            if trace:
                metrics = result["metrics"]
                wall = metrics["bench.op.wall_s"]["value"]
                parts = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
                assert abs(parts - wall) <= 1e-9 + 1e-6 * wall, (workload, parts, wall)
                layer = REQUIRED_LAYERS[workload]
                assert metrics[f"{layer}.calls"]["value"] > 0, f"{workload}: no {layer} span"
            print(f"ok {workload} --trace {trace}: {result['attempted']} ops")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke: FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
