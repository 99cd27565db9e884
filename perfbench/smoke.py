"""The benchmark's own smoke test: every workload, both modes, toy sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Each workload runs untraced and traced at ``--scale toy`` (tens of chips,
two profiles, tens of requests), which takes seconds. The test checks
that the last line of every run is the result object, that it reports a
correct run, and that it names exactly the metrics ``BENCHMARK.json``
lists for that mode, with their units. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = spec["command"] + [
                "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "toy",
            ]
            proc = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True, timeout=170
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{result['failed']} failed operations")
            if result["attempted"] < 1:
                problems.append("nothing attempted")
            if units != expected[trace]:
                problems.append(
                    f"metrics differ from BENCHMARK.json: "
                    f"{sorted(set(units) ^ set(expected[trace]))}"
                )
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems))
                return 1
            print(f"ok   {label}: {result['attempted']} operations, "
                  f"{len(units)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
