#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, traced and
untraced, must finish correct and emit exactly the metrics BENCHMARK.json
names, each with its declared unit.

Run from the repository root:

    python3 perfbench/smoke_test.py

It builds the benchmark with the command BENCHMARK.json gives, so the
first run compiles. Exits non-zero on the first failed expectation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(command, args):
    p = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
        notes = json.load(f)
    command = spec["command"]
    expect = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    if set(notes["workloads"]) != set(workloads):
        fail(f"metrics.json workloads {sorted(notes['workloads'])} != {sorted(workloads)}")
    missing = set(expect["1"]) - set(notes["per_layer"])
    if missing:
        fail(f"metrics.json lacks per-layer notes for {sorted(missing)}")
    for name, note in notes["per_layer"].items():
        unknown = set(note["on"]) - set(workloads)
        if unknown:
            fail(f"{name}: unknown workloads {sorted(unknown)}")

    code, out, _ = run(command, ["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
    if code == 0 or out.strip():
        fail("an unknown workload must exit non-zero without a result")

    for w in workloads:
        for trace in ("0", "1"):
            args = ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny"]
            code, out, err = run(command, args)
            if code != 0:
                fail(f"{w} trace={trace} exited {code}: {err[-2000:]}")
            lines = out.strip().splitlines()
            last = json.loads(lines[-1])
            if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{w} trace={trace}: last line keys {sorted(last)}")
            if last["correct"] is not True:
                fail(f"{w} trace={trace}: not correct; report: {lines[-2][:2000]}")
            if not (isinstance(last["attempted"], int) and last["attempted"] >= 1):
                fail(f"{w} trace={trace}: attempted {last['attempted']!r}")
            if not isinstance(last["failed"], int):
                fail(f"{w} trace={trace}: failed {last['failed']!r}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != expect[trace]:
                diff = set(got.items()) ^ set(expect[trace].items())
                fail(f"{w} trace={trace}: metric/unit mismatch {sorted(diff)}")
            for k, v in last["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail(f"{w} trace={trace}: {k} value {v['value']!r}")
            report = json.loads(lines[-2])["report"]
            for key in ("provenance", "nodes", "tails"):
                if key not in report:
                    fail(f"{w} trace={trace}: report lacks {key}")
            print(f"ok  {w} trace={trace}: {len(got)} metrics, attempted {last['attempted']}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
