#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload of BENCHMARK.json at the minimum length, untraced and
traced, and checks the result line: exactly the keys `correct`,
`attempted`, `failed` and `metrics`; a correct run with no failures; and
every end-to-end (untraced) or per-layer (traced) metric printed once,
with its unit and a finite value. Also checks that the benchmark refuses
`HB_*` settings and bad arguments without printing a result.

Run from the repository root:  python3 hbbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd, args, env=None):
    return subprocess.run(
        cmd + args, cwd=ROOT, capture_output=True, text=True, env=env, timeout=900
    )


def check_result(stdout, expected, where):
    lines = stdout.strip().splitlines()
    assert lines, f"{where}: no output"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct: {lines[-2]}"
    assert result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{where}: missing {set(expected) - set(metrics)}, "
        f"unexpected {set(metrics) - set(expected)}"
    )
    for name, unit in expected.items():
        m = metrics[name]
        assert set(m) == {"value", "unit"}, f"{where}: {name}"
        assert m["unit"] == unit, f"{where}: {name} unit {m['unit']} != {unit}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (
            f"{where}: {name} = {m['value']}"
        )


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cmd = bench["command"]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    env = {k: v for k, v in os.environ.items() if not k.startswith("HB_")}
    for w in bench["workloads"]:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", trace]
            p = run(cmd, args, env)
            where = f"{w['name']} --trace {trace}"
            assert p.returncode == 0, f"{where}: exit {p.returncode}\n{p.stderr[-2000:]}"
            check_result(p.stdout, expected, where)
            print(f"ok  {where}: {len(expected)} metrics")

    base = ["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1"]
    for args, extra_env, what in (
        (base + ["--trace", "0"], {"HB_OPT": "off"}, "an HB_* setting"),
        (base + ["--trace", "2"], {}, "a bad --trace"),
        (base[:2] + ["--trace", "0"], {}, "a missing --seed"),
    ):
        p = run(cmd, args, {**env, **extra_env})
        assert p.returncode != 0, f"accepted {what}"
        assert '"metrics"' not in p.stdout, f"printed a result for {what}"
        print(f"ok  refuses {what}")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
