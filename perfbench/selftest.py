#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py [--seconds S]

Runs every workload of BENCHMARK.json briefly through ``perfbench/run.py``,
untraced and traced, and checks that each run succeeds and prints every
metric BENCHMARK.json names for its mode, with its unit. Then checks that a
deliberately wrong expected digest makes a run fail: non-zero exit and
``"correct": false``. Exits non-zero on the first failed expectation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, trace, seconds, extra=()):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                 "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout + p.stderr


def expect(ok, what, log=""):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        print(log[-4000:])
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    a = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, log = run(w["name"], trace, a.seconds)
            tag = f"{w['name']} trace {trace}"
            expect(code == 0 and res is not None and res["correct"], f"{tag}: run succeeds", log)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result line has exactly correct/attempted/failed/metrics", log)
            expect(res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: {res['attempted']} checks, none failed", log)
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and isinstance(got["value"], (int, float)),
                       f"{tag}: {m['name']} [{m['unit']}] = {got and got['value']}", log)

    name = spec["workloads"][0]["name"]
    code, res, log = run(name, 0, a.seconds, ["--expect-digest", "0" * 16])
    expect(code != 0 and res is not None and res["correct"] is False and res["failed"] >= 1,
           f"{name}: a wrong expected digest fails the run (exit {code})", log)
    print("selftest passed")


if __name__ == "__main__":
    main()
