#!/usr/bin/env python3
"""End-to-end Network benchmark: build, run one workload, report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from source (``cargo build --release`` of the
``perfbench`` package into ``$CARGO_TARGET_DIR``, default ``.bench_build``),
runs one workload in one process, stamps the result with a host
fingerprint, the seed and the build profile, writes it to
``.bench_out/<workload>-seed<n>-trace<t>.json`` and prints as its last
stdout line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

Exits non-zero when the build fails, the run fails or times out, or any
correctness check fails (``failed`` counts them against ``attempted``).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# A run must end within 180 s; the build is outside this budget.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("no workspace sources next to perfbench/: nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})", 3)
    exe = target_dir() / "release" / "hpfq-perfbench"
    if not exe.is_file():
        fail(f"built binary missing at {exe}", 3)
    return exe


def command_output(cmd):
    # Git must not search above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    measured even where the checkout is not a git repository."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", BENCH_DIR):
        files += [p for p in top.rglob("*")
                  if p.is_file() and (p.suffix in (".rs", ".toml", ".lock", ".py"))]
    h = hashlib.sha256()
    for p in sorted(set(files)):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def cpu_ticks():
    """``(total, steal)`` clock ticks of all CPUs from ``/proc/stat``."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
        ticks = [int(f) for f in fields]
    except (OSError, IndexError, ValueError):
        return None
    return sum(ticks[:8]), ticks[7] if len(ticks) > 7 else 0


def host_fingerprint():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
    }


def number(tok):
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def parse_output(lines):
    """Reads the binary's result lines: ``metric <name> <value> <unit>``,
    ``detail <key> <value>...`` and ``checks <attempted> <failed>``.
    A detail of numbers alone becomes a number or a list; others a string."""
    metrics, details, checks = {}, {}, None
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag == "metric":
            name, value, unit = rest.split()
            metrics[name] = {"value": float(value), "unit": unit}
        elif tag == "detail":
            key, _, value = rest.partition(" ")
            try:
                nums = [number(t) for t in value.split()]
                details[key] = nums[0] if len(nums) == 1 else nums
            except ValueError:
                details[key] = value
        elif tag == "checks":
            attempted, failed = rest.split()
            checks = (int(attempted), int(failed))
    return metrics, details, checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--expect-digest", help="hex digest the warm-up must reproduce")
    a = ap.parse_args()

    # Any workload the binary knows runs; BENCHMARK.json names the gated ones.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if a.trace == "1" else "end_to_end"]

    exe = build()
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    # Address-space randomisation moves the hot structures between runs and
    # swings fig8-linkshare's ns/pkt between two modes ~1.5x apart; with it
    # off every run of a build sees the same layout.
    aslr = "on"
    no_aslr = ["setarch", platform.machine(), "-R"]
    if shutil.which("setarch") and subprocess.run(no_aslr + ["true"]).returncode == 0:
        cmd = no_aslr + cmd
        aslr = "off"
    if a.expect_digest:
        cmd += ["--expect-digest", a.expect_digest]
    before = cpu_ticks()
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    after = cpu_ticks()
    # Share of the host's CPU time the hypervisor gave to other guests
    # during the run: a reading taken under heavy steal is not comparable.
    steal = None
    if before and after and after[0] > before[0]:
        steal = (after[1] - before[1]) / (after[0] - before[0])
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    got_metrics, details, checks = parse_output(run.stdout.splitlines())
    if checks is None:
        fail(f"run ended without its checks line (exit {run.returncode})", 4)

    metrics = {}
    # Printed metrics BENCHMARK.json does not gate (ns_per_pkt_p90,
    # check_fail_frac) go to the record only.
    names = {m["name"] for m in wanted}
    ungated = {k: v for k, v in got_metrics.items() if k not in names}
    attempted, failed = checks
    if run.returncode != 0 and failed == 0:
        print(f"CHECK FAILED: run exited {run.returncode} with no failed check")
        attempted, failed = attempted + 1, 1
    correct = failed == 0
    for m in wanted:
        got = got_metrics.get(m["name"])
        attempted += 1
        if got is None or got["unit"] != m["unit"]:
            print(f"CHECK FAILED: metric {m['name']} [{m['unit']}] not reported as specified: {got}")
            failed += 1
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    meta = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": int(a.trace),
        "profile": "release",
        "features": "default; counting global allocator armed" if a.trace == "1"
                    else "default; counting global allocator idle",
        "aslr": aslr,
        "host_steal_frac": steal,
        "host": host_fingerprint(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "ungated_metrics": ungated, "details": details}
    (out_dir / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
