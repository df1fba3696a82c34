#!/usr/bin/env python3
"""Self-tests of the hdpatsim benchmark.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every declared name is well-formed, that every workload
emits every declared end-to-end metric with correct outcomes, that a
perturbed expected digest is counted as a failed simulation, that the
traced run sees the stall rescans on pr-12x7 and none on mm-12x7, and
that the benchmark refuses to run without the simulator sources. Scratch
files go under .bench_build/. Takes about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SCRATCH = ROOT / ".bench_build" / "selftest"
NAME = re.compile(r"[A-Za-z0-9_.-]+")

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace=0, extra=(), cwd=ROOT, script=RUN):
    """Run the benchmark; return (exit code, last-line result or None)."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        "{") else None
    return proc.returncode, result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    names = workloads + sorted(e2e) + sorted(layers)
    bad = [n for n in names if not NAME.fullmatch(n)]
    expect(not bad, f"every declared name matches {NAME.pattern} {bad}")
    expect(len(set(names)) == len(names), "every declared name is unique")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    for name in workloads:
        code, result = run(name)
        expect(code == 0 and result and set(result["metrics"]) == e2e
               and result["correct"] and result["failed"] == 0,
               f"{name} emits every end-to-end metric, all digests match")

    table = json.loads((ROOT / "perfbench" / "expected_digests.json")
                       .read_text())
    seed = str(table["seeds"][0])
    digest = table["digests"]["mm-12x7"][seed][0]
    table["digests"]["mm-12x7"][seed][0] = "0" * len(digest)
    perturbed = SCRATCH / "perturbed_digests.json"
    perturbed.write_text(json.dumps(table))
    code, result = run("mm-12x7", extra=("--expected", str(perturbed)))
    expect(result is not None and not result["correct"]
           and result["failed"] == result["attempted"] >= 1,
           "a perturbed expected digest counts as a failed simulation")

    code, mm = run("mm-12x7", trace=1)
    expect(code == 0 and mm and set(mm["metrics"]) == layers
           and mm["metrics"]["gpm.stall_rescans"]["value"] == 0,
           "traced mm-12x7 emits every layer metric, 0 stall rescans")
    code, pr = run("pr-12x7", trace=1)
    expect(code == 0 and pr
           and pr["metrics"]["gpm.stall_rescans"]["value"] >= 1e6,
           "traced pr-12x7 counts stall rescans in the millions")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = run("mm-12x7", cwd=bare,
                       script=bare / "perfbench" / "run.py")
    expect(code != 0 and result is None,
           "without the simulator sources it fails and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
