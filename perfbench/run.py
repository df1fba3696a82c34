#!/usr/bin/env python3
"""hdpatsim benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig14-sweep --seed 1 --trace 0

Builds perfbench/ (which compiles ../src) as a Release build into
.bench_build/, runs the hdpat_perfbench driver for one workload, checks
every simulation's digest, and prints the metrics declared in
BENCHMARK.json. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

The simulator's workload seed comes from --seed through a pool of vetted
seeds stored in perfbench/expected_digests.json: --seed n runs pool
entry (n - 1) mod len(pool), so --seed 1 is the simulator's default seed
0x5eed. The pool holds only seeds on which every workload completes.

`attempted` counts simulations run (warm-up and every repetition of
every pass); `failed` counts those that crashed or whose digest -- total
ticks, ops completed, per-source translation counts, IOMMU walks and
events executed -- differs from the expected one stored for that seed.
Traced repetitions must match the same digests.

`python3 perfbench/run.py --write-expected` re-vets the seed pool and
rewrites expected_digests.json (only when simulated behaviour changes on
purpose).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "hdpat_perfbench"
EXPECTED = BENCH_DIR / "expected_digests.json"
DEFAULT_SEED = 1
# Fig 14 of the paper: HDPAT's geometric-mean speedup over the
# centralized IOMMU on the 7x7 wafer.
PAPER_FIG14_GEOMEAN = 1.57
# Translation sources served by the IOMMU (TranslationSource order).
IOMMU_SOURCES = (3, 4)


def die(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the driver; build output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found under {ROOT / 'src'}")
    steps = [["cmake", "--build", str(BUILD_DIR), "--target",
              "hdpat_perfbench", "-j", str(min(4, os.cpu_count() or 1))]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B",
                         str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace):
    """Run hdpat_perfbench; return (records, exit code)."""
    # The measured program reads HDPAT_* variables; none may leak in.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HDPAT_")}
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=seconds + 130)
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    return records, proc.returncode


def provenance(plan, seed):
    """Commit, source hash, build and the workload's resolved spec."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, text=True)
        commit = out.stdout.strip() or commit
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(
            BENCH_DIR.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(ROOT)).encode())
            sha.update(path.read_bytes())
    sims = plan["sims"]
    # Mesh comes from the benchmark's own spec: RunResult::config names
    # the preset, which stays "MI100-7x7" on a 12x7 wafer.
    spec = {key: sorted({s[key] for s in sims}) for key in sims[0]}
    return {"commit": commit, "source_sha256": sha.hexdigest()[:16],
            "build_type": plan["build_type"], "compiler": plan["compiler"],
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "sim_seed": plan["seed"], "workload": plan["workload"],
            "simulations": len(sims), "spec": spec,
            "caches": "start empty in every simulation"}


def digest_hash(digest):
    text = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sim_seed(seed, pool):
    """The simulator seed behind benchmark seed @p seed."""
    return pool[(seed - 1) % len(pool)]


def check(records, expected):
    """Count simulations run and those whose outcome is wrong."""
    attempted = failed = 0
    for r in records:
        if r["type"] != "sim":
            continue
        attempted += 1
        if (digest_hash(r["digest"]) != expected[r["index"]]
                or r.get("layers", {}).get("little_violations", 0)):
            failed += 1
            print(f"perfbench: wrong outcome: {r['pass']} rep {r['rep']} "
                  f"sim {r['index']}: {r['digest']}", file=sys.stderr)
    return attempted, failed


def by_rep(records, kind, pass_name):
    """{rep: [records of that repetition, in simulation order]}."""
    reps = {}
    for r in records:
        if r["type"] == kind and r.get("pass", pass_name) == pass_name:
            reps.setdefault(r["rep"], []).append(r)
    return reps


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, p):
    """Linear-interpolated p-th percentile (0-100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def total(sims, field):
    return sum(s[field] for s in sims)


def layer_total(sims, field):
    return sum(s["layers"][field] for s in sims)


def ratio(num, den):
    return num / den if den else 0.0


def summary_mean(sims, field):
    return ratio(sum(s["layers"][field]["sum"] for s in sims),
                 sum(s["layers"][field]["count"] for s in sims))


def profile_nanos(sims, section):
    return sum(s["layers"]["profile"][section]["nanos"] for s in sims)


def speedup_geomean(plan, digests):
    """Geomean of baseline ticks / hdpat ticks per suite workload."""
    ticks = {(s["policy"], s["workload"]): d["ticks"]
             for s, d in zip(plan["sims"], digests)}
    pairs = [(ticks[("baseline", w)], t) for (p, w), t in ticks.items()
             if p == "hdpat" and ("baseline", w) in ticks]
    if not pairs:
        return 0.0
    return math.exp(sum(math.log(b / h) for b, h in pairs) / len(pairs))


def end_to_end(records):
    """Per untraced repetition: {metric: value}."""
    rows = []
    reps = by_rep(records, "rep", "untraced")
    for rep, sims in by_rep(records, "sim", "untraced").items():
        wall = reps[rep][0]["wall_s"]
        rows.append({
            "wall_s": wall,
            "setup_s": sum(s["construct_s"] + s["streams_s"] + s["load_s"]
                           for s in sims),
            "run_s": total(sims, "run_s"),
            "sim_ops_per_s": sum(s["digest"]["ops"] for s in sims) / wall,
        })
    return rows


def per_layer(records, plan):
    """Per traced repetition: {metric: value} (medians taken later)."""
    untraced = by_rep(records, "sim", "untraced")
    untraced_reps = by_rep(records, "rep", "untraced")
    untraced_walls = [r[0]["wall_s"] for r in untraced_reps.values()]
    traced_walls = [r[0]["wall_s"]
                    for r in by_rep(records, "rep", "traced").values()]
    replays = by_rep(records, "replay", None)
    hdpat_idx = {i for i, s in enumerate(plan["sims"])
                 if s["policy"] == "hdpat"}
    warm = [r["digest"] for r in records
            if r["type"] == "sim" and r["pass"] == "warmup"]
    run_s = statistics.median(total(s, "run_s") for s in untraced.values())
    events = sum(d["events"] for d in warm)

    def sim_ms(sims, p):
        return percentile([1e3 * (s["construct_s"] + s["streams_s"]
                                  + s["load_s"] + s["run_s"]
                                  + s["teardown_s"]) for s in sims], p)

    rows = []
    for rep, sims in by_rep(records, "sim", "traced").items():
        plain = untraced[rep]
        hd = [s for s in sims if s["index"] in hdpat_idx]
        sources = [sum(s["digest"]["sources"][k] for s in hd)
                   for k in range(7)]
        layers = {
            "driver.construct_s": total(plain, "construct_s"),
            "driver.load_s": total(plain, "load_s"),
            "driver.teardown_s": total(plain, "teardown_s"),
            "driver.sim_ms_p50": sim_ms(plain, 50),
            "driver.sim_ms_p85": sim_ms(plain, 85),
            "driver.sim_ticks": sum(d["ticks"] for d in warm),
            "driver.hdpat_speedup_geomean": speedup_geomean(plan, warm),
            "workloads.streams_s": total(plain, "streams_s"),
            "workloads.stream_builds": untraced_reps[rep][0][
                "stream_builds"],
            "workloads.stream_hits": untraced_reps[rep][0]["stream_hits"],
            "workloads.alloc_s": total(replays[rep], "alloc_s"),
            "mem.cuckoo_seed_s": total(replays[rep], "cuckoo_seed_s"),
            "mem.cuckoo_inserts": layer_total(sims, "cuckoo_inserts"),
            "mem.cuckoo_lookups": layer_total(sims, "cuckoo_lookups"),
            "mem.cuckoo_fp_ratio": ratio(
                layer_total(sims, "cuckoo_false_positives"),
                layer_total(sims, "cuckoo_positives")),
            "mem.ll_tlb_lookups": layer_total(sims, "ll_tlb_lookups"),
            "mem.ll_tlb_hit_ratio": ratio(layer_total(sims, "ll_tlb_hits"),
                                          layer_total(sims,
                                                      "ll_tlb_lookups")),
            "sim.events": events,
            "sim.ns_per_event": ratio(run_s * 1e9, events),
            "sim.pending_events_hwm": max(s["layers"]["pending_events_hwm"]
                                          for s in sims),
            "sim.event_dispatch_ns": profile_nanos(sims, "event_dispatch"),
            "gpm.stall_rescans": layer_total(sims, "stall_rescans"),
            "gpm.remote_stalls": layer_total(sims, "remote_stalls"),
            "gpm.remote_ops": layer_total(sims, "remote_ops"),
            "gpm.remote_mshr_saturation": ratio(
                layer_total(sims, "remote_mshr_at_capacity_ticks"),
                sum(s["layers"]["remote_mshrs"] * s["layers"]["bp_ticks"]
                    for s in sims)),
            "gpm.translate_ns": profile_nanos(sims, "translate"),
            "gpm.l1_tlb_hit_ratio": ratio(
                layer_total(sims, "l1_tlb_hits"),
                sum(s["digest"]["ops"] for s in sims)),
            "gpm.gmmu_queue_wait": summary_mean(sims, "gmmu_queue_wait"),
            "hdpat.offloaded_fraction": 1.0 - ratio(
                sum(sources[k] for k in IOMMU_SOURCES), sum(sources))
            if sum(sources) else 0.0,
            "hdpat.probe_hit_ratio": ratio(
                layer_total(hd, "probe_hits"),
                layer_total(hd, "probes_received")),
            "iommu.pipeline_ns": profile_nanos(sims, "iommu_pipeline"),
            "iommu.walks_completed": sum(s["digest"]["walks"]
                                         for s in sims),
            "iommu.mshr_merges": layer_total(sims, "iommu_mshr_merges"),
            "iommu.walkers_saturation": ratio(
                layer_total(sims, "iommu_walkers_at_capacity_ticks"),
                layer_total(sims, "bp_ticks")),
            "iommu.pw_queue_latency_mean": summary_mean(sims,
                                                        "pw_queue_latency"),
            "iommu.page_faults": layer_total(sims, "page_faults"),
            "noc.packets": layer_total(sims, "noc_packets"),
            "noc.routing_ns": profile_nanos(sims, "noc_routing"),
            "noc.link_wait": summary_mean(sims, "link_wait"),
            "tenancy.context_switches": layer_total(sims,
                                                    "context_switches"),
            "tenancy.pages_churned": layer_total(sims, "pages_churned"),
            "tenancy.invalidations": layer_total(sims, "invalidations"),
            "tenancy.shootdown_rounds": layer_total(sims,
                                                    "shootdown_rounds"),
            "obs.traced_overhead_pct": 100.0 * (
                statistics.median(traced_walls)
                / statistics.median(untraced_walls) - 1.0),
        }
        rows.append(layers)
    return rows


def report(rows, declared, label):
    """Median of each declared metric over rows, with a human line."""
    metrics = {}
    for m in declared:
        values = [row[m["name"]] for row in rows]
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"{label} {m['name']}: median {med:.6g} {m['unit']} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)} reps; "
              f"{m['better']} is better)")
    return metrics


def print_profile(records):
    """The profiler's sections as they are (inclusive, so they overlap)."""
    sims = [r for r in records if r["type"] == "sim"
            and r["pass"] == "traced"]
    reps = len({s["rep"] for s in sims})
    for section in sims[0]["layers"]["profile"]:
        calls = sum(s["layers"]["profile"][section]["calls"] for s in sims)
        nanos = sum(s["layers"]["profile"][section]["nanos"] for s in sims)
        print(f"profile (inclusive, per repetition) {section}: "
              f"{calls // reps} calls, {nanos / reps / 1e6:.3f} ms")


def print_checks(layers):
    med = {k: statistics.median(row[k] for row in layers)
           for k in layers[0]}
    load = med["driver.load_s"]
    split = med["workloads.alloc_s"] + med["mem.cuckoo_seed_s"]
    # loadWorkload also hands each GPM its stream and sizes the event
    # queue, a few milliseconds the replay does not repeat.
    agrees = abs(split - load) <= max(load / 3, 0.005)
    print(f"setup split: replayed allocate {med['workloads.alloc_s']:.4f} s"
          f" + seedLocalPages {med['mem.cuckoo_seed_s']:.4f} s = "
          f"{split:.4f} s against loadWorkload {load:.4f} s: "
          f"{'agrees' if agrees else 'DISAGREES'} (within a third or 5 ms)")
    geo = med["driver.hdpat_speedup_geomean"]
    if geo:
        print(f"model accuracy: hdpat geomean speedup {geo:.3f}x vs the "
              f"paper's {PAPER_FIG14_GEOMEAN}x (Fig 14): signed error "
              f"{100 * (geo / PAPER_FIG14_GEOMEAN - 1):+.1f}%; the model "
              f"is validated only against the paper's reported figures")


def write_expected(pool_size=16):
    """Vet simulator seeds 0x5eed, 0x5eee, ... and store their digests."""
    with open(ROOT / "BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    pool, table = [], {name: {} for name in names}
    candidate = 0x5EED
    while len(pool) < pool_size:
        runs = {name: run_driver(name, candidate, 1, 0) for name in names}
        crashed = [name for name, (_, code) in runs.items() if code != 0]
        if crashed:
            print(f"perfbench: seed {candidate} crashes {crashed}; "
                  f"left out of the pool", file=sys.stderr)
        else:
            pool.append(candidate)
            for name, (records, _) in runs.items():
                table[name][str(candidate)] = [
                    digest_hash(r["digest"]) for r in records
                    if r["type"] == "sim" and r["pass"] == "warmup"]
        candidate += 1
    with open(EXPECTED, "w") as f:
        json.dump({"seeds": pool, "digests": table}, f, indent=1)
        f.write("\n")
    print(f"wrote {EXPECTED}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="seed pool and expected digests")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    build()
    if args.write_expected:
        write_expected()
        return 0
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        die("--seed must be non-negative")
    seconds = args.seconds or bench["run_seconds"]
    with open(args.expected) as f:
        table = json.load(f)
    seed = sim_seed(args.seed, table["seeds"])

    records, code = run_driver(args.workload, seed, seconds, args.trace)
    if not records:
        die(f"driver exited with code {code} before its plan")
    plan = next(r for r in records if r["type"] == "plan")
    print("provenance: " + json.dumps(provenance(plan, args.seed)))
    attempted, failed = check(
        records, table["digests"][args.workload][str(seed)])
    ended = any(r["type"] == "end" for r in records)
    if code != 0 or not ended:
        # The simulation in progress crashed or hit hdpat_fatal.
        print(f"perfbench: driver exited with code {code}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted + 1,
                          "failed": failed + 1, "metrics": {}}))
        return 1

    if args.trace:
        layers = per_layer(records, plan)
        print_profile(records)
        print_checks(layers)
        metrics = report(layers, bench["per_layer"], "layer")
    else:
        rows = end_to_end(records)
        peak = next(r for r in records if r["type"] == "end")
        for row in rows:
            row["peak_rss_mb"] = peak["peak_rss_kb"] / 1024.0
        metrics = report(rows, bench["end_to_end"], "e2e")
    print(f"simulations: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
