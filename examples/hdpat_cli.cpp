/**
 * @file
 * hdpat_cli: the kitchen-sink driver. Run any workload under any
 * policy on any preset configuration, print the human-readable report,
 * and optionally emit CSV (results and/or the IOMMU request trace) for
 * external analysis.
 *
 * Usage:
 *   hdpat_cli [--workload ABBR|all] [--policy NAME] [--config NAME]
 *             [--ops N] [--seed S] [--scale F] [--page-shift N]
 *             [--mesh WxH] [--jobs N]
 *             [--csv FILE] [--trace FILE]
 *             [--metrics-json FILE] [--trace-out FILE]
 *             [--trace-sample N|1/N] [--heartbeat TICKS]
 *             [--audit] [--watchdog TICKS] [--profile]
 *             [--spatial TICKS] [--spatial-csv FILE]
 *             [--latency] [--latency-sample N|1/N]
 *             [--latency-topk K] [--latency-report FILE]
 *             [--backpressure] [--backpressure-window TICKS]
 *             [--backpressure-report FILE]
 *
 * Flags accept both "--flag value" and "--flag=value". --metrics-json
 * dumps every registered metric as JSON; --trace-out writes sampled
 * per-translation spans in Chrome Trace Event Format (open in
 * Perfetto); --heartbeat logs progress every TICKS simulated ticks
 * (requires HDPAT_LOG=info). --jobs N (or HDPAT_JOBS=N) runs
 * "--workload all" sweeps N simulations at a time with results
 * identical to serial; multi-run --metrics-json/--trace-out/
 * --spatial-csv paths get a per-run "-<index>" suffix.
 *
 * Introspection: --audit verifies conservation invariants at run end
 * (issue/retire, NoC send/deliver, MSHR and TLB balance); --watchdog
 * aborts with a diagnostic if no op retires for TICKS simulated ticks;
 * --spatial collects per-link/per-tile heatmaps into the metrics JSON
 * "spatial" section (and --spatial-csv as CSV); --profile reports
 * where host wall-clock goes, per subsystem; --latency attributes
 * every (sampled) translation's latency to pipeline stages, prints
 * the per-stage anatomy with exact tail quantiles, and exports the
 * metrics-JSON "latency" section (--latency-report also writes the
 * slowest-K critical-path timelines as text); --backpressure registers
 * every bounded structure as a named resource, prints the ranked
 * bottleneck table (saturation, occupancy integrals, Little's-law
 * cross-check), and exports the metrics-JSON "backpressure" section
 * (schema hdpat-metrics-v3).
 *
 * Policies: baseline, hdpat, route-based, concentric, distributed,
 *           cluster-rotation, redirection, prefetch, trans-fw,
 *           valkyrie, barre, hdpat-iommu-tlb
 * Configs:  MI100, MI200, MI300, H100, H200, MI100-7x12, MCM4
 */

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "config/gpu_presets.hh"
#include "driver/parallel.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/system.hh"
#include "driver/table_printer.hh"
#include "workloads/suite.hh"

using namespace hdpat;

namespace
{

TranslationPolicy
policyByName(const std::string &name)
{
    if (name == "baseline")
        return TranslationPolicy::baseline();
    if (name == "hdpat")
        return TranslationPolicy::hdpat();
    if (name == "route-based")
        return TranslationPolicy::routeCaching();
    if (name == "concentric")
        return TranslationPolicy::concentricCaching();
    if (name == "distributed")
        return TranslationPolicy::distributedCaching();
    if (name == "cluster-rotation")
        return TranslationPolicy::clusterRotation();
    if (name == "redirection")
        return TranslationPolicy::withRedirection();
    if (name == "prefetch")
        return TranslationPolicy::withPrefetch();
    if (name == "trans-fw")
        return TranslationPolicy::transFw();
    if (name == "valkyrie")
        return TranslationPolicy::valkyrie();
    if (name == "barre")
        return TranslationPolicy::barre();
    if (name == "hdpat-iommu-tlb")
        return TranslationPolicy::hdpatWithIommuTlb();
    std::cerr << "unknown policy: " << name << "\n";
    std::exit(1);
}

/**
 * Parse all of @p text as an integer in [lo, hi]. A sign on an
 * unsigned type, trailing characters, overflow or a value out of range
 * exits 1 with a message naming @p what.
 */
template <typename T>
T
parseInt(const std::string &what, const std::string &text, T lo, T hi)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
        std::cerr << what << " expects an integer in [" << lo << ", "
                  << hi << "], got '" << text << "'\n";
        std::exit(1);
    }
    return v;
}

/** Largest --ops: streams are materialized per GPM. */
constexpr std::size_t kMaxOpsPerGpm = 10'000'000;
/** Largest --mesh side (a 64x64 wafer already has 4,095 GPMs). */
constexpr int kMaxMeshSide = 64;

struct Options
{
    std::string workload = "SPMV";
    std::string policy = "hdpat";
    std::string config = "MI100";
    std::size_t ops = 0;
    std::uint64_t seed = 0x5eed;
    double scale = 1.0;
    int pageShift = 0;  ///< 0 = keep the preset's page size.
    int meshWidth = 0;  ///< 0 = keep the preset's mesh.
    int meshHeight = 0;
    std::string csv_path;
    std::string trace_path;
    ObsOptions obs = obsOptionsFromEnv();
};

Options
parse(int argc, char **argv)
{
    Options opt;
    // Support "--flag=value" by splitting into "--flag" "value".
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string raw = argv[i];
        const auto eq = raw.find('=');
        if (raw.size() > 2 && raw.compare(0, 2, "--") == 0 &&
            eq != std::string::npos) {
            args.push_back(raw.substr(0, eq));
            args.push_back(raw.substr(eq + 1));
        } else {
            args.push_back(raw);
        }
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string arg = args[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << arg << " needs a value\n";
                std::exit(1);
            }
            return args[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--policy") {
            opt.policy = value();
        } else if (arg == "--config") {
            opt.config = value();
        } else if (arg == "--ops") {
            opt.ops = parseInt<std::size_t>(arg, value(), 1,
                                            kMaxOpsPerGpm);
        } else if (arg == "--seed") {
            opt.seed = parseInt<std::uint64_t>(
                arg, value(), 0, std::numeric_limits<std::uint64_t>::max());
        } else if (arg == "--scale") {
            opt.scale = std::atof(value().c_str());
        } else if (arg == "--page-shift") {
            // Any shift of a 64-bit address parses; validationErrors()
            // then holds it to the supported page sizes.
            opt.pageShift = parseInt(arg, value(), 1, 63);
        } else if (arg == "--mesh") {
            // "WxH", e.g. --mesh 7x12.
            const std::string v = value();
            const auto x = v.find('x');
            if (x == std::string::npos) {
                std::cerr << "--mesh expects WxH (e.g. 7x12), got '"
                          << v << "'\n";
                std::exit(1);
            }
            opt.meshWidth = parseInt("--mesh width", v.substr(0, x), 1,
                                     kMaxMeshSide);
            opt.meshHeight = parseInt("--mesh height", v.substr(x + 1),
                                      1, kMaxMeshSide);
        } else if (arg == "--csv") {
            opt.csv_path = value();
        } else if (arg == "--trace") {
            opt.trace_path = value();
        } else if (arg == "--metrics-json") {
            opt.obs.metricsJsonPath = value();
        } else if (arg == "--trace-out") {
            opt.obs.traceOutPath = value();
        } else if (arg == "--trace-sample") {
            // Accept "N" or "1/N".
            std::string v = value();
            const auto slash = v.find('/');
            if (slash != std::string::npos)
                v = v.substr(slash + 1);
            const long long n = std::atoll(v.c_str());
            if (n > 0)
                opt.obs.traceSampleN =
                    static_cast<std::uint64_t>(n);
        } else if (arg == "--heartbeat") {
            opt.obs.heartbeatInterval = std::atoll(value().c_str());
        } else if (arg == "--audit") {
            opt.obs.audit = true;
        } else if (arg == "--watchdog") {
            opt.obs.watchdogInterval = std::atoll(value().c_str());
        } else if (arg == "--spatial") {
            opt.obs.spatialWindow = std::atoll(value().c_str());
        } else if (arg == "--spatial-csv") {
            opt.obs.spatialCsvPath = value();
        } else if (arg == "--profile") {
            opt.obs.profile = true;
        } else if (arg == "--latency") {
            opt.obs.latency = true;
        } else if (arg == "--latency-sample") {
            std::string v = value();
            const auto slash = v.find('/');
            if (slash != std::string::npos)
                v = v.substr(slash + 1);
            const long long n = std::atoll(v.c_str());
            if (n > 0)
                opt.obs.latencySampleN =
                    static_cast<std::uint64_t>(n);
        } else if (arg == "--latency-topk") {
            const long long n = std::atoll(value().c_str());
            if (n > 0)
                opt.obs.latencyTopK = static_cast<std::size_t>(n);
        } else if (arg == "--latency-report") {
            opt.obs.latencyReportPath = value();
        } else if (arg == "--backpressure") {
            opt.obs.backpressure = true;
        } else if (arg == "--backpressure-window") {
            opt.obs.backpressureWindow = std::atoll(value().c_str());
        } else if (arg == "--backpressure-report") {
            opt.obs.backpressureReportPath = value();
        } else if (arg == "--jobs") {
            const long long n = std::atoll(value().c_str());
            if (n > 0)
                setDefaultJobs(static_cast<unsigned>(n));
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: hdpat_cli [--workload ABBR|all] "
                   "[--policy NAME] [--config NAME] [--ops N] "
                   "[--seed S] [--scale F] [--page-shift N] "
                   "[--mesh WxH] [--jobs N] [--csv FILE] "
                   "[--trace FILE] [--metrics-json FILE] "
                   "[--trace-out FILE] [--trace-sample N|1/N] "
                   "[--heartbeat TICKS] [--audit] [--watchdog TICKS] "
                   "[--spatial TICKS] [--spatial-csv FILE] "
                   "[--profile] [--latency] "
                   "[--latency-sample N|1/N] [--latency-topk K] "
                   "[--latency-report FILE] [--backpressure] "
                   "[--backpressure-window TICKS] "
                   "[--backpressure-report FILE]\n"
                   "  --ops N          ops per GPM, 1 to 10000000 "
                   "(default 12000 x HDPAT_BENCH_SCALE)\n"
                   "  --seed S         workload seed, any unsigned "
                   "64-bit integer\n"
                   "  --page-shift N   log2 of the page size; the "
                   "configuration accepts 12 to 30\n"
                   "  --mesh WxH       wafer mesh, each side 1 to 64\n"
                   "  --jobs N  run multi-workload sweeps N "
                   "simulations at a time (default: HDPAT_JOBS or "
                   "all cores); results are identical to serial\n"
                   "  --audit          verify conservation invariants "
                   "at run end (issue/retire, send/deliver,\n"
                   "                   MSHR and LL-TLB balance, queue "
                   "drains); abort with a diagnostic on violation\n"
                   "  --watchdog N     abort with the same diagnostic "
                   "if no op retires for N simulated ticks\n"
                   "  --spatial N      collect per-link and per-tile "
                   "heatmaps in N-tick windows\n"
                   "                   (exported as the metrics-JSON "
                   "\"spatial\" section)\n"
                   "  --spatial-csv F  also write the heatmaps as CSV "
                   "to F (implies --spatial)\n"
                   "  --profile        time the host's own hot paths; "
                   "print a per-subsystem table and export\n"
                   "                   the metrics-JSON \"profile\" "
                   "section\n"
                   "  --latency        attribute each translation's "
                   "latency to pipeline stages; print the\n"
                   "                   anatomy table with exact "
                   "p50/p95/p99/p999 and export the metrics-JSON\n"
                   "                   \"latency\" section (schema "
                   "hdpat-metrics-v2)\n"
                   "  --latency-sample N  attribute 1 in N sampled "
                   "translations (default 1 = exact mode;\n"
                   "                   deterministic per (tile, VPN, "
                   "tick) hash, accepts 1/N)\n"
                   "  --latency-topk K keep the K slowest spans for "
                   "the critical-path report (default 8)\n"
                   "  --latency-report F  write the slowest-span "
                   "timeline diagnostic to F (implies --latency)\n"
                   "  --backpressure   account every bounded "
                   "structure's occupancy, saturation, and\n"
                   "                   rejections as a named resource; "
                   "print the ranked bottleneck table,\n"
                   "                   cross-checked by the "
                   "Little's-law identity, and export the\n"
                   "                   metrics-JSON \"backpressure\" "
                   "section (schema hdpat-metrics-v3)\n"
                   "  --backpressure-window N  also keep per-N-tick "
                   "pressure histories (0 = totals only)\n"
                   "  --backpressure-report F  write the full ranked "
                   "bottleneck report to F\n"
                   "                   (implies --backpressure)\n"
                   "\n"
                   "environment variables (flags take precedence):\n"
                   "  HDPAT_METRICS_JSON=FILE  default for "
                   "--metrics-json\n"
                   "  HDPAT_TRACE_OUT=FILE     default for "
                   "--trace-out (Chrome Trace Event Format)\n"
                   "  HDPAT_TRACE_SAMPLE=N     default for "
                   "--trace-sample (trace 1 in N ops; accepts 1/N)\n"
                   "  HDPAT_HEARTBEAT=TICKS    default for "
                   "--heartbeat (-1 auto, 0 off)\n"
                   "  HDPAT_AUDIT=1            default for --audit\n"
                   "  HDPAT_WATCHDOG=TICKS     default for "
                   "--watchdog (0 off)\n"
                   "  HDPAT_SPATIAL=TICKS      default for "
                   "--spatial (0 off)\n"
                   "  HDPAT_SPATIAL_CSV=FILE   default for "
                   "--spatial-csv\n"
                   "  HDPAT_PROFILE=1          default for --profile\n"
                   "  HDPAT_LATENCY=1          default for --latency\n"
                   "  HDPAT_LATENCY_SAMPLE=N   default for "
                   "--latency-sample (accepts 1/N)\n"
                   "  HDPAT_LATENCY_TOPK=K     default for "
                   "--latency-topk\n"
                   "  HDPAT_LATENCY_REPORT=F   default for "
                   "--latency-report\n"
                   "  HDPAT_BACKPRESSURE=1     default for "
                   "--backpressure\n"
                   "  HDPAT_BACKPRESSURE_WINDOW=N  default for "
                   "--backpressure-window\n"
                   "  HDPAT_BACKPRESSURE_REPORT=F  default for "
                   "--backpressure-report\n"
                   "  HDPAT_JOBS=N             default for --jobs\n"
                   "  HDPAT_TENANTS=N          multiplex N address "
                   "spaces (ASIDs) onto the wafer\n"
                   "  HDPAT_SWITCH_RATE=R      Poisson context "
                   "switches per million ticks (needs N > 1)\n"
                   "  HDPAT_CHURN_RATE=R       Poisson page "
                   "unmap/remap shootdowns per million ticks\n"
                   "  HDPAT_TENANCY_SEED=S     tenant-scheduler RNG "
                   "seed (all unset = single-tenant,\n"
                   "                           bitwise-identical "
                   "runs)\n"
                   "  HDPAT_BENCH_SCALE=F      multiply bench op "
                   "counts by F\n"
                   "  HDPAT_LOG=LEVEL          log level: error, "
                   "warn, info, debug\n";
            std::exit(0);
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            std::exit(1);
        }
    }
    return opt;
}

RunSpec
specFor(const Options &opt, const std::string &workload)
{
    RunSpec spec;
    spec.config = configByName(opt.config);
    spec.policy = policyByName(opt.policy);
    if (opt.pageShift != 0)
        spec.config.pageShift = static_cast<unsigned>(opt.pageShift);
    if (opt.meshWidth != 0 || opt.meshHeight != 0) {
        spec.config.meshWidth = opt.meshWidth;
        spec.config.meshHeight = opt.meshHeight;
    }
    spec.workload = workload;
    spec.opsPerGpm = opt.ops;
    spec.seed = opt.seed;
    spec.footprintScale = opt.scale;
    spec.captureIommuTrace = !opt.trace_path.empty();
    spec.obs = opt.obs;

    // Fail fast on bad --page-shift / --mesh (or any other field)
    // before the sweep starts, listing every violated invariant.
    if (const auto errors = validationErrors(spec); !errors.empty()) {
        std::cerr << "invalid run options:\n";
        for (const std::string &e : errors)
            std::cerr << "  - " << e << "\n";
        std::exit(1);
    }
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    std::vector<std::string> workloads;
    if (opt.workload == "all") {
        workloads = workloadAbbrs();
    } else {
        workloads.push_back(opt.workload);
    }

    std::vector<RunSpec> specs;
    for (const std::string &wl : workloads)
        specs.push_back(specFor(opt, wl));
    const std::vector<RunResult> results = runMany(std::move(specs));

    TablePrinter table({"workload", "cycles", "remote", "offloaded",
                        "RTT mean", "IOMMU walks"});
    for (const RunResult &r : results) {
        table.addRow({r.workload, std::to_string(r.totalTicks),
                      std::to_string(r.remoteResolutions),
                      fmtPct(r.offloadedFraction()),
                      fmt(r.remoteRtt.mean(), 0),
                      std::to_string(r.iommu.walksCompleted)});
    }

    std::cout << "policy " << opt.policy << " on " << opt.config
              << " (" << results.front().config << ")\n\n";
    table.print(std::cout);

    if (!opt.csv_path.empty()) {
        std::ofstream csv(opt.csv_path);
        writeRunCsv(csv, results);
        std::cout << "\nwrote " << results.size() << " CSV rows to "
                  << opt.csv_path << "\n";
    }
    if (!opt.trace_path.empty()) {
        std::ofstream trace(opt.trace_path);
        writeTraceCsv(trace, results.back().iommu.trace);
        std::cout << "wrote " << results.back().iommu.trace.size()
                  << " trace rows to " << opt.trace_path << "\n";
    }

    if (opt.obs.profile) {
        const ProfileSnapshot merged = mergedProfile(results);
        std::cout << "\nhost self-profile (" << merged.runs
                  << " run" << (merged.runs == 1 ? "" : "s") << ", "
                  << fmt(static_cast<double>(merged.wallNanos) / 1e6,
                         1)
                  << " ms simulated wall-clock)\n";
        TablePrinter prof_table(
            {"section", "calls", "total ms", "ns/call"});
        for (std::size_t i = 0; i < kNumProfSections; ++i) {
            const auto &s = merged.sections[i];
            prof_table.addRow(
                {profSectionName(static_cast<ProfSection>(i)),
                 std::to_string(s.calls),
                 fmt(static_cast<double>(s.nanos) / 1e6, 1),
                 fmt(s.calls ? static_cast<double>(s.nanos) /
                                   static_cast<double>(s.calls)
                             : 0.0,
                     0)});
        }
        prof_table.print(std::cout);
    }

    if (opt.obs.latencyEnabled()) {
        LatencySnapshot merged;
        for (const RunResult &r : results)
            merged.merge(r.latency, opt.obs.latencyTopK);
        std::cout << "\ntranslation latency anatomy (" << merged.spans
                  << " spans, sample 1/" << merged.sampleN << ")\n";
        TablePrinter lat_table(
            {"stage", "spans", "mean", "p99", "share"});
        const double e2e_sum =
            merged.endToEnd.sum() > 0.0 ? merged.endToEnd.sum() : 1.0;
        for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
            const LatencyStageStats &stage = merged.stages[s];
            if (stage.stat.count() == 0)
                continue;
            lat_table.addRow(
                {latencyStageName(static_cast<LatencyStage>(s)),
                 std::to_string(stage.stat.count()),
                 fmt(stage.stat.mean(), 1),
                 std::to_string(stage.hist.quantile(0.99)),
                 fmtPct(stage.stat.sum() / e2e_sum)});
        }
        lat_table.print(std::cout);
        std::cout << "end-to-end ticks: mean "
                  << fmt(merged.endToEnd.mean(), 1) << "  p50 "
                  << merged.exactQuantile(0.50) << "  p95 "
                  << merged.exactQuantile(0.95) << "  p99 "
                  << merged.exactQuantile(0.99) << "  p999 "
                  << merged.exactQuantile(0.999) << "\n";
    }

    if (opt.obs.backpressureEnabled()) {
        // Snapshots of different runs are not mergeable (each has its
        // own tick axis), so print one ranked table per workload,
        // truncated; the full report goes to --backpressure-report.
        for (const RunResult &r : results) {
            std::cout << '\n' << r.workload << ' '
                      << bottleneckReport(r.backpressure, 12);
        }
    }
    return 0;
}
