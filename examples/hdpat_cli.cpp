/**
 * @file
 * hdpat_cli: the kitchen-sink driver. Run any workload under any
 * policy on any preset configuration, print the human-readable report,
 * and optionally emit CSV (results and/or the IOMMU request trace) for
 * external analysis.
 *
 * Usage: hdpat_cli [OPTION]... Its own rows below plus the shared
 * option table (driver/options.cc) drive the parser and `--help`.
 * "--workload all" sweeps through runMany(), so multi-run outputs get
 * a per-run "-<index>" suffix and results stay identical to serial.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
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
    using P = TranslationPolicy;
    for (P p : {P::baseline(), P::hdpat(), P::routeCaching(),
                P::concentricCaching(), P::distributedCaching(),
                P::clusterRotation(), P::withRedirection(),
                P::withPrefetch(), P::transFw(), P::valkyrie(), P::barre(),
                P::hdpatWithIommuTlb()}) {
        // "cluster+rotation" is spelled "cluster-rotation" here.
        std::replace(p.name.begin(), p.name.end(), '+', '-');
        if (p.name == name)
            return p;
    }
    std::cerr << "unknown policy: " << name << "\n";
    std::exit(1);
}

/** Largest --mesh side (a 64x64 wafer already has 4,095 GPMs). */
constexpr int kMaxMeshSide = 64;

struct Options
{
    std::string workload = "SPMV";
    std::string policy = "hdpat";
    std::string config = "MI100";
    RunSpec spec;       ///< Op count, seed and footprint scale.
    int pageShift = 0;  ///< 0 = keep the preset's page size.
    int meshWidth = 0;  ///< 0 = keep the preset's mesh.
    int meshHeight = 0;
    std::string csv_path;
    std::string trace_path;
    RunOptions run = envRunOptions();
};

Options
parse(int argc, char **argv)
{
    using K = OptionKind;
    using V = const OptionValue &;
    Options opt;
    std::vector<OptionRow> rows;
    const auto help = [&rows](V) {
        std::cout << "usage: hdpat_cli [OPTION]...\nA flag beats its "
                     "environment variable; an empty one is unset.\n"
                  << optionHelp(rows);
        std::exit(0);
    };
    rows = {
        {.flag = "--workload", .valueName = "ABBR|all",
         .defaultText = "SPMV", .help = "Table II workload, or all",
         .set = [&opt](V v) { opt.workload = v.text; }},
        {.flag = "--policy", .valueName = "NAME", .defaultText = "hdpat",
         .help = "policy preset, e.g. baseline, trans-fw, barre",
         .set = [&opt](V v) { opt.policy = v.text; }},
        {.flag = "--config", .valueName = "NAME", .defaultText = "MI100",
         .help = "MI100, MI200, MI300, H100, H200, MI100-7x12, MCM4",
         .set = [&opt](V v) { opt.config = v.text; }},
        {.flag = "--ops", .kind = K::Int, .lo = 1, .hi = kMaxOpsPerGpm,
         .valueName = "N", .defaultText = "12000 x the bench scale",
         .help = "memory ops per GPM",
         .set = [&opt](V v) { opt.spec.opsPerGpm = v.integer; }},
        {.flag = "--seed", .kind = K::Int,
         .hi = std::numeric_limits<std::uint64_t>::max(), .valueName = "S",
         .defaultText = "24301", .help = "workload seed",
         .set = [&opt](V v) { opt.spec.seed = v.integer; }},
        {.flag = "--scale", .kind = K::Real, .valueName = "F",
         .defaultText = "1", .help = "workload footprint scale",
         .set = [&opt](V v) { opt.spec.footprintScale = v.real; }},
        // Any shift of a 64-bit address parses; validationErrors()
        // then holds it to the supported page sizes (12 to 30).
        {.flag = "--page-shift", .kind = K::Int, .lo = 1, .hi = 63,
         .valueName = "N", .help = "log2 of the page size, 12 to 30",
         .set = [&opt](V v) { opt.pageShift = static_cast<int>(v.integer); }},
        {.flag = "--mesh", .valueName = "WxH",
         .help = "wafer mesh, each side 1 to 64", .set = [&opt](V v) {
             const auto x = v.text.find('x');
             if (x == std::string::npos)
                 rejectOption(v.spelling, "WxH (e.g. 7x12)", v.text);
             const std::string side(v.spelling);
             opt.meshWidth = parseInt(side + " width", v.text.substr(0, x),
                                      1, kMaxMeshSide);
             opt.meshHeight = parseInt(side + " height",
                                       v.text.substr(x + 1), 1,
                                       kMaxMeshSide);
         }},
        {.flag = "--csv", .valueName = "FILE",
         .help = "write the result rows as CSV",
         .set = [&opt](V v) { opt.csv_path = v.text; }},
        {.flag = "--trace", .valueName = "FILE",
         .help = "write the last run's IOMMU requests as CSV",
         .set = [&opt](V v) { opt.trace_path = v.text; }},
        {.flag = "--help", .kind = K::Bool, .help = "print this help",
         .set = help},
        {.flag = "-h", .kind = K::Bool, .help = "the same", .set = help},
    };
    std::ranges::move(runOptionRows(opt.run), std::back_inserter(rows));
    orExit([&] { return parseArgs(argc, argv, rows); });
    setDefaultJobs(opt.run.jobs);
    return opt;
}

RunSpec
specFor(const Options &opt, const std::string &workload)
{
    RunSpec spec = opt.spec;
    spec.config = configByName(opt.config);
    spec.policy = policyByName(opt.policy);
    if (opt.pageShift != 0)
        spec.config.pageShift = static_cast<unsigned>(opt.pageShift);
    if (opt.meshWidth != 0 || opt.meshHeight != 0) {
        spec.config.meshWidth = opt.meshWidth;
        spec.config.meshHeight = opt.meshHeight;
        // Name the mesh actually simulated, not the preset's: "MI100-7x7"
        // run as 12x7 is "MI100-12x7".
        const std::string gpu =
            spec.config.name.substr(0, spec.config.name.find('-'));
        spec.config.name = gpu + "-" + std::to_string(opt.meshWidth) +
                           "x" + std::to_string(opt.meshHeight);
    }
    spec.workload = workload;
    spec.captureIommuTrace = !opt.trace_path.empty();
    spec.obs = opt.run.obs;
    spec.tenancy = opt.run.tenancy;

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

    const std::vector<std::string> workloads =
        opt.workload == "all" ? workloadAbbrs()
                              : std::vector<std::string>{opt.workload};
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

    if (opt.run.obs.profile) {
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

    if (opt.run.obs.latencyEnabled()) {
        LatencySnapshot merged;
        for (const RunResult &r : results)
            merged.merge(r.latency, opt.run.obs.latencyTopK);
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

    if (opt.run.obs.backpressureEnabled()) {
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
