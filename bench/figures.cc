#include "figures.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "config/gpu_presets.hh"
#include "driver/area_model.hh"
#include "driver/experiment.hh"
#include "driver/table_printer.hh"
#include "driver/trace_analysis.hh"
#include "obs/json_reader.hh"
#include "obs/latency.hh"
#include "sim/log.hh"
#include "workloads/suite.hh"

namespace hdpat::bench
{

namespace
{

// ---------------------------------------------------------------------
// The row type and its two shared grid printers
// ---------------------------------------------------------------------

/** One (config, policy) suite of a grid. */
using Variant = std::pair<SystemConfig, TranslationPolicy>;

/** A grid's results: [variant][workload]. */
using Grid = std::vector<std::vector<RunResult>>;

using Cells = std::vector<std::string>;

/**
 * A column of a per-workload table. A speedup column prints "<v>x"
 * for each workload and the geometric mean in the G-MEAN row; a
 * per-run column prints its own text and "-" there. One of the two
 * functions is set.
 */
struct Column
{
    std::string header;
    std::function<double(const Grid &, std::size_t workload)> speedup;
    std::function<std::string(const Grid &, std::size_t workload)> perRun;
};

/** One row of a one-row-per-variant table. */
struct VariantRow
{
    /** The row's leading cells. */
    Cells labels;
    /** The suites this row adds to the grid, in order. */
    std::vector<Variant> variants;
};

/** A table with one G-MEAN row per variant. */
struct VariantTable
{
    Cells header;
    std::vector<VariantRow> rows;
    /** The cells after a row's labels; @p first indexes its variants. */
    std::function<Cells(const Grid &, std::size_t first)> cells;
};

/** One row of the figure table. */
struct Figure
{
    std::string id;
    /** Banner: the figure, what it shows, and what the paper claims. */
    std::string figure, what, claim;
    /** Share of the default op count (floored at 500 ops per GPM). */
    double opsFraction = 1.0;
    /** The grid's workloads; empty means the full Table II suite. */
    std::vector<std::string> workloads = {};
    /** The grid's suites (for variant tables, the shared ones). */
    std::vector<Variant> variants = {};
    /** Non-empty for a per-workload table. */
    std::vector<Column> columns = {};
    /** Non-empty for one-row-per-variant tables, printed in order. */
    std::vector<VariantTable> tables = {};
    /** Printed after the grid's tables. */
    std::function<std::string(const Grid &)> note = {};
    /** A figure that fits neither grid shape reproduces itself. */
    void (*body)(std::size_t ops) = nullptr;
};

std::string
times(double speedup)
{
    return fmt(speedup) + "x";
}

/** Per-workload speedup of grid variant @p v over variant 0. */
Column
speedupOf(std::string header, std::size_t v)
{
    return {std::move(header),
            [v](const Grid &g, std::size_t w) {
                return speedupOver(g[0][w], g[v][w]);
            },
            {}};
}

/** Geometric-mean speedup of grid variant @p v over @p ref. */
std::string
gmean(const Grid &g, std::size_t ref, std::size_t v)
{
    return times(geomeanSpeedup(g[ref], g[v]));
}

std::function<std::string(const Grid &)>
text(std::string s)
{
    return [s = std::move(s)](const Grid &) { return s; };
}

/** Per-workload columns plus a G-MEAN row. */
Grid
printWorkloadTable(const Figure &f, std::size_t ops)
{
    const Grid grid = runSuiteGrid(f.variants, ops, f.workloads);
    Cells header{"workload"};
    for (const Column &col : f.columns)
        header.push_back(col.header);
    TablePrinter table(std::move(header));

    std::vector<std::vector<double>> speedups(f.columns.size());
    for (std::size_t w = 0; w < grid[0].size(); ++w) {
        Cells row{grid[0][w].workload};
        for (std::size_t c = 0; c < f.columns.size(); ++c) {
            if (f.columns[c].perRun) {
                row.push_back(f.columns[c].perRun(grid, w));
                continue;
            }
            speedups[c].push_back(f.columns[c].speedup(grid, w));
            row.push_back(times(speedups[c].back()));
        }
        table.addRow(std::move(row));
    }
    Cells gmean_row{"G-MEAN"};
    for (std::size_t c = 0; c < f.columns.size(); ++c)
        gmean_row.push_back(f.columns[c].perRun ? "-"
                                                : times(geomean(speedups[c])));
    table.addRow(std::move(gmean_row));
    table.print(std::cout);
    return grid;
}

/** One G-MEAN row per variant, all tables from one grid. */
Grid
printVariantTables(const Figure &f, std::size_t ops)
{
    std::vector<Variant> variants = f.variants;
    for (const VariantTable &t : f.tables) {
        for (const VariantRow &row : t.rows)
            variants.insert(variants.end(), row.variants.begin(),
                            row.variants.end());
    }
    const Grid grid = runSuiteGrid(variants, ops, f.workloads);

    std::size_t first = f.variants.size();
    for (std::size_t t = 0; t < f.tables.size(); ++t) {
        if (t > 0)
            std::cout << '\n';
        TablePrinter table(f.tables[t].header);
        for (const VariantRow &row : f.tables[t].rows) {
            Cells cells = row.labels;
            for (std::string &cell : f.tables[t].cells(grid, first))
                cells.push_back(std::move(cell));
            first += row.variants.size();
            table.addRow(std::move(cells));
        }
        table.print(std::cout);
    }
    return grid;
}

// ---------------------------------------------------------------------
// Shared run helpers
// ---------------------------------------------------------------------

/** The runs of @p workloads under the baseline, IOMMU traces kept. */
std::vector<RunResult>
tracedRuns(std::size_t ops, const std::vector<std::string> &workloads = {})
{
    std::vector<RunSpec> specs = suiteSpecs(
        SystemConfig::mi100(), TranslationPolicy::baseline(), ops, workloads);
    for (RunSpec &spec : specs)
        spec.captureIommuTrace = true;
    return runMany(std::move(specs));
}

/** @p specs with exact-mode latency attribution on. */
std::vector<RunSpec>
withExactLatency(std::vector<RunSpec> specs)
{
    for (RunSpec &spec : specs) {
        spec.obs.latency = true;
        spec.obs.latencySampleN = 1;
    }
    return specs;
}

/**
 * Run @p specs with their metrics JSON exported and return each run's
 * document, re-read through the strict reader, in spec order. The
 * figures built this way use only the export: anything they need but
 * the export lacks is a bug in the export. The dumps go to a fresh
 * directory of this process (so concurrent runs never share a path),
 * which is removed afterwards; HDPAT_METRICS_JSON does not apply.
 */
std::vector<JsonValue>
runExported(std::vector<RunSpec> specs)
{
    std::string dir =
        (std::filesystem::temp_directory_path() / "hdpat-figure-XXXXXX")
            .string();
    hdpat_fatal_if(mkdtemp(dir.data()) == nullptr,
                   "cannot create a temporary directory like " << dir);
    const std::string path = dir + "/metrics.json";
    for (RunSpec &spec : specs)
        spec.obs.metricsJsonPath = path;
    const std::size_t runs = specs.size();
    runMany(std::move(specs));

    std::vector<JsonValue> docs;
    for (std::size_t i = 0; i < runs; ++i)
        docs.push_back(parseJsonFileOrDie(
            runs > 1 ? withRunIndexSuffix(path, i) : path));
    std::filesystem::remove_all(dir);
    return docs;
}

// ---------------------------------------------------------------------
// Figures that fit neither grid shape
// ---------------------------------------------------------------------

/** Table I: every parameter of the active SystemConfig. */
void
tab1(std::size_t)
{
    const SystemConfig cfg = SystemConfig::mi100();
    TablePrinter table({"module", "configuration"});
    auto tlb_row = [&](const char *name, const TlbLevelParams &tlb) {
        table.addRow({name,
                      std::to_string(tlb.sets) + "-set, " +
                          std::to_string(tlb.ways) + "-way, " +
                          std::to_string(tlb.mshrs) + "-MSHR, " +
                          std::to_string(tlb.latency) +
                          "-cycle latency, LRU"});
    };

    table.addRow({"CU", "1.0 GHz, " + std::to_string(cfg.cusPerGpm) +
                            " per GPM"});
    table.addRow({"L2 cache",
                  std::to_string(cfg.l2CacheBytes >> 20) + " MB, " +
                      std::to_string(cfg.l2CacheWays) + "-way"});
    tlb_row("L1 TLB", cfg.l1Tlb);
    tlb_row("L2 TLB", cfg.l2Tlb);
    table.addRow({"GMMU cache",
                  std::to_string(cfg.lastLevelTlb.sets) + "-set, " +
                      std::to_string(cfg.lastLevelTlb.ways) + "-way"});
    table.addRow({"GMMU",
                  std::to_string(cfg.gmmuWalkers) +
                      " shared page table walkers, " +
                      std::to_string(cfg.gmmuWalkLatency) +
                      " cycles per walk (100 x 5 levels)"});
    table.addRow({"IOMMU",
                  std::to_string(cfg.iommuWalkers) +
                      " shared page table walkers, " +
                      std::to_string(cfg.iommuWalkLatency) +
                      " cycles per walk (100 x 5 levels)"});
    table.addRow({"Redirection table",
                  std::to_string(cfg.redirectionTableEntries) +
                      " entries, LRU"});
    table.addRow({"HBM", "8 GB, " +
                             fmt(cfg.hbmBytesPerTick / 1000.0, 2) +
                             " TB/s, " +
                             std::to_string(cfg.hbmLatency) +
                             "-cycle latency"});
    table.addRow({"Mesh network",
                  fmt(cfg.noc.bytesPerTick, 0) + " GB/s per link, " +
                      std::to_string(cfg.noc.linkLatency) +
                      "-cycle latency per link"});
    table.addRow({"Topology",
                  std::to_string(cfg.meshWidth) + "x" +
                      std::to_string(cfg.meshHeight) + " mesh, " +
                      std::to_string(cfg.numGpms()) +
                      " GPMs + central CPU"});
    table.addRow({"Page size",
                  std::to_string(cfg.pageBytes() / 1024) + " KB"});
    table.print(std::cout);
}

/** Table II: benchmarks, workgroup counts and memory footprints. */
void
tab2(std::size_t)
{
    TablePrinter table(
        {"abbr", "benchmark", "workgroups", "memory FP"});
    for (const WorkloadInfo &info : workloadTable()) {
        table.addRow({info.abbr, info.name,
                      std::to_string(info.workgroups),
                      std::to_string(info.footprintBytes >> 20) +
                          " MB"});
    }
    table.print(std::cout);
}

/** §V-F: the redirection table's area and power (7 nm SRAM model). */
void
tab3(std::size_t)
{
    const SramEstimate rt = estimateSram(1024, kRedirectionEntryBits);
    const SramEstimate tlb = estimateSram(512, kTlbEntryBits);

    TablePrinter table({"structure", "entries", "bits/entry",
                        "area (mm^2)", "power (W)", "% CPU area",
                        "% CPU TDP"});
    table.addRow({"redirection table", "1024",
                  std::to_string(kRedirectionEntryBits),
                  fmt(rt.areaMm2, 3), fmt(rt.powerW, 2),
                  fmtPct(rt.areaMm2 / kCpuDieAreaMm2, 2),
                  fmtPct(rt.powerW / kCpuTdpW, 2)});
    table.addRow({"equal-area IOMMU TLB (Fig 19)", "512",
                  std::to_string(kTlbEntryBits), fmt(tlb.areaMm2, 3),
                  fmt(tlb.powerW, 2),
                  fmtPct(tlb.areaMm2 / kCpuDieAreaMm2, 2),
                  fmtPct(tlb.powerW / kCpuTdpW, 2)});
    table.print(std::cout);

    std::cout << "\nreference CPU die (AMD Ryzen 9 7900X): "
              << kCpuDieAreaMm2 << " mm^2, " << kCpuTdpW << " W TDP\n";
}

/** Histogram p-quantile recomputed from exported {low,high,count}. */
std::uint64_t
histQuantile(const JsonValue &hist, double q)
{
    const std::uint64_t total = hist.at("total").asUint();
    if (total == 0)
        return 0;
    const double target = q * static_cast<double>(total);
    double acc = 0.0;
    std::uint64_t last_high = 0;
    for (const JsonValue &bucket : hist.at("buckets").elements) {
        acc += static_cast<double>(bucket.at("count").asUint());
        last_high = bucket.at("high").asUint();
        if (acc >= target)
            return last_high;
    }
    return last_high;
}

/**
 * Fig 3 from one exported SPMV run with exact latency attribution:
 * the paper's three components from the IOMMU "summaries", the
 * per-stage anatomy and exact tail quantiles from "latency".
 */
void
fig03(std::size_t ops)
{
    const JsonValue doc = runExported(withExactLatency(suiteSpecs(
        SystemConfig::mi100(), TranslationPolicy::baseline(), ops,
        {"SPMV"})))[0];
    const JsonValue &summaries = doc.at("summaries");

    const double pre =
        summaries.at("iommu.pre_queue_latency").at("mean").asNumber();
    const double queue =
        summaries.at("iommu.pw_queue_latency").at("mean").asNumber();
    const double walk =
        summaries.at("iommu.walk_latency").at("mean").asNumber();
    const double total = pre + queue + walk;

    TablePrinter table(
        {"component", "mean cycles", "share of request latency"});
    table.addRow({"pre-queue latency", fmt(pre, 0),
                  fmtPct(pre / total)});
    table.addRow({"PTW queueing delay", fmt(queue, 0),
                  fmtPct(queue / total)});
    table.addRow({"PTW latency", fmt(walk, 0), fmtPct(walk / total)});
    table.addRow({"total", fmt(total, 0), "100.0%"});
    table.print(std::cout);

    const JsonValue &counters = doc.at("counters");
    std::cout << "\nIOMMU served "
              << counters.at("iommu.walks_completed").asUint()
              << " walks.\n";

    // Per-stage anatomy of the same run, measured per request: each
    // translation's span is decomposed into stage durations (sum ==
    // end-to-end).
    const JsonValue &latency = doc.at("latency");
    const JsonValue &e2e = latency.at("end_to_end");
    const double e2e_sum = e2e.at("summary").at("sum").asNumber();

    std::cout << "\nper-translation stage anatomy ("
              << latency.at("spans").asUint()
              << " spans, exact mode)\n";
    TablePrinter anatomy({"stage", "spans", "mean cycles", "p99",
                          "share of total latency"});
    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        const char *name =
            latencyStageName(static_cast<LatencyStage>(s));
        const JsonValue &stage = latency.at("stages").at(name);
        const JsonValue &summary = stage.at("summary");
        if (summary.at("count").asUint() == 0)
            continue;
        anatomy.addRow(
            {name, std::to_string(summary.at("count").asUint()),
             fmt(summary.at("mean").asNumber(), 1),
             std::to_string(histQuantile(stage.at("histogram"), 0.99)),
             fmtPct(e2e_sum > 0.0
                        ? summary.at("sum").asNumber() / e2e_sum
                        : 0.0)});
    }
    anatomy.print(std::cout);

    const JsonValue &quantiles = e2e.at("quantiles");
    std::cout << "\nend-to-end translation ticks (exact order "
                 "statistics): mean "
              << fmt(e2e.at("summary").at("mean").asNumber(), 1)
              << "  p50 " << quantiles.at("p50").asUint() << "  p95 "
              << quantiles.at("p95").asUint() << "  p99 "
              << quantiles.at("p99").asUint() << "  p999 "
              << quantiles.at("p999").asUint() << "\n";
}

/** The row of the "backpressure" section naming @p name; fatal-free. */
const JsonValue *
resourceNamed(const JsonValue &backpressure, const std::string &name)
{
    for (const JsonValue &r : backpressure.at("resources").elements) {
        if (r.at("name").asString() == name)
            return &r;
    }
    return nullptr;
}

/**
 * Fig 4 from the exported "backpressure" sections of two SPMV runs
 * (MCM vs wafer, buffer 4096): the per-window peak of the
 * "iommu.ingress" resource (the paper's buffered-request series), a
 * depth summary, and each system's most saturated resource -- the
 * walker pool and pipeline queue on the wafer, nothing on the MCM.
 */
void
fig04(std::size_t ops)
{
    SystemConfig mcm = SystemConfig::mcm4();
    mcm.iommuBufferCapacity = 4096;
    SystemConfig wafer = SystemConfig::mi100();
    wafer.iommuBufferCapacity = 4096;

    std::vector<RunSpec> specs;
    for (const SystemConfig &cfg : {mcm, wafer}) {
        RunSpec spec = suiteSpecs(cfg, TranslationPolicy::baseline(),
                                  ops, {"SPMV"})[0];
        spec.obs.backpressure = true;
        spec.obs.backpressureWindow = 50'000;
        specs.push_back(std::move(spec));
    }
    const std::vector<JsonValue> docs = runExported(std::move(specs));
    const std::string labels[] = {"MCM-GPU (4 GPMs)",
                                  "wafer-scale GPU (48 GPMs)"};

    for (std::size_t s = 0; s < docs.size(); ++s) {
        const JsonValue &bp = docs[s].at("backpressure");
        const JsonValue *ingress = resourceNamed(bp, "iommu.ingress");
        std::cout << labels[s] << " (peak buffered requests per "
                  << bp.at("window_ticks").asUint()
                  << "-cycle window):\n  ";
        const JsonValue *windows =
            ingress ? ingress->find("windows") : nullptr;
        const int count =
            windows ? std::min<int>(
                          24, static_cast<int>(windows->elements.size()))
                    : 0;
        for (int w = 0; w < count; ++w)
            std::cout << windows->elements[static_cast<std::size_t>(w)]
                             .at("peak")
                             .asUint()
                      << (w + 1 < count ? " " : "");
        std::cout << "\n  all-time peak: "
                  << (ingress ? ingress->at("peak").asUint() : 0)
                  << "\n\n";
    }

    TablePrinter table({"system", "mean depth", "peak depth",
                        "IOMMU walks"});
    for (std::size_t s = 0; s < docs.size(); ++s) {
        const JsonValue *ingress = resourceNamed(
            docs[s].at("backpressure"), "iommu.ingress");
        table.addRow(
            {labels[s],
             fmt(ingress ? ingress->at("mean_occupancy").asNumber()
                         : 0.0,
                 1),
             std::to_string(ingress ? ingress->at("peak").asUint()
                                    : 0),
             std::to_string(docs[s].at("counters")
                                .at("iommu.walks_completed")
                                .asUint())});
    }
    table.print(std::cout);

    std::cout << '\n';
    TablePrinter hot({"system", "most saturated resource", "kind",
                      "capacity", "saturation", "mean occ"});
    for (std::size_t s = 0; s < docs.size(); ++s) {
        const JsonValue &resources =
            docs[s].at("backpressure").at("resources");
        if (resources.elements.empty())
            continue;
        // Export order is the ranked (most-saturated-first) order.
        const JsonValue &top = resources.elements.front();
        hot.addRow({labels[s], top.at("name").asString(),
                    top.at("kind").asString(),
                    std::to_string(top.at("capacity").asUint()),
                    fmtPct(top.at("saturation").asNumber()),
                    fmt(top.at("mean_occupancy").asNumber(), 1)});
    }
    hot.print(std::cout);
}

/** One tile row of the exported "spatial" section. */
struct TileInfo
{
    int x = 0;
    int y = 0;
    int ring = 0;
    bool isCpu = false;
    Tick finishTick = 0;
    double rttMean = 0.0;
    std::uint64_t rttCount = 0;
};

/**
 * Fig 5's three views of one exported "spatial" section: the per-GPM
 * execution-time grid with per-ring means, the per-ring remote
 * translation RTT (the mechanism behind the imbalance), and the
 * hottest NoC links (traffic concentrates near the CPU tile).
 */
void
positionReport(const JsonValue &doc)
{
    const std::string workload = doc.at("run").at("workload").asString();
    const JsonValue &spatial = doc.at("spatial");
    const JsonValue &mesh = spatial.at("mesh");
    const int width = static_cast<int>(mesh.at("width").asNumber());
    const int height = static_cast<int>(mesh.at("height").asNumber());

    std::map<std::pair<int, int>, TileInfo> grid;
    std::map<int, std::pair<double, int>> finish_by_ring;
    std::map<int, std::pair<double, int>> rtt_by_ring;
    for (const JsonValue &tile : spatial.at("tiles").elements) {
        TileInfo info;
        info.x = static_cast<int>(tile.at("x").asNumber());
        info.y = static_cast<int>(tile.at("y").asNumber());
        info.ring = static_cast<int>(tile.at("ring").asNumber());
        info.isCpu = tile.at("is_cpu").asBool();
        if (info.isCpu) {
            grid[{info.x, info.y}] = info;
            continue;
        }
        info.finishTick = tile.at("finish_tick").asUint();
        info.rttMean = tile.at("rtt_mean").asNumber();
        info.rttCount = tile.at("rtt_count").asUint();
        grid[{info.x, info.y}] = info;

        auto &[fsum, fn] = finish_by_ring[info.ring];
        fsum += static_cast<double>(info.finishTick);
        ++fn;
        if (info.rttCount > 0) {
            auto &[rsum, rn] = rtt_by_ring[info.ring];
            rsum += info.rttMean;
            ++rn;
        }
    }

    std::cout << workload
              << ": per-GPM execution time (kilocycles) by position\n";
    for (int y = 0; y < height; ++y) {
        std::cout << "  ";
        for (int x = 0; x < width; ++x) {
            const auto it = grid.find({x, y});
            if (it == grid.end() || it->second.isCpu) {
                std::printf("%8s", "CPU");
            } else {
                std::printf("%8.1f",
                            static_cast<double>(
                                it->second.finishTick) /
                                1000.0);
            }
        }
        std::cout << '\n';
    }

    TablePrinter table({"ring (Chebyshev dist from CPU)", "GPMs",
                        "mean finish (kcyc)",
                        "mean remote-translation RTT (cyc)"});
    for (const auto &[ring, acc] : finish_by_ring) {
        const auto &rtt = rtt_by_ring[ring];
        table.addRow({std::to_string(ring),
                      std::to_string(acc.second),
                      fmt(acc.first / acc.second / 1000.0, 1),
                      fmt(rtt.second ? rtt.first / rtt.second : 0.0,
                          0)});
    }
    table.print(std::cout);

    struct LinkRow
    {
        TileId tile;
        std::string dir;
        std::uint64_t packets;
        std::uint64_t bytes;
    };
    std::vector<LinkRow> links;
    for (const JsonValue &link : spatial.at("links").elements) {
        links.push_back({static_cast<TileId>(
                             link.at("tile").asUint()),
                         link.at("dir").asString(),
                         link.at("packets").asUint(),
                         link.at("bytes").asUint()});
    }
    std::sort(links.begin(), links.end(),
              [](const LinkRow &a, const LinkRow &b) {
                  return a.packets > b.packets;
              });
    TablePrinter hot({"hottest links", "direction", "packets",
                      "kilobytes"});
    const std::size_t shown = std::min<std::size_t>(links.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
        hot.addRow({"tile " + std::to_string(links[i].tile),
                    links[i].dir, std::to_string(links[i].packets),
                    fmt(static_cast<double>(links[i].bytes) / 1024.0,
                        1)});
    }
    hot.print(std::cout);
    std::cout << '\n';
}

/**
 * Fig 5 from the exported "spatial" sections of SPMV and MM. It runs
 * in the pre-saturation regime (its row's small op fraction): once
 * the IOMMU backlog dominates, every GPM waits in the same queue and
 * the geometric gap disappears.
 */
void
fig05(std::size_t ops)
{
    std::vector<RunSpec> specs =
        suiteSpecs(SystemConfig::mi100(), TranslationPolicy::baseline(),
                   ops, {"SPMV", "MM"});
    for (RunSpec &spec : specs)
        spec.obs.spatialWindow = 100'000;
    for (const JsonValue &doc : runExported(std::move(specs)))
        positionReport(doc);
}

/** Fig 6: per-page IOMMU translation counts, all 14 workloads. */
void
fig06(std::size_t ops)
{
    TablePrinter table({"workload", "pages", "1x", "2x", "3-10x",
                        "11-100x", ">100x"});
    for (const RunResult &r : tracedRuns(ops)) {
        const TranslationCountBuckets b =
            analyzeTranslationCounts(r.iommu.trace);
        table.addRow({r.workload, std::to_string(b.totalPages()),
                      fmtPct(b.fraction(b.once)),
                      fmtPct(b.fraction(b.twice)),
                      fmtPct(b.fraction(b.threeToTen)),
                      fmtPct(b.fraction(b.elevenToHundred)),
                      fmtPct(b.fraction(b.moreThanHundred))});
    }
    table.print(std::cout);
}

/** Fig 7: reuse distance between repeated translations. */
void
fig07(std::size_t ops)
{
    TablePrinter table({"workload", "repeats", "<=16", "17-256",
                        "257-4K", "4K-64K", ">64K", "median", "p90"});
    for (const RunResult &r :
         tracedRuns(ops, {"BT", "FWT", "MT", "PR", "SPMV", "FWS"})) {
        const Log2Histogram h = analyzeReuseDistance(r.iommu.trace);
        auto band = [&](std::uint64_t lo, std::uint64_t hi) {
            const double f =
                h.fractionAtOrBelow(hi) -
                (lo == 0 ? 0.0 : h.fractionAtOrBelow(lo - 1));
            return fmtPct(f);
        };
        table.addRow({r.workload, std::to_string(h.totalCount()),
                      band(0, 16), band(17, 256), band(257, 4096),
                      band(4097, 65536),
                      fmtPct(1.0 - h.fractionAtOrBelow(65536)),
                      std::to_string(h.quantile(0.5)),
                      std::to_string(h.quantile(0.9))});
    }
    table.print(std::cout);
}

/** Fig 8: VPN distance between consecutive IOMMU requests. */
void
fig08(std::size_t ops)
{
    TablePrinter table({"workload", "<=1", "<=2", "<=4", "<=8",
                        "<=16"});
    for (const RunResult &r : tracedRuns(ops)) {
        const auto fractions = spatialLocalityFractions(
            r.iommu.trace, {1, 2, 4, 8, 16});
        table.addRow({r.workload, fmtPct(fractions[0]),
                      fmtPct(fractions[1]),
                      fmtPct(fractions[2]), fmtPct(fractions[3]),
                      fmtPct(fractions[4])});
    }
    table.print(std::cout);
}

/** Fig 13: FIR's IOMMU-served requests per window at three sizes. */
void
fig13(std::size_t ops)
{
    const std::vector<double> scales = {0.25, 0.5, 1.0};
    std::vector<RunSpec> specs;
    for (const double scale : scales) {
        RunSpec spec = suiteSpecs(SystemConfig::mi100(),
                                  TranslationPolicy::baseline(), ops,
                                  {"FIR"})[0];
        spec.footprintScale = scale;
        specs.push_back(std::move(spec));
    }
    const std::vector<RunResult> runs = runMany(std::move(specs));

    TablePrinter table({"footprint", "windows", "mean req/window",
                        "peak req/window", "steady-state ratio"});
    std::cout << "per-window IOMMU-served requests (100k-cycle "
                 "windows):\n\n";
    for (std::size_t i = 0; i < scales.size(); ++i) {
        const double scale = scales[i];
        const TimeSeries &served = runs[i].iommu.servedPerWindow;
        double sum = 0.0, peak = 0.0;
        std::cout << "  " << fmt(scale * 256, 0) << " MB: ";
        const std::size_t shown =
            std::min<std::size_t>(16, served.windows());
        for (std::size_t w = 0; w < served.windows(); ++w) {
            sum += served.windowSum(w);
            peak = std::max(peak, served.windowSum(w));
            if (w < shown)
                std::cout << fmt(served.windowSum(w), 0) << " ";
        }
        if (served.windows() > shown)
            std::cout << "...";
        std::cout << '\n';

        const double mean =
            served.windows()
                ? sum / static_cast<double>(served.windows())
                : 0.0;
        table.addRow({fmt(scale * 256, 0) + " MB",
                      std::to_string(served.windows()), fmt(mean, 0),
                      fmt(peak, 0),
                      fmt(peak > 0 ? mean / peak : 0.0, 2)});
    }
    std::cout << '\n';
    table.print(std::cout);
    std::cout << "\nSimilar mean/peak ratios across sizes indicate the "
                 "size-invariant request behaviour of Fig 13.\n";
}

std::uint64_t
sourceCount(const JsonValue &counters, const char *source)
{
    return counters.at(std::string("translation.source.") + source)
        .asUint();
}

/**
 * Fig 16 from the HDPAT suite's exports: source fractions from the
 * "counters" section, mean/p99 end-to-end latency from "latency".
 */
void
fig16(std::size_t ops)
{
    const std::vector<JsonValue> docs = runExported(withExactLatency(
        suiteSpecs(SystemConfig::mi100(), TranslationPolicy::hdpat(), ops)));

    TablePrinter table({"workload", "peer caching", "redirection",
                        "proactive delivery", "IOMMU", "offloaded",
                        "mean lat (cyc)", "p99 lat (cyc)"});
    double offload_sum = 0.0;
    for (const JsonValue &doc : docs) {
        const JsonValue &counters = doc.at("counters");
        std::uint64_t total = 0;
        for (std::size_t s = 0; s < kNumTranslationSources; ++s)
            total += sourceCount(
                counters,
                translationSourceName(
                    static_cast<TranslationSource>(s)));
        const auto fraction = [&](const char *source) {
            return total ? static_cast<double>(
                               sourceCount(counters, source)) /
                               static_cast<double>(total)
                         : 0.0;
        };
        // Offloaded = served without involving the IOMMU's walker or
        // its conventional TLB (the paper's 42.1% metric).
        const double offloaded =
            total ? 1.0 - fraction("iommu") - fraction("iommu-tlb")
                  : 0.0;
        offload_sum += offloaded;

        const JsonValue &e2e = doc.at("latency").at("end_to_end");
        table.addRow(
            {doc.at("run").at("workload").asString(),
             fmtPct(fraction("peer-cache")),
             fmtPct(fraction("redirection")),
             fmtPct(fraction("proactive-delivery")),
             fmtPct(fraction("iommu")), fmtPct(offloaded),
             fmt(e2e.at("summary").at("mean").asNumber(), 1),
             std::to_string(
                 e2e.at("quantiles").at("p99").asUint())});
    }
    table.addRow({"MEAN", "-", "-", "-", "-",
                  fmtPct(offload_sum /
                         static_cast<double>(docs.size())),
                  "-", "-"});
    table.print(std::cout);
}

/**
 * Fig 17 from the baseline and HDPAT suites' exports: mean RTTs from
 * "summaries", traffic from "counters", and p99 columns from the
 * exact end-to-end order statistics in "latency".
 */
void
fig17(std::size_t ops)
{
    const SystemConfig cfg = SystemConfig::mi100();
    std::vector<RunSpec> specs =
        suiteSpecs(cfg, TranslationPolicy::baseline(), ops);
    for (RunSpec &spec : suiteSpecs(cfg, TranslationPolicy::hdpat(), ops))
        specs.push_back(std::move(spec));
    const std::vector<JsonValue> docs =
        runExported(withExactLatency(std::move(specs)));

    const std::size_t suite = docs.size() / 2;
    TablePrinter table({"workload", "baseline RTT (cyc)",
                        "hdpat RTT (cyc)", "normalized",
                        "baseline p99", "hdpat p99", "p99 norm",
                        "traffic overhead"});
    std::vector<double> normalized;
    std::vector<double> normalized_p99;
    double traffic_sum = 0.0;
    for (std::size_t w = 0; w < suite; ++w) {
        const JsonValue &base = docs[w];
        const JsonValue &hdpat = docs[suite + w];
        const auto rtt = [](const JsonValue &doc) {
            return doc.at("summaries").at("gpm.remote_rtt").at("mean")
                .asNumber();
        };
        const auto p99 = [](const JsonValue &doc) {
            return doc.at("latency").at("end_to_end").at("quantiles")
                .at("p99").asUint();
        };
        const auto byte_hops = [](const JsonValue &doc) {
            return static_cast<double>(
                doc.at("counters").at("noc.byte_hops").asUint());
        };
        const double b = rtt(base);
        const double h = rtt(hdpat);
        const double norm = b > 0.0 ? h / b : 1.0;
        if (b > 0.0)
            normalized.push_back(norm);
        const std::uint64_t b99 = p99(base);
        const std::uint64_t h99 = p99(hdpat);
        const double norm99 =
            b99 ? static_cast<double>(h99) / static_cast<double>(b99)
                : 1.0;
        if (b99)
            normalized_p99.push_back(norm99);
        const double traffic = byte_hops(hdpat) / byte_hops(base) - 1.0;
        traffic_sum += traffic;
        table.addRow({base.at("run").at("workload").asString(),
                      fmt(b, 0), fmt(h, 0), fmt(norm),
                      std::to_string(b99), std::to_string(h99),
                      fmt(norm99), fmtPct(traffic)});
    }
    table.addRow({"MEAN", "-", "-", fmt(geomean(normalized)), "-", "-",
                  fmt(geomean(normalized_p99)),
                  fmtPct(traffic_sum / static_cast<double>(suite))});
    table.print(std::cout);
    std::cout << "\nnormalized < 1.0 means HDPAT responds faster; the "
                 "paper reports a 41% average saving.\n";
}

struct Cell
{
    Tick totalTicks = 0;
    std::uint64_t pagesChurned = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t staleInstallsBlocked = 0;
};

/**
 * Run one tenant-churn cell on PR, export its metrics JSON under
 * HDPAT_TENANT_CHURN_DIR (the dumps stay on disk for perf_snapshot.sh
 * and hdpat_diff), and read it back.
 */
Cell
runCell(const SystemConfig &cfg, const TranslationPolicy &pol,
        std::size_t ops, std::uint32_t tenants,
        std::uint64_t switch_rate, std::uint64_t churn_rate)
{
    std::ostringstream path;
    path << envRunOptions().tenantChurnDir << "/fig_tenant_churn."
         << pol.name << ".t" << tenants << ".s" << switch_rate << ".json";

    RunSpec spec = suiteSpecs(cfg, pol, ops, {"PR"})[0];
    spec.tenancy = TenancySpec{};
    spec.tenancy.asidCount = tenants;
    spec.tenancy.switchRatePerMTicks = switch_rate;
    spec.tenancy.churnRatePerMTicks = churn_rate;
    spec.obs.metricsJsonPath = path.str();
    runOnce(spec);

    const JsonValue doc = parseJsonFileOrDie(path.str());
    const JsonValue &counters = doc.at("counters");
    const auto counter = [&counters](const char *name) {
        const JsonValue *v = counters.find(name);
        return v ? v->asUint() : 0;
    };
    Cell cell;
    cell.totalTicks = doc.at("run").at("total_ticks").asUint();
    cell.pagesChurned = counter("tenancy.pages_churned");
    cell.pageFaults = counter("iommu.page_faults");
    cell.staleInstallsBlocked = counter("gpm.stale_installs_blocked");
    return cell;
}

/**
 * The multi-tenant serving regime: tenant count x context-switch rate
 * at a fixed page-churn rate, each cell's slowdown against the same
 * policy's single-tenant, zero-churn run, built from the exported
 * tenancy counters.
 */
void
tenantChurn(std::size_t ops)
{
    const SystemConfig cfg = SystemConfig::mi100();

    // Fixed churn: pages are unmapped and shot down throughout; the
    // swept dimension is how often the wafer changes address space.
    constexpr std::uint64_t kChurnRate = 100;
    const std::uint32_t tenant_counts[] = {2, 4, 8};
    const std::uint64_t switch_rates[] = {0, 200, 1000};

    for (const TranslationPolicy &pol :
         {TranslationPolicy::baseline(), TranslationPolicy::hdpat()}) {
        const Cell ref = runCell(cfg, pol, ops, 1, 0, 0);

        TablePrinter table({"tenants", "switch=0/Mt", "switch=200/Mt",
                            "switch=1000/Mt"});
        for (const std::uint32_t tenants : tenant_counts) {
            Cells row = {std::to_string(tenants)};
            for (const std::uint64_t rate : switch_rates) {
                const Cell cell =
                    runCell(cfg, pol, ops, tenants, rate, kChurnRate);
                const double slowdown =
                    static_cast<double>(cell.totalTicks) /
                    static_cast<double>(ref.totalTicks);
                std::ostringstream os;
                os << fmt(slowdown) << "x (" << cell.pagesChurned
                   << " churned, " << cell.pageFaults << " faults, "
                   << cell.staleInstallsBlocked << " stale blocked)";
                row.push_back(os.str());
            }
            table.addRow(row);
        }
        std::cout << "policy: " << pol.name << " (reference "
                  << ref.totalTicks << " ticks single-tenant; churn "
                  << kChurnRate << "/Mtick in every swept cell)\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "cells are slowdown vs the same policy's "
                 "single-tenant run; dumps in "
              << envRunOptions().tenantChurnDir << "\n";
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

/** The translation-heavy workloads the design-space ablations sweep. */
const std::vector<std::string> kHeavyWorkloads = {"SPMV", "PR", "FWS",
                                                  "FIR", "MM", "KM"};

TranslationPolicy
renamed(TranslationPolicy pol, std::string name)
{
    pol.name = std::move(name);
    return pol;
}

std::vector<Figure>
figures()
{
    const SystemConfig mi100 = SystemConfig::mi100();
    const TranslationPolicy baseline = TranslationPolicy::baseline();
    const TranslationPolicy hdpat = TranslationPolicy::hdpat();

    // Fig 2: the two idealized IOMMUs.
    SystemConfig fast_walks = mi100;
    fast_walks.iommuWalkLatency = 1;
    fast_walks.name = "ideal-1cyc-16walkers";
    SystemConfig many_walkers = mi100;
    many_walkers.iommuWalkers = 4096;
    many_walkers.iommuPwQueueCapacity = 8192;
    many_walkers.name = "ideal-500cyc-4096walkers";

    // Fig 15: one technique at a time, then all of them.
    const std::vector<TranslationPolicy> techniques = {
        TranslationPolicy::routeCaching(),
        TranslationPolicy::concentricCaching(),
        TranslationPolicy::distributedCaching(),
        TranslationPolicy::clusterRotation(),
        TranslationPolicy::withRedirection(),
        TranslationPolicy::withPrefetch(), hdpat};
    std::vector<Variant> fig15_variants = {{mi100, baseline}};
    std::vector<Column> fig15_columns;
    for (const TranslationPolicy &pol : techniques) {
        fig15_variants.emplace_back(mi100, pol);
        fig15_columns.push_back(
            speedupOf(pol.name, fig15_variants.size() - 1));
    }

    // Fig 18: PTEs delivered per walk.
    std::vector<Variant> fig18_variants = {{mi100, baseline}};
    for (const int degree : {1, 4, 8}) {
        TranslationPolicy pol =
            renamed(hdpat, "hdpat-deg" + std::to_string(degree));
        pol.prefetchDegree = degree;
        pol.prefetch = degree > 1;
        fig18_variants.emplace_back(mi100, pol);
    }

    // Fig 20: every page size against the 4KB baseline.
    std::vector<VariantRow> page_sizes;
    for (const PageSizePoint &point : pageSizeSweep()) {
        SystemConfig cfg = mi100;
        cfg.pageShift = point.pageShift;
        cfg.name = "MI100-" + point.label;
        page_sizes.push_back({{point.label}, {{cfg, baseline}, {cfg, hdpat}}});
    }

    // Fig 21: HDPAT against each generation's own baseline.
    std::vector<VariantRow> generations;
    for (const SystemConfig &cfg : gpuGenerationConfigs())
        generations.push_back({{cfg.name}, {{cfg, baseline}, {cfg, hdpat}}});

    // abl_rotation_clusters: rotation off then on, per cluster count.
    std::vector<VariantRow> clusterings;
    for (const int clusters : {2, 4, 8}) {
        VariantRow row{{std::to_string(clusters)}, {}};
        for (const bool rotate : {false, true}) {
            TranslationPolicy pol =
                renamed(hdpat, "hdpat-c" + std::to_string(clusters) +
                                   (rotate ? "-rot" : "-norot"));
            pol.numClusters = clusters;
            pol.rotation = rotate;
            row.variants.emplace_back(mi100, pol);
        }
        clusterings.push_back(std::move(row));
    }

    // abl_capacity: PW-queue sizes under Barre (queue revisit is what
    // it bounds), redirection-table sizes under full HDPAT.
    std::vector<VariantRow> pw_queues, rt_sizes;
    for (const std::size_t capacity : {16, 64, 256, 1024}) {
        SystemConfig cfg = mi100;
        cfg.iommuPwQueueCapacity = capacity;
        pw_queues.push_back({{std::to_string(capacity)},
                             {{cfg, baseline},
                              {cfg, TranslationPolicy::barre()}}});
    }
    for (const std::size_t entries : {128, 512, 1024, 4096}) {
        SystemConfig cfg = mi100;
        cfg.redirectionTableEntries = entries;
        rt_sizes.push_back(
            {{std::to_string(entries)}, {{cfg, baseline}, {cfg, hdpat}}});
    }

    // abl_layers_threshold: C with the caching GPMs its rings hold,
    // then the auxiliary push threshold.
    std::vector<VariantRow> layer_counts, thresholds;
    for (const auto &[layers, caching_gpms] :
         {std::pair{1, 8}, std::pair{2, 24}, std::pair{3, 48}}) {
        TranslationPolicy pol =
            renamed(hdpat, "hdpat-C" + std::to_string(layers));
        pol.concentricLayers = layers;
        layer_counts.push_back(
            {{std::to_string(layers), std::to_string(caching_gpms)},
             {{mi100, pol}}});
    }
    for (const unsigned threshold : {1u, 2u, 4u, 8u}) {
        TranslationPolicy pol =
            renamed(hdpat, "hdpat-t" + std::to_string(threshold));
        pol.auxPushThreshold = threshold;
        thresholds.push_back({{std::to_string(threshold)}, {{mi100, pol}}});
    }

    // abl_pwc and abl_probe_dispatch.
    SystemConfig with_pwc = mi100;
    with_pwc.iommuPwcEntriesPerLevel = 256;
    with_pwc.gmmuPwcEntriesPerLevel = 64;
    with_pwc.name = "MI100-7x7+PWC";

    TranslationPolicy sequential = renamed(hdpat, "hdpat-sequential");
    sequential.concurrentProbes = false;

    return {
        {.id = "tab1_config",
         .figure = "Table I",
         .what = "wafer-scale GPU configuration",
         .claim = "the MI100-derived configuration of Table I",
         .body = tab1},
        {.id = "tab2_workloads",
         .figure = "Table II",
         .what = "benchmark suite metadata",
         .claim = "14 benchmarks from Hetero-Mark / AMDAPPSDK / SHOC / "
                  "DNNMark with the listed footprints",
         .body = tab2},
        {.id = "tab3_area_power",
         .figure = "Sec V-F",
         .what = "redirection table area/power overhead",
         .claim = "RT: 0.034 mm^2, 0.16 W; 0.02% area and 0.09% power "
                  "of an AMD Ryzen 9 CPU die",
         .body = tab3},
        {.id = "fig02_headroom",
         .figure = "Fig 2",
         .what = "idealized-IOMMU headroom analysis",
         .claim = "ideal IOMMUs deliver 5.45x (1-cycle) and 4.96x (4096 "
                  "walkers) average speedup over the baseline",
         .variants = {{mi100, baseline},
                      {fast_walks, baseline},
                      {many_walkers, baseline}},
         .columns = {{"baseline (cyc)",
                      {},
                      [](const Grid &g, std::size_t w) {
                          return std::to_string(g[0][w].totalTicks);
                      }},
                     speedupOf("1cyc/16walkers", 1),
                     speedupOf("500cyc/4096walkers", 2)},
         .note = text("\nBoth idealizations remove the dominating "
                      "queueing time, so their speedups are similar "
                      "(paper's observation O1).\n")},
        {.id = "fig03_latency_breakdown",
         .figure = "Fig 3",
         .what = "IOMMU translation latency breakdown (SPMV)",
         .claim = "pre-queue delay is the largest component, driven by a "
                  "persistent backlog of requests waiting for walkers",
         .body = fig03},
        {.id = "fig04_buffer_pressure",
         .figure = "Fig 4",
         .what = "IOMMU buffer pressure: MCM-GPU vs wafer-scale (SPMV)",
         .claim = "the 48-GPM wafer sustains a backlog of ~700 requests "
                  "while the 4-GPM MCM stays near zero",
         .body = fig04},
        {.id = "fig05_position_imbalance",
         .figure = "Fig 5",
         .what = "GPM execution-time imbalance by wafer position",
         .claim = "centrally located GPMs consistently finish earlier; "
                  "the gap comes from translation and remote-access "
                  "distance",
         .opsFraction = 0.05,
         .body = fig05},
        {.id = "fig06_translation_counts",
         .figure = "Fig 6",
         .what = "per-page IOMMU translation count distribution",
         .claim = "AES and RELU translate each page once; BT/FWT and "
                  "others repeat, motivating caching",
         .opsFraction = 0.5,
         .body = fig06},
        {.id = "fig07_reuse_distance",
         .figure = "Fig 7",
         .what = "reuse distance between repeated translations",
         .claim = "distances range from a few requests to hundreds of "
                  "thousands, so LRU set-associative caching alone "
                  "cannot capture reuse",
         .opsFraction = 0.5,
         .body = fig07},
        {.id = "fig08_spatial_locality",
         .figure = "Fig 8",
         .what = "VPN distance between consecutive IOMMU requests",
         .claim = "10%-30% of next requests target pages within a small "
                  "distance of the current one, especially AES/FWS/MM",
         .opsFraction = 0.5,
         .body = fig08},
        {.id = "fig13_size_invariance",
         .figure = "Fig 13",
         .what = "FIR IOMMU request rate over time vs problem size",
         .claim = "IOMMU pressure is steady and size-invariant, so small "
                  "configurations are representative",
         .body = fig13},
        {.id = "fig14_overall",
         .figure = "Fig 14",
         .what = "overall performance vs state-of-the-art",
         .claim = "HDPAT achieves 1.57x on average; Trans-FW/Valkyrie/"
                  "Barre are modest because remote requests still "
                  "burden the IOMMU",
         .variants = {{mi100, baseline},
                      {mi100, TranslationPolicy::transFw()},
                      {mi100, TranslationPolicy::valkyrie()},
                      {mi100, TranslationPolicy::barre()},
                      {mi100, hdpat}},
         .columns = {speedupOf("trans-fw", 1), speedupOf("valkyrie", 2),
                     speedupOf("barre", 3), speedupOf("hdpat", 4)}},
        {.id = "fig15_ablation",
         .figure = "Fig 15",
         .what = "ablation of HDPAT techniques",
         .claim = "route/concentric ~ no gain; distributed 1.08x; "
                  "cluster+rotation 1.13x; +redirection 1.18x; "
                  "+prefetch 1.17x; full HDPAT 1.57x",
         .opsFraction = 0.67,
         .variants = fig15_variants,
         .columns = fig15_columns},
        {.id = "fig16_breakdown",
         .figure = "Fig 16",
         .what = "translation-handling breakdown under HDPAT",
         .claim = "HDPAT offloads 42.1% of translations from the IOMMU; "
                  "PR's peer share is the largest, MT leans on the IOMMU",
         .body = fig16},
        {.id = "fig17_response_time",
         .figure = "Fig 17",
         .what = "remote translation round-trip time + NoC overhead",
         .claim = "HDPAT cuts response time 41% on average and adds only "
                  "0.82% NoC traffic",
         .body = fig17},
        {.id = "fig18_prefetch_degree",
         .figure = "Fig 18",
         .what = "proactive delivery granularity sweep",
         .claim = "1/4/8 PTEs deliver 1.40x/1.57x/1.59x on average; gains "
                  "saturate at 4 (HDPAT's default); BT and MT improve "
                  "<10%",
         .opsFraction = 0.67,
         .variants = fig18_variants,
         .columns = {speedupOf("1 PTE", 1), speedupOf("4 PTEs", 2),
                     speedupOf("8 PTEs", 3)},
         .note =
             [](const Grid &g) {
                 return "\nmarginal gain of 8 over 4 PTEs: " +
                        fmtPct(geomeanSpeedup(g[0], g[3]) /
                                   geomeanSpeedup(g[0], g[2]) -
                               1.0) +
                        " (paper: 1.91% -- why HDPAT adopts 4)\n";
             }},
        {.id = "fig19_rt_vs_tlb",
         .figure = "Fig 19",
         .what = "redirection table vs equal-area IOMMU TLB",
         .claim = "the redirection table is 1.27x faster than a "
                  "conventional TLB of the same area",
         .opsFraction = 0.67,
         .variants = {{mi100, baseline},
                      {mi100, hdpat},
                      {mi100, TranslationPolicy::hdpatWithIommuTlb()}},
         .columns = {speedupOf("hdpat+RT", 1), speedupOf("hdpat+TLB", 2),
                     {"RT advantage",
                      [](const Grid &g, std::size_t w) {
                          return speedupOver(g[0][w], g[1][w]) /
                                 speedupOver(g[0][w], g[2][w]);
                      },
                      {}}}},
        {.id = "fig20_page_size",
         .figure = "Fig 20",
         .what = "page-size sensitivity (geometric mean)",
         .claim = "larger pages help the baseline; HDPAT maintains ~50% "
                  "advantage across all page sizes",
         .opsFraction = 0.5,
         .variants = {{mi100, baseline}},
         .tables = {{{"page size", "baseline", "hdpat", "hdpat advantage"},
                     page_sizes,
                     [](const Grid &g, std::size_t i) {
                         const double base = geomeanSpeedup(g[0], g[i]);
                         const double hdpat = geomeanSpeedup(g[0], g[i + 1]);
                         return Cells{times(base), times(hdpat),
                                      times(hdpat / base)};
                     }}},
         .note = text("\n(all values normalized to the 4KB baseline)\n")},
        {.id = "fig21_gpu_generations",
         .figure = "Fig 21",
         .what = "HDPAT across GPU-generation configurations",
         .claim = "1.57x on MI100; 1.47x/1.50x on MI200/MI300; "
                  "larger-memory H100/H200 reach 2.52x/2.36x",
         .opsFraction = 0.5,
         .tables = {{{"configuration", "hdpat G-MEAN speedup"},
                     generations,
                     [](const Grid &g, std::size_t i) {
                         return Cells{gmean(g, i, i + 1)};
                     }}}},
        {.id = "fig22_wafer_7x12",
         .figure = "Fig 22",
         .what = "HDPAT on the 7x12 wafer (83 GPMs)",
         .claim = "all workloads improve; geometric mean 1.49x",
         .opsFraction = 0.67,
         .variants = {{SystemConfig::mi100Wafer7x12(), baseline},
                      {SystemConfig::mi100Wafer7x12(), hdpat}},
         .columns = {speedupOf("speedup", 1),
                     {"offloaded",
                      {},
                      [](const Grid &g, std::size_t w) {
                          return fmtPct(g[1][w].offloadedFraction());
                      }}}},
        {.id = "fig_tenant_churn",
         .figure = "fig_tenant_churn",
         .what = "tenant count x switch rate degradation",
         .claim = "not in the paper -- the ROADMAP's serving-regime "
                  "extension: entries die young under churn, so "
                  "distributed caching's advantage over the central "
                  "IOMMU narrows",
         .opsFraction = 0.25,
         .body = tenantChurn},
        {.id = "abl_rotation_clusters",
         .figure = "Ablation: clustering + rotation",
         .what = "rotation on/off x cluster count, geometric mean speedup",
         .claim = "the paper argues quadrant clustering with 180-degree "
                  "rotation keeps a cached copy near every requester",
         .opsFraction = 0.5,
         .workloads = kHeavyWorkloads,
         .variants = {{mi100, baseline}},
         .tables = {{{"clusters", "rotation off", "rotation on"},
                     clusterings,
                     [](const Grid &g, std::size_t i) {
                         return Cells{gmean(g, 0, i), gmean(g, 0, i + 1)};
                     }}},
         .note = text("\n(geomean over " +
                      std::to_string(kHeavyWorkloads.size()) +
                      " translation-heavy workloads)\n")},
        {.id = "abl_probe_dispatch",
         .figure = "Ablation: probe dispatch",
         .what = "concurrent layer probes vs sequential inward chaining",
         .claim = "the paper chooses concurrent dispatch so a nearby "
                  "layer can answer without waiting for inner-layer "
                  "misses",
         .opsFraction = 0.5,
         .workloads = kHeavyWorkloads,
         .variants = {{mi100, baseline}, {mi100, hdpat}, {mi100, sequential}},
         .columns = {speedupOf("concurrent", 1), speedupOf("sequential", 2),
                     {"concurrent RTT",
                      {},
                      [](const Grid &g, std::size_t w) {
                          return fmt(g[1][w].remoteRtt.mean(), 0);
                      }},
                     {"sequential RTT",
                      {},
                      [](const Grid &g, std::size_t w) {
                          return fmt(g[2][w].remoteRtt.mean(), 0);
                      }}}},
        {.id = "abl_capacity",
         .figure = "Ablation: IOMMU structure capacities",
         .what = "PW-queue size (Barre's limiter) and redirection-table "
                 "size",
         .claim = "\"the size of the PW-queue limits [Barre's] "
                  "performance improvement\"; the RT is sized 1024 "
                  "entries",
         .opsFraction = 0.5,
         .workloads = {"SPMV", "PR", "MT", "FWS", "KM"},
         .tables = {{{"PW-queue capacity", "barre G-MEAN",
                      "revisit completions (SPMV)"},
                     pw_queues,
                     [](const Grid &g, std::size_t i) {
                         const auto &spmv = g[i + 1][0].iommu;
                         return Cells{
                             gmean(g, i, i + 1),
                             std::to_string(spmv.revisitCompletions)};
                     }},
                    {{"RT entries", "hdpat G-MEAN", "redirects sent (SPMV)"},
                     rt_sizes,
                     [](const Grid &g, std::size_t i) {
                         const auto &spmv = g[i + 1][0].iommu;
                         return Cells{gmean(g, i, i + 1),
                                      std::to_string(spmv.redirectsSent)};
                     }}}},
        {.id = "abl_layers_threshold",
         .figure = "Ablation: layer count C and push threshold",
         .what = "C in {1, 2, 3}; auxiliary push threshold in {1, 2, 4, 8}",
         .claim = "the paper defaults to C=2 (\"one step away from the "
                  "border\") and a selective push threshold on PTE "
                  "access counts",
         .opsFraction = 0.5,
         .workloads = kHeavyWorkloads,
         .variants = {{mi100, baseline}},
         .tables = {{{"C (caching layers)", "caching GPMs", "hdpat G-MEAN"},
                     layer_counts,
                     [](const Grid &g, std::size_t i) {
                         return Cells{gmean(g, 0, i)};
                     }},
                    {{"push threshold", "hdpat G-MEAN",
                      "pushes sent (SPMV)"},
                     thresholds,
                     [](const Grid &g, std::size_t i) {
                         return Cells{gmean(g, 0, i),
                                      std::to_string(
                                          g[i][0].iommu.pushesSent)};
                     }}}},
        {.id = "abl_pwc",
         .figure = "Ablation: page-walk caches",
         .what = "baseline/HDPAT with and without PWCs at the walkers",
         .claim = "(extension beyond the paper) shorter walks raise "
                  "walker throughput, so a PWC is a strong complement to "
                  "HDPAT",
         .opsFraction = 0.5,
         .workloads = kHeavyWorkloads,
         .variants = {{mi100, baseline},
                      {with_pwc, baseline},
                      {mi100, hdpat},
                      {with_pwc, hdpat}},
         .columns = {speedupOf("baseline+PWC", 1), speedupOf("hdpat", 2),
                     speedupOf("hdpat+PWC", 3)},
         .note = text("\nA PWC shortens each walker's occupancy, which "
                      "multiplies the 16-walker pool's service rate -- a "
                      "strong optimization on its own. HDPAT composes "
                      "with it: together they outperform either "
                      "alone.\n")},
    };
}

/** The bench-harness rows: --jobs and the op-count scale. */
std::vector<OptionRow>
benchRows(RunOptions &target)
{
    std::vector<OptionRow> rows = runOptionRows(target);
    std::erase_if(rows, [](const OptionRow &r) { return !r.inBenches; });
    return rows;
}

void
printBanner(const Figure &f)
{
    RunOptions unused;
    const std::vector<OptionRow> rows = benchRows(unused);
    const auto flagged = [](const OptionRow &r) { return r.flag; };
    const OptionRow &jobs = *std::find_if(rows.begin(), rows.end(), flagged);
    const OptionRow &scale =
        *std::find_if_not(rows.begin(), rows.end(), flagged);
    std::printf("==============================================================\n");
    std::printf("%s -- %s\n", f.figure.c_str(), f.what.c_str());
    std::printf("paper reports: %s\n", f.claim.c_str());
    std::printf("(scale op counts with %s or argv[1]; parallelize with %s "
                "N or %s)\n",
                scale.env, jobs.flag, jobs.env);
    std::printf("==============================================================\n\n");
}

/**
 * Ops per GPM: @p fraction of the default (scaled by benchScale(),
 * floored at 500), or the one positional argument. Also applies
 * `--jobs N` via setDefaultJobs. A malformed argument exits 1.
 */
std::size_t
benchOps(int argc, char **argv, double fraction)
{
    RunOptions options = envRunOptions();
    const std::size_t ops = orExit([&]() -> std::size_t {
        const auto args = parseArgs(argc, argv, benchRows(options), 1);
        return args.empty() ? 0 : parseOpsPerGpm(args[0]);
    });
    setDefaultJobs(options.jobs);
    if (ops > 0)
        return ops;
    const double scaled =
        static_cast<double>(defaultOpsPerGpm()) * fraction;
    return static_cast<std::size_t>(scaled < 500.0 ? 500.0 : scaled);
}

} // namespace

int
runFigure(const std::string &id, int argc, char **argv)
{
    const std::vector<Figure> table = figures();
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const Figure &f) { return f.id == id; });
    hdpat_fatal_if(it == table.end(), "no figure row '" << id << "'");
    const Figure &f = *it;

    printBanner(f);
    const std::size_t ops = benchOps(argc, argv, f.opsFraction);
    if (f.body) {
        f.body(ops);
        return 0;
    }
    const Grid grid = f.columns.empty() ? printVariantTables(f, ops)
                                        : printWorkloadTable(f, ops);
    if (f.note)
        std::cout << f.note(grid);
    return 0;
}

} // namespace hdpat::bench
