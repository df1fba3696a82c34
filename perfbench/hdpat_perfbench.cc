/**
 * @file
 * hdpat_perfbench: the measuring half of the benchmark.
 *
 * Runs one named workload -- a fixed list of simulations -- through the
 * public System API and times every call from outside the library:
 * System::System, WorkloadStreamCache::get, System::loadWorkload,
 * System::run and ~System. Load is a closed loop on one thread: each
 * simulation starts after the previous one ends. Simulated TLBs,
 * filters and caches start empty, as in every user run, and every
 * repetition uses a fresh WorkloadStreamCache, so it pays the same cold
 * stream generation as a fresh fig14_overall process.
 *
 * One untimed warm-up repetition runs first. With --trace 0 the
 * repetitions that follow are untraced; with --trace 1 untraced and
 * traced (profiler + backpressure) repetitions alternate, and after
 * each traced one the two halves of loadWorkload are replayed on a
 * throwaway System to split load time into allocation and filter
 * seeding.
 *
 * Output is one JSON object per line on stdout ("plan", "sim", "rep",
 * "replay", "end"); perfbench/run.py turns them into metrics and
 * checks the simulation digests.
 *
 * Usage: hdpat_perfbench --workload NAME --seed N --seconds S
 *                        --trace 0|1
 * where N is the simulator's workload seed (run.py maps the benchmark
 * seed onto its pool of vetted seeds).
 */

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "driver/system.hh"
#include "obs/json_writer.hh"
#include "workloads/stream_cache.hh"
#include "workloads/suite.hh"

using namespace hdpat;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One simulation of a workload, resolved from the benchmark's spec. */
struct SimSpec
{
    SystemConfig cfg;
    TranslationPolicy pol;
    std::string workload;
    std::size_t ops = 0;
    TenancySpec tenancy;
};

/** MI100 tiles on a @p width x @p height wafer. */
SystemConfig
wafer(int width, int height)
{
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = width;
    cfg.meshHeight = height;
    return cfg;
}

/** The simulations of workload @p name (empty when unknown). */
std::vector<SimSpec>
workloadSims(const std::string &name)
{
    std::vector<SimSpec> sims;
    if (name == "fig14-sweep") {
        // Policy-major, like fig14_overall's runSuiteGrid.
        for (const TranslationPolicy &pol :
             {TranslationPolicy::baseline(), TranslationPolicy::transFw(),
              TranslationPolicy::valkyrie(), TranslationPolicy::barre(),
              TranslationPolicy::hdpat()}) {
            for (const std::string &abbr : workloadAbbrs())
                sims.push_back({wafer(7, 7), pol, abbr, 300, {}});
        }
    } else if (name == "pr-12x7") {
        sims.push_back(
            {wafer(12, 7), TranslationPolicy::hdpat(), "PR", 12000, {}});
    } else if (name == "mm-12x7") {
        sims.push_back(
            {wafer(12, 7), TranslationPolicy::hdpat(), "MM", 12000, {}});
    } else if (name == "mm-churn") {
        TenancySpec tenancy;
        tenancy.asidCount = 4;
        tenancy.switchRatePerMTicks = 5000;
        tenancy.churnRatePerMTicks = 20000;
        sims.push_back({wafer(7, 7), TranslationPolicy::hdpat(), "MM",
                        12000, tenancy});
    }
    return sims;
}

/** The backpressure totals run.py reads, summed over a name filter. */
struct PressureSum
{
    std::uint64_t count = 0, departures = 0, atCapacityTicks = 0;
};

PressureSum
pressure(const BackpressureSnapshot &snap, std::string_view prefix,
         std::string_view suffix)
{
    PressureSum sum;
    for (const ResourcePressure &r : snap.resources) {
        const std::string_view n = r.name;
        if (n.size() < prefix.size() + suffix.size() ||
            n.substr(0, prefix.size()) != prefix ||
            n.substr(n.size() - suffix.size()) != suffix)
            continue;
        ++sum.count;
        sum.departures += r.departures;
        sum.atCapacityTicks += r.atCapacityTicks;
    }
    return sum;
}

void
writeSummary(JsonWriter &w, const std::string &key, const SummaryStat &s)
{
    w.key(key).beginObject();
    w.field("sum", s.sum()).field("count", s.count());
    w.endObject();
}

/**
 * The exact simulated outcome of one run: the digest every repetition,
 * pass and build must reproduce.
 */
void
writeDigest(JsonWriter &w, System &sys, const RunResult &r)
{
    w.key("digest").beginObject();
    w.field("ticks", static_cast<std::uint64_t>(r.totalTicks));
    w.field("ops", r.opsTotal);
    w.key("sources").beginArray();
    for (std::uint64_t c : r.sourceCounts)
        w.value(c);
    w.endArray();
    w.field("walks", r.iommu.walksCompleted);
    w.field("events", sys.engine().executedEvents());
    w.endObject();
}

/** Per-layer counts of a traced run (profiler + backpressure on). */
void
writeLayers(JsonWriter &w, System &sys, const RunResult &r)
{
    const BackpressureSnapshot &bp = r.backpressure;
    std::uint64_t cuckoo_lookups = 0, cuckoo_positives = 0,
                  cuckoo_inserts = 0, ll_lookups = 0, ll_hits = 0;
    SummaryStat gmmu_wait;
    for (std::size_t i = 0; i < sys.numGpms(); ++i) {
        Gpm &g = sys.gpm(i);
        cuckoo_lookups += g.cuckooFilter().stats().lookups;
        cuckoo_positives += g.cuckooFilter().stats().positives;
        cuckoo_inserts += g.cuckooFilter().stats().inserts;
        ll_lookups += g.lastLevelTlb().stats().lookups;
        ll_hits += g.lastLevelTlb().stats().hits;
        gmmu_wait.merge(g.gmmu().stats().queueWait);
    }
    const PressureSum stalled = pressure(bp, "gpm.t", ".stalled_remote");
    const PressureSum mshr = pressure(bp, "gpm.t", ".remote_mshr");
    const PressureSum walkers = pressure(bp, "iommu.walkers", "");

    w.key("layers").beginObject();
    w.key("profile").beginObject();
    for (std::size_t i = 0; i < kNumProfSections; ++i) {
        const auto &s = r.profile.sections[i];
        w.key(profSectionName(static_cast<ProfSection>(i))).beginObject();
        w.field("calls", s.calls).field("nanos", s.nanos);
        w.endObject();
    }
    w.endObject();
    w.field("pending_events_hwm", static_cast<std::uint64_t>(
                                      sys.engine().pendingEventsHighWater()));
    w.field("bp_ticks", static_cast<std::uint64_t>(bp.totalTicks));
    w.field("little_violations", bp.littleViolations);
    w.field("cuckoo_lookups", cuckoo_lookups);
    w.field("cuckoo_positives", cuckoo_positives);
    w.field("cuckoo_inserts", cuckoo_inserts);
    w.field("cuckoo_false_positives", r.cuckooFalsePositives);
    w.field("ll_tlb_lookups", ll_lookups).field("ll_tlb_hits", ll_hits);
    w.field("l1_tlb_hits", r.l1TlbHits);
    w.field("stall_rescans", stalled.departures);
    w.field("remote_stalls",
            sys.metrics().counterValue("gpm.remote_stalls"));
    w.field("remote_ops", r.remoteOps);
    w.field("remote_mshrs", mshr.count);
    w.field("remote_mshr_at_capacity_ticks", mshr.atCapacityTicks);
    writeSummary(w, "gmmu_queue_wait", gmmu_wait);
    w.field("probes_received", r.probesReceivedTotal);
    w.field("probe_hits", r.probeHitsTotal);
    w.field("iommu_mshr_merges", r.iommu.mshrMerges);
    w.field("iommu_walkers_at_capacity_ticks", walkers.atCapacityTicks);
    writeSummary(w, "pw_queue_latency", r.iommu.pwQueueLatency);
    w.field("page_faults", r.iommu.pageFaults);
    w.field("noc_packets", r.noc.packets);
    writeSummary(w, "link_wait", r.noc.linkWait);
    const TenantScheduler *ten = sys.tenancy();
    w.field("context_switches", r.contextSwitches);
    w.field("pages_churned", r.pagesChurned);
    w.field("invalidations",
            ten ? sys.metrics().counterValue("gpm.invalidations_received")
                : std::uint64_t{0});
    w.field("shootdown_rounds",
            ten ? ten->stats().shootdownsDirected +
                      ten->stats().shootdownsBroadcast
                : std::uint64_t{0});
    w.endObject();
}

/**
 * Run simulation @p index of the workload once and return its "sim"
 * record. Only the five public calls are inside the timed spans.
 */
std::string
runSim(const SimSpec &spec, std::size_t index, std::uint64_t seed,
       WorkloadStreamCache &cache, bool traced, const char *pass,
       std::size_t rep)
{
    const auto t0 = Clock::now();
    auto sys = std::make_unique<System>(spec.cfg, spec.pol);
    const auto t1 = Clock::now();
    // Before loadWorkload: per-ASID allocation needs the spec, and the
    // observers must see the load (same order as runOnce).
    if (spec.tenancy.enabled())
        sys->enableTenancy(spec.tenancy);
    if (traced) {
        sys->enableBackpressure();
        sys->enableProfiler();
    }
    const auto t2 = Clock::now();
    std::unique_ptr<Workload> wl = makeWorkload(spec.workload, 1.0);
    std::shared_ptr<const StreamTable> streams = cache.get(
        StreamKey{spec.workload, 1.0, spec.ops, seed, sys->numGpms(),
                  spec.cfg.pageShift, spec.tenancy.asidCount});
    const auto t3 = Clock::now();
    sys->loadWorkload(*wl, spec.ops, seed, std::move(streams));
    const auto t4 = Clock::now();
    RunResult result = sys->run();
    const auto t5 = Clock::now();

    std::ostringstream line;
    JsonWriter w(line);
    w.beginObject();
    w.field("type", "sim").field("pass", pass);
    w.field("rep", static_cast<std::uint64_t>(rep));
    w.field("index", static_cast<std::uint64_t>(index));
    w.field("construct_s", secondsBetween(t0, t1));
    w.field("streams_s", secondsBetween(t2, t3));
    w.field("load_s", secondsBetween(t3, t4));
    w.field("run_s", secondsBetween(t4, t5));
    writeDigest(w, *sys, result);
    if (traced)
        writeLayers(w, *sys, result);

    const auto t6 = Clock::now();
    result = RunResult{};
    sys.reset();
    wl.reset();
    w.field("teardown_s", secondsBetween(t6, Clock::now()));
    w.endObject();
    return line.str();
}

/**
 * One repetition: every simulation of the workload in order, against a
 * fresh stream cache. Records are printed after the timed span.
 */
void
runRep(const std::vector<SimSpec> &sims, std::uint64_t seed, bool traced,
       const char *pass, std::size_t rep)
{
    std::vector<std::string> lines;
    lines.reserve(sims.size() + 1);
    std::uint64_t builds = 0, hits = 0;
    const auto start = Clock::now();
    {
        WorkloadStreamCache cache;
        for (std::size_t i = 0; i < sims.size(); ++i) {
            lines.push_back(
                runSim(sims[i], i, seed, cache, traced, pass, rep));
        }
        builds = cache.builds();
        hits = cache.hits();
    }
    const double wall = secondsBetween(start, Clock::now());

    std::ostringstream line;
    JsonWriter w(line);
    w.beginObject();
    w.field("type", "rep").field("pass", pass);
    w.field("rep", static_cast<std::uint64_t>(rep));
    w.field("wall_s", wall);
    w.field("stream_builds", builds).field("stream_hits", hits);
    w.endObject();
    lines.push_back(line.str());
    for (const std::string &l : lines)
        std::cout << l << '\n';
    std::cout.flush();
}

/**
 * Replay loadWorkload's two halves on a throwaway System through
 * public calls -- Workload::allocate once per address space, then
 * Gpm::seedLocalPages per GPM with pages bucketed by home via
 * forEachPage -- and print their host times.
 */
void
replayLoad(const std::vector<SimSpec> &sims, std::size_t rep)
{
    for (std::size_t i = 0; i < sims.size(); ++i) {
        const SimSpec &spec = sims[i];
        System sys(spec.cfg, spec.pol);
        std::unique_ptr<Workload> wl = makeWorkload(spec.workload, 1.0);
        GlobalPageTable &pt = sys.pageTable();

        const auto t0 = Clock::now();
        for (std::uint32_t asid = 0; asid < spec.tenancy.asidCount;
             ++asid) {
            pt.setActiveAsid(static_cast<Asid>(asid));
            wl->allocate(pt, sys.topology().gpmTiles());
        }
        pt.setActiveAsid(0);
        const auto t1 = Clock::now();
        std::unordered_map<TileId, std::vector<Vpn>> by_home;
        pt.forEachPage([&by_home](Vpn vpn, const Pte &pte) {
            by_home[pte.home].push_back(vpn);
        });
        for (std::size_t g = 0; g < sys.numGpms(); ++g) {
            auto it = by_home.find(sys.gpm(g).tile());
            if (it != by_home.end())
                sys.gpm(g).seedLocalPages(it->second);
        }
        const auto t2 = Clock::now();

        std::ostringstream line;
        JsonWriter w(line);
        w.beginObject();
        w.field("type", "replay");
        w.field("rep", static_cast<std::uint64_t>(rep));
        w.field("index", static_cast<std::uint64_t>(i));
        w.field("alloc_s", secondsBetween(t0, t1));
        w.field("cuckoo_seed_s", secondsBetween(t1, t2));
        w.endObject();
        std::cout << line.str() << '\n';
    }
    std::cout.flush();
}

void
printPlan(const std::string &name, const std::vector<SimSpec> &sims,
          std::uint64_t seed)
{
    std::ostringstream line;
    JsonWriter w(line);
    w.beginObject();
    w.field("type", "plan").field("workload", name);
    w.field("seed", seed);
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("compiler", PERFBENCH_COMPILER);
    w.key("sims").beginArray();
    for (const SimSpec &s : sims) {
        w.beginObject();
        w.field("mesh", std::to_string(s.cfg.meshWidth) + "x" +
                            std::to_string(s.cfg.meshHeight));
        w.field("policy", s.pol.name).field("workload", s.workload);
        w.field("ops_per_gpm", static_cast<std::uint64_t>(s.ops));
        w.field("tenants", static_cast<std::uint64_t>(s.tenancy.asidCount));
        w.field("switch_rate", s.tenancy.switchRatePerMTicks);
        w.field("churn_rate", s.tenancy.churnRatePerMTicks);
        w.field("tenancy_seed", s.tenancy.seed);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::cout << line.str() << std::endl;
}

int
usage(const std::string &why)
{
    std::cerr << "hdpat_perfbench: " << why
              << "\nusage: hdpat_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
}

/** Whole-string unsigned parse; false on any junk. */
bool
parseUint(const std::string &text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc{} && ptr == end;
}

} // namespace

int
main(int argc, char **argv)
{
    if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "hdpat_perfbench: refusing to measure a '"
                  << PERFBENCH_BUILD_TYPE
                  << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }

    std::string name;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            name = value;
        else if (flag == "--seed")
            have_seed = parseUint(value, seed);
        else if (flag == "--seconds")
            parseUint(value, seconds);
        else if (flag == "--trace")
            parseUint(value, trace);
        else
            return usage("unknown flag " + flag);
    }
    const std::vector<SimSpec> sims = workloadSims(name);
    if (sims.empty())
        return usage("unknown workload '" + name + "'");
    if (!have_seed)
        return usage("--seed expects an unsigned integer");
    if (seconds == 0 || trace > 1)
        return usage("--seconds must be a positive whole number and "
                     "--trace 0 or 1");

    printPlan(name, sims, seed);

    runRep(sims, seed, false, "warmup", 0);
    // Repeat while the next repetition, as long as the last one, still
    // ends within the budget: the run measures --seconds, not more.
    const auto start = Clock::now();
    const auto budget = std::chrono::seconds(seconds);
    for (std::size_t rep = 1;; ++rep) {
        const auto rep_start = Clock::now();
        runRep(sims, seed, false, "untraced", rep);
        if (trace) {
            runRep(sims, seed, true, "traced", rep);
            replayLoad(sims, rep);
        }
        const auto now = Clock::now();
        if (now - start + (now - rep_start) > budget)
            break;
    }

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    std::cout << "{\"type\":\"end\",\"peak_rss_kb\":" << usage_now.ru_maxrss
              << "}" << std::endl;
    return 0;
}
