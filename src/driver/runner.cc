#include "driver/runner.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/system.hh"
#include "obs/exporters.hh"
#include "sim/log.hh"
#include "workloads/suite.hh"

namespace hdpat
{

namespace
{

/** Heartbeat period when HDPAT_HEARTBEAT asks for "auto". */
constexpr Tick kAutoHeartbeatInterval = 2'000'000;

/** Spatial window when HDPAT_SPATIAL_CSV implies collection. */
constexpr std::int64_t kDefaultSpatialWindow = 100'000;

/** Accept "N" or "1/N"; anything unparsable keeps @p fallback. */
std::uint64_t
parseSampleSpec(const char *text, std::uint64_t fallback)
{
    if (!text || !*text)
        return fallback;
    std::string s(text);
    const auto slash = s.find('/');
    if (slash != std::string::npos)
        s = s.substr(slash + 1);
    const long long v = std::atoll(s.c_str());
    return v > 0 ? static_cast<std::uint64_t>(v) : fallback;
}

/** Boolean env flag: set and not "" / "0" means on. */
bool
envFlag(const char *name)
{
    const char *env = std::getenv(name);
    return env && *env && std::string(env) != "0";
}

} // namespace

ObsOptions
obsOptionsFromEnv()
{
    ObsOptions obs;
    if (const char *env = std::getenv("HDPAT_METRICS_JSON"))
        obs.metricsJsonPath = env;
    if (const char *env = std::getenv("HDPAT_TRACE_OUT"))
        obs.traceOutPath = env;
    obs.traceSampleN = parseSampleSpec(
        std::getenv("HDPAT_TRACE_SAMPLE"), obs.traceSampleN);
    if (const char *env = std::getenv("HDPAT_HEARTBEAT"))
        obs.heartbeatInterval = std::atoll(env);
    obs.audit = envFlag("HDPAT_AUDIT");
    if (const char *env = std::getenv("HDPAT_WATCHDOG"))
        obs.watchdogInterval = std::atoll(env);
    if (const char *env = std::getenv("HDPAT_SPATIAL"))
        obs.spatialWindow = std::atoll(env);
    if (const char *env = std::getenv("HDPAT_SPATIAL_CSV"))
        obs.spatialCsvPath = env;
    obs.profile = envFlag("HDPAT_PROFILE");
    obs.latency = envFlag("HDPAT_LATENCY");
    obs.latencySampleN = parseSampleSpec(
        std::getenv("HDPAT_LATENCY_SAMPLE"), obs.latencySampleN);
    if (const char *env = std::getenv("HDPAT_LATENCY_TOPK")) {
        const long long v = std::atoll(env);
        if (v > 0)
            obs.latencyTopK = static_cast<std::size_t>(v);
    }
    if (const char *env = std::getenv("HDPAT_LATENCY_REPORT"))
        obs.latencyReportPath = env;
    obs.backpressure = envFlag("HDPAT_BACKPRESSURE");
    if (const char *env = std::getenv("HDPAT_BACKPRESSURE_WINDOW"))
        obs.backpressureWindow = std::atoll(env);
    if (const char *env = std::getenv("HDPAT_BACKPRESSURE_REPORT"))
        obs.backpressureReportPath = env;
    return obs;
}

TenancySpec
tenancySpecFromEnv()
{
    TenancySpec tenancy;
    if (const char *env = std::getenv("HDPAT_TENANTS")) {
        const long long v = std::atoll(env);
        if (v > 0)
            tenancy.asidCount = static_cast<std::uint32_t>(v);
    }
    if (const char *env = std::getenv("HDPAT_SWITCH_RATE")) {
        const long long v = std::atoll(env);
        if (v > 0)
            tenancy.switchRatePerMTicks =
                static_cast<std::uint64_t>(v);
    }
    if (const char *env = std::getenv("HDPAT_CHURN_RATE")) {
        const long long v = std::atoll(env);
        if (v > 0)
            tenancy.churnRatePerMTicks = static_cast<std::uint64_t>(v);
    }
    if (const char *env = std::getenv("HDPAT_TENANCY_SEED")) {
        const long long v = std::atoll(env);
        if (v > 0)
            tenancy.seed = static_cast<std::uint64_t>(v);
    }
    return tenancy;
}

std::int64_t
ObsOptions::effectiveSpatialWindow() const
{
    if (spatialWindow > 0)
        return spatialWindow;
    return spatialCsvPath.empty() ? 0 : kDefaultSpatialWindow;
}

double
benchScale()
{
    static const double scale = [] {
        const char *env = std::getenv("HDPAT_BENCH_SCALE");
        if (!env)
            return 1.0;
        const double v = std::atof(env);
        return v > 0.0 ? v : 1.0;
    }();
    return scale;
}

std::size_t
defaultOpsPerGpm()
{
    return static_cast<std::size_t>(12000.0 * benchScale());
}

std::vector<std::string>
validationErrors(const RunSpec &spec)
{
    std::vector<std::string> errors = spec.config.validationErrors();
    for (std::string &e : spec.policy.validationErrors())
        errors.push_back(std::move(e));

    const auto abbrs = workloadAbbrs();
    if (std::find(abbrs.begin(), abbrs.end(), spec.workload) ==
        abbrs.end()) {
        errors.push_back("workload '" + spec.workload +
                         "' is not in the Table II suite");
    }
    if (!(spec.footprintScale > 0.0)) {
        std::ostringstream oss;
        oss << "footprintScale must be positive (got "
            << spec.footprintScale << ")";
        errors.push_back(oss.str());
    }
    for (std::string &e : spec.tenancy.validationErrors())
        errors.push_back(std::move(e));
    return errors;
}

RunResult
runOnce(const RunSpec &spec)
{
    if (const std::vector<std::string> errors = validationErrors(spec);
        !errors.empty()) {
        std::string msg = "invalid RunSpec (config \"" +
                          spec.config.name + "\", policy \"" +
                          spec.policy.name + "\"):";
        for (const std::string &e : errors)
            msg += "\n  - " + e;
        hdpat_fatal(msg);
    }

    System system(spec.config, spec.policy);
    if (spec.captureIommuTrace)
        system.setCaptureIommuTrace(true);
    // Before enableBackpressure (the IOMMU fault queue only registers
    // as a Resource once a fault handler exists) and before
    // loadWorkload (per-ASID allocation).
    if (spec.tenancy.enabled())
        system.enableTenancy(spec.tenancy);

    if (!spec.obs.traceOutPath.empty())
        system.enableTracing(spec.obs.traceCapacity,
                             spec.obs.traceSampleN);
    // After tracing: when both are on, latency rides the trace ring's
    // sampling so the Chrome trace and the anatomy agree on spans.
    if (spec.obs.latencyEnabled())
        system.enableLatency(spec.obs.latencySampleN,
                             spec.obs.latencyTopK);
    if (spec.obs.heartbeatInterval > 0) {
        system.enableHeartbeat(
            static_cast<Tick>(spec.obs.heartbeatInterval));
    } else if (spec.obs.heartbeatInterval < 0 &&
               logLevel() >= LogLevel::Info) {
        system.enableHeartbeat(kAutoHeartbeatInterval);
    }
    if (spec.obs.audit)
        system.enableAudit();
    if (spec.obs.watchdogInterval > 0)
        system.enableWatchdog(
            static_cast<Tick>(spec.obs.watchdogInterval));
    if (const std::int64_t window = spec.obs.effectiveSpatialWindow();
        window > 0) {
        // Four samples per window keep the windowed means meaningful
        // without making the sampler a hot event.
        system.enableSpatial(static_cast<Tick>(window),
                             std::max<Tick>(1, window / 4));
    }
    if (spec.obs.backpressureEnabled()) {
        system.enableBackpressure(
            spec.obs.backpressureWindow > 0
                ? static_cast<Tick>(spec.obs.backpressureWindow)
                : 0);
    }
    // Before loadWorkload so the workload_gen section is captured.
    if (spec.obs.profile)
        system.enableProfiler();

    auto workload = makeWorkload(spec.workload, spec.footprintScale);
    const std::size_t ops =
        spec.opsPerGpm ? spec.opsPerGpm : defaultOpsPerGpm();
    // Sweeps re-run the same key against many policies/configs; the
    // shared cache generates each stream once and replays it. Timed
    // under workload_gen so the profile keeps charging generation
    // (cold) or replay setup (warm) to the same section.
    std::shared_ptr<const StreamTable> streams;
    {
        const ProfScope prof(system.profiler(),
                             ProfSection::WorkloadGen);
        streams = WorkloadStreamCache::shared().get(
            StreamKey{spec.workload, spec.footprintScale, ops,
                      spec.seed, system.numGpms(),
                      spec.config.pageShift,
                      spec.tenancy.asidCount});
    }
    system.loadWorkload(*workload, ops, spec.seed, std::move(streams));
    RunResult result = system.run();

    if (!spec.obs.spatialCsvPath.empty()) {
        const ProfScope prof(system.profiler(), ProfSection::Export);
        std::ofstream out(spec.obs.spatialCsvPath);
        hdpat_fatal_if(!out, "cannot open spatial CSV path '"
                                 << spec.obs.spatialCsvPath << "'");
        writeSpatialCsv(out, *system.spatial());
        hdpat_inform("wrote spatial CSV to "
                     << spec.obs.spatialCsvPath);
    }
    if (!spec.obs.traceOutPath.empty()) {
        const ProfScope prof(system.profiler(), ProfSection::Export);
        std::ofstream out(spec.obs.traceOutPath);
        hdpat_fatal_if(!out, "cannot open trace path '"
                                 << spec.obs.traceOutPath << "'");
        writeChromeTrace(out, *system.tracer());
        hdpat_inform("wrote Chrome trace ("
                     << system.tracer()->spansCompleted()
                     << " complete spans) to " << spec.obs.traceOutPath);
    }
    if (!spec.obs.latencyReportPath.empty()) {
        const ProfScope prof(system.profiler(), ProfSection::Export);
        std::ofstream out(spec.obs.latencyReportPath);
        hdpat_fatal_if(!out, "cannot open latency report path '"
                                 << spec.obs.latencyReportPath << "'");
        out << criticalPathReport(result.latency);
        hdpat_inform("wrote critical-path report ("
                     << result.latency.slowest.size() << " spans) to "
                     << spec.obs.latencyReportPath);
    }
    if (!spec.obs.backpressureReportPath.empty()) {
        const ProfScope prof(system.profiler(), ProfSection::Export);
        std::ofstream out(spec.obs.backpressureReportPath);
        hdpat_fatal_if(!out,
                       "cannot open backpressure report path '"
                           << spec.obs.backpressureReportPath << "'");
        out << bottleneckReport(result.backpressure);
        hdpat_inform("wrote bottleneck report ("
                     << result.backpressure.resources.size()
                     << " resources) to "
                     << spec.obs.backpressureReportPath);
    }
    // The metrics JSON goes last so its "profile" section includes the
    // other exports' wall-clock in the export section.
    if (!spec.obs.metricsJsonPath.empty()) {
        ProfileSnapshot prof_snap;
        if (system.profiler())
            prof_snap = system.profiler()->snapshot();
        const ProfScope prof(system.profiler(), ProfSection::Export);
        std::ofstream out(spec.obs.metricsJsonPath);
        hdpat_fatal_if(!out, "cannot open metrics JSON path '"
                                 << spec.obs.metricsJsonPath << "'");
        RunMetadata meta;
        meta.workload = result.workload;
        meta.policy = result.policy;
        meta.config = result.config;
        meta.seed = spec.seed;
        meta.totalTicks = result.totalTicks;
        writeMetricsJson(out, system.metrics(), meta, system.spatial(),
                         prof_snap.empty() ? nullptr : &prof_snap,
                         system.latency() ? &result.latency : nullptr,
                         system.backpressure() ? &result.backpressure
                                               : nullptr);
        hdpat_inform("wrote metrics JSON to "
                     << spec.obs.metricsJsonPath);
    }
    // Re-snapshot so callers (and BENCH_*.json baselines) see the
    // export section too.
    if (system.profiler())
        result.profile = system.profiler()->snapshot();
    return result;
}

} // namespace hdpat
