#include "driver/runner.hh"

#include <algorithm>
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

/** Heartbeat period when heartbeatInterval asks for auto (-1). */
constexpr Tick kAutoHeartbeatInterval = 2'000'000;

/**
 * Run @p write into a new file at @p path, timed as the profiler's
 * export section; "" = this export is off.
 */
template <typename Write>
void
exportTo(System &system, const std::string &path, const char *what,
         Write &&write)
{
    if (path.empty())
        return;
    const ProfScope prof(system.profiler(), ProfSection::Export);
    std::ofstream out(path);
    hdpat_fatal_if(!out,
                   "cannot open " << what << " path '" << path << "'");
    write(out);
    hdpat_inform("wrote " << what << " to " << path);
}

} // namespace

double
benchScale()
{
    return envRunOptions().benchScale;
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

    exportTo(system, spec.obs.spatialCsvPath, "spatial CSV",
             [&](auto &out) { writeSpatialCsv(out, *system.spatial()); });
    exportTo(system, spec.obs.traceOutPath, "Chrome trace",
             [&](auto &out) { writeChromeTrace(out, *system.tracer()); });
    exportTo(system, spec.obs.latencyReportPath, "critical-path report",
             [&](auto &out) { out << criticalPathReport(result.latency); });
    exportTo(system, spec.obs.backpressureReportPath, "bottleneck report",
             [&](auto &out) { out << bottleneckReport(result.backpressure); });
    // The metrics JSON goes last so its "profile" section includes the
    // other exports' wall-clock in the export section.
    exportTo(system, spec.obs.metricsJsonPath, "metrics JSON",
             [&](auto &out) {
                 const ProfileSnapshot prof =
                     system.profiler() ? system.profiler()->snapshot()
                                       : ProfileSnapshot{};
                 const RunMetadata meta{result.workload, result.policy,
                                        result.config, spec.seed,
                                        result.totalTicks};
                 writeMetricsJson(
                     out, system.metrics(), meta, system.spatial(),
                     prof.empty() ? nullptr : &prof,
                     system.latency() ? &result.latency : nullptr,
                     system.backpressure() ? &result.backpressure
                                           : nullptr);
             });
    // Re-snapshot so callers (and BENCH_*.json baselines) see the
    // export section too.
    if (system.profiler())
        result.profile = system.profiler()->snapshot();
    return result;
}

} // namespace hdpat
