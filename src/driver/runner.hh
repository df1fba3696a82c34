/**
 * @file
 * Runner: one-call experiment execution for benches and examples.
 * Centralises op-count scaling (HDPAT_BENCH_SCALE) and seeds, so every
 * figure harness runs the same way.
 */

#ifndef HDPAT_DRIVER_RUNNER_HH
#define HDPAT_DRIVER_RUNNER_HH

#include <cstdint>
#include <string>

#include "config/system_config.hh"
#include "config/translation_policy.hh"
#include "driver/run_result.hh"
#include "driver/tenancy.hh"

namespace hdpat
{

/**
 * Observability outputs for one run. Defaults come from the
 * environment (see obsOptionsFromEnv), so every bench and example
 * honours HDPAT_METRICS_JSON / HDPAT_TRACE_OUT / HDPAT_TRACE_SAMPLE /
 * HDPAT_HEARTBEAT without per-harness wiring.
 */
struct ObsOptions
{
    /** Write the metrics-registry JSON dump here ("" = off). */
    std::string metricsJsonPath;
    /** Write the Chrome-trace span export here ("" = off). */
    std::string traceOutPath;
    /** Trace 1 in N issued ops (only used when tracing is on). */
    std::uint64_t traceSampleN = 64;
    /** Span ring-buffer capacity in records. */
    std::size_t traceCapacity = 1u << 20;
    /**
     * Heartbeat period in ticks: -1 = auto (on at LogLevel::Info and
     * above), 0 = off, >0 = explicit interval.
     */
    std::int64_t heartbeatInterval = -1;
    /** Run the conservation auditor (HDPAT_AUDIT). */
    bool audit = false;
    /** Stall-watchdog interval in ticks, 0 = off (HDPAT_WATCHDOG). */
    std::int64_t watchdogInterval = 0;
    /**
     * Spatial heatmap window in ticks, 0 = off (HDPAT_SPATIAL).
     * Implied at the default window when spatialCsvPath is set.
     */
    std::int64_t spatialWindow = 0;
    /** Write the spatial heatmap CSV here ("" = off). */
    std::string spatialCsvPath;
    /** Run the host self-profiler (HDPAT_PROFILE). */
    bool profile = false;
    /** Latency attribution (HDPAT_LATENCY): per-stage anatomy. */
    bool latency = false;
    /** Attribute 1 in N sampled translations (1 = exact mode). */
    std::uint64_t latencySampleN = 1;
    /** Slowest spans kept for the critical-path report. */
    std::size_t latencyTopK = 8;
    /** Write the critical-path report here ("" = off; implies on). */
    std::string latencyReportPath;
    /** Backpressure accounting (HDPAT_BACKPRESSURE). */
    bool backpressure = false;
    /**
     * Backpressure window in ticks (HDPAT_BACKPRESSURE_WINDOW); 0 =
     * totals only, no per-window occupancy arrays.
     */
    std::int64_t backpressureWindow = 0;
    /** Write the bottleneck report here ("" = off; implies on). */
    std::string backpressureReportPath;

    bool any() const
    {
        return !metricsJsonPath.empty() || !traceOutPath.empty() ||
               !spatialCsvPath.empty() || !latencyReportPath.empty() ||
               !backpressureReportPath.empty();
    }

    /** Latency attribution on, via the flag or the report path. */
    bool latencyEnabled() const
    {
        return latency || !latencyReportPath.empty();
    }

    /** Backpressure on, via the flag or the report path. */
    bool backpressureEnabled() const
    {
        return backpressure || !backpressureReportPath.empty();
    }

    /** Spatial collection window, applying the CSV-implies default. */
    std::int64_t effectiveSpatialWindow() const;
};

/** ObsOptions populated from HDPAT_* environment variables. */
ObsOptions obsOptionsFromEnv();

/**
 * TenancySpec populated from the environment: HDPAT_TENANTS (address
 * spaces), HDPAT_SWITCH_RATE / HDPAT_CHURN_RATE (Poisson arrivals per
 * million ticks), HDPAT_TENANCY_SEED. All unset = single-tenant, and
 * runOnce skips enableTenancy entirely -- bitwise-identical runs.
 */
TenancySpec tenancySpecFromEnv();

/** Complete description of one simulation run. */
struct RunSpec
{
    SystemConfig config;
    TranslationPolicy policy;
    std::string workload = "SPMV";

    /** Memory ops per GPM; 0 = defaultOpsPerGpm(). */
    std::size_t opsPerGpm = 0;
    std::uint64_t seed = 0x5eed;
    double footprintScale = 1.0;
    bool captureIommuTrace = false;
    ObsOptions obs = obsOptionsFromEnv();
    /** Multi-tenant knobs (default from env; single-tenant if unset). */
    TenancySpec tenancy = tenancySpecFromEnv();
};

/**
 * Structured validation of a whole run description: the config's and
 * policy's own errors plus cross-field constraints (e.g. the workload
 * abbreviation must exist, footprintScale must be positive). Empty
 * means runOnce(spec) is expected to complete; the fuzzer treats any
 * divergence as a bug.
 */
std::vector<std::string> validationErrors(const RunSpec &spec);

/**
 * Build the system, load the workload, run, return the result.
 * Fails fast (exit 1) with the full validationErrors() list when the
 * spec is invalid, instead of crashing mid-construction.
 */
RunResult runOnce(const RunSpec &spec);

/**
 * Global op-count multiplier from the HDPAT_BENCH_SCALE environment
 * variable (default 1.0). Benches multiply their default op counts by
 * this, so `HDPAT_BENCH_SCALE=4 ./fig14_overall` runs 4x longer.
 */
double benchScale();

/** Default per-GPM op count (base 12000, scaled by benchScale()). */
std::size_t defaultOpsPerGpm();

} // namespace hdpat

#endif // HDPAT_DRIVER_RUNNER_HH
