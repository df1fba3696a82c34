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
#include "driver/options.hh"
#include "driver/run_result.hh"

namespace hdpat
{

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
    /** Observers; defaults from the environment (driver/options.hh). */
    ObsOptions obs = envRunOptions().obs;
    /** Multi-tenant knobs (default from env; single-tenant if unset). */
    TenancySpec tenancy = envRunOptions().tenancy;
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

/** Op-count multiplier from the option table (environment, default 1). */
double benchScale();

/** Default per-GPM op count (base 12000, scaled by benchScale()). */
std::size_t defaultOpsPerGpm();

} // namespace hdpat

#endif // HDPAT_DRIVER_RUNNER_HH
