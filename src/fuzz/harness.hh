/**
 * @file
 * Fork-isolated execution of one FuzzCase with seven oracles:
 *
 * 1. Validity prediction: validationErrors(spec) empty must mean the
 *    run completes; non-empty must mean it fail-fasts. Divergence in
 *    either direction is a finding.
 * 2. Conservation + PPN reference: the run executes under the
 *    auditor (with the page-table reference translator installed) and
 *    the stall watchdog; any violation panics the child.
 * 3. runMany differential: the same batch executed serially, and
 *    reordered on multiple workers, must agree on translation counts,
 *    page-walk counts, and the per-(tile, VPN) retire-census digest.
 * 4. Spatial observation is a pure observer: re-running with per-link
 *    heatmaps on must leave every count (totalTicks included)
 *    unchanged.
 * 5. Latency attribution: re-running with per-stage attribution on
 *    (hash-sampled) must leave every count unchanged, and each
 *    sampled span's stage durations must sum to its end-to-end
 *    latency (conservation by construction, checked anyway).
 * 6. Backpressure + Little's law: re-running with saturation
 *    accounting on must leave every count unchanged, and the
 *    dual-path occupancy-integral identity (obs/backpressure.hh)
 *    must hold for every registered resource.
 * 7. Tenancy staleness: multi-tenant cases (asidCount/switchRate/
 *    churnRate sampled per case) run under the staleness oracle the
 *    audited run carries -- install-time revalidation, exactly-once
 *    shootdown acks, and the end-of-run stale-resident sweep all
 *    panic the child on violation -- plus the harness's own
 *    conservation checks: rounds opened == rounds closed and IOMMU
 *    faults enqueued == faults serviced.
 *
 * The child is a fresh fork per case, so a crash, fatal, hang, or
 * abort in the simulator cannot take the fuzzer down with it.
 */

#ifndef HDPAT_FUZZ_HARNESS_HH
#define HDPAT_FUZZ_HARNESS_HH

#include <string>

#include "fuzz/fuzz_case.hh"

namespace hdpat
{

/** What one isolated case execution produced. */
struct FuzzOutcome
{
    /** Failure taxonomy; the shrinker preserves the kind. */
    enum class Kind
    {
        Pass,            ///< All oracles held.
        UnexpectedFatal, ///< Predicted valid, but the run fataled.
        UnexpectedClean, ///< Predicted invalid, but the run completed.
        OracleViolation, ///< Audit/PPN/differential oracle failed.
        Crash,           ///< Abort or signal (simulator panic).
        Hang,            ///< Exceeded the per-case timeout.
    };

    Kind kind = Kind::Pass;
    /** One-paragraph reason, including the child's stderr tail. */
    std::string reason;

    bool ok() const { return kind == Kind::Pass; }
};

const char *fuzzOutcomeKindName(FuzzOutcome::Kind kind);

/**
 * Run @p c in a forked child and judge it against all oracles.
 * @param timeout_seconds Wall-clock budget for the child (covers the
 *        audited run plus the differential re-runs).
 */
FuzzOutcome runFuzzCase(const FuzzCase &c, unsigned timeout_seconds = 60);

} // namespace hdpat

#endif // HDPAT_FUZZ_HARNESS_HH
