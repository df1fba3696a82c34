/**
 * @file
 * RunResult: everything a bench or example needs from one simulated
 * run -- end-to-end time, per-GPM finish ticks, the Fig 16 breakdown,
 * IOMMU pipeline statistics, and NoC traffic totals.
 */

#ifndef HDPAT_DRIVER_RUN_RESULT_HH
#define HDPAT_DRIVER_RUN_RESULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "iommu/iommu.hh"
#include "noc/network.hh"
#include "obs/backpressure.hh"
#include "obs/latency.hh"
#include "obs/profiler.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hdpat
{

struct RunResult
{
    std::string workload;
    std::string policy;
    std::string config;

    /** End-to-end execution time (latest GPM finish). */
    Tick totalTicks = 0;

    /** (tile, finish tick) per GPM, in tile order. */
    std::vector<std::pair<TileId, Tick>> gpmFinish;

    // ---- Aggregated GPM-side statistics -------------------------------
    std::uint64_t opsTotal = 0;
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t llTlbHits = 0;
    std::uint64_t localWalks = 0;
    std::uint64_t cuckooFalsePositives = 0;
    std::uint64_t remoteOps = 0;
    std::uint64_t remoteResolutions = 0;
    std::array<std::uint64_t, kNumTranslationSources> sourceCounts{};
    SummaryStat remoteRtt;
    std::uint64_t probesReceivedTotal = 0;
    std::uint64_t probeHitsTotal = 0;
    std::uint64_t pushesReceivedTotal = 0;

    // ---- Conservation-audit digest (zero unless auditing was on) ------
    /** Translations issued / retired as counted by the auditor. */
    std::uint64_t auditIssued = 0;
    std::uint64_t auditRetired = 0;
    /** PPNs checked against the reference page walk (all must match). */
    std::uint64_t auditPfnChecks = 0;
    /**
     * Order-independent digest of per-(tile, VPN) retire counts. Equal
     * specs must produce equal hashes under any runMany ordering or
     * job count — the fuzzer's conservation differential.
     */
    std::uint64_t auditRetireCensusHash = 0;

    // ---- Tenancy (all zero unless enableTenancy was called) -----------
    std::uint64_t contextSwitches = 0;
    std::uint64_t pagesChurned = 0;
    std::uint64_t shootdownRounds = 0;
    std::uint64_t shootdownRoundsClosed = 0;
    std::uint64_t invalidationAcks = 0;
    std::uint64_t staleInstallsBlocked = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t faultsServiced = 0;

    // ---- Component snapshots -------------------------------------------
    Iommu::Stats iommu;
    Network::Stats noc;

    /** Host self-profile (empty unless profiling was enabled). */
    ProfileSnapshot profile;

    /** Latency anatomy (empty unless latency attribution was on). */
    LatencySnapshot latency;

    /** Backpressure anatomy (empty unless enableBackpressure). */
    BackpressureSnapshot backpressure;

    // ---- Helpers ---------------------------------------------------------
    /** Total remote translations resolved (sum of sourceCounts). */
    std::uint64_t remoteServed() const;

    /** Fraction of remote translations served by @p source. */
    double sourceFraction(TranslationSource source) const;

    /**
     * Fraction of remote translations served *without* an IOMMU walk
     * (the paper's "offloaded 42.1%" metric).
     */
    double offloadedFraction() const;

    /** Earliest and latest GPM finish (Fig 5 imbalance). */
    Tick minGpmFinish() const;
    Tick maxGpmFinish() const;
};

/** base.totalTicks / x.totalTicks, i.e. >1 means x is faster. */
double speedupOver(const RunResult &base, const RunResult &x);

} // namespace hdpat

#endif // HDPAT_DRIVER_RUN_RESULT_HH
