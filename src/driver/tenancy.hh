/**
 * @file
 * Driver-side multi-tenancy: the tenant scheduler that multiplexes N
 * address spaces onto the wafer.
 *
 * Two Poisson processes drive it (both deterministic, seeded):
 *
 *  - context switches: the wafer-wide active ASID changes; newly
 *    issued ops bind to the new address space while in-flight ops keep
 *    the key they issued under;
 *  - page churn: a mapped page of some tenant is unmapped and its
 *    cached translations shot down across the wafer (the async
 *    invalidate/ack protocol in System::shootdownAsync). The next
 *    touch of that page faults at the IOMMU and the driver remaps it.
 *
 * Scheduler events are engine observers: they never keep the run
 * alive, and both processes stop rescheduling once the workload's own
 * events drain.
 */

#ifndef HDPAT_DRIVER_TENANCY_HH
#define HDPAT_DRIVER_TENANCY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace hdpat
{

class System;

/** Tenancy knobs (all zero/one = single-tenant, bitwise-identical). */
struct TenancySpec
{
    /** Address spaces multiplexed onto the wafer (1 = single-tenant). */
    std::uint32_t asidCount = 1;
    /**
     * Mean context-switch arrivals per million ticks (Poisson; 0 =
     * never switch). Integer so fuzz corpora serialize exactly.
     */
    std::uint64_t switchRatePerMTicks = 0;
    /** Mean page unmap+shootdown arrivals per million ticks. */
    std::uint64_t churnRatePerMTicks = 0;
    /** Seed of the scheduler's own RNG (independent of workloads). */
    std::uint64_t seed = 0x7e4a47;

    bool operator==(const TenancySpec &) const = default;

    /** True when any knob leaves the single-tenant default. */
    bool enabled() const
    {
        return asidCount > 1 || switchRatePerMTicks > 0 ||
               churnRatePerMTicks > 0;
    }

    /** One message per violated invariant (empty = valid). */
    std::vector<std::string> validationErrors() const;
};

class TenantScheduler
{
  public:
    struct Stats
    {
        std::uint64_t contextSwitches = 0;
        std::uint64_t pagesChurned = 0;
        /** Churn draws that found the candidate unmapped/in-round. */
        std::uint64_t churnSkips = 0;
        /** Shootdowns whose redirection table named a holder tile. */
        std::uint64_t shootdownsDirected = 0;
        /** Shootdowns with no RT entry (pure broadcast). */
        std::uint64_t shootdownsBroadcast = 0;
    };

    TenantScheduler(System &sys, const TenancySpec &spec);

    /**
     * Snapshot churn candidates from the page table and schedule the
     * first switch/churn arrivals. System::run() calls this after the
     * GPMs start, so the observer accounting sees a live workload.
     */
    void start();

    /** Register scheduler counters under @p prefix ("tenancy."). */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

    const Stats &stats() const { return stats_; }
    Asid activeAsid() const { return active_; }
    const TenancySpec &spec() const { return spec_; }

  private:
    /** Next Poisson inter-arrival gap for @p rate arrivals/Mtick. */
    Tick poissonGap(std::uint64_t rate_per_mticks);
    void scheduleSwitch();
    void scheduleChurn();
    void fireSwitch();
    void fireChurn();

    System &sys_;
    TenancySpec spec_;
    Rng rng_;
    Asid active_ = 0;
    /** Every key ever mapped, sorted (deterministic churn draws). */
    std::vector<Vpn> candidates_;
    Stats stats_;
};

} // namespace hdpat

#endif // HDPAT_DRIVER_TENANCY_HH
