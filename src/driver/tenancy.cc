#include "driver/tenancy.hh"

#include <algorithm>
#include <cmath>

#include "driver/system.hh"
#include "sim/log.hh"

namespace hdpat
{

std::vector<std::string>
TenancySpec::validationErrors() const
{
    std::vector<std::string> errors;
    if (asidCount == 0)
        errors.push_back("tenancy.asidCount must be >= 1");
    if (asidCount > (1u << 16)) {
        errors.push_back(
            "tenancy.asidCount must fit the ASID tag (<= 65536)");
    }
    if (asidCount == 1 && switchRatePerMTicks > 0) {
        errors.push_back("tenancy.switchRatePerMTicks needs "
                         "asidCount > 1 to switch between");
    }
    return errors;
}

TenantScheduler::TenantScheduler(System &sys, const TenancySpec &spec)
    : sys_(sys), spec_(spec), rng_(spec.seed)
{
}

void
TenantScheduler::start()
{
    // Snapshot the post-load page table, in its ascending key order.
    candidates_.clear();
    sys_.pageTable().forEachPage(
        [this](Vpn vpn, const Pte &) { candidates_.push_back(vpn); });

    if (spec_.switchRatePerMTicks > 0 && spec_.asidCount > 1)
        scheduleSwitch();
    if (spec_.churnRatePerMTicks > 0 && !candidates_.empty())
        scheduleChurn();
}

Tick
TenantScheduler::poissonGap(std::uint64_t rate_per_mticks)
{
    // Inverse-CDF exponential draw. uniformDouble() is in [0, 1), so
    // log(1 - u) is finite; the mean gap is 1e6 / rate ticks.
    const double mean =
        1.0e6 / static_cast<double>(rate_per_mticks);
    const double gap = -std::log(1.0 - rng_.uniformDouble()) * mean;
    return std::max<Tick>(1, static_cast<Tick>(gap));
}

void
TenantScheduler::scheduleSwitch()
{
    sys_.engine().noteObserverScheduled();
    sys_.engine().scheduleIn(poissonGap(spec_.switchRatePerMTicks),
                             [this] { fireSwitch(); });
}

void
TenantScheduler::scheduleChurn()
{
    sys_.engine().noteObserverScheduled();
    sys_.engine().scheduleIn(poissonGap(spec_.churnRatePerMTicks),
                             [this] { fireChurn(); });
}

void
TenantScheduler::fireSwitch()
{
    sys_.engine().noteObserverFired();
    if (!sys_.engine().hasNonObserverEvents())
        return; // The workload drained; do not keep the run alive.

    // Uniform draw over the *other* tenants: a switch always changes
    // the address space.
    Asid next = static_cast<Asid>(
        rng_.uniformInt(spec_.asidCount - 1));
    if (next >= active_)
        ++next;
    active_ = next;
    ++stats_.contextSwitches;

    sys_.pageTable().setActiveAsid(active_);
    for (std::size_t i = 0; i < sys_.numGpms(); ++i)
        sys_.gpm(i).setActiveAsid(active_);

    scheduleSwitch();
}

void
TenantScheduler::fireChurn()
{
    sys_.engine().noteObserverFired();
    if (!sys_.engine().hasNonObserverEvents())
        return;

    // Bounded retry: a draw can land on a page that is currently
    // unmapped (awaiting its fault-driven remap) or mid-shootdown.
    constexpr int kMaxDraws = 4;
    for (int attempt = 0; attempt < kMaxDraws; ++attempt) {
        const Vpn key = candidates_[static_cast<std::size_t>(
            rng_.uniformInt(candidates_.size()))];
        if (!sys_.pageTable().translate(key) ||
            sys_.shootdownInProgress(key)) {
            ++stats_.churnSkips;
            continue;
        }
        const RedirectionTable *rt =
            sys_.iommu().redirectionTable();
        if (rt && rt->peek(key) != kInvalidTile)
            ++stats_.shootdownsDirected;
        else
            ++stats_.shootdownsBroadcast;
        const bool issued = sys_.shootdownAsync(key);
        hdpat_panic_if(!issued,
                       "churn shootdown refused for mapped key 0x"
                           << std::hex << key);
        ++stats_.pagesChurned;
        break;
    }

    scheduleChurn();
}

void
TenantScheduler::registerMetrics(MetricRegistry &reg,
                                 const std::string &prefix) const
{
    reg.addCounter(prefix + "context_switches",
                   &stats_.contextSwitches);
    reg.addCounter(prefix + "pages_churned", &stats_.pagesChurned);
    reg.addCounter(prefix + "churn_skips", &stats_.churnSkips);
    reg.addCounter(prefix + "shootdowns_directed",
                   &stats_.shootdownsDirected);
    reg.addCounter(prefix + "shootdowns_broadcast",
                   &stats_.shootdownsBroadcast);
}

} // namespace hdpat
