#include "obs/backpressure.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/log.hh"

namespace hdpat
{

const char *
resourceKindName(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::Queue:
        return "queue";
      case ResourceKind::Pool:
        return "pool";
      case ResourceKind::Mshr:
        return "mshr";
      case ResourceKind::Residency:
        return "residency";
      case ResourceKind::Link:
        return "link";
    }
    return "unknown";
}

// ---- Resource ---------------------------------------------------------

void
Resource::advance(Tick now)
{
    // Same-tick (or re-snapshot) calls contribute nothing; transitions
    // arrive in non-decreasing tick order, so earlier ticks cannot
    // occur and an assert here would only slow the hot path.
    if (now <= lastTick_)
        return;
    const Tick delta = now - lastTick_;
    occIntegral_ += occupancy_ * delta;
    if (capacity_ != 0 && occupancy_ >= capacity_)
        atCapacityTicks_ += delta;
    if (windowTicks_ != 0)
        accumulateWindowed(lastTick_, now);
    lastTick_ = now;
}

void
Resource::departAndReturn(Tick now, std::uint64_t departing,
                          std::uint64_t returning, std::uint64_t high)
{
    if (departing == 0)
        return;
    advance(now);
    departures_ += departing;
    sumDepartTicks_ += departing * now;
    occupancy_ -= departing;
    if (returning == 0)
        return;
    arrivals_ += returning;
    sumArriveTicks_ += returning * now;
    occupancy_ += returning;
    if (high > peak_)
        peak_ = high;
    if (windowTicks_ != 0) {
        ResourceWindow &w = windowAt(now / windowTicks_);
        if (high > w.peak)
            w.peak = high;
    }
}

ResourceWindow &
Resource::windowAt(std::uint64_t index)
{
    if (index >= windows_.size())
        windows_.resize(index + 1);
    return windows_[index];
}

void
Resource::accumulateWindowed(Tick from, Tick to)
{
    // Split [from, to) across fixed windowTicks_-wide windows; the
    // occupancy over the whole interval is the pre-transition value.
    while (from < to) {
        const std::uint64_t index = from / windowTicks_;
        const Tick window_end = (index + 1) * windowTicks_;
        const Tick seg = std::min(to, window_end) - from;
        ResourceWindow &w = windowAt(index);
        w.occIntegral += occupancy_ * seg;
        if (capacity_ != 0 && occupancy_ >= capacity_)
            w.atCapacityTicks += seg;
        if (occupancy_ > w.peak)
            w.peak = occupancy_;
        from += seg;
    }
}

void
Resource::noteWindowPeak(Tick now)
{
    ResourceWindow &w = windowAt(now / windowTicks_);
    if (occupancy_ > w.peak)
        w.peak = occupancy_;
}

// ---- ResourcePressure -------------------------------------------------

double
ResourcePressure::meanOccupancy(Tick total_ticks) const
{
    if (total_ticks == 0)
        return 0.0;
    const double t = static_cast<double>(total_ticks);
    if (kind == ResourceKind::Link)
        return busyTicks / t;
    return static_cast<double>(occIntegral) / t;
}

double
ResourcePressure::saturationFraction(Tick total_ticks) const
{
    if (total_ticks == 0)
        return 0.0;
    const double t = static_cast<double>(total_ticks);
    if (kind == ResourceKind::Link)
        return busyTicks / t;
    if (capacity == 0)
        return 0.0;
    return static_cast<double>(atCapacityTicks) / t;
}

double
ResourcePressure::meanResidency() const
{
    if (arrivals == 0)
        return 0.0;
    const double n = static_cast<double>(arrivals);
    if (kind == ResourceKind::Link)
        return (busyTicks + waitTicks) / n;
    return static_cast<double>(occIntegral) / n;
}

bool
ResourcePressure::littleHolds(Tick total_ticks) const
{
    if (kind == ResourceKind::Link)
        return true;
    // Exact in uint64 wraparound arithmetic: every item arriving at a
    // and departing at d contributes d - a to both sides; residents
    // at T contribute T - a.
    const std::uint64_t from_timestamps =
        sumDepartTicks + occupancy * total_ticks - sumArriveTicks;
    return occIntegral == from_timestamps;
}

// ---- BackpressureSnapshot ---------------------------------------------

std::vector<std::size_t>
BackpressureSnapshot::ranked() const
{
    std::vector<std::size_t> order(resources.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                  const ResourcePressure &ra = resources[a];
                  const ResourcePressure &rb = resources[b];
                  const double sa = ra.saturationFraction(totalTicks);
                  const double sb = rb.saturationFraction(totalTicks);
                  if (sa != sb)
                      return sa > sb;
                  const double oa = ra.meanOccupancy(totalTicks);
                  const double ob = rb.meanOccupancy(totalTicks);
                  if (oa != ob)
                      return oa > ob;
                  return ra.name < rb.name;
              });
    return order;
}

std::string
bottleneckReport(const BackpressureSnapshot &snap, std::size_t top_k)
{
    std::ostringstream os;
    os << "=== backpressure: " << snap.resources.size()
       << " resources over " << snap.totalTicks << " ticks";
    if (snap.windowTicks != 0)
        os << " (window " << snap.windowTicks << ")";
    os << " ===\n";
    if (snap.littleViolations != 0)
        os << "WARNING: " << snap.littleViolations
           << " resource(s) violate the Little's-law identity\n";

    os << std::setw(4) << "#" << "  " << std::left << std::setw(28)
       << "resource" << std::setw(11) << "kind" << std::right
       << std::setw(8) << "cap" << std::setw(8) << "peak"
       << std::setw(12) << "mean-occ" << std::setw(8) << "sat%"
       << std::setw(12) << "arrivals" << std::setw(10) << "rejects"
       << std::setw(12) << "mean-res" << "\n";

    const std::vector<std::size_t> order = snap.ranked();
    const std::size_t limit =
        top_k == 0 ? order.size() : std::min(top_k, order.size());
    for (std::size_t rank = 0; rank < limit; ++rank) {
        const ResourcePressure &r = snap.resources[order[rank]];
        os << std::setw(4) << rank + 1 << "  " << std::left
           << std::setw(28) << r.name << std::setw(11)
           << resourceKindName(r.kind) << std::right << std::setw(8);
        if (r.capacity == 0)
            os << "-";
        else
            os << r.capacity;
        os << std::setw(8) << r.peak << std::setw(12) << std::fixed
           << std::setprecision(3) << r.meanOccupancy(snap.totalTicks)
           << std::setw(8) << std::setprecision(1)
           << r.saturationFraction(snap.totalTicks) * 100.0
           << std::setw(12) << r.arrivals << std::setw(10)
           << r.rejections << std::setw(12) << std::setprecision(1)
           << r.meanResidency() << "\n";
        os.unsetf(std::ios::fixed);
    }
    if (limit < order.size())
        os << "  ... " << order.size() - limit << " more (use the"
           << " metrics-JSON backpressure section for the full set)\n";
    return os.str();
}

// ---- BackpressureCollector --------------------------------------------

Resource *
BackpressureCollector::add(std::string name, ResourceKind kind,
                           std::uint64_t capacity)
{
    resources_.emplace_back(std::move(name), kind, capacity,
                            windowTicks_);
    return &resources_.back();
}

BackpressureSnapshot
BackpressureCollector::snapshot(Tick total_ticks)
{
    BackpressureSnapshot snap;
    snap.totalTicks = total_ticks;
    snap.windowTicks = windowTicks_;
    snap.resources.reserve(resources_.size());
    for (Resource &res : resources_) {
        if (res.kind_ != ResourceKind::Link) {
            hdpat_panic_if(total_ticks < res.lastTick_,
                           "backpressure snapshot at tick "
                               << total_ticks << " before last "
                               << "transition of " << res.name_
                               << " (" << res.lastTick_ << ")");
            res.advance(total_ticks);
        }
        ResourcePressure p;
        p.name = res.name_;
        p.kind = res.kind_;
        p.capacity = res.capacity_;
        p.arrivals = res.arrivals_;
        p.departures = res.departures_;
        p.rejections = res.rejections_;
        p.occupancy = res.occupancy_;
        p.peak = res.peak_;
        p.occIntegral = res.occIntegral_;
        p.atCapacityTicks = res.atCapacityTicks_;
        p.sumArriveTicks = res.sumArriveTicks_;
        p.sumDepartTicks = res.sumDepartTicks_;
        p.busyTicks = res.busyTicks_;
        p.waitTicks = res.waitTicks_;
        p.windows = res.windows_;
        if (!p.littleHolds(total_ticks))
            ++snap.littleViolations;
        snap.resources.push_back(std::move(p));
    }
    return snap;
}

} // namespace hdpat
