/**
 * @file
 * Backpressure anatomy: per-resource saturation accounting.
 *
 * Every bounded structure in the system -- per-GMMU walk queues and
 * walker pools, the IOMMU ingress/pipeline queues and its MSHR and
 * forward-context tables, the GPM-side MSHRs and stalled-remote
 * queue, LL-TLB residency, and the NoC's directed link buffers --
 * registers with the collector as a named Resource(capacity) and
 * reports arrivals, departures and rejections as they happen. The
 * collector maintains, per resource:
 *
 *  - a tick-weighted occupancy integral  integral(n(t) dt)  so the
 *    time-averaged occupancy L = integral / T is exact,
 *  - peak occupancy,
 *  - time-at-capacity ticks (the saturation fraction's numerator),
 *  - optional fixed-width windows of the same three quantities, for
 *    fig04-style pressure-over-time plots,
 *  - the running sums of arrival and departure timestamps, which
 *    give a second, independent derivation of the same integral.
 *
 * The two derivations are the **Little's-law oracle**. For any
 * event-driven resource observed from t=0 to t=T,
 *
 *     integral(n(t) dt) == sum(depart ticks) + n(T)*T
 *                          - sum(arrive ticks)
 *
 * exactly, in uint64 wraparound arithmetic (each arrival at time a
 * that departs at time d contributes d - a to both sides; items still
 * resident at T contribute T - a). Dividing both sides by T yields
 * L = lambda * W with W = integral / arrivals, i.e. Little's law as
 * an exact identity rather than a steady-state approximation. The
 * left side is accumulated incrementally at every transition, the
 * right side from timestamps alone, so any missed or double-counted
 * transition anywhere in the simulator breaks the equality. ctest
 * and the fuzzer check it per resource (littleViolations()).
 *
 * NoC links are the one *analytic* resource kind: link occupancy is
 * computed at send time in fractional ticks (see Network's
 * computeArrival), not observed via time-ordered transitions, so
 * links report busy/wait tick totals instead and are exempt from the
 * transition oracle. DESIGN.md section 10 has the full taxonomy.
 *
 * Like the profiler and latency layers, the whole subsystem is
 * bitwise-invisible when off: components hold a null Resource
 * pointer and every hook is a [[unlikely]]-guarded branch.
 */

#ifndef HDPAT_OBS_BACKPRESSURE_HH
#define HDPAT_OBS_BACKPRESSURE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace hdpat
{

/** Taxonomy of registered resources (stable names in metrics JSON). */
enum class ResourceKind : std::uint8_t
{
    Queue = 0, ///< FIFO-ish waiting line (walk queues, ingress).
    Pool,      ///< Fixed set of servers (walkers, forward contexts).
    Mshr,      ///< Miss-status table (occupancy = live misses).
    Residency, ///< Cache residency (LL-TLB fills vs evictions).
    Link,      ///< NoC directed link (analytic; oracle-exempt).
};

constexpr std::size_t kNumResourceKinds =
    static_cast<std::size_t>(ResourceKind::Link) + 1;

/** Stable printable kind name (part of the metrics-JSON schema). */
const char *resourceKindName(ResourceKind kind);

/** Per-window slice of one resource's pressure history. */
struct ResourceWindow
{
    std::uint64_t occIntegral = 0;
    std::uint64_t peak = 0;
    std::uint64_t atCapacityTicks = 0;
};

/**
 * One registered bounded structure. Components hold a Resource* that
 * is null while backpressure accounting is off; the collector owns
 * the storage (stable addresses for the simulation's lifetime).
 *
 * Transitions must be reported in non-decreasing tick order per
 * resource (they are driven by engine events, which fire in order).
 * Link resources use linkTraversed() instead and never transition.
 */
class Resource
{
  public:
    /** @param capacity 0 means unbounded (no saturation tracking). */
    Resource(std::string name, ResourceKind kind, std::uint64_t capacity,
             Tick window_ticks)
        : name_(std::move(name)), kind_(kind), capacity_(capacity),
          windowTicks_(window_ticks)
    {
    }

    /** One item entered the resource at @p now. */
    void
    arrive(Tick now)
    {
        advance(now);
        ++arrivals_;
        sumArriveTicks_ += now;
        ++occupancy_;
        if (occupancy_ > peak_)
            peak_ = occupancy_;
        if (windowTicks_ != 0)
            noteWindowPeak(now);
    }

    /** One item left the resource at @p now. */
    void
    depart(Tick now)
    {
        advance(now);
        ++departures_;
        sumDepartTicks_ += now;
        --occupancy_;
    }

    /**
     * Bulk form of @p departing depart(now) calls interleaved with
     * @p returning arrive(now) calls (a rescan that takes every item
     * out and puts some back), in O(1). @p high is the highest
     * occupancy reached right after one of the returns; it feeds the
     * peaks exactly as the per-item arrivals would.
     */
    void departAndReturn(Tick now, std::uint64_t departing,
                         std::uint64_t returning, std::uint64_t high);

    /** @p n admission attempts bounced off a full resource. */
    void reject(std::uint64_t n = 1) { rejections_ += n; }

    /**
     * Analytic link accounting: one packet crossed the link, holding
     * it for @p busy fractional ticks after waiting @p wait.
     */
    void
    linkTraversed(double busy, double wait)
    {
        ++arrivals_;
        ++departures_;
        busyTicks_ += busy;
        waitTicks_ += wait;
    }

    /** Extend the occupancy integral to @p now (idempotent). */
    void advance(Tick now);

    const std::string &name() const { return name_; }
    ResourceKind kind() const { return kind_; }
    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t occupancy() const { return occupancy_; }

  private:
    friend class BackpressureCollector;

    void noteWindowPeak(Tick now);
    void accumulateWindowed(Tick from, Tick to);
    ResourceWindow &windowAt(std::uint64_t index);

    std::string name_;
    ResourceKind kind_;
    std::uint64_t capacity_;
    Tick windowTicks_;

    std::uint64_t arrivals_ = 0;
    std::uint64_t departures_ = 0;
    std::uint64_t rejections_ = 0;
    std::uint64_t occupancy_ = 0;
    std::uint64_t peak_ = 0;

    Tick lastTick_ = 0;
    std::uint64_t occIntegral_ = 0;
    std::uint64_t atCapacityTicks_ = 0;
    std::uint64_t sumArriveTicks_ = 0;
    std::uint64_t sumDepartTicks_ = 0;

    /** Link kind only (fractional analytic ticks). */
    double busyTicks_ = 0.0;
    double waitTicks_ = 0.0;

    std::vector<ResourceWindow> windows_;
};

/** Immutable per-resource digest inside a BackpressureSnapshot. */
struct ResourcePressure
{
    std::string name;
    ResourceKind kind = ResourceKind::Queue;
    std::uint64_t capacity = 0;

    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t rejections = 0;
    std::uint64_t occupancy = 0; ///< Residual at end of run.
    std::uint64_t peak = 0;
    std::uint64_t occIntegral = 0;
    std::uint64_t atCapacityTicks = 0;
    std::uint64_t sumArriveTicks = 0;
    std::uint64_t sumDepartTicks = 0;

    double busyTicks = 0.0; ///< Link kind only.
    double waitTicks = 0.0; ///< Link kind only.

    std::vector<ResourceWindow> windows;

    /** Time-averaged occupancy L = integral / T. */
    double meanOccupancy(Tick total_ticks) const;

    /** Fraction of the run spent at capacity (links: busy fraction). */
    double saturationFraction(Tick total_ticks) const;

    /** Mean residency W = integral / arrivals (Little's W). */
    double meanResidency() const;

    /**
     * The transition-oracle identity (see file comment); always true
     * for Link resources, which are analytic.
     */
    bool littleHolds(Tick total_ticks) const;
};

/**
 * Immutable, copyable result of a collection run. Lives in
 * RunResult and feeds the "backpressure" metrics-JSON section.
 */
struct BackpressureSnapshot
{
    Tick totalTicks = 0;
    /** 0 = totals only, no per-window arrays. */
    Tick windowTicks = 0;
    /** Resources whose dual-path integrals disagree (must be 0). */
    std::uint64_t littleViolations = 0;

    /** Registration order (stable across runs of the same spec). */
    std::vector<ResourcePressure> resources;

    bool empty() const { return resources.empty(); }

    /**
     * Indices into resources, most-pressured first: by saturation
     * fraction, then mean occupancy, then name (total order, so the
     * report is deterministic).
     */
    std::vector<std::size_t> ranked() const;
};

/**
 * Ranked bottleneck report: one table row per resource, most
 * saturated first. @p top_k == 0 prints every resource.
 */
std::string bottleneckReport(const BackpressureSnapshot &snap,
                             std::size_t top_k = 0);

/**
 * Owns every registered Resource (deque => stable addresses). One
 * per System; components receive Resource* via setBackpressure().
 */
class BackpressureCollector
{
  public:
    /** @param window_ticks 0 disables per-window history. */
    explicit BackpressureCollector(Tick window_ticks = 0)
        : windowTicks_(window_ticks)
    {
    }

    BackpressureCollector(const BackpressureCollector &) = delete;
    BackpressureCollector &operator=(const BackpressureCollector &) = delete;

    /** Register a resource; the returned pointer stays valid. */
    Resource *add(std::string name, ResourceKind kind,
                  std::uint64_t capacity);

    Tick windowTicks() const { return windowTicks_; }
    std::size_t size() const { return resources_.size(); }

    /**
     * Extend every resource's integral to @p total_ticks and
     * materialize the accumulated state. @p total_ticks must be >=
     * the last reported transition (use the engine's final tick).
     */
    BackpressureSnapshot snapshot(Tick total_ticks);

  private:
    Tick windowTicks_;
    std::deque<Resource> resources_;
};

} // namespace hdpat

#endif // HDPAT_OBS_BACKPRESSURE_HH
