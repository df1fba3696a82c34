/**
 * @file
 * A generic Miss Status Holding Register file.
 *
 * Coalesces concurrent misses to the same VPN: the first miss allocates
 * an entry and triggers the fill; later misses append their callbacks.
 * A full MSHR file blocks further misses — exactly the concurrency
 * limiter the paper contrasts against the redirection table (§IV-F,
 * Fig 19).
 */

#ifndef HDPAT_MEM_MSHR_HH
#define HDPAT_MEM_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace hdpat
{

/** Callback invoked when a miss resolves: (vpn, pfn). */
using MshrCallback = std::function<void(Vpn, Pfn)>;

class MshrFile
{
  public:
    /** Result of trying to register a miss. */
    enum class Outcome
    {
        Allocated, ///< New entry created; the caller must start the fill.
        Merged,    ///< Coalesced into an in-flight miss; no new fill.
        Full       ///< No free entry; the request must stall/retry.
    };

    struct Stats
    {
        std::uint64_t allocations = 0;
        std::uint64_t merges = 0;
        std::uint64_t fullRejections = 0;
    };

    /**
     * Conservation-audit hook: called with true on every entry
     * allocation and false on every entry free. Null (the default)
     * costs one pointer test per transition; the Gpm/IOMMU bind their
     * tile into it so the Auditor can balance alloc/free per tile
     * without this header depending on obs/.
     */
    using AuditHook = std::function<void(bool allocated)>;

    /** Occupancy transition reported to the backpressure hook. */
    enum class PressureEvent
    {
        Alloc, ///< A new entry was allocated (occupancy +1).
        Free,  ///< An entry was resolved and freed (occupancy -1).
        Reject ///< Misses bounced off a full table (no transition).
    };

    /**
     * Backpressure hook: same null-by-default shape as AuditHook, so
     * this header stays free of obs/ dependencies. Merged misses are
     * deliberately silent -- they occupy no entry, which is exactly
     * why a global stage==resource Little's-law check cannot hold and
     * the backpressure oracle is per-resource (see obs/backpressure.hh).
     */
    using PressureHook =
        std::function<void(PressureEvent, std::uint64_t count)>;

    /** @param capacity 0 means unlimited. */
    explicit MshrFile(std::size_t capacity) : capacity_(capacity) {}

    void setAuditHook(AuditHook hook) { auditHook_ = std::move(hook); }

    void setPressureHook(PressureHook hook)
    {
        pressureHook_ = std::move(hook);
    }

    /** Register a miss for @p vpn; @p cb fires when it resolves. */
    Outcome registerMiss(Vpn vpn, MshrCallback cb)
    {
        auto it = entries_.find(vpn);
        if (it != entries_.end()) {
            it->second.push_back(std::move(cb));
            ++stats_.merges;
            return Outcome::Merged;
        }
        if (capacity_ != 0 && entries_.size() >= capacity_) {
            ++stats_.fullRejections;
            if (pressureHook_) [[unlikely]]
                pressureHook_(PressureEvent::Reject, 1);
            return Outcome::Full;
        }
        entries_[vpn].push_back(std::move(cb));
        ++stats_.allocations;
        if (auditHook_) [[unlikely]]
            auditHook_(true);
        if (pressureHook_) [[unlikely]]
            pressureHook_(PressureEvent::Alloc, 1);
        return Outcome::Allocated;
    }

    /**
     * Account @p n misses bouncing off the full table at once: the
     * same stats and pressure report as @p n registerMiss() calls
     * returning Full, in O(1).
     */
    void rejectFull(std::uint64_t n)
    {
        stats_.fullRejections += n;
        if (pressureHook_ && n != 0) [[unlikely]]
            pressureHook_(PressureEvent::Reject, n);
    }

    /** True if a miss for @p vpn is already in flight. */
    bool inFlight(Vpn vpn) const { return entries_.count(vpn) != 0; }

    /**
     * Resolve the miss for @p vpn: frees the entry and fires every
     * waiting callback (in registration order).
     */
    void resolve(Vpn vpn, Pfn pfn)
    {
        auto it = entries_.find(vpn);
        if (it == entries_.end())
            return;
        // Move out first: callbacks may re-enter the MSHR file.
        std::vector<MshrCallback> waiters = std::move(it->second);
        entries_.erase(it);
        if (auditHook_) [[unlikely]]
            auditHook_(false);
        if (pressureHook_) [[unlikely]]
            pressureHook_(PressureEvent::Free, 1);
        for (auto &cb : waiters)
            cb(vpn, pfn);
    }

    std::size_t occupancy() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool full() const
    {
        return capacity_ != 0 && entries_.size() >= capacity_;
    }

    const Stats &stats() const { return stats_; }

  private:
    std::size_t capacity_;
    std::unordered_map<Vpn, std::vector<MshrCallback>> entries_;
    Stats stats_;
    AuditHook auditHook_;
    PressureHook pressureHook_;
};

} // namespace hdpat

#endif // HDPAT_MEM_MSHR_HH
