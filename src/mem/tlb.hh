/**
 * @file
 * Set-associative TLB with LRU replacement (Table I structures: L1
 * vector/scalar/instruction TLBs, the shared L2 TLB, the last-level
 * TLB / GMMU cache, and the conventional IOMMU-side TLB of Fig 19).
 *
 * Storage is structure-of-arrays: fingerprint bytes, tags, payloads,
 * LRU stamps and flags live in separate contiguous arrays. Each way
 * has one fingerprint byte: 0 when the way is empty, else 0x80 | seven
 * bits of a VPN hash. A probe compares the set's fingerprint bytes
 * eight at a time (SWAR) and reads the tag lane only for the ways
 * whose byte matches, so a miss on a full 32-way set reads the set's
 * 32 fingerprint bytes (one host cache line, two if they straddle a
 * line boundary) instead of five lines of tags and flags.
 * Only the fingerprint lane is zero-initialized at construction; the
 * other lanes are guarded by it and first-touched on insert, which
 * keeps building the thousands of TLBs of a wafer-scale sweep off the
 * host profile.
 */

#ifndef HDPAT_MEM_TLB_HH
#define HDPAT_MEM_TLB_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "sim/types.hh"

namespace hdpat
{

/** One translation held by a TLB (materialized view of the arrays). */
struct TlbEntry
{
    Vpn vpn = 0;
    Pfn pfn = kInvalidPfn;
    /**
     * True when this entry caches a translation for a page homed on a
     * *different* GPM (a "remote PTE" in HDPAT peer caching). Used so
     * evictions know whether to update the cuckoo filter.
     */
    bool remote = false;
    /**
     * True when the entry arrived via proactive page-entry delivery
     * (§IV-G) rather than a demand fill; used to classify peer hits
     * into the Fig 16 "proactive delivery" bucket.
     */
    bool prefetched = false;
};

/**
 * A set-associative, LRU-replacement TLB.
 *
 * Timing is modeled by the owning component (the TLB itself is a pure
 * state container), matching how the paper separates structure from
 * latency (Table I lists per-level latencies).
 */
class Tlb
{
  public:
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t evictions = 0;
        std::uint64_t inserts = 0;
    };

    /**
     * @param num_sets Number of sets (>= 1).
     * @param num_ways Associativity (>= 1).
     */
    Tlb(std::size_t num_sets, std::size_t num_ways);

    /** Look up @p vpn; updates LRU on hit. */
    std::optional<Pfn> lookup(Vpn vpn);

    /**
     * Like lookup() but exposes the full entry (nullptr on miss). The
     * pointer refers to a scratch view materialized from the arrays;
     * it is invalidated by the next hitting lookupEntry() call.
     */
    const TlbEntry *lookupEntry(Vpn vpn);

    /** Look up without disturbing replacement state. */
    std::optional<Pfn> peek(Vpn vpn) const;

    /**
     * Prefetch the fingerprint line and the first tag line of @p vpn's
     * set (no side effects).
     */
    void prefetchSet(Vpn vpn) const
    {
        const std::size_t base = probeOf(vpn).base;
        __builtin_prefetch(&fps_[base]);
        __builtin_prefetch(&vpns_[base]);
    }

    /**
     * Insert (or refresh) a translation.
     *
     * @return The entry evicted to make room, if any. The caller uses
     *         this to keep auxiliary structures (cuckoo filter) in sync.
     */
    std::optional<TlbEntry> insert(Vpn vpn, Pfn pfn, bool remote = false,
                                   bool prefetched = false);

    /** Invalidate @p vpn. @return the invalidated entry, if present. */
    std::optional<TlbEntry> invalidate(Vpn vpn);

    /** Drop everything. */
    void flush();

    /**
     * Visit every resident entry as (vpn, pfn), in slot order, with no
     * LRU or stats side effects. The end-of-run staleness sweep uses
     * this to check that nothing resident contradicts the page table.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t base = 0; base < numSets_ * stride_;
             base += stride_)
            for (std::size_t i = base; i < base + numWays_; ++i)
                if (fps_[i])
                    fn(vpns_[i], pfns_[i]);
    }

    std::size_t numSets() const { return numSets_; }
    std::size_t numWays() const { return numWays_; }
    std::size_t capacity() const { return numSets_ * numWays_; }

    /** Number of valid entries currently stored. */
    std::size_t occupancy() const { return occupancy_; }

    double hitRate() const
    {
        return stats_.lookups
                   ? static_cast<double>(stats_.hits) / stats_.lookups
                   : 0.0;
    }

    const Stats &stats() const { return stats_; }

  private:
    /** Flag lane bits. */
    static constexpr std::uint8_t kRemote = 1;
    static constexpr std::uint8_t kPrefetched = 2;

    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Where @p vpn lives: its set's first slot and its fingerprint. */
    struct Probe
    {
        std::size_t base;
        /** 0x80 | 7 hash bits: never 0, the empty-way marker. */
        std::uint8_t fp;
    };

    Probe probeOf(Vpn vpn) const;
    /** Slot index of @p vpn, or kNone. */
    std::size_t findSlot(Vpn vpn, const Probe &probe) const;
    std::size_t findSlot(Vpn vpn) const
    {
        return findSlot(vpn, probeOf(vpn));
    }
    /** Materialize slot @p i into a TlbEntry view. */
    TlbEntry entryAt(std::size_t i) const;

    std::size_t numSets_;
    std::size_t numWays_;
    /** Slots per set: numWays_ rounded up to whole 8-byte SWAR words. */
    std::size_t stride_;
    /**
     * SoA lanes, flat: set s occupies [s*stride, s*stride + ways); the
     * padding slots' fingerprints stay 0 and their other lanes are
     * never touched. Only fps_ is zeroed at construction; the other
     * lanes, the remote/prefetched flags included, are guarded by a
     * nonzero fingerprint and first-touched on insert.
     */
    std::unique_ptr<std::uint8_t[]> fps_;
    std::unique_ptr<Vpn[]> vpns_;
    std::unique_ptr<Pfn[]> pfns_;
    std::unique_ptr<std::uint64_t[]> lru_;
    std::unique_ptr<std::uint8_t[]> flags_;
    std::uint64_t lruClock_ = 0;
    std::size_t occupancy_ = 0;
    Stats stats_;
    /** Backing storage for the lookupEntry() view. */
    TlbEntry scratch_;
};

} // namespace hdpat

#endif // HDPAT_MEM_TLB_HH
