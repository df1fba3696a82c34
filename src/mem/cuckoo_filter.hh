/**
 * @file
 * A real cuckoo filter (Fan et al., CoNEXT'14), as used between the
 * L2 TLB and the last-level TLB in each GPM (paper §II-B).
 *
 * The filter answers "might this VPN be translatable locally?" with no
 * false negatives and a small, organic false-positive rate. Supports
 * insertion and deletion so the GPM can remove evicted cached PTEs.
 *
 * The table is built lazily: it is allocated uninitialized, and a
 * zeroed bitmap marks the 64-byte lines written so far. A line whose
 * bit is clear reads as all-empty without touching the table, and its
 * first write zeroes it. A filter sized for a GPM's whole memory but
 * seeded with a few thousand pages never pays for the rest.
 */

#ifndef HDPAT_MEM_CUCKOO_FILTER_HH
#define HDPAT_MEM_CUCKOO_FILTER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace hdpat
{

/**
 * Bucketed cuckoo filter with 4-slot buckets and partial-key cuckoo
 * hashing. Fingerprints are 12 bits by default (stored in uint16).
 */
class CuckooFilter
{
  public:
    /** Statistics kept by the filter. */
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t positives = 0;
        std::uint64_t inserts = 0;
        std::uint64_t insertFailures = 0;
        std::uint64_t deletes = 0;

        bool operator==(const Stats &) const = default;
    };

    /**
     * @param capacity Number of items the filter should hold; the
     *                 bucket array is sized for ~95% max load, never
     *                 fewer than two buckets (capacity 0 is a legal
     *                 degenerate 8-slot filter).
     * @param fingerprint_bits Fingerprint width (1..16).
     * @param seed Hash seed (determinism).
     */
    explicit CuckooFilter(std::size_t capacity,
                          unsigned fingerprint_bits = 12,
                          std::uint64_t seed = 0x5bd1e995u);

    /** Copies the bitmap and only the lines it marks as written. */
    CuckooFilter(const CuckooFilter &other);
    /** As the copy constructor; keeps this table when sizes match. */
    CuckooFilter &operator=(const CuckooFilter &other);
    CuckooFilter(CuckooFilter &&) = default;
    CuckooFilter &operator=(CuckooFilter &&) = default;

    /**
     * Insert @p vpn.
     * @return false if the filter is too full (after max relocations).
     *         A failed insert leaves the table exactly unchanged: the
     *         relocation chain is unwound, so no previously accepted
     *         item is ever displaced (which would be a silent false
     *         negative). Callers treat failure as "must not rely on
     *         the filter" and track it via stats.
     */
    bool insert(Vpn vpn);

    /**
     * Insert every VPN of @p vpns, in order: the table, size(), stats()
     * and the kick RNG end exactly as after insert() on each in turn,
     * so failed inserts show only in stats().insertFailures. The batch
     * prefetches the primary bucket kPrefetchDistance VPNs ahead, so
     * the cache misses of consecutive inserts overlap.
     */
    void insertBatch(std::span<const Vpn> vpns);

    /** Remove one copy of @p vpn. @return true if a copy was found. */
    bool erase(Vpn vpn);

    /** Membership query (may return false positives). */
    bool contains(Vpn vpn) const;

    /** Current number of stored fingerprints. */
    std::size_t size() const { return count_; }

    /** Total slots (4 per bucket). */
    std::size_t slotCount() const { return numBuckets_ * kSlotsPerBucket; }

    /** Load factor in [0, 1]. */
    double loadFactor() const
    {
        return static_cast<double>(count_) /
               static_cast<double>(slotCount());
    }

    const Stats &stats() const { return stats_; }
    Stats &stats() { return stats_; }

    /**
     * The four slots of bucket @p bucket (< slotCount() / 4) as one
     * word, slot s in bits [16s, 16s + 16); 0 marks an empty slot, so
     * a bucket on a never-written line reads 0.
     */
    std::uint64_t bucketWord(std::size_t bucket) const;

    static constexpr unsigned kSlotsPerBucket = 4;
    static constexpr unsigned kMaxKicks = 500;
    /**
     * How many VPNs ahead insertBatch() prefetches. On a 4-core x86-64
     * host the traced fig14-sweep benchmark measured mem.cuckoo_seed_s
     * 0.06 s at 32, 0.044 s at 64 and 0.044 s at 128.
     */
    static constexpr std::size_t kPrefetchDistance = 64;

  private:
    using Fingerprint = std::uint16_t;

    /** One host cache line of the table: 8 buckets of 4 slots. */
    struct alignas(64) Line
    {
        Fingerprint slots[32];
    };
    static constexpr std::size_t kBucketsPerLine =
        sizeof(Line) / (kSlotsPerBucket * sizeof(Fingerprint));

    /** Lines in the table (a filter of < 8 buckets has one, partial). */
    std::size_t lineCount() const
    {
        return (numBuckets_ + kBucketsPerLine - 1) / kBucketsPerLine;
    }
    /** Slots of @p bucket; their contents are valid once written(). */
    Fingerprint *bucketSlots(std::size_t bucket) const
    {
        return table_[bucket / kBucketsPerLine].slots +
               bucket % kBucketsPerLine * kSlotsPerBucket;
    }
    /** Whether @p bucket's line has been written since construction. */
    bool written(std::size_t bucket) const
    {
        const std::size_t line = bucket / kBucketsPerLine;
        return (written_[line / 64] >> (line % 64)) & 1;
    }
    /** Copy @p other's written lines into this (same-size) table. */
    void copyWrittenLines(const CuckooFilter &other);

    std::uint64_t hash(std::uint64_t x) const;
    Fingerprint fingerprintOf(Vpn vpn) const;
    std::size_t indexOf(Vpn vpn) const;
    std::size_t altIndex(std::size_t idx, Fingerprint fp) const;

    /** The insert body shared by insert() and insertBatch(). */
    bool insertAt(std::size_t i1, Fingerprint fp);

    bool bucketInsert(std::size_t bucket, Fingerprint fp);
    bool bucketErase(std::size_t bucket, Fingerprint fp);

    std::size_t numBuckets_;
    unsigned fpBits_;
    std::uint64_t seed_;
    /**
     * Bucket b is slots [4(b % 8), 4(b % 8) + 4) of line b / 8. 0 =
     * empty. Uninitialized until written_ marks the line.
     */
    std::unique_ptr<Line[]> table_;
    /** One bit per line of table_: set once the line is zeroed. */
    std::vector<std::uint64_t> written_;
    std::size_t count_ = 0;
    mutable Stats stats_;
    Rng kickRng_;
};

} // namespace hdpat

#endif // HDPAT_MEM_CUCKOO_FILTER_HH
