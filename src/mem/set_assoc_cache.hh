/**
 * @file
 * Tag-only set-associative cache used to model each GPM's data cache
 * (the unified L2 of Fig 1(b)); it decides whether a memory operation
 * pays HBM / remote-NoC cost after translation.
 *
 * Each set keeps its tags in recency order, most recent first, plus a
 * one-byte fill count: a hit moves its tag to the front, a miss
 * inserts at the front and, in a full set, drops the last tag (the
 * LRU line). This is exact LRU with no stamp or valid lanes: the
 * victim of a stamp-based LRU is unique and always the last tag in
 * recency order, and which slot a line sits in is invisible outside
 * the class, so every hit/miss sequence is unchanged.
 *
 * Only the fill lane is zeroed at construction; tags past a set's
 * fill count are never read, so the tag lane is first-touched on
 * fill. That matters: a wafer sweep constructs one half-megabyte tag
 * store (MI100 geometry) per tile per run, while a short run touches
 * only a few hundred of its lines.
 */

#ifndef HDPAT_MEM_SET_ASSOC_CACHE_HH
#define HDPAT_MEM_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace hdpat
{

/**
 * LRU set-associative tag array keyed by cache-line address.
 * access() combines lookup and fill (allocate-on-miss).
 */
class SetAssocCache
{
  public:
    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
    };

    /**
     * @param size_bytes Total capacity.
     * @param num_ways Associativity, at most 255 (the fill lane's
     *                 range).
     * @param line_bytes Cache line size (power of two).
     */
    SetAssocCache(std::size_t size_bytes, std::size_t num_ways,
                  std::size_t line_bytes = 64);

    /** Access @p addr: @return true on hit; fills on miss. */
    bool access(Addr addr);

    /** Probe without filling or touching LRU. */
    bool contains(Addr addr) const;

    /**
     * Prefetch @p addr's set, its tags and fill byte, ahead of an
     * access(); changes no state.
     */
    void prefetchSet(Addr addr) const;

    void flush();

    std::size_t numSets() const { return numSets_; }
    std::size_t numWays() const { return numWays_; }
    std::size_t lineBytes() const { return lineBytes_; }

    double hitRate() const
    {
        return stats_.accesses
                   ? static_cast<double>(stats_.hits) / stats_.accesses
                   : 0.0;
    }

    const Stats &stats() const { return stats_; }

  private:
    std::size_t setIndex(Addr line_addr) const;

    std::size_t numSets_;
    std::size_t numWays_;
    std::size_t lineBytes_;
    unsigned lineShift_;
    /**
     * Set s owns tags_[s*ways, (s+1)*ways), of which the first fill_[s]
     * are valid, most recently used first.
     */
    std::unique_ptr<Addr[]> tags_;
    std::unique_ptr<std::uint8_t[]> fill_;
    Stats stats_;
};

} // namespace hdpat

#endif // HDPAT_MEM_SET_ASSOC_CACHE_HH
