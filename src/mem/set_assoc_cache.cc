#include "mem/set_assoc_cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/log.hh"

namespace hdpat
{

SetAssocCache::SetAssocCache(std::size_t size_bytes, std::size_t num_ways,
                             std::size_t line_bytes)
    : numWays_(num_ways), lineBytes_(line_bytes)
{
    hdpat_fatal_if(line_bytes == 0 || (line_bytes & (line_bytes - 1)),
                   "cache line size must be a power of two");
    hdpat_fatal_if(num_ways == 0 || num_ways > 255,
                   "cache ways must be in [1, 255] (got " << num_ways
                                                          << ")");
    lineShift_ = static_cast<unsigned>(std::bit_width(line_bytes) - 1);
    const std::size_t total_lines = size_bytes / line_bytes;
    numSets_ = total_lines / num_ways;
    hdpat_fatal_if(numSets_ == 0,
                   "cache too small: " << size_bytes << " bytes");
    tags_.reset(new Addr[numSets_ * numWays_]);
    fill_.reset(new std::uint8_t[numSets_]());
}

std::size_t
SetAssocCache::setIndex(Addr line_addr) const
{
    std::uint64_t x = line_addr;
    x ^= x >> 15;
    x *= 0x2545f4914f6cdd1dull;
    return static_cast<std::size_t>(x % numSets_);
}

bool
SetAssocCache::access(Addr addr)
{
    ++stats_.accesses;
    const Addr line_addr = addr >> lineShift_;
    const std::size_t set = setIndex(line_addr);
    Addr *const tags = &tags_[set * numWays_];
    std::uint8_t &fill = fill_[set];

    std::size_t k = 0;
    while (k < fill && tags[k] != line_addr)
        ++k;
    const bool hit = k < fill;
    if (hit)
        ++stats_.hits;
    else if (fill < numWays_)
        ++fill; // k == old fill: the shift below grows the set by one.
    else
        k = fill - 1; // Full: the shift below drops the LRU tag.

    // Move the line to the front; [0, k) slides one slot back.
    std::copy_backward(tags, tags + k, tags + k + 1);
    tags[0] = line_addr;
    return hit;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr line_addr = addr >> lineShift_;
    const std::size_t set = setIndex(line_addr);
    const Addr *const tags = &tags_[set * numWays_];
    const Addr *const end = tags + fill_[set];
    return std::find(tags, end, line_addr) != end;
}

void
SetAssocCache::prefetchSet(Addr addr) const
{
    const std::size_t set = setIndex(addr >> lineShift_);
    const Addr *const tags = &tags_[set * numWays_];
    // One prefetch per 64 bytes of tags, plus the last tag: a set need
    // not start on a host line, so it can straddle one more.
    for (std::size_t w = 0; w < numWays_; w += 64 / sizeof(Addr))
        __builtin_prefetch(&tags[w]);
    __builtin_prefetch(&tags[numWays_ - 1]);
    __builtin_prefetch(&fill_[set]);
}

void
SetAssocCache::flush()
{
    std::memset(fill_.get(), 0, numSets_);
}

} // namespace hdpat
