/**
 * @file
 * Unit tests for the data-cache tag array.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "mem/set_assoc_cache.hh"
#include "sim/rng.hh"

namespace hdpat
{
namespace
{

/**
 * Stamp-based LRU reference: per way a valid flag, a tag and an LRU
 * stamp; a miss fills the first invalid way, else the way with the
 * strictly smallest stamp (ties keep the lowest way). Sets are indexed
 * with the same hash as SetAssocCache so the two can be compared
 * access by access.
 */
class ReferenceLruCache
{
  public:
    ReferenceLruCache(std::size_t sets, std::size_t ways,
                      std::size_t line_bytes)
        : sets_(sets), ways_(ways),
          lineShift_(static_cast<unsigned>(std::bit_width(line_bytes) - 1)),
          tags_(sets * ways), lru_(sets * ways), valid_(sets * ways)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr line = addr >> lineShift_;
        const std::size_t base = setOf(line) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (valid_[i] && tags_[i] == line) {
                lru_[i] = ++clock_;
                return true;
            }
        }
        std::size_t victim = base;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (!valid_[i]) {
                victim = i;
                break;
            }
            if (lru_[i] < lru_[victim])
                victim = i;
        }
        tags_[victim] = line;
        valid_[victim] = true;
        lru_[victim] = ++clock_;
        return false;
    }

    bool
    contains(Addr addr) const
    {
        const Addr line = addr >> lineShift_;
        const std::size_t base = setOf(line) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (valid_[i] && tags_[i] == line)
                return true;
        }
        return false;
    }

    void flush() { valid_.assign(valid_.size(), false); }

  private:
    std::size_t
    setOf(Addr line) const
    {
        std::uint64_t x = line;
        x ^= x >> 15;
        x *= 0x2545f4914f6cdd1dull;
        return static_cast<std::size_t>(x % sets_);
    }

    std::size_t sets_;
    std::size_t ways_;
    unsigned lineShift_;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lru_;
    std::vector<bool> valid_;
    std::uint64_t clock_ = 0;
};

TEST(SetAssocCacheTest, MissThenHit)
{
    SetAssocCache cache(4096, 4, 64);
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(SetAssocCacheTest, SameLineDifferentOffsetHits)
{
    SetAssocCache cache(4096, 4, 64);
    cache.access(0x2000);
    EXPECT_TRUE(cache.access(0x2000 + 63));
    EXPECT_FALSE(cache.access(0x2000 + 64)); // Next line.
}

TEST(SetAssocCacheTest, ContainsDoesNotFill)
{
    SetAssocCache cache(4096, 4, 64);
    EXPECT_FALSE(cache.contains(0x3000));
    EXPECT_FALSE(cache.access(0x3000)); // Still a miss: no side fill.
    EXPECT_TRUE(cache.contains(0x3000));
}

TEST(SetAssocCacheTest, GeometryDerivation)
{
    SetAssocCache cache(1u << 20, 16, 64); // 1 MiB, 16-way.
    EXPECT_EQ(cache.numWays(), 16u);
    EXPECT_EQ(cache.numSets(), (1u << 20) / 64 / 16);
    EXPECT_EQ(cache.lineBytes(), 64u);
}

TEST(SetAssocCacheTest, LruEvictsOldest)
{
    // Tiny direct-set cache to force conflicts deterministically:
    // 2 lines total, 2-way, 1 set.
    SetAssocCache cache(128, 2, 64);
    ASSERT_EQ(cache.numSets(), 1u);
    cache.access(0 * 64);
    cache.access(1 * 64);
    cache.access(0 * 64);     // Refresh line 0; line 1 is LRU.
    cache.access(2 * 64);     // Evicts line 1.
    EXPECT_TRUE(cache.contains(0 * 64));
    EXPECT_FALSE(cache.contains(1 * 64));
    EXPECT_TRUE(cache.contains(2 * 64));
}

TEST(SetAssocCacheTest, FlushEmptiesCache)
{
    SetAssocCache cache(4096, 4, 64);
    cache.access(0x100);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x100));
}

TEST(SetAssocCacheTest, StreamingHasNoReuseHits)
{
    SetAssocCache cache(8192, 4, 64);
    int hits = 0;
    for (Addr a = 0; a < 1u << 20; a += 64)
        hits += cache.access(a);
    EXPECT_EQ(hits, 0);
}

TEST(SetAssocCacheTest, WorkingSetWithinCapacityAllHits)
{
    SetAssocCache cache(1u << 16, 16, 64); // 64 KiB.
    // A 16 KiB working set fits comfortably.
    for (int pass = 0; pass < 3; ++pass) {
        int misses = 0;
        for (Addr a = 0; a < 1u << 14; a += 64)
            misses += !cache.access(a);
        if (pass > 0) {
            EXPECT_EQ(misses, 0) << "pass " << pass;
        }
    }
}

TEST(SetAssocCacheTest, BadGeometryIsFatal)
{
    EXPECT_EXIT(SetAssocCache(4096, 4, 60), testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(SetAssocCache(64, 4, 64), testing::ExitedWithCode(1),
                "too small");
    EXPECT_EXIT(SetAssocCache(4096, 0, 64), testing::ExitedWithCode(1),
                "way");
    EXPECT_EXIT(SetAssocCache(1u << 20, 256, 64),
                testing::ExitedWithCode(1), "way");
}

TEST(SetAssocCacheTest, MatchesStampLruReference)
{
    struct Geometry
    {
        std::size_t sets;
        std::size_t ways;
    };
    // 24 ways is the widest preset associativity (h100).
    for (const Geometry g : {Geometry{1, 2}, Geometry{4, 4},
                             Geometry{64, 16}, Geometry{8, 24}}) {
        SCOPED_TRACE(testing::Message() << g.sets << " sets x " << g.ways
                                        << " ways");
        constexpr std::size_t kLine = 64;
        SetAssocCache cache(g.sets * g.ways * kLine, g.ways, kLine);
        ASSERT_EQ(cache.numSets(), g.sets);
        ReferenceLruCache ref(g.sets, g.ways, kLine);
        Rng rng(g.sets * 1000 + g.ways);
        // A pool of 3x capacity gives both hits and evictions.
        const std::uint64_t pool = 3 * g.sets * g.ways;
        const std::size_t n_accesses = 200 * pool;
        std::uint64_t hits = 0;
        for (int round = 0; round < 2; ++round) {
            for (std::size_t i = 0; i < n_accesses; ++i) {
                const Addr addr = (0x4000 + rng.uniformInt(pool)) * kLine +
                                  rng.uniformInt(kLine);
                // Prefetches (of this line and of an unrelated one)
                // must change no hit or miss.
                if (i % 2 == 0) {
                    cache.prefetchSet(addr);
                    cache.prefetchSet((0x4000 + rng.uniformInt(pool)) *
                                      kLine);
                }
                const bool hit = ref.access(addr);
                ASSERT_EQ(cache.access(addr), hit)
                    << "round " << round << " access " << i;
                hits += hit;
                if (i % 97 == 0) {
                    const Addr probe =
                        (0x4000 + rng.uniformInt(pool)) * kLine;
                    ASSERT_EQ(cache.contains(probe), ref.contains(probe))
                        << "round " << round << " probe after " << i;
                }
            }
            for (std::uint64_t line = 0; line < pool; ++line) {
                const Addr addr = (0x4000 + line) * kLine;
                ASSERT_EQ(cache.contains(addr), ref.contains(addr));
            }
            cache.flush();
            ref.flush();
        }
        EXPECT_GT(hits, 0u);
        EXPECT_LT(hits, 2 * n_accesses);
    }
}

} // namespace
} // namespace hdpat
