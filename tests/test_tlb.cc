/**
 * @file
 * Unit tests for the set-associative TLB.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mem/tlb.hh"
#include "sim/rng.hh"

namespace hdpat
{
namespace
{

TEST(TlbTest, MissThenHit)
{
    Tlb tlb(4, 2);
    EXPECT_FALSE(tlb.lookup(10).has_value());
    tlb.insert(10, 99);
    const auto pfn = tlb.lookup(10);
    ASSERT_TRUE(pfn.has_value());
    EXPECT_EQ(*pfn, 99u);
    EXPECT_EQ(tlb.stats().lookups, 2u);
    EXPECT_EQ(tlb.stats().hits, 1u);
}

TEST(TlbTest, InsertRefreshesExisting)
{
    Tlb tlb(1, 4);
    tlb.insert(5, 100);
    const auto evicted = tlb.insert(5, 200);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(*tlb.lookup(5), 200u);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(TlbTest, LruEvictionInFullSet)
{
    Tlb tlb(1, 2); // One set, two ways.
    tlb.insert(1, 11);
    tlb.insert(2, 22);
    tlb.lookup(1); // 1 becomes MRU; 2 is LRU.
    const auto evicted = tlb.insert(3, 33);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->vpn, 2u);
    EXPECT_TRUE(tlb.lookup(1).has_value());
    EXPECT_TRUE(tlb.lookup(3).has_value());
    EXPECT_FALSE(tlb.lookup(2).has_value());
}

TEST(TlbTest, PeekDoesNotDisturbLru)
{
    Tlb tlb(1, 2);
    tlb.insert(1, 11);
    tlb.insert(2, 22);
    // Peek at 1; 1 must remain LRU (insert order decides).
    EXPECT_TRUE(tlb.peek(1).has_value());
    const auto evicted = tlb.insert(3, 33);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->vpn, 1u);
}

TEST(TlbTest, EvictionReportsFlags)
{
    Tlb tlb(1, 1);
    tlb.insert(7, 70, /*remote=*/true, /*prefetched=*/true);
    const auto evicted = tlb.insert(8, 80);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(evicted->remote);
    EXPECT_TRUE(evicted->prefetched);
    EXPECT_EQ(evicted->pfn, 70u);
}

TEST(TlbTest, LookupEntryExposesFlags)
{
    Tlb tlb(2, 2);
    tlb.insert(9, 90, true, false);
    const TlbEntry *entry = tlb.lookupEntry(9);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->remote);
    EXPECT_FALSE(entry->prefetched);
    EXPECT_EQ(tlb.lookupEntry(1234), nullptr);
}

TEST(TlbTest, InvalidateRemovesEntry)
{
    Tlb tlb(2, 2);
    tlb.insert(4, 40);
    const auto removed = tlb.invalidate(4);
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(removed->pfn, 40u);
    EXPECT_FALSE(tlb.lookup(4).has_value());
    EXPECT_EQ(tlb.occupancy(), 0u);
    EXPECT_FALSE(tlb.invalidate(4).has_value());
}

TEST(TlbTest, FlushClearsEverything)
{
    Tlb tlb(4, 4);
    for (Vpn v = 0; v < 10; ++v)
        tlb.insert(v, v * 10);
    tlb.flush();
    EXPECT_EQ(tlb.occupancy(), 0u);
    for (Vpn v = 0; v < 10; ++v)
        EXPECT_FALSE(tlb.peek(v).has_value());
}

TEST(TlbTest, OccupancyNeverExceedsCapacity)
{
    Tlb tlb(8, 4);
    for (Vpn v = 0; v < 1000; ++v) {
        tlb.insert(v, v);
        EXPECT_LE(tlb.occupancy(), tlb.capacity());
    }
    EXPECT_EQ(tlb.occupancy(), tlb.capacity());
}

TEST(TlbTest, HitRate)
{
    Tlb tlb(1, 8);
    tlb.insert(1, 1);
    tlb.lookup(1);
    tlb.lookup(2);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(TlbTest, ZeroGeometryIsFatal)
{
    EXPECT_EXIT(Tlb(0, 4), testing::ExitedWithCode(1), "at least");
    EXPECT_EXIT(Tlb(4, 0), testing::ExitedWithCode(1), "at least");
}

/** Table I geometries must hold their advertised capacity exactly. */
class TlbGeometryTest
    : public testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(TlbGeometryTest, FillsToExactCapacity)
{
    const auto [sets, ways] = GetParam();
    Tlb tlb(sets, ways);
    // Insert far more than capacity; occupancy must settle at capacity.
    for (Vpn v = 0; v < sets * ways * 4; ++v)
        tlb.insert(v, v);
    EXPECT_EQ(tlb.occupancy(), sets * ways);
    EXPECT_EQ(tlb.stats().evictions, sets * ways * 4 - sets * ways);
}

INSTANTIATE_TEST_SUITE_P(
    TableOneGeometries, TlbGeometryTest,
    testing::Values(std::pair<std::size_t, std::size_t>{1, 32},
                    std::pair<std::size_t, std::size_t>{64, 32},
                    std::pair<std::size_t, std::size_t>{64, 16},
                    std::pair<std::size_t, std::size_t>{32, 16}));

/**
 * Plain-scan, stamp-LRU reference: per way a valid flag, the entry and
 * an LRU stamp. A probe scans every way of the set; a fill takes the
 * first invalid way, else the way with the strictly smallest stamp
 * (ties keep the lowest way). Sets use Tlb's set hash, so the two can
 * be compared operation by operation, slot order included.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways), slots_(sets * ways)
    {
    }

    std::optional<TlbEntry>
    lookup(Vpn vpn)
    {
        ++stats_.lookups;
        Slot *slot = find(vpn);
        if (!slot)
            return std::nullopt;
        ++stats_.hits;
        slot->lru = ++clock_;
        return slot->entry;
    }

    std::optional<Pfn>
    peek(Vpn vpn)
    {
        const Slot *slot = find(vpn);
        return slot ? std::optional<Pfn>(slot->entry.pfn) : std::nullopt;
    }

    std::optional<TlbEntry>
    insert(Vpn vpn, Pfn pfn, bool remote, bool prefetched)
    {
        ++stats_.inserts;
        const TlbEntry fresh{vpn, pfn, remote, prefetched};
        if (Slot *slot = find(vpn)) {
            slot->entry = fresh;
            slot->lru = ++clock_;
            return std::nullopt;
        }
        const std::size_t base = setOf(vpn) * ways_;
        std::size_t victim = base;
        for (std::size_t i = base; i < base + ways_; ++i) {
            if (!slots_[i].valid) {
                victim = i;
                break;
            }
            if (slots_[i].lru < slots_[victim].lru)
                victim = i;
        }
        std::optional<TlbEntry> evicted;
        if (slots_[victim].valid) {
            evicted = slots_[victim].entry;
            ++stats_.evictions;
        }
        slots_[victim] = Slot{fresh, ++clock_, true};
        return evicted;
    }

    std::optional<TlbEntry>
    invalidate(Vpn vpn)
    {
        Slot *slot = find(vpn);
        if (!slot)
            return std::nullopt;
        slot->valid = false;
        return slot->entry;
    }

    void
    flush()
    {
        for (Slot &slot : slots_)
            slot.valid = false;
    }

    std::vector<std::pair<Vpn, Pfn>>
    resident() const
    {
        std::vector<std::pair<Vpn, Pfn>> out;
        for (const Slot &slot : slots_)
            if (slot.valid)
                out.emplace_back(slot.entry.vpn, slot.entry.pfn);
        return out;
    }

    const Tlb::Stats &stats() const { return stats_; }

  private:
    struct Slot
    {
        TlbEntry entry;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    std::size_t
    setOf(Vpn vpn) const
    {
        std::uint64_t x = vpn;
        x ^= x >> 17;
        x *= 0xed5ad4bbull;
        return static_cast<std::size_t>(x % sets_);
    }

    Slot *
    find(Vpn vpn)
    {
        const std::size_t base = setOf(vpn) * ways_;
        for (std::size_t i = base; i < base + ways_; ++i)
            if (slots_[i].valid && slots_[i].entry.vpn == vpn)
                return &slots_[i];
        return nullptr;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::vector<Slot> slots_;
    std::uint64_t clock_ = 0;
    Tlb::Stats stats_;
};

void
expectSameEntry(const std::optional<TlbEntry> &got,
                const std::optional<TlbEntry> &want)
{
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want)
        return;
    EXPECT_EQ(got->vpn, want->vpn);
    EXPECT_EQ(got->pfn, want->pfn);
    EXPECT_EQ(got->remote, want->remote);
    EXPECT_EQ(got->prefetched, want->prefetched);
}

std::vector<std::pair<Vpn, Pfn>>
residentOf(const Tlb &tlb)
{
    std::vector<std::pair<Vpn, Pfn>> out;
    tlb.forEachValid([&](Vpn vpn, Pfn pfn) { out.emplace_back(vpn, pfn); });
    return out;
}

/**
 * @p n VPNs that share one set of a @p sets-set TLB and one
 * fingerprint. The fingerprint mirrors Tlb's: the top seven bits of a
 * second multiplicative mix of the set hash.
 */
std::vector<Vpn>
collidingVpns(std::size_t sets, std::size_t n)
{
    std::vector<Vpn> out;
    std::optional<std::pair<std::size_t, std::uint64_t>> key;
    for (Vpn v = 1; out.size() < n; ++v) {
        std::uint64_t x = v;
        x ^= x >> 17;
        x *= 0xed5ad4bbull;
        const std::pair<std::size_t, std::uint64_t> k{
            x % sets, (x * 0x9e3779b97f4a7c15ull) >> 57};
        if (!key)
            key = k;
        if (k == *key)
            out.push_back(v);
    }
    return out;
}

/**
 * Drive Tlb and the reference with one random operation stream drawn
 * from @p pool and compare every result, the stats, the occupancy and
 * the forEachValid() slot order.
 */
void
runDifferential(std::size_t sets, std::size_t ways,
                const std::vector<Vpn> &pool, std::uint64_t seed)
{
    Tlb tlb(sets, ways);
    ReferenceTlb ref(sets, ways);
    Rng rng(seed);
    std::size_t occupancy = 0;
    const std::size_t n_ops = 40 * pool.size() + 4000;
    for (std::size_t op = 0; op < n_ops; ++op) {
        SCOPED_TRACE(testing::Message() << "op " << op);
        const Vpn vpn = pool[rng.uniformInt(pool.size())];
        switch (rng.uniformInt(16)) {
        case 0: case 1: case 2: case 3: case 4: case 5: {
            const Pfn pfn = rng.uniformInt(1u << 20);
            const bool remote = rng.uniformInt(2) != 0;
            const bool prefetched = rng.uniformInt(2) != 0;
            const bool present = ref.peek(vpn).has_value();
            const auto want = ref.insert(vpn, pfn, remote, prefetched);
            expectSameEntry(tlb.insert(vpn, pfn, remote, prefetched), want);
            occupancy += !present && !want;
            break;
        }
        case 6: case 7: case 8: {
            const auto want = ref.lookup(vpn);
            const auto got = tlb.lookup(vpn);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (want)
                EXPECT_EQ(*got, want->pfn);
            break;
        }
        case 9: case 10: {
            const auto want = ref.lookup(vpn);
            const TlbEntry *got = tlb.lookupEntry(vpn);
            expectSameEntry(got ? std::optional<TlbEntry>(*got)
                                : std::nullopt,
                            want);
            break;
        }
        case 11: case 12:
            EXPECT_EQ(tlb.peek(vpn), ref.peek(vpn));
            break;
        case 13: case 14: {
            const auto want = ref.invalidate(vpn);
            expectSameEntry(tlb.invalidate(vpn), want);
            occupancy -= want.has_value();
            break;
        }
        default:
            if (rng.uniformInt(64) == 0) {
                tlb.flush();
                ref.flush();
                occupancy = 0;
            }
            break;
        }
        ASSERT_EQ(tlb.occupancy(), occupancy);
        if (op % 101 == 0)
            ASSERT_EQ(residentOf(tlb), ref.resident());
    }
    EXPECT_EQ(residentOf(tlb), ref.resident());
    EXPECT_EQ(tlb.stats().lookups, ref.stats().lookups);
    EXPECT_EQ(tlb.stats().hits, ref.stats().hits);
    EXPECT_EQ(tlb.stats().inserts, ref.stats().inserts);
    EXPECT_EQ(tlb.stats().evictions, ref.stats().evictions);
    EXPECT_GT(tlb.stats().hits, 0u);
    EXPECT_GT(tlb.stats().evictions, 0u);
}

TEST(TlbTest, MatchesPlainScanReference)
{
    struct Geometry
    {
        std::size_t sets;
        std::size_t ways;
    };
    // Table I's L1, L2 and last-level TLBs, a PWC level (4-way) and
    // way counts that leave a partial SWAR word.
    for (const Geometry g : {Geometry{1, 32}, Geometry{64, 32},
                             Geometry{64, 16}, Geometry{16, 4},
                             Geometry{8, 12}, Geometry{5, 3}}) {
        SCOPED_TRACE(testing::Message() << g.sets << " sets x " << g.ways
                                        << " ways");
        // A pool of 3x capacity gives hits, misses and evictions.
        std::vector<Vpn> pool;
        for (Vpn v = 0; v < 3 * g.sets * g.ways; ++v)
            pool.push_back(0x100 + v * 7);
        runDifferential(g.sets, g.ways, pool, g.sets * 1000 + g.ways);
    }
}

TEST(TlbTest, SharedFingerprintsResolveByTag)
{
    // Every VPN maps to one set with one fingerprint, so each probe of
    // a filled set meets fingerprint matches whose tags differ.
    for (const std::pair<std::size_t, std::size_t> g :
         {std::pair<std::size_t, std::size_t>{1, 32}, {64, 16}, {4, 12}}) {
        SCOPED_TRACE(testing::Message() << g.first << " sets x "
                                        << g.second << " ways");
        runDifferential(g.first, g.second,
                        collidingVpns(g.first, 2 * g.second), g.second);
    }
}

} // namespace
} // namespace hdpat
