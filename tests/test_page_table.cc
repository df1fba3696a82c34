/**
 * @file
 * Unit tests for the global page table and its block-partitioned
 * allocator (the paper's driver model, §II-A).
 */

#include <array>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "mem/page_table.hh"

namespace hdpat
{
namespace
{

TEST(PageTableTest, PaperExamplePartitioning)
{
    // §II-A: 480 pages across 48 GPMs -> pages 1-10 on GPM 1, 11-20 on
    // GPM 2, and so forth (contiguous blocks in GPM order).
    GlobalPageTable pt(12);
    std::array<TileId, 48> homes;
    for (int i = 0; i < 48; ++i)
        homes[static_cast<std::size_t>(i)] = i + 100;

    const BufferHandle buf = pt.allocate(480 * pt.pageBytes(), homes);
    EXPECT_EQ(buf.numPages, 480u);

    const Vpn base = pt.vpnOf(buf.baseVa);
    for (std::size_t p = 0; p < 480; ++p) {
        const TileId expected = homes[p / 10];
        EXPECT_EQ(pt.homeOf(base + p), expected) << "page " << p;
    }
    for (TileId h : homes)
        EXPECT_EQ(pt.pagesHomedOn(h), 10u);
}

TEST(PageTableTest, RemainderSpillsToEarliestHomes)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 4> homes = {1, 2, 3, 4};
    pt.allocate(10 * pt.pageBytes(), homes); // 10 = 4*2 + 2
    EXPECT_EQ(pt.pagesHomedOn(1), 3u);
    EXPECT_EQ(pt.pagesHomedOn(2), 3u);
    EXPECT_EQ(pt.pagesHomedOn(3), 2u);
    EXPECT_EQ(pt.pagesHomedOn(4), 2u);
}

TEST(PageTableTest, ByteSizesRoundUpToPages)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 1> homes = {7};
    const BufferHandle buf = pt.allocate(1, homes);
    EXPECT_EQ(buf.numPages, 1u);
    EXPECT_EQ(buf.pageBytes, 4096u);
    EXPECT_EQ(buf.endVa(), buf.baseVa + 4096);
}

TEST(PageTableTest, TranslateUnmappedReturnsNull)
{
    GlobalPageTable pt(12);
    EXPECT_EQ(pt.translate(12345), nullptr);
    EXPECT_EQ(pt.homeOf(12345), kInvalidTile);
}

TEST(PageTableTest, PfnsAreUniquePerHome)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 2> homes = {1, 2};
    pt.allocate(64 * pt.pageBytes(), homes);
    pt.allocate(64 * pt.pageBytes(), homes);

    std::set<std::pair<TileId, Pfn>> frames;
    pt.forEachPage([&](Vpn, const Pte &pte) {
        const bool inserted =
            frames.emplace(pte.home, pte.pfn).second;
        EXPECT_TRUE(inserted) << "duplicate frame on home "
                              << pte.home;
    });
    EXPECT_EQ(frames.size(), 128u);
}

TEST(PageTableTest, BuffersDoNotOverlap)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 3> homes = {1, 2, 3};
    const BufferHandle a = pt.allocate(100 * pt.pageBytes(), homes);
    const BufferHandle b = pt.allocate(50 * pt.pageBytes(), homes);
    EXPECT_GE(b.baseVa, a.endVa());
    EXPECT_EQ(pt.size(), 150u);
}

TEST(PageTableTest, AccessCountIsMutable)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 1> homes = {9};
    const BufferHandle buf = pt.allocate(pt.pageBytes(), homes);
    const Vpn vpn = pt.vpnOf(buf.baseVa);

    Pte *pte = pt.translateMutable(vpn);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->accessCount, 0u);
    pte->accessCount += 3;
    EXPECT_EQ(pt.translate(vpn)->accessCount, 3u);
}

TEST(PageTableTest, PageShiftControlsGranularity)
{
    GlobalPageTable pt(16); // 64 KiB pages.
    EXPECT_EQ(pt.pageBytes(), 65536u);
    const std::array<TileId, 1> homes = {1};
    const BufferHandle buf = pt.allocate(1u << 20, homes); // 1 MiB
    EXPECT_EQ(buf.numPages, 16u);
    EXPECT_EQ(pt.vpnOf(buf.baseVa + 65535), pt.vpnOf(buf.baseVa));
    EXPECT_EQ(pt.vpnOf(buf.baseVa + 65536),
              pt.vpnOf(buf.baseVa) + 1);
}

TEST(PageTableTest, ForEachPageVisitsKeysInAscendingOrder)
{
    // Three address spaces populated out of ASID order, several
    // buffers each: the visit order is still ascending key order,
    // ASID-major.
    GlobalPageTable pt(12);
    const std::array<TileId, 3> homes = {5, 1, 3};
    for (const Asid asid : {Asid{2}, Asid{0}, Asid{1}}) {
        pt.setActiveAsid(asid);
        pt.allocate(40 * pt.pageBytes(), homes);
        pt.allocate(7 * pt.pageBytes(), homes);
    }
    pt.setActiveAsid(0);

    std::vector<Vpn> keys;
    pt.forEachPage([&](Vpn key, const Pte &) { keys.push_back(key); });
    ASSERT_EQ(keys.size(), pt.size());
    ASSERT_EQ(keys.size(), 3u * 47u);
    for (std::size_t i = 1; i < keys.size(); ++i)
        EXPECT_LT(keys[i - 1], keys[i]) << "at visit " << i;
    EXPECT_EQ(asidOfKey(keys.front()), 0u);
    EXPECT_EQ(asidOfKey(keys.back()), 2u);
}

TEST(PageTableTest, KeysOutsideAllocatedRangesAreUnmapped)
{
    // ASIDs 0 and 2 allocate; ASID 1 never does.
    GlobalPageTable pt(12);
    const std::array<TileId, 2> homes = {4, 6};
    const BufferHandle buf = pt.allocate(10 * pt.pageBytes(), homes);
    pt.setActiveAsid(2);
    pt.allocate(10 * pt.pageBytes(), homes);
    pt.setActiveAsid(0);

    const Vpn first = pt.vpnOf(buf.baseVa);
    ASSERT_NE(pt.translate(first), nullptr);
    ASSERT_NE(pt.translate(asidKey(2, first)), nullptr);

    const Vpn edges[] = {
        0,                            // null page
        first - 1,                    // just below the first VPN
        asidKey(2, first - 1),        // ditto, tagged
        first + buf.numPages,         // one past the cursor
        asidKey(2, first + buf.numPages),
        asidKey(1, first),            // ASID with no allocations
        asidKey(3, first),            // above every allocated ASID
        asidKey(0xffff, first),
    };
    for (const Vpn key : edges) {
        EXPECT_EQ(pt.translate(key), nullptr) << std::hex << key;
        EXPECT_EQ(pt.translateMutable(key), nullptr) << std::hex << key;
        EXPECT_EQ(pt.homeOf(key), kInvalidTile) << std::hex << key;
        EXPECT_EQ(pt.lastHomeOf(key), kInvalidTile) << std::hex << key;
        EXPECT_EQ(pt.remap(key), nullptr) << std::hex << key;
        EXPECT_FALSE(pt.unmap(key)) << std::hex << key;
    }
    EXPECT_EQ(pt.mutationEpoch(), 0u);
    EXPECT_EQ(pt.size(), 20u);
}

TEST(PageTableTest, RemapOfMappedKeyReturnsNull)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 1> homes = {2};
    const BufferHandle buf = pt.allocate(4 * pt.pageBytes(), homes);
    const Vpn vpn = pt.vpnOf(buf.baseVa) + 1;
    const Pfn pfn = pt.translate(vpn)->pfn;

    EXPECT_EQ(pt.remap(vpn), nullptr);
    ASSERT_NE(pt.translate(vpn), nullptr);
    EXPECT_EQ(pt.translate(vpn)->pfn, pfn);
    EXPECT_EQ(pt.pagesHomedOn(2), 4u);

    // A second remap after the first restores the mapping is refused
    // too.
    ASSERT_TRUE(pt.unmap(vpn));
    ASSERT_NE(pt.remap(vpn), nullptr);
    EXPECT_EQ(pt.remap(vpn), nullptr);
}

TEST(PageTableTest, UnmapRemapKeepsCountsAndHome)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 2> homes = {3, 8};
    const BufferHandle buf = pt.allocate(6 * pt.pageBytes(), homes);
    const Vpn vpn = pt.vpnOf(buf.baseVa) + 4; // Homed on tile 8.
    Pte *pte = pt.translateMutable(vpn);
    ASSERT_NE(pte, nullptr);
    ASSERT_EQ(pte->home, 8);
    const Pfn old_pfn = pte->pfn;
    pte->accessCount = 5;

    ASSERT_TRUE(pt.unmap(vpn));
    EXPECT_FALSE(pt.unmap(vpn));
    EXPECT_EQ(pt.mutationEpoch(), 1u);
    EXPECT_EQ(pt.translate(vpn), nullptr);
    EXPECT_EQ(pt.homeOf(vpn), kInvalidTile);
    EXPECT_EQ(pt.lastHomeOf(vpn), 8);
    EXPECT_EQ(pt.size(), 5u);
    EXPECT_EQ(pt.pagesHomedOn(3), 3u);
    EXPECT_EQ(pt.pagesHomedOn(8), 2u);

    std::size_t visited = 0;
    pt.forEachPage([&](Vpn key, const Pte &) {
        EXPECT_NE(key, vpn);
        ++visited;
    });
    EXPECT_EQ(visited, 5u);

    const Pte *fresh = pt.remap(vpn);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->home, 8);
    EXPECT_NE(fresh->pfn, old_pfn);
    EXPECT_EQ(fresh->accessCount, 0u);
    EXPECT_EQ(pt.translate(vpn), fresh);
    EXPECT_EQ(pt.size(), 6u);
    EXPECT_EQ(pt.pagesHomedOn(3), 3u);
    EXPECT_EQ(pt.pagesHomedOn(8), 3u);
    EXPECT_EQ(pt.mutationEpoch(), 1u);
}

TEST(PageTableTest, EmptyAllocationsAreFatal)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 1> homes = {1};
    EXPECT_EXIT(pt.allocate(0, homes), testing::ExitedWithCode(1),
                "zero bytes");
    EXPECT_EXIT(pt.allocate(4096, std::span<const TileId>{}),
                testing::ExitedWithCode(1), "no home");
}

} // namespace
} // namespace hdpat
