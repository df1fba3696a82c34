/**
 * @file
 * Unit tests for the workload channel combinators and the weighted
 * interleaver — the building blocks of every benchmark generator.
 */

#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "workloads/workload.hh"

namespace hdpat
{
namespace
{

TEST(InterleaveTest, RespectsWeights)
{
    // Channel A returns 0xA000..., channel B returns 0xB000...
    std::vector<Channel> channels;
    channels.push_back({[] { return Addr(0xA000); }, 3});
    channels.push_back({[] { return Addr(0xB000); }, 1});

    std::map<Addr, int> counts;
    for (const Addr a : interleave(std::move(channels), 400))
        ++counts[a];
    EXPECT_EQ(counts[0xA000], 300);
    EXPECT_EQ(counts[0xB000], 100);
}

TEST(InterleaveTest, StopsAtMaxOps)
{
    std::vector<Channel> channels;
    channels.push_back({[] { return Addr(1); }, 1});
    EXPECT_EQ(interleave(std::move(channels), 5),
              std::vector<Addr>(5, 1));
}

TEST(InterleaveTest, ZeroOpsIsEmpty)
{
    std::vector<Channel> channels;
    channels.push_back({[] { return Addr(1); }, 1});
    EXPECT_TRUE(interleave(std::move(channels), 0).empty());
}

TEST(ChannelTest, SeqWalksAndWraps)
{
    auto gen = seqChannel(0x1000, 256, 64);
    EXPECT_EQ(gen(), 0x1000u);
    EXPECT_EQ(gen(), 0x1040u);
    EXPECT_EQ(gen(), 0x1080u);
    EXPECT_EQ(gen(), 0x10c0u);
    EXPECT_EQ(gen(), 0x1000u); // Wrapped.
}

TEST(ChannelTest, SeqStartOffset)
{
    auto gen = seqChannel(0x1000, 256, 64, 128);
    EXPECT_EQ(gen(), 0x1080u);
}

TEST(ChannelTest, ChunkRotateVisitsOwnChunksInOrder)
{
    // 8 chunks of 128 bytes; GPM 1 of 4 owns chunks 1, 5, 1, 5, ...
    auto gen = chunkRotateChannel(0, 1024, 128, 64, 1, 4);
    EXPECT_EQ(gen(), 128u);
    EXPECT_EQ(gen(), 192u);
    EXPECT_EQ(gen(), 5u * 128u); // Next chunk: 1 + 4.
    EXPECT_EQ(gen(), 5u * 128u + 64u);
    EXPECT_EQ(gen(), 128u); // Wrapped back to chunk 1.
}

TEST(ChannelTest, RandomStaysInRangeAndDwells)
{
    auto rng = std::make_shared<Rng>(5);
    auto gen = randomChannel(0x4000, 4096, 64, rng, 4);
    Addr prev = gen();
    for (int i = 1; i < 400; ++i) {
        const Addr a = gen();
        EXPECT_GE(a, 0x4000u);
        EXPECT_LT(a, 0x4000u + 4096u);
        if (i % 4 != 0) {
            // Within a dwell run: consecutive lines.
            EXPECT_EQ(a, 0x4000 + (prev - 0x4000 + 64) % 4096);
        }
        prev = a;
    }
}

TEST(ChannelTest, ZipfPrefersLowPages)
{
    auto rng = std::make_shared<Rng>(7);
    auto gen = zipfChannel(0, 64 * 4096, 1.0, 12, rng);
    std::map<Addr, int> page_counts;
    for (int i = 0; i < 20000; ++i)
        ++page_counts[gen() >> 12];
    EXPECT_GT(page_counts[0], page_counts[32]);
}

TEST(ChannelTest, HotRegionLoopsThenAdvances)
{
    // Region 128 bytes, stride 64, epoch of 4 ops, advance 1024.
    auto gen = hotRegionChannel(0, 8192, 128, 64, 4, 1024);
    EXPECT_EQ(gen(), 0u);
    EXPECT_EQ(gen(), 64u);
    EXPECT_EQ(gen(), 0u);
    EXPECT_EQ(gen(), 64u);
    EXPECT_EQ(gen(), 1024u); // New epoch.
    EXPECT_EQ(gen(), 1088u);
}

TEST(ChannelTest, ButterflyPartnersAreXor)
{
    // 16 elements of 4 bytes, slice = all, single stride 4.
    auto gen = butterflyChannel(0, 16, 4, 0, 16, {4}, 1000);
    EXPECT_EQ(gen(), (0u ^ 4u) * 4u);
    EXPECT_EQ(gen(), (1u ^ 4u) * 4u);
    EXPECT_EQ(gen(), (2u ^ 4u) * 4u);
}

TEST(ChannelTest, ButterflyAdvancesStages)
{
    auto gen = butterflyChannel(0, 16, 4, 0, 16, {1, 8}, 2);
    EXPECT_EQ(gen(), (0u ^ 1u) * 4u);
    EXPECT_EQ(gen(), (1u ^ 1u) * 4u);
    EXPECT_EQ(gen(), (2u ^ 8u) * 4u); // Stage switched to stride 8.
}

TEST(ChannelTest, ButterflyStartStageOffsets)
{
    auto a = butterflyChannel(0, 16, 4, 0, 16, {1, 8}, 100, 0);
    auto b = butterflyChannel(0, 16, 4, 0, 16, {1, 8}, 100, 1);
    EXPECT_NE(a(), b()); // Different stage strides from op 0.
}

TEST(ChannelTest, StridedScatterCoversManyPagesBeforeRepeat)
{
    auto gen = stridedScatterChannel(0, 1u << 20, 1u << 14, 0, 1);
    std::set<Addr> pages;
    for (int i = 0; i < 64; ++i)
        pages.insert(gen() >> 12);
    EXPECT_EQ(pages.size(), 64u); // A new 4K page every access.
}

TEST(ChannelTest, StridedScatterDwellsOnConsecutiveLines)
{
    auto gen = stridedScatterChannel(0, 1u << 20, 1u << 14, 0, 3);
    EXPECT_EQ(gen(), 0u);
    EXPECT_EQ(gen(), 64u);
    EXPECT_EQ(gen(), 128u);
    EXPECT_EQ(gen(), 1u << 14); // Next stride position.
}

TEST(ChannelTest, InvalidParametersAreFatal)
{
    auto rng = std::make_shared<Rng>(1);
    EXPECT_EXIT(seqChannel(0, 0, 64), testing::ExitedWithCode(1),
                "seq");
    EXPECT_EXIT(randomChannel(0, 4096, 64, rng, 0),
                testing::ExitedWithCode(1), "dwell");
    EXPECT_EXIT(hotRegionChannel(0, 100, 200, 64, 10, 0),
                testing::ExitedWithCode(1), "hot-region");
    EXPECT_EXIT(butterflyChannel(0, 16, 4, 0, 16, {}, 10),
                testing::ExitedWithCode(1), "stride");
}

} // namespace
} // namespace hdpat
