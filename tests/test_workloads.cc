/**
 * @file
 * Tests for the 14-benchmark suite: Table II metadata, determinism,
 * address validity (every generated VPN is mapped), and the per-
 * benchmark locality characteristics DESIGN.md promises.
 */

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "sim/rng.hh"
#include "workloads/suite.hh"
#include "workloads/workload.hh"

namespace hdpat
{
namespace
{

std::vector<TileId>
fakeGpms(std::size_t n)
{
    std::vector<TileId> gpms;
    for (std::size_t i = 0; i < n; ++i)
        gpms.push_back(static_cast<TileId>(i + 1));
    return gpms;
}

TEST(WorkloadSuiteTest, TableTwoMatchesPaper)
{
    const auto &table = workloadTable();
    ASSERT_EQ(table.size(), 14u);

    struct Row
    {
        const char *abbr;
        std::size_t workgroups;
        std::size_t footprint_mb;
    };
    const Row rows[] = {
        {"AES", 4096, 8},      {"BT", 16384, 16},
        {"FWT", 16384, 64},    {"FFT", 32768, 256},
        {"FIR", 65536, 256},   {"FWS", 65536, 72},
        {"I2C", 16384, 32},    {"KM", 32768, 40},
        {"MM", 16384, 256},    {"MT", 524288, 2048},
        {"PR", 524288, 14},    {"RELU", 1310720, 1280},
        {"SC", 262465, 256},   {"SPMV", 81920, 120},
    };
    for (std::size_t i = 0; i < 14; ++i) {
        EXPECT_EQ(table[i].abbr, rows[i].abbr);
        EXPECT_EQ(table[i].workgroups, rows[i].workgroups);
        EXPECT_EQ(table[i].footprintBytes,
                  rows[i].footprint_mb * 1024 * 1024)
            << rows[i].abbr;
    }
}

TEST(WorkloadSuiteTest, UnknownAbbrIsFatal)
{
    EXPECT_EXIT(makeWorkload("NOPE"), testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(WorkloadSuiteTest, FootprintScaleShrinksBuffers)
{
    GlobalPageTable big(12), small(12);
    const auto gpms = fakeGpms(8);
    makeWorkload("FWT", 1.0)->allocate(big, gpms);
    makeWorkload("FWT", 0.25)->allocate(small, gpms);
    EXPECT_GT(big.size(), small.size());
    EXPECT_NEAR(static_cast<double>(big.size()) / small.size(), 4.0,
                0.5);
}

TEST(WorkloadSuiteTest, SliceOfMatchesAllocatorSplit)
{
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(7);
    const BufferHandle buf = pt.allocate(100 * pt.pageBytes(), gpms);
    // Slices tile the buffer exactly, in order, and agree with homes.
    Addr expected_base = buf.baseVa;
    for (std::size_t g = 0; g < 7; ++g) {
        const SliceView slice = sliceOf(buf, g, 7);
        EXPECT_EQ(slice.base, expected_base);
        expected_base += slice.bytes;
        for (Addr a = slice.base; a < slice.base + slice.bytes;
             a += pt.pageBytes()) {
            EXPECT_EQ(pt.homeOf(pt.vpnOf(a)), gpms[g]);
        }
    }
    EXPECT_EQ(expected_base, buf.endVa());
}

/** Every workload, every GPM: streams are valid and deterministic. */
class WorkloadParamTest : public testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadParamTest, AddressesAreMappedAndDeterministic)
{
    const std::string abbr = GetParam();
    // Scale big footprints down to keep the test fast.
    auto wl = makeWorkload(abbr, 0.125);
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(12);
    wl->allocate(pt, gpms);

    for (std::size_t g : {std::size_t(0), std::size_t(7)}) {
        const std::vector<Addr> s1 = wl->streamFor(g, 12, 500, 42);
        EXPECT_EQ(s1.size(), 500u) << abbr;
        // Deterministic for a fixed seed.
        EXPECT_EQ(s1, wl->streamFor(g, 12, 500, 42)) << abbr;
        for (const Addr a : s1)
            EXPECT_NE(pt.translate(pt.vpnOf(a)), nullptr)
                << abbr << " generated unmapped address " << a;
    }
}

TEST_P(WorkloadParamTest, GpmsGetDistinctStreams)
{
    const std::string abbr = GetParam();
    auto wl = makeWorkload(abbr, 0.125);
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(12);
    wl->allocate(pt, gpms);

    const std::vector<Addr> s0 = wl->streamFor(0, 12, 200, 42);
    const std::vector<Addr> s1 = wl->streamFor(1, 12, 200, 42);
    int same = 0;
    for (std::size_t i = 0; i < 200; ++i)
        same += (s0[i] == s1[i]);
    EXPECT_LT(same, 150) << abbr; // Different slices/chunks/seeds.
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadParamTest,
                         testing::Values("AES", "BT", "FWT", "FFT",
                                         "FIR", "FWS", "I2C", "KM",
                                         "MM", "MT", "PR", "RELU",
                                         "SC", "SPMV"));

TEST(WorkloadCharacterTest, StreamingBenchmarksAreMostlyLocal)
{
    // AES touches mostly its own slice (small shared T-table aside).
    auto wl = makeWorkload("AES");
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(12);
    wl->allocate(pt, gpms);

    const std::vector<Addr> stream = wl->streamFor(3, 12, 2000, 7);
    int local = 0, total = 0;
    for (const Addr a : stream) {
        local += (pt.homeOf(pt.vpnOf(a)) == gpms[3]);
        ++total;
    }
    EXPECT_GT(static_cast<double>(local) / total, 0.6);
}

TEST(WorkloadCharacterTest, GatherBenchmarksAreMostlyRemote)
{
    // SPMV's x-gather plus partitioning makes a large remote share.
    auto wl = makeWorkload("SPMV");
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(12);
    wl->allocate(pt, gpms);

    const std::vector<Addr> stream = wl->streamFor(3, 12, 3000, 7);
    int remote = 0, total = 0;
    for (const Addr a : stream) {
        remote += (pt.homeOf(pt.vpnOf(a)) != gpms[3]);
        ++total;
    }
    EXPECT_GT(static_cast<double>(remote) / total, 0.2);
}

TEST(WorkloadCharacterTest, PageRankConcentratesOnHubs)
{
    auto wl = makeWorkload("PR");
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(12);
    wl->allocate(pt, gpms);

    std::map<Vpn, int> counts;
    const std::vector<Addr> stream = wl->streamFor(0, 12, 8000, 7);
    for (const Addr a : stream)
        ++counts[pt.vpnOf(a)];
    // The hottest page must take a clearly outsized share.
    int hottest = 0, total = 0;
    for (const auto &[vpn, c] : counts) {
        hottest = std::max(hottest, c);
        total += c;
    }
    EXPECT_GT(static_cast<double>(hottest) * counts.size() / total,
              5.0);
}

TEST(WorkloadCharacterTest, MatrixTransposeHasLongReuseDistance)
{
    auto wl = makeWorkload("MT", 0.25);
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(12);
    wl->allocate(pt, gpms);

    // The scatter half of MT must touch many distinct pages without
    // revisiting them quickly.
    std::set<Vpn> pages;
    const std::vector<Addr> stream = wl->streamFor(0, 12, 4000, 7);
    for (const Addr a : stream)
        pages.insert(pt.vpnOf(a));
    EXPECT_GT(pages.size(), 200u);
}

TEST(WorkloadCharacterTest, FirIsPageSequential)
{
    // O4's spatial locality: FIR's in-stream frequently moves to the
    // adjacent page (prefetch-friendly).
    auto wl = makeWorkload("FIR", 0.25);
    GlobalPageTable pt(12);
    const auto gpms = fakeGpms(12);
    wl->allocate(pt, gpms);

    // Channels interleave, so measure spatial locality on the
    // first-touch order of distinct pages: FIR's chunked input walk
    // makes most newly touched pages adjacent to the previous one.
    const std::vector<Addr> stream = wl->streamFor(0, 12, 4000, 7);
    std::set<Vpn> seen;
    std::vector<Vpn> first_touch_order;
    for (const Addr a : stream) {
        const Vpn vpn = pt.vpnOf(a);
        if (seen.insert(vpn).second)
            first_touch_order.push_back(vpn);
    }
    ASSERT_GT(first_touch_order.size(), 10u);
    int adjacent = 0;
    for (std::size_t i = 1; i < first_touch_order.size(); ++i)
        adjacent += (first_touch_order[i] == first_touch_order[i - 1] + 1);
    EXPECT_GT(static_cast<double>(adjacent) /
                  (first_touch_order.size() - 1),
              0.2); // O4 reports 10-30% proximity.
}

TEST(ZipfChannelTest, DwellWalkStaysInsideTheBuffer)
{
    // Two 4 KiB pages and an 80-line dwell (5 KiB, longer than a
    // page): a sample late in the second page must wrap to the start
    // of the buffer, not walk past its end.
    constexpr Addr kBase = 0x10000;
    constexpr std::size_t kBytes = 2 * 4096;
    auto gen = zipfChannel(kBase, kBytes, 1.0, 12,
                           std::make_shared<Rng>(11), 80);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = gen();
        ASSERT_GE(a, kBase) << "draw " << i;
        ASSERT_LT(a, kBase + kBytes) << "draw " << i;
    }
}

} // namespace
} // namespace hdpat
