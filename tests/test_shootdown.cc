/**
 * @file
 * Tests for TLB shootdown (memory free, §II-A) and the sequential
 * probe-dispatch ablation knob.
 */

#include <gtest/gtest.h>

#include "driver/runner.hh"
#include "driver/system.hh"
#include "workloads/suite.hh"

namespace hdpat
{
namespace
{

class OnePageWorkload : public Workload
{
  public:
    OnePageWorkload() : Workload({"ONE", "one shared page", 1, 1 << 20})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        buffer_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t, std::size_t, std::size_t,
              std::uint64_t) const override
    {
        return {buffer_.baseVa};
    }

    const BufferHandle &buffer() const { return buffer_; }

  private:
    BufferHandle buffer_;
};

TEST(ShootdownTest, DropsEveryCachedCopy)
{
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    System sys(cfg, TranslationPolicy::hdpat());
    OnePageWorkload wl;
    sys.loadWorkload(wl, 0, 1);
    sys.run();

    const Vpn vpn = sys.pageTable().vpnOf(wl.buffer().baseVa);
    ASSERT_NE(sys.pageTable().translate(vpn), nullptr);

    // Every GPM touched the page, so many copies exist.
    const std::size_t dropped = sys.shootdown(vpn);
    EXPECT_GT(dropped, 0u);

    // The mapping is gone and no structure still holds the page.
    EXPECT_EQ(sys.pageTable().translate(vpn), nullptr);
    for (std::size_t i = 0; i < sys.numGpms(); ++i) {
        EXPECT_FALSE(sys.gpm(i).l2Tlb().peek(vpn).has_value());
        EXPECT_FALSE(sys.gpm(i).lastLevelTlb().peek(vpn).has_value());
        EXPECT_FALSE(sys.gpm(i).cuckooFilter().contains(vpn))
            << "gpm " << i;
    }

    // Idempotent.
    EXPECT_EQ(sys.shootdown(vpn), 0u);
}

TEST(ShootdownTest, HomeGpmLosesItsPermanentFilterEntry)
{
    SystemConfig cfg = SystemConfig::mcm4();
    System sys(cfg, TranslationPolicy::baseline());
    OnePageWorkload wl;
    sys.loadWorkload(wl, 0, 1);

    const Vpn vpn = sys.pageTable().vpnOf(wl.buffer().baseVa);
    const TileId home = sys.pageTable().homeOf(vpn);
    Gpm *home_gpm = sys.gpmAtTile(home);
    ASSERT_NE(home_gpm, nullptr);
    ASSERT_TRUE(home_gpm->cuckooFilter().contains(vpn));

    sys.run();
    sys.shootdown(vpn);
    EXPECT_FALSE(home_gpm->cuckooFilter().contains(vpn));
}

TEST(ShootdownTest, UnmapOnBarePageTable)
{
    GlobalPageTable pt(12);
    const std::array<TileId, 2> homes = {1, 2};
    const BufferHandle buf = pt.allocate(4 * pt.pageBytes(), homes);
    const Vpn vpn = pt.vpnOf(buf.baseVa);

    EXPECT_EQ(pt.pagesHomedOn(1), 2u);
    EXPECT_TRUE(pt.unmap(vpn));
    EXPECT_EQ(pt.translate(vpn), nullptr);
    EXPECT_EQ(pt.pagesHomedOn(1), 1u);
    EXPECT_FALSE(pt.unmap(vpn));
    EXPECT_EQ(pt.size(), 3u);
}

TEST(SequentialProbesTest, ResolvesAndClassifiesCorrectly)
{
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    TranslationPolicy pol = TranslationPolicy::hdpat();
    pol.concurrentProbes = false;

    RunSpec spec;
    spec.config = cfg;
    spec.policy = pol;
    spec.workload = "SPMV";
    spec.opsPerGpm = 1000;
    const RunResult r = runOnce(spec);

    EXPECT_EQ(r.opsTotal, 1000u * 24u);
    std::uint64_t classified = 0;
    for (std::uint64_t c : r.sourceCounts)
        classified += c;
    EXPECT_EQ(classified, r.remoteResolutions);
    // Peer caching still works through the sequential chain.
    EXPECT_GT(r.offloadedFraction(), 0.0);
}

TEST(ClusterKnobsTest, RotationOffAndClusterCountRun)
{
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    for (const int clusters : {2, 8}) {
        TranslationPolicy pol = TranslationPolicy::hdpat();
        pol.rotation = false;
        pol.numClusters = clusters;

        RunSpec spec;
        spec.config = cfg;
        spec.policy = pol;
        spec.workload = "PR";
        spec.opsPerGpm = 800;
        const RunResult r = runOnce(spec);
        EXPECT_EQ(r.opsTotal, 800u * 24u) << clusters;
    }
}

} // namespace
} // namespace hdpat
