/**
 * @file
 * Fine-grained timing tests: the IOMMU ingress rate limit and the
 * GPM's fractional issue pacing — behaviours whose regressions would
 * silently distort every figure.
 */

#include <gtest/gtest.h>

#include "driver/runner.hh"
#include "driver/system.hh"
#include "workloads/suite.hh"

namespace hdpat
{
namespace
{

/** Stream of n accesses, all to the same local page. */
class RepeatWorkload : public Workload
{
  public:
    RepeatWorkload(std::size_t n, double ops_per_cycle,
                   int max_outstanding)
        : Workload({"REP", "repeat", 1, 1 << 20, ops_per_cycle,
                    max_outstanding}),
          n_(n)
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        buffer_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t num, std::size_t,
              std::uint64_t) const override
    {
        return std::vector<Addr>(n_, sliceOf(buffer_, gpm, num).base);
    }

  private:
    std::size_t n_;
    BufferHandle buffer_;
};

TEST(TimingTest, IssueRatePacesThroughput)
{
    // 1000 L1-hit ops at 0.25 ops/cycle must take >= ~4000 cycles;
    // at 4 ops/cycle they finish in a few hundred.
    SystemConfig cfg = SystemConfig::mcm4();

    RepeatWorkload slow(1000, 0.25, 8);
    System slow_sys(cfg, TranslationPolicy::baseline());
    slow_sys.loadWorkload(slow, 0, 1);
    const RunResult slow_run = slow_sys.run();
    EXPECT_GE(slow_run.totalTicks, 3900u);
    EXPECT_LE(slow_run.totalTicks, 6000u);

    RepeatWorkload fast(1000, 4.0, 64);
    System fast_sys(cfg, TranslationPolicy::baseline());
    fast_sys.loadWorkload(fast, 0, 1);
    const RunResult fast_run = fast_sys.run();
    EXPECT_LT(fast_run.totalTicks, 1500u);
}

TEST(TimingTest, WindowLimitsOutstandingOps)
{
    // Window of 1 serializes: each op takes the full hierarchy+data
    // latency before the next issues; a window of 64 overlaps them.
    SystemConfig cfg = SystemConfig::mcm4();

    RepeatWorkload serial(200, 4.0, 1);
    System serial_sys(cfg, TranslationPolicy::baseline());
    serial_sys.loadWorkload(serial, 0, 1);
    const Tick serial_time = serial_sys.run().totalTicks;

    RepeatWorkload overlapped(200, 4.0, 64);
    System overlap_sys(cfg, TranslationPolicy::baseline());
    overlap_sys.loadWorkload(overlapped, 0, 1);
    const Tick overlap_time = overlap_sys.run().totalTicks;

    EXPECT_GT(serial_time, 3 * overlap_time);
}

TEST(TimingTest, IommuIngressRateLimitsHitServicing)
{
    // With an ingress rate of 1/cycle and a redirection table that
    // hits every request, N arrivals still need >= N cycles at the
    // ingress stage. Drive through a System with a shared hot page.
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    cfg.iommuIngressPerCycle = 1;

    RunSpec spec;
    spec.config = cfg;
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "KM";
    spec.opsPerGpm = 800;
    const RunResult slow = runOnce(spec);

    spec.config.iommuIngressPerCycle = 8;
    const RunResult fast = runOnce(spec);

    // A faster ingress can only help (or tie).
    EXPECT_LE(fast.totalTicks, slow.totalTicks);
}

TEST(TimingTest, WalkLatencyConfigIsHonored)
{
    // Double the IOMMU walk latency: a walk-bound run slows down.
    SystemConfig cfg = SystemConfig::mcm4();

    RunSpec spec;
    spec.config = cfg;
    spec.policy = TranslationPolicy::baseline();
    spec.workload = "SPMV";
    spec.opsPerGpm = 1500;
    const RunResult normal = runOnce(spec);

    spec.config.iommuWalkLatency = 1000;
    const RunResult slow = runOnce(spec);
    EXPECT_GT(slow.totalTicks, normal.totalTicks);
    EXPECT_DOUBLE_EQ(slow.iommu.walkLatency.mean(), 1000.0);
}

} // namespace
} // namespace hdpat
