/**
 * @file
 * End-to-end integration tests: full systems running real workloads,
 * cross-component invariants, determinism, and the headline result
 * (HDPAT beats the centralized baseline on translation-bound work).
 */

#include <gtest/gtest.h>

#include "driver/experiment.hh"
#include "driver/runner.hh"
#include "driver/system.hh"
#include "workloads/suite.hh"

namespace hdpat
{
namespace
{

RunSpec
smallSpec(const std::string &workload, const TranslationPolicy &pol)
{
    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.config.meshWidth = 5;
    spec.config.meshHeight = 5;
    spec.config.name = "itest-5x5";
    spec.policy = pol;
    spec.workload = workload;
    spec.opsPerGpm = 1500;
    return spec;
}

TEST(SystemIntegrationTest, BaselineRunCompletes)
{
    const RunResult r =
        runOnce(smallSpec("SPMV", TranslationPolicy::baseline()));
    EXPECT_GT(r.totalTicks, 0u);
    EXPECT_EQ(r.opsTotal, 1500u * 24u);
    EXPECT_EQ(r.gpmFinish.size(), 24u);
    EXPECT_GT(r.remoteOps, 0u);
    EXPECT_GT(r.iommu.walksCompleted, 0u);
}

TEST(SystemIntegrationTest, EveryResolutionIsClassifiedOnce)
{
    for (const auto &pol :
         {TranslationPolicy::baseline(), TranslationPolicy::hdpat(),
          TranslationPolicy::transFw()}) {
        const RunResult r = runOnce(smallSpec("SPMV", pol));
        std::uint64_t classified = 0;
        for (std::uint64_t c : r.sourceCounts)
            classified += c;
        EXPECT_EQ(classified, r.remoteResolutions) << pol.name;
    }
}

TEST(SystemIntegrationTest, DeterministicForFixedSeed)
{
    const RunResult a =
        runOnce(smallSpec("PR", TranslationPolicy::hdpat()));
    const RunResult b =
        runOnce(smallSpec("PR", TranslationPolicy::hdpat()));
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.iommu.walksCompleted, b.iommu.walksCompleted);
    EXPECT_EQ(a.noc.packets, b.noc.packets);
    EXPECT_EQ(a.sourceCounts, b.sourceCounts);
}

TEST(SystemIntegrationTest, SeedChangesTheRun)
{
    RunSpec spec = smallSpec("SPMV", TranslationPolicy::baseline());
    const RunResult a = runOnce(spec);
    spec.seed = 999;
    const RunResult b = runOnce(spec);
    EXPECT_NE(a.totalTicks, b.totalTicks);
}

TEST(SystemIntegrationTest, HdpatBeatsBaselineOnTranslationBoundWork)
{
    const RunResult base =
        runOnce(smallSpec("SPMV", TranslationPolicy::baseline()));
    const RunResult hdpat =
        runOnce(smallSpec("SPMV", TranslationPolicy::hdpat()));
    EXPECT_GT(speedupOver(base, hdpat), 1.1);
    EXPECT_LT(hdpat.iommu.walksCompleted, base.iommu.walksCompleted);
    EXPECT_GT(hdpat.offloadedFraction(), 0.1);
    // Round-trip time improves (Fig 17 direction).
    EXPECT_LT(hdpat.remoteRtt.mean(), base.remoteRtt.mean());
}

TEST(SystemIntegrationTest, IdealIommuExposesHeadroom)
{
    RunSpec spec = smallSpec("SPMV", TranslationPolicy::baseline());
    const RunResult base = runOnce(spec);
    spec.config.iommuWalkers = 4096;
    spec.config.iommuPwQueueCapacity = 8192;
    const RunResult ideal = runOnce(spec);
    EXPECT_GT(speedupOver(base, ideal), 1.5); // Fig 2 direction.
}

TEST(SystemIntegrationTest, CenterGpmsFinishEarlierThanPeriphery)
{
    // Fig 5: geometric position matters. Compare ring-1 vs ring-3
    // mean finish times on a remote-heavy workload.
    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.policy = TranslationPolicy::baseline();
    spec.workload = "SPMV";
    spec.opsPerGpm = 1200;

    System sys(spec.config, spec.policy);
    auto wl = makeWorkload(spec.workload);
    sys.loadWorkload(*wl, spec.opsPerGpm, spec.seed);
    const RunResult r = sys.run();

    double inner_sum = 0, outer_sum = 0;
    int inner_n = 0, outer_n = 0;
    for (const auto &[tile, tick] : r.gpmFinish) {
        const int ring = sys.topology().ringOf(tile);
        if (ring == 1) {
            inner_sum += static_cast<double>(tick);
            ++inner_n;
        } else if (ring == 3) {
            outer_sum += static_cast<double>(tick);
            ++outer_n;
        }
    }
    ASSERT_GT(inner_n, 0);
    ASSERT_GT(outer_n, 0);
    EXPECT_LT(inner_sum / inner_n, outer_sum / outer_n);
}

TEST(SystemIntegrationTest, TrafficOverheadOfHdpatIsSmall)
{
    // §V-D: HDPAT's probes/pushes add only a small fraction of total
    // NoC traffic (paper: 0.82%; we allow a loose bound).
    const RunResult base =
        runOnce(smallSpec("MM", TranslationPolicy::baseline()));
    const RunResult hdpat =
        runOnce(smallSpec("MM", TranslationPolicy::hdpat()));
    const double overhead =
        static_cast<double>(hdpat.noc.byteHops) /
            static_cast<double>(base.noc.byteHops) -
        1.0;
    EXPECT_LT(overhead, 0.25);
}

TEST(SystemIntegrationTest, IommuTraceIsTimeOrdered)
{
    RunSpec spec = smallSpec("SPMV", TranslationPolicy::baseline());
    spec.captureIommuTrace = true;
    const RunResult r = runOnce(spec);
    ASSERT_GT(r.iommu.trace.size(), 0u);
    for (std::size_t i = 1; i < r.iommu.trace.size(); ++i)
        EXPECT_GE(r.iommu.trace[i].first, r.iommu.trace[i - 1].first);
}

TEST(SystemIntegrationTest, McmSystemRuns)
{
    RunSpec spec;
    spec.config = SystemConfig::mcm4();
    spec.policy = TranslationPolicy::baseline();
    spec.workload = "SPMV";
    spec.opsPerGpm = 2000;
    const RunResult r = runOnce(spec);
    EXPECT_EQ(r.gpmFinish.size(), 4u);
    EXPECT_GT(r.totalTicks, 0u);
}

TEST(SystemIntegrationTest, Wafer7x12SystemRuns)
{
    RunSpec spec;
    spec.config = SystemConfig::mi100Wafer7x12();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "FWT";
    spec.opsPerGpm = 600;
    const RunResult r = runOnce(spec);
    EXPECT_EQ(r.gpmFinish.size(), 83u);
}

TEST(SystemIntegrationTest, LargerPagesReduceTranslationTraffic)
{
    RunSpec spec = smallSpec("SPMV", TranslationPolicy::baseline());
    const RunResult small_pages = runOnce(spec);
    spec.config.pageShift = 16; // 64 KiB pages.
    const RunResult large_pages = runOnce(spec);
    EXPECT_LT(large_pages.iommu.requestsReceived,
              small_pages.iommu.requestsReceived);
}

TEST(SystemIntegrationTest, DoubleLoadIsFatal)
{
    System sys(SystemConfig::mcm4(), TranslationPolicy::baseline());
    auto wl1 = makeWorkload("AES");
    auto wl2 = makeWorkload("AES");
    sys.loadWorkload(*wl1, 10, 1);
    EXPECT_EXIT(sys.loadWorkload(*wl2, 10, 1),
                testing::ExitedWithCode(1), "twice");
}

TEST(SystemIntegrationTest, TableOfOtherOpCountIsFatal)
{
    // Each GPM plays its column to the end, so a table built for
    // another op count would run a different workload than asked for.
    System sys(SystemConfig::mcm4(), TranslationPolicy::baseline());
    auto wl = makeWorkload("AES");
    WorkloadStreamCache cache;
    auto table = cache.get(StreamKey{"AES", 1.0, 10, 1, sys.numGpms(),
                                     SystemConfig::mcm4().pageShift});
    EXPECT_EXIT(sys.loadWorkload(*wl, 20, 1, std::move(table)),
                testing::ExitedWithCode(1), "holds 10 ops");
}

TEST(SystemIntegrationTest, RunWithoutWorkloadIsFatal)
{
    System sys(SystemConfig::mcm4(), TranslationPolicy::baseline());
    EXPECT_EXIT(sys.run(), testing::ExitedWithCode(1), "workload");
}

} // namespace
} // namespace hdpat
