/**
 * @file
 * End-to-end observability tests: the metric registry of a full
 * System must agree exactly with the RunResult aggregation, sampled
 * spans must open and close across the wafer, and the runner must
 * write the requested export files.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/runner.hh"
#include "driver/system.hh"
#include "iommu/messages.hh"
#include "obs/trace.hh"
#include "workloads/suite.hh"

namespace hdpat
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    cfg.name = "obs-5x5";
    return cfg;
}

TEST(ObsSystemTest, RegistryAgreesWithRunResult)
{
    System sys(smallConfig(), TranslationPolicy::hdpat());
    auto wl = makeWorkload("SPMV");
    sys.loadWorkload(*wl, 1200, 42);
    sys.enableTracing(1u << 18, 4);
    const RunResult r = sys.run();
    const MetricRegistry &reg = sys.metrics();

    // run() sums Gpm::Stats into RunResult; the registry's wafer-wide
    // rows sum the same fields through their own getters. The two
    // computations must agree exactly.
    EXPECT_EQ(reg.counterValue("gpm.ops_completed"), r.opsTotal);
    EXPECT_EQ(reg.counterValue("gpm.l1_tlb_hits"), r.l1TlbHits);
    EXPECT_EQ(reg.counterValue("gpm.l2_tlb_hits"), r.l2TlbHits);
    EXPECT_EQ(reg.counterValue("gpm.ll_tlb_hits"), r.llTlbHits);
    EXPECT_EQ(reg.counterValue("gpm.local_walks"), r.localWalks);
    EXPECT_EQ(reg.counterValue("gpm.cuckoo_false_positives"),
              r.cuckooFalsePositives);
    EXPECT_EQ(reg.counterValue("gpm.remote_ops"), r.remoteOps);
    EXPECT_EQ(reg.counterValue("gpm.remote_resolutions"),
              r.remoteResolutions);
    EXPECT_EQ(reg.counterValue("gpm.probes_received"),
              r.probesReceivedTotal);
    EXPECT_EQ(reg.counterValue("gpm.probe_hits"), r.probeHitsTotal);
    EXPECT_EQ(reg.counterValue("gpm.pushes_received"),
              r.pushesReceivedTotal);
    for (std::size_t i = 0; i < kNumTranslationSources; ++i) {
        const std::string name =
            std::string("translation.source.") +
            translationSourceName(static_cast<TranslationSource>(i));
        EXPECT_EQ(reg.counterValue(name), r.sourceCounts[i]) << name;
    }
    // Both merge the per-GPM summaries in tile order, so even the
    // floating-point fields are bit-identical.
    const SummaryStat rtt = reg.summaryValue("gpm.remote_rtt");
    EXPECT_EQ(rtt.count(), r.remoteRtt.count());
    EXPECT_EQ(rtt.sum(), r.remoteRtt.sum());
    EXPECT_EQ(rtt.min(), r.remoteRtt.min());
    EXPECT_EQ(rtt.max(), r.remoteRtt.max());
    EXPECT_EQ(rtt.variance(), r.remoteRtt.variance());

    // The run exercised the compared paths, so no check above is a
    // comparison of two zeros.
    EXPECT_GT(r.remoteOps, 0u);
    EXPECT_GT(r.probesReceivedTotal, 0u);
    EXPECT_GT(r.pushesReceivedTotal, 0u);
    EXPECT_GT(r.remoteRtt.count(), 0u);

    // Per-tile counters sum to the wafer-wide aggregate.
    std::uint64_t per_tile = 0;
    for (std::size_t i = 0; i < sys.numGpms(); ++i)
        per_tile += reg.counterValue(
            "gpm.t" + std::to_string(sys.gpm(i).tile()) +
            ".ops_completed");
    EXPECT_EQ(per_tile, r.opsTotal);
}

TEST(ObsSystemTest, TenancyRowsFollowSingleTenantRows)
{
    System sys(smallConfig(), TranslationPolicy::hdpat());
    TenancySpec tenancy;
    tenancy.asidCount = 2;
    tenancy.switchRatePerMTicks = 400;
    // Churn fast enough that some walk results land after their
    // page's shootdown and are blocked.
    tenancy.churnRatePerMTicks = 3000;
    sys.enableTenancy(tenancy);
    auto wl = makeWorkload("PR");
    sys.loadWorkload(*wl, 1000, 11);
    const RunResult r = sys.run();
    const MetricRegistry &reg = sys.metrics();

    EXPECT_GT(r.pagesChurned, 0u);
    EXPECT_GT(r.staleInstallsBlocked, 0u);
    EXPECT_EQ(reg.counterValue("gpm.stale_installs_blocked"),
              r.staleInstallsBlocked);
    EXPECT_EQ(reg.counterValue("tenancy.context_switches"),
              r.contextSwitches);
    EXPECT_EQ(reg.counterValue("tenancy.pages_churned"), r.pagesChurned);
    EXPECT_EQ(reg.counterValue("iommu.page_faults"), r.pageFaults);

    // A single-tenant system's rows are a prefix of the multi-tenant
    // list, so every tenancy row comes after every single-tenant row
    // and single-tenant dumps keep their key order.
    const auto names = [](const MetricRegistry &m) {
        std::vector<std::string> out;
        m.forEach([&out](const std::string &name,
                         const MetricRegistry::Value &) {
            out.push_back(name);
        });
        return out;
    };
    System plain(smallConfig(), TranslationPolicy::hdpat());
    const std::vector<std::string> single = names(plain.metrics());
    const std::vector<std::string> multi = names(reg);
    ASSERT_GT(multi.size(), single.size());
    EXPECT_TRUE(std::equal(single.begin(), single.end(), multi.begin()));
    EXPECT_TRUE(std::any_of(multi.begin() + single.size(), multi.end(),
                            [](const std::string &name) {
                                return name.starts_with("tenancy.");
                            }));
}

TEST(ObsSystemDeathTest, EnableTenancyAfterMetricsIsFatal)
{
    System sys(smallConfig(), TranslationPolicy::hdpat());
    (void)sys.metrics();
    TenancySpec tenancy;
    tenancy.asidCount = 2;
    EXPECT_DEATH(sys.enableTenancy(tenancy), "after metrics");
}

TEST(ObsSystemTest, SampledSpansOpenAndClose)
{
    System sys(smallConfig(), TranslationPolicy::hdpat());
    auto wl = makeWorkload("SPMV");
    sys.loadWorkload(*wl, 1000, 7);
    sys.enableTracing(1u << 18, 8);
    const RunResult r = sys.run();

    const Tracer *t = sys.tracer();
    ASSERT_NE(t, nullptr);
    // Every issued op passed the sampling gate.
    EXPECT_EQ(t->opsSeen(), r.opsTotal);
    EXPECT_GT(t->spansStarted(), 0u);
    // Roughly 1 in 8 (duplicate live keys absorb a few).
    EXPECT_LE(t->spansStarted(), r.opsTotal / 8 + 1);
    // Every span that opened also closed: no translation leaks.
    EXPECT_EQ(t->spansStarted(), t->spansCompleted());

    // With no ring wrap, each span has exactly one issue and one
    // complete record bracketing its chain.
    ASSERT_EQ(t->recordsDropped(), 0u);
    std::uint64_t issues = 0, completes = 0, other = 0;
    t->forEachRecord([&](const TraceRecord &rec) {
        if (rec.event == SpanEvent::Issue)
            ++issues;
        else if (rec.event == SpanEvent::Complete)
            ++completes;
        else
            ++other;
    });
    EXPECT_EQ(issues, t->spansStarted());
    EXPECT_EQ(completes, t->spansCompleted());
    EXPECT_GT(other, 0u); // TLB/walk/probe events in between.
}

TEST(ObsSystemTest, TracingOffByDefault)
{
    System sys(smallConfig(), TranslationPolicy::hdpat());
    EXPECT_EQ(sys.tracer(), nullptr);
}

TEST(ObsSystemTest, RunnerWritesRequestedExports)
{
    const std::string dir = ::testing::TempDir();
    const std::string metrics_path = dir + "hdpat_obs_metrics.json";
    const std::string trace_path = dir + "hdpat_obs_trace.json";

    RunSpec spec;
    spec.config = smallConfig();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "SPMV";
    spec.opsPerGpm = 600;
    spec.obs.metricsJsonPath = metrics_path;
    spec.obs.traceOutPath = trace_path;
    spec.obs.traceSampleN = 16;
    spec.obs.heartbeatInterval = 0;
    const RunResult r = runOnce(spec);

    std::ifstream metrics(metrics_path);
    ASSERT_TRUE(metrics.good());
    std::stringstream mbuf;
    mbuf << metrics.rdbuf();
    const std::string mjson = mbuf.str();
    EXPECT_NE(mjson.find("\"schema\":\"hdpat-metrics-v1\""),
              std::string::npos);
    // The dump carries the same totals the RunResult printed.
    EXPECT_NE(mjson.find("\"gpm.ops_completed\":" +
                         std::to_string(r.opsTotal)),
              std::string::npos);
    EXPECT_NE(mjson.find("\"total_ticks\":" +
                         std::to_string(r.totalTicks)),
              std::string::npos);

    std::ifstream trace(trace_path);
    ASSERT_TRUE(trace.good());
    std::stringstream tbuf;
    tbuf << trace.rdbuf();
    const std::string tjson = tbuf.str();
    EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(tjson.find("\"issue\""), std::string::npos);
    EXPECT_NE(tjson.find("\"complete\""), std::string::npos);
}

} // namespace
} // namespace hdpat
