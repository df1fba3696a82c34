/**
 * @file
 * Tests for the parallel experiment runner: run-index suffixing of
 * observability outputs, jobs resolution, and the central determinism
 * guarantee -- runMany() with N workers produces results bitwise
 * identical to serial execution, including metrics-JSON dumps.
 */

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/experiment.hh"
#include "driver/parallel.hh"
#include "driver/runner.hh"

namespace hdpat
{
namespace
{

TEST(WithRunIndexSuffixTest, SplicesBeforeExtension)
{
    EXPECT_EQ(withRunIndexSuffix("metrics.json", 3), "metrics-3.json");
    EXPECT_EQ(withRunIndexSuffix("out/trace.json", 0),
              "out/trace-0.json");
    EXPECT_EQ(withRunIndexSuffix("a/b.d/x.json", 12),
              "a/b.d/x-12.json");
}

TEST(WithRunIndexSuffixTest, AppendsWhenNoExtension)
{
    EXPECT_EQ(withRunIndexSuffix("metrics", 1), "metrics-1");
    // A dot in a parent directory is not an extension.
    EXPECT_EQ(withRunIndexSuffix("dir.d/file", 2), "dir.d/file-2");
    // A leading dot is a hidden file, not an extension.
    EXPECT_EQ(withRunIndexSuffix(".hidden", 4), ".hidden-4");
    EXPECT_EQ(withRunIndexSuffix("out/.hidden", 5), "out/.hidden-5");
}

TEST(DefaultJobsTest, OverrideWinsAndClears)
{
    setDefaultJobs(3);
    EXPECT_EQ(defaultJobs(), 3u);
    setDefaultJobs(0); // Back to HDPAT_JOBS / hardware concurrency.
    EXPECT_GE(defaultJobs(), 1u);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing file: " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
expectSameSummary(const SummaryStat &a, const SummaryStat &b,
                  const std::string &what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    EXPECT_EQ(a.variance(), b.variance()) << what;
}

void
expectSameSeries(const TimeSeries &a, const TimeSeries &b,
                 const std::string &what)
{
    ASSERT_EQ(a.windows(), b.windows()) << what;
    for (std::size_t w = 0; w < a.windows(); ++w) {
        EXPECT_EQ(a.windowSum(w), b.windowSum(w)) << what << " w" << w;
        EXPECT_EQ(a.windowMax(w), b.windowMax(w)) << what << " w" << w;
        EXPECT_EQ(a.windowCount(w), b.windowCount(w))
            << what << " w" << w;
    }
}

/** Every field of @p a equals @p b (bitwise for the float stats). */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    SCOPED_TRACE("workload " + a.workload);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.gpmFinish, b.gpmFinish);
    EXPECT_EQ(a.opsTotal, b.opsTotal);
    EXPECT_EQ(a.l1TlbHits, b.l1TlbHits);
    EXPECT_EQ(a.l2TlbHits, b.l2TlbHits);
    EXPECT_EQ(a.llTlbHits, b.llTlbHits);
    EXPECT_EQ(a.localWalks, b.localWalks);
    EXPECT_EQ(a.cuckooFalsePositives, b.cuckooFalsePositives);
    EXPECT_EQ(a.remoteOps, b.remoteOps);
    EXPECT_EQ(a.remoteResolutions, b.remoteResolutions);
    EXPECT_EQ(a.sourceCounts, b.sourceCounts);
    expectSameSummary(a.remoteRtt, b.remoteRtt, "remoteRtt");
    EXPECT_EQ(a.probesReceivedTotal, b.probesReceivedTotal);
    EXPECT_EQ(a.probeHitsTotal, b.probeHitsTotal);
    EXPECT_EQ(a.pushesReceivedTotal, b.pushesReceivedTotal);
    EXPECT_EQ(a.auditIssued, b.auditIssued);
    EXPECT_EQ(a.auditRetired, b.auditRetired);
    EXPECT_EQ(a.auditPfnChecks, b.auditPfnChecks);
    EXPECT_EQ(a.auditRetireCensusHash, b.auditRetireCensusHash);

    EXPECT_EQ(a.iommu.requestsReceived, b.iommu.requestsReceived);
    EXPECT_EQ(a.iommu.redirectsSent, b.iommu.redirectsSent);
    EXPECT_EQ(a.iommu.redirectBounces, b.iommu.redirectBounces);
    EXPECT_EQ(a.iommu.staleRedirectsSkipped,
              b.iommu.staleRedirectsSkipped);
    EXPECT_EQ(a.iommu.tlbHits, b.iommu.tlbHits);
    EXPECT_EQ(a.iommu.mshrMerges, b.iommu.mshrMerges);
    EXPECT_EQ(a.iommu.ingressStalls, b.iommu.ingressStalls);
    EXPECT_EQ(a.iommu.walksStarted, b.iommu.walksStarted);
    EXPECT_EQ(a.iommu.walksCompleted, b.iommu.walksCompleted);
    EXPECT_EQ(a.iommu.revisitCompletions, b.iommu.revisitCompletions);
    EXPECT_EQ(a.iommu.prefetchedPtes, b.iommu.prefetchedPtes);
    EXPECT_EQ(a.iommu.pushesSent, b.iommu.pushesSent);
    EXPECT_EQ(a.iommu.responsesSent, b.iommu.responsesSent);
    EXPECT_EQ(a.iommu.delegationsSent, b.iommu.delegationsSent);
    EXPECT_EQ(a.iommu.delegationReturns, b.iommu.delegationReturns);
    expectSameSummary(a.iommu.preQueueLatency, b.iommu.preQueueLatency,
                      "preQueueLatency");
    expectSameSummary(a.iommu.pwQueueLatency, b.iommu.pwQueueLatency,
                      "pwQueueLatency");
    expectSameSummary(a.iommu.walkLatency, b.iommu.walkLatency,
                      "walkLatency");
    expectSameSeries(a.iommu.bufferDepth, b.iommu.bufferDepth,
                     "bufferDepth");
    EXPECT_EQ(a.iommu.maxBufferDepth, b.iommu.maxBufferDepth);
    expectSameSeries(a.iommu.servedPerWindow, b.iommu.servedPerWindow,
                     "servedPerWindow");
    EXPECT_EQ(a.iommu.trace, b.iommu.trace);

    EXPECT_EQ(a.noc.packets, b.noc.packets);
    EXPECT_EQ(a.noc.totalBytes, b.noc.totalBytes);
    EXPECT_EQ(a.noc.byteHops, b.noc.byteHops);
    EXPECT_EQ(a.noc.totalHops, b.noc.totalHops);
    EXPECT_EQ(a.noc.totalLatency, b.noc.totalLatency);
    expectSameSummary(a.noc.linkWait, b.noc.linkWait, "linkWait");
}

std::vector<RunSpec>
fullSuiteSpecs(const std::string &metrics_path)
{
    // The full 14-workload Table II suite under the full HDPAT policy
    // (the policy that exercises the most machinery), with trace
    // capture on so trace equality is checked too.
    std::vector<RunSpec> specs = suiteSpecs(
        SystemConfig::mi100(), TranslationPolicy::hdpat(), 250);
    for (RunSpec &spec : specs) {
        spec.captureIommuTrace = true;
        spec.obs.metricsJsonPath = metrics_path;
    }
    return specs;
}

TEST(RunManyTest, ParallelIsBitwiseIdenticalToSerial)
{
    const std::string dir = ::testing::TempDir();
    const std::string serial_path = dir + "hdpat-serial.json";
    const std::string parallel_path = dir + "hdpat-parallel.json";

    const std::vector<RunResult> serial =
        runMany(fullSuiteSpecs(serial_path), 1);
    const std::vector<RunResult> parallel =
        runMany(fullSuiteSpecs(parallel_path), 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i]);

    // The metrics dumps must also match byte for byte. Both batches
    // are multi-spec, so both get the same per-run suffixes.
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const std::string s =
            slurp(withRunIndexSuffix(serial_path, i));
        const std::string p =
            slurp(withRunIndexSuffix(parallel_path, i));
        EXPECT_FALSE(s.empty()) << "run " << i;
        EXPECT_EQ(s, p) << "metrics dump differs for run " << i;
    }
}

TEST(RunManyTest, ResultsComeBackInSpecOrder)
{
    std::vector<RunSpec> specs = suiteSpecs(
        SystemConfig::mi100(), TranslationPolicy::baseline(), 200,
        {"SPMV", "PR", "MT", "FWS"});
    const std::vector<RunResult> results = runMany(std::move(specs), 4);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].workload, "SPMV");
    EXPECT_EQ(results[1].workload, "PR");
    EXPECT_EQ(results[2].workload, "MT");
    EXPECT_EQ(results[3].workload, "FWS");
}

TEST(RunManyTest, SingleSpecKeepsExactObsPath)
{
    const std::string path =
        ::testing::TempDir() + "hdpat-single.json";
    RunSpec spec;
    spec.config = SystemConfig::mcm4();
    spec.policy = TranslationPolicy::baseline();
    spec.workload = "SPMV";
    spec.opsPerGpm = 200;
    spec.obs.metricsJsonPath = path;
    runMany({spec}, 4);
    EXPECT_FALSE(slurp(path).empty());
}

TEST(RunManyTest, EmptyBatchIsFine)
{
    EXPECT_TRUE(runMany({}, 8).empty());
}

} // namespace
} // namespace hdpat
