/**
 * @file
 * Golden tests for the hdpat_diff tool: identical dumps produce an
 * empty diff (exit 0), a single perturbed counter or histogram bucket
 * is localized to its section and metric name (exit 1), --ignore
 * masks a whole section, and two real runs of the same spec diff
 * clean end to end. The binary path arrives via the HDPAT_DIFF_BIN
 * compile definition (set only when the bench tree is built); without
 * it the tests skip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "driver/runner.hh"

namespace hdpat
{
namespace
{

#ifdef HDPAT_DIFF_BIN

struct DiffResult
{
    int exitCode = -1;
    std::string output;
};

DiffResult
runDiff(const std::string &args)
{
    const std::string cmd =
        std::string(HDPAT_DIFF_BIN) + " " + args + " 2>&1";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    DiffResult r;
    if (pipe == nullptr)
        return r;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr)
        r.output += buf;
    const int status = ::pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

/** Write @p json to a temp file named after the running test, so
 *  tests that ctest runs in parallel never share a path. */
std::filesystem::path
writeTemp(const std::string &name, const std::string &json)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (std::string(::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name()) +
         "-" + name);
    std::ofstream out(path);
    out << json;
    return path;
}

/** A miniature but schema-shaped metrics dump. */
std::string
dump(std::uint64_t walks, std::uint64_t bucket1)
{
    return std::string("{\n"
                       "  \"schema\": \"hdpat-metrics-v3\",\n"
                       "  \"run\": {\"policy\": \"hdpat\"},\n"
                       "  \"counters\": {\n"
                       "    \"engine.events_scheduled\": 100,\n"
                       "    \"iommu.walks_completed\": ") +
           std::to_string(walks) +
           "\n  },\n"
           "  \"histograms\": {\n"
           "    \"noc.hops\": {\"buckets\": [4, " +
           std::to_string(bucket1) +
           ", 9]}\n"
           "  }\n"
           "}\n";
}

TEST(HdpatDiffTest, IdenticalDumpsDiffClean)
{
    const auto a = writeTemp("hdpat-diff-a.json", dump(42, 7));
    const auto b = writeTemp("hdpat-diff-b.json", dump(42, 7));
    const DiffResult r =
        runDiff(a.string() + " " + b.string());
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("identical"), std::string::npos)
        << r.output;
    std::filesystem::remove(a);
    std::filesystem::remove(b);
}

TEST(HdpatDiffTest, PerturbedCounterIsLocalized)
{
    const auto a = writeTemp("hdpat-diff-a.json", dump(42, 7));
    const auto b = writeTemp("hdpat-diff-b.json", dump(43, 7));
    const DiffResult r =
        runDiff(a.string() + " " + b.string());
    EXPECT_EQ(r.exitCode, 1) << r.output;
    // Section and metric name, then both values.
    EXPECT_NE(r.output.find("counters.iommu.walks_completed"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("42"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("43"), std::string::npos) << r.output;
    // Nothing else diverges.
    EXPECT_EQ(r.output.find("engine.events_scheduled"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("noc.hops"), std::string::npos)
        << r.output;
    std::filesystem::remove(a);
    std::filesystem::remove(b);
}

TEST(HdpatDiffTest, PerturbedHistogramBucketIsLocalized)
{
    const auto a = writeTemp("hdpat-diff-a.json", dump(42, 7));
    const auto b = writeTemp("hdpat-diff-b.json", dump(42, 8));
    const DiffResult r =
        runDiff(a.string() + " " + b.string());
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("histograms.noc.hops.buckets[1]"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("walks_completed"), std::string::npos)
        << r.output;
    std::filesystem::remove(a);
    std::filesystem::remove(b);
}

TEST(HdpatDiffTest, IgnoreMasksAWholeSection)
{
    const auto a = writeTemp("hdpat-diff-a.json", dump(42, 7));
    const auto b = writeTemp("hdpat-diff-b.json", dump(43, 7));
    const DiffResult r = runDiff("--ignore counters " + a.string() +
                                 " " + b.string());
    EXPECT_EQ(r.exitCode, 0) << r.output;
    std::filesystem::remove(a);
    std::filesystem::remove(b);
}

TEST(HdpatDiffTest, UsageErrorsExitTwo)
{
    const DiffResult r = runDiff("only-one-operand.json");
    EXPECT_EQ(r.exitCode, 2) << r.output;
}

TEST(HdpatDiffTest, RealDumpsOfTheSameSpecDiffClean)
{
    // End-to-end: two identical runs export v3 dumps (backpressure
    // section included) that must be byte-equal in content -- the
    // same check CI runs across serial-vs-parallel batches.
    const auto jsonPath = [](const char *name) {
        return (std::filesystem::temp_directory_path() / name)
            .string();
    };
    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.config.meshWidth = 5;
    spec.config.meshHeight = 5;
    spec.config.name = "diff-5x5";
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "SPMV";
    spec.opsPerGpm = 200;
    spec.seed = 0x5eed;
    spec.obs = ObsOptions{};
    spec.obs.backpressure = true;
    spec.obs.heartbeatInterval = 0;
    spec.obs.metricsJsonPath = jsonPath("hdpat-diff-run-a.json");
    runOnce(spec);
    spec.obs.metricsJsonPath = jsonPath("hdpat-diff-run-b.json");
    runOnce(spec);

    const DiffResult r = runDiff(jsonPath("hdpat-diff-run-a.json") +
                                 " " +
                                 jsonPath("hdpat-diff-run-b.json"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    std::filesystem::remove(jsonPath("hdpat-diff-run-a.json"));
    std::filesystem::remove(jsonPath("hdpat-diff-run-b.json"));
}

#else // !HDPAT_DIFF_BIN

TEST(HdpatDiffTest, SkippedWithoutBenchTree)
{
    GTEST_SKIP() << "hdpat_diff is part of the bench tree; rebuild "
                    "with HDPAT_BUILD_BENCH=ON to run these tests";
}

#endif

} // namespace
} // namespace hdpat
