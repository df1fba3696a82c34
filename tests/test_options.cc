/**
 * @file
 * The run option table (driver/options.hh). The table-driven test walks
 * every row, so a new row is covered the day it is added: a malformed
 * and an out-of-range value must be rejected through the row's flag and
 * through its environment variable, naming the spelling, and a
 * well-formed value must be applied. The environment goes through the
 * injected lookup, never setenv.
 */

#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/options.hh"
#include "fuzz/fuzz_case.hh"

namespace hdpat
{
namespace
{

/** Values @p row must reject: one malformed, one out of range. */
std::vector<std::string>
badValues(const OptionRow &row)
{
    switch (row.kind) {
      case OptionKind::Bool:
        return {"maybe", "2"};
      case OptionKind::Int:
        return {"abc", std::to_string(row.lo - 1)};
      case OptionKind::Sample:
        return {"1/x", "0"};
      case OptionKind::Real:
        return {"abc", "0"};
      case OptionKind::Text:
        break;
    }
    return {};
}

/** A well-formed value of @p row's kind that differs from its default. */
std::string
goodValue(const OptionRow &row)
{
    switch (row.kind) {
      case OptionKind::Bool:
        return "1";
      case OptionKind::Int:
        return std::to_string(row.lo + 1);
      case OptionKind::Sample:
        return "1/3";
      case OptionKind::Real:
        return "2.5";
      case OptionKind::Text:
        break;
    }
    return "out.file";
}

/** Apply @p args as argv[1..] to the shared rows, bound to @p target. */
void
applyArgs(std::vector<std::string> args, RunOptions &target)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    parseArgs(static_cast<int>(argv.size()), argv.data(),
              runOptionRows(target));
}

/** RunOptions with @p name set to @p value and nothing else. */
RunOptions
fromEnv(const char *name, const std::string &value)
{
    return parseEnvironment([&](const char *n) {
        return std::string_view(n) == name ? value.c_str() : nullptr;
    });
}

/** The OptionError message @p f throws ("" if it throws none). */
template <typename F>
std::string
errorOf(F &&f)
{
    try {
        f();
    } catch (const OptionError &e) {
        return e.what();
    }
    return "";
}

TEST(OptionTableTest, EveryRowRejectsBadValuesAndAppliesGoodOnes)
{
    RunOptions probe;
    for (const OptionRow &row : runOptionRows(probe)) {
        SCOPED_TRACE(row.flag ? row.flag : row.env);
        for (const std::string &bad : badValues(row)) {
            if (row.flag) {
                // "--flag=value"; for a Bool flag any value is an error.
                const std::string msg = errorOf([&] {
                    RunOptions target;
                    applyArgs({std::string(row.flag) + "=" + bad}, target);
                });
                EXPECT_NE(msg.find(std::string(row.flag) + " expects"),
                          std::string::npos)
                    << "'" << bad << "' gave: " << msg;
            }
            if (row.env && row.set) {
                const std::string msg =
                    errorOf([&] { fromEnv(row.env, bad); });
                EXPECT_NE(msg.find(std::string(row.env) + " expects"),
                          std::string::npos)
                    << "'" << bad << "' gave: " << msg;
                EXPECT_NE(msg.find("'" + bad + "'"), std::string::npos);
            }
        }

        // sim/log.cc reads and checks its row's variable itself.
        if (!row.set)
            continue;
        const std::string good = goodValue(row);
        std::optional<RunOptions> byFlag, byEnv;
        if (row.flag) {
            byFlag.emplace();
            if (row.kind == OptionKind::Bool)
                applyArgs({row.flag}, *byFlag);
            else
                applyArgs({row.flag, good}, *byFlag);
            EXPECT_NE(*byFlag, RunOptions{});
        }
        if (row.env) {
            byEnv = fromEnv(row.env, good);
            EXPECT_NE(*byEnv, RunOptions{});
        }
        if (byFlag && byEnv) {
            EXPECT_EQ(*byFlag, *byEnv);
        }
    }
}

TEST(OptionTableTest, EverySpellingIsDeclaredOnce)
{
    RunOptions probe;
    std::set<std::string> seen;
    for (const OptionRow &row : runOptionRows(probe)) {
        ASSERT_TRUE(row.flag || row.env);
        for (const char *spelling : {row.flag, row.env}) {
            if (spelling) {
                EXPECT_TRUE(seen.insert(spelling).second) << spelling;
            }
        }
    }
}

TEST(OptionTableTest, FlagBeatsEnvironmentWhichBeatsDefault)
{
    RunOptions options = fromEnv("HDPAT_JOBS", "3");
    EXPECT_EQ(options.jobs, 3u);
    applyArgs({"--jobs", "5"}, options);
    EXPECT_EQ(options.jobs, 5u);
    EXPECT_EQ(fromEnv("HDPAT_JOBS", ""), RunOptions{}); // "" = unset.
}

TEST(OptionTableTest, DocumentedZerosAndSentinelsStayValid)
{
    for (const char *name :
         {"HDPAT_WATCHDOG", "HDPAT_SPATIAL", "HDPAT_BACKPRESSURE_WINDOW",
          "HDPAT_HEARTBEAT", "HDPAT_SWITCH_RATE", "HDPAT_CHURN_RATE",
          "HDPAT_AUDIT"}) {
        EXPECT_EQ(errorOf([&] { fromEnv(name, "0"); }), "") << name;
    }
    EXPECT_EQ(fromEnv("HDPAT_HEARTBEAT", "-1").obs.heartbeatInterval, -1);
    EXPECT_EQ(fromEnv("HDPAT_TRACE_SAMPLE", "1/16").obs.traceSampleN, 16u);
    EXPECT_EQ(fromEnv("HDPAT_TRACE_SAMPLE", "16").obs.traceSampleN, 16u);
    EXPECT_EQ(fromEnv("HDPAT_TENANCY_SEED", "18446744073709551615")
                  .tenancy.seed,
              18446744073709551615ull);
}

TEST(OptionTableTest, ValuesThatUsedToMeanDefaultAreRejected)
{
    for (const auto &[name, value] :
         std::vector<std::pair<const char *, const char *>>{
             {"HDPAT_TENANCY_SEED", "0"},
             {"HDPAT_TENANTS", "0"},
             {"HDPAT_AUDIT", "off"},
             {"HDPAT_JOBS", "banana"},
             {"HDPAT_BENCH_SCALE", "abc"}}) {
        EXPECT_NE(errorOf([&] { fromEnv(name, value); }), "") << name;
    }
    for (const auto &args : std::vector<std::vector<std::string>>{
             {"--latency-topk", "0"},
             {"--trace-sample", "0"},
             {"--jobs", "0"},
             {"--watchdog", "-5"},
             {"--heartbeat", "abc"},
             {"--audit=1"},
             {"--jobs"},
             {"--no-such-flag"}}) {
        RunOptions target;
        EXPECT_NE(errorOf([&] { applyArgs(args, target); }), "")
            << args.front();
    }
}

TEST(OptionTableTest, PositionalArgumentsAreCountedAndKeptInOrder)
{
    RunOptions target;
    std::vector<std::string> args = {"prog", "300", "--jobs=2", "x"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    EXPECT_EQ(parseArgs(4, argv.data(), runOptionRows(target), 2),
              (std::vector<std::string>{"300", "x"}));
    EXPECT_EQ(target.jobs, 2u);
    EXPECT_EQ(errorOf([&] {
                  parseArgs(4, argv.data(), runOptionRows(target), 1);
              }),
              "unexpected argument: x");
}

TEST(OptionParseTest, DecimalIsWholeStringAndRangeChecked)
{
    EXPECT_EQ(parseDecimal<std::int64_t>("010"), 10); // Not octal.
    EXPECT_FALSE(parseDecimal<std::int64_t>("0x10"));
    EXPECT_FALSE(parseDecimal<std::int64_t>("99999999999999999999"));
    EXPECT_FALSE(parseDecimal<std::uint64_t>("-1"));
    EXPECT_FALSE(parseDecimal<std::int64_t>(""));
    EXPECT_FALSE(parseDecimal<std::int64_t>("12 "));
    EXPECT_EQ(parseOpsPerGpm("300"), 300u);
    const std::string msg = errorOf([] { parseOpsPerGpm("abc"); });
    EXPECT_EQ(msg, "OPS_PER_GPM expects an integer in [1, 10000000], "
                   "got 'abc'");
}

TEST(OptionParseTest, FuzzCaseReaderIsDecimalAndRejectsOverflow)
{
    const auto decimal = parseFuzzCase("meshWidth=010\n");
    ASSERT_TRUE(decimal.has_value());
    EXPECT_EQ(decimal->meshWidth, 10);
    std::string error;
    EXPECT_FALSE(parseFuzzCase("meshWidth=0x10\n", &error).has_value());
    EXPECT_NE(error.find("meshWidth"), std::string::npos);
    EXPECT_FALSE(
        parseFuzzCase("seed=99999999999999999999\n", &error).has_value());
    EXPECT_NE(error.find("seed"), std::string::npos);
}

} // namespace
} // namespace hdpat
