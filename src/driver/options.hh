/**
 * @file
 * The run option table: every knob a run takes from outside, declared
 * once as a row (flag and/or environment spelling, value kind, range,
 * help, setter). The rows drive flag parsing, environment parsing,
 * validation and hdpat_cli's --help. A flag beats its environment
 * variable, which beats the default; an environment value of "" is
 * unset. Values are parsed strictly (whole text, decimal, in range);
 * anything else is an OptionError "<spelling> expects <what>, got
 * '<text>'".
 */

#ifndef HDPAT_DRIVER_OPTIONS_HH
#define HDPAT_DRIVER_OPTIONS_HH

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "driver/tenancy.hh"

namespace hdpat
{

/** Observability outputs and introspection for one run. */
struct ObsOptions
{
    /** Write the metrics-registry JSON dump here ("" = off). */
    std::string metricsJsonPath;
    /** Write the Chrome-trace span export here ("" = off). */
    std::string traceOutPath;
    /** Trace 1 in N issued ops (only used when tracing is on). */
    std::uint64_t traceSampleN = 64;
    /** Span ring-buffer capacity in records. */
    std::size_t traceCapacity = 1u << 20;
    /** Heartbeat period in ticks: -1 = auto (on at LogLevel::Info). */
    std::int64_t heartbeatInterval = -1;
    /** Run the conservation auditor. */
    bool audit = false;
    /** Stall-watchdog interval in ticks, 0 = off. */
    std::int64_t watchdogInterval = 0;
    /** Spatial heatmap window in ticks, 0 = off. */
    std::int64_t spatialWindow = 0;
    /** Write the spatial heatmap CSV here ("" = off). */
    std::string spatialCsvPath;
    /** Run the host self-profiler. */
    bool profile = false;
    /** Latency attribution: per-stage anatomy. */
    bool latency = false;
    /** Attribute 1 in N sampled translations (1 = exact mode). */
    std::uint64_t latencySampleN = 1;
    /** Slowest spans kept for the critical-path report. */
    std::size_t latencyTopK = 8;
    /** Write the critical-path report here ("" = off; implies on). */
    std::string latencyReportPath;
    /** Backpressure accounting. */
    bool backpressure = false;
    /** Backpressure window in ticks; 0 = totals only. */
    std::int64_t backpressureWindow = 0;
    /** Write the bottleneck report here ("" = off; implies on). */
    std::string backpressureReportPath;

    bool operator==(const ObsOptions &) const = default;

    /** Latency attribution on, via the flag or the report path. */
    bool latencyEnabled() const
    {
        return latency || !latencyReportPath.empty();
    }

    /** Backpressure on, via the flag or the report path. */
    bool backpressureEnabled() const
    {
        return backpressure || !backpressureReportPath.empty();
    }

    /** Spatial window; a CSV path alone implies the default window. */
    std::int64_t effectiveSpatialWindow() const;
};

/** Everything the shared option rows set. */
struct RunOptions
{
    ObsOptions obs;
    TenancySpec tenancy;
    /** Simulations in flight in a sweep; 0 = all cores. */
    unsigned jobs = 0;
    /** Multiplier on every default op count. */
    double benchScale = 1.0;
    /** Directory for fig_tenant_churn's per-cell metrics dumps. */
    std::string tenantChurnDir = ".";

    bool operator==(const RunOptions &) const = default;
};

/** Largest ops-per-GPM count: streams are materialized per GPM. */
constexpr std::size_t kMaxOpsPerGpm = 10'000'000;

/** A malformed argument or value; what() names its spelling. */
struct OptionError : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

enum class OptionKind
{
    Bool,   ///< Flag: present = on, no value. Environment: 0 or 1.
    Int,    ///< Decimal integer in [lo, hi].
    Sample, ///< "N" or "1/N", N >= 1: keep 1 in N.
    Real,   ///< Positive finite decimal number.
    Text,   ///< Any string: a path, a name.
};

/** One parsed value, in the field its row's kind fills. */
struct OptionValue
{
    std::string_view spelling; ///< The flag or variable it came from.
    bool on = false;
    /** Int and Sample; a signed field reads a negative back as is. */
    std::uint64_t integer = 0;
    double real = 0.0;
    std::string text;
};

/** One option: its spellings, value kind, help and setter. */
struct OptionRow
{
    const char *flag = nullptr; ///< "--name", or null: env only.
    const char *env = nullptr;  ///< "HDPAT_NAME", or null: flag only.
    OptionKind kind = OptionKind::Text;
    std::int64_t lo = 0; ///< Int range.
    std::uint64_t hi = 0;
    const char *valueName = "";   ///< Help placeholder, e.g. "TICKS".
    const char *defaultText = ""; ///< Default shown in help.
    const char *help = "";
    /** Stores the value; null for a row another layer reads. */
    std::function<void(const OptionValue &)> set = nullptr;
    /** A bench-harness option: every bench accepts its flag. */
    bool inBenches = false;
};

/** Throw OptionError "<spelling> expects <what>, got '<text>'". */
[[noreturn]] void rejectOption(std::string_view spelling,
                               std::string_view what,
                               std::string_view text);

/** All of @p text as a decimal T; nullopt on anything else. */
template <typename T>
std::optional<T>
parseDecimal(std::string_view text)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return v;
}

/** parseDecimal within [lo, hi], or OptionError naming @p spelling. */
template <typename T>
T
parseInt(std::string_view spelling, std::string_view text, T lo, T hi)
{
    const std::optional<T> v = parseDecimal<T>(text);
    if (!v || *v < lo || *v > hi) {
        rejectOption(spelling,
                     "an integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]",
                     text);
    }
    return *v;
}

/** The op-count argument of benches and examples, named OPS_PER_GPM. */
std::size_t parseOpsPerGpm(std::string_view text);

/** The shared rows, with setters writing into @p target. */
std::vector<OptionRow> runOptionRows(RunOptions &target);

/** Looks up one environment variable; null = unset. */
using EnvLookup = std::function<const char *(const char *name)>;

/** RunOptions from the defaults and @p lookup; throws OptionError. */
RunOptions parseEnvironment(const EnvLookup &lookup);

/** The process environment's RunOptions, parsed once; exits 1 if bad. */
const RunOptions &envRunOptions();

/**
 * Apply argv[1..] to @p rows ("--flag value" or "--flag=value") and
 * return the at most @p maxPositional other arguments; throws
 * OptionError.
 */
std::vector<std::string> parseArgs(int argc, char **argv,
                                   const std::vector<OptionRow> &rows,
                                   std::size_t maxPositional = 0);

/** --help text for @p rows, one entry per row in table order. */
std::string optionHelp(const std::vector<OptionRow> &rows);

/** @p parse(), or its OptionError's message on stderr and exit 1. */
template <typename F>
auto
orExit(F &&parse)
{
    try {
        return parse();
    } catch (const OptionError &e) {
        std::cerr << e.what() << "\n";
        std::exit(1);
    }
}

} // namespace hdpat

#endif // HDPAT_DRIVER_OPTIONS_HH
