#include "driver/options.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hdpat
{

namespace
{

constexpr std::uint64_t kTickMax = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/** Spatial window when a spatial CSV path implies collection. */
constexpr std::int64_t kDefaultSpatialWindow = 100'000;

/** Column where --help text starts. */
constexpr std::size_t kHelpIndent = 28;

OptionValue
parseValue(const OptionRow &row, std::string_view spelling,
           std::string_view text)
{
    OptionValue v{.spelling = spelling, .text = std::string(text)};
    switch (row.kind) {
      case OptionKind::Bool:
        if (text != "0" && text != "1")
            rejectOption(spelling, "0 or 1", text);
        v.on = text == "1";
        break;
      case OptionKind::Int:
        // A negative lower bound reads signed, any other unsigned, so
        // both -1 and the top of the u64 range can be declared.
        if (row.lo < 0)
            v.integer = parseInt<std::int64_t>(spelling, text, row.lo, row.hi);
        else
            v.integer = parseInt<std::uint64_t>(spelling, text, row.lo, row.hi);
        break;
      case OptionKind::Sample: {
        const auto n = parseDecimal<std::uint64_t>(
            text.starts_with("1/") ? text.substr(2) : text);
        if (!n || *n < 1)
            rejectOption(spelling, "N or 1/N with N >= 1", text);
        v.integer = *n;
        break;
      }
      case OptionKind::Real: {
        const auto r = parseDecimal<double>(text);
        if (!r || !(*r > 0.0) || !std::isfinite(*r))
            rejectOption(spelling, "a positive number", text);
        v.real = *r;
        break;
      }
      case OptionKind::Text:
        break;
    }
    return v;
}

} // namespace

std::int64_t
ObsOptions::effectiveSpatialWindow() const
{
    if (spatialWindow > 0)
        return spatialWindow;
    return spatialCsvPath.empty() ? 0 : kDefaultSpatialWindow;
}

void
rejectOption(std::string_view spelling, std::string_view what,
             std::string_view text)
{
    throw OptionError(std::string(spelling) + " expects " +
                      std::string(what) + ", got '" + std::string(text) +
                      "'");
}

std::size_t
parseOpsPerGpm(std::string_view text)
{
    return parseInt<std::size_t>("OPS_PER_GPM", text, 1, kMaxOpsPerGpm);
}

std::vector<OptionRow>
runOptionRows(RunOptions &o)
{
    using K = OptionKind;
    using V = const OptionValue &;
    return {
        {.flag = "--metrics-json", .env = "HDPAT_METRICS_JSON",
         .valueName = "FILE", .help = "dump every metric as JSON to FILE",
         .set = [&o](V v) { o.obs.metricsJsonPath = v.text; }},
        {.flag = "--trace-out", .env = "HDPAT_TRACE_OUT",
         .valueName = "FILE", .help = "write sampled spans as a Chrome trace",
         .set = [&o](V v) { o.obs.traceOutPath = v.text; }},
        {.flag = "--trace-sample", .env = "HDPAT_TRACE_SAMPLE",
         .kind = K::Sample, .valueName = "N|1/N", .defaultText = "64",
         .help = "trace 1 in N issued ops",
         .set = [&o](V v) { o.obs.traceSampleN = v.integer; }},
        {.flag = "--heartbeat", .env = "HDPAT_HEARTBEAT", .kind = K::Int,
         .lo = -1, .hi = kTickMax, .valueName = "TICKS",
         .defaultText = "-1; 0 = off",
         .help = "log progress every TICKS ticks (-1: auto at info)",
         .set = [&o](V v) { o.obs.heartbeatInterval = v.integer; }},
        {.flag = "--audit", .env = "HDPAT_AUDIT", .kind = K::Bool,
         .help = "verify conservation invariants at run end",
         .set = [&o](V v) { o.obs.audit = v.on; }},
        {.flag = "--watchdog", .env = "HDPAT_WATCHDOG", .kind = K::Int,
         .hi = kTickMax, .valueName = "TICKS", .defaultText = "0 = off",
         .help = "abort if no op retires for TICKS ticks",
         .set = [&o](V v) { o.obs.watchdogInterval = v.integer; }},
        {.flag = "--spatial", .env = "HDPAT_SPATIAL", .kind = K::Int,
         .hi = kTickMax, .valueName = "TICKS", .defaultText = "0 = off",
         .help = "collect link and tile heatmaps per TICKS window",
         .set = [&o](V v) { o.obs.spatialWindow = v.integer; }},
        {.flag = "--spatial-csv", .env = "HDPAT_SPATIAL_CSV",
         .valueName = "FILE", .help = "also write the heatmaps as CSV",
         .set = [&o](V v) { o.obs.spatialCsvPath = v.text; }},
        {.flag = "--profile", .env = "HDPAT_PROFILE", .kind = K::Bool,
         .help = "report where host time goes, per subsystem",
         .set = [&o](V v) { o.obs.profile = v.on; }},
        {.flag = "--latency", .env = "HDPAT_LATENCY", .kind = K::Bool,
         .help = "attribute translation latency to pipeline stages",
         .set = [&o](V v) { o.obs.latency = v.on; }},
        {.flag = "--latency-sample", .env = "HDPAT_LATENCY_SAMPLE",
         .kind = K::Sample, .valueName = "N|1/N", .defaultText = "1 = exact",
         .help = "attribute 1 in N translations",
         .set = [&o](V v) { o.obs.latencySampleN = v.integer; }},
        {.flag = "--latency-topk", .env = "HDPAT_LATENCY_TOPK",
         .kind = K::Int, .lo = 1, .hi = 1'000'000, .valueName = "K",
         .defaultText = "8", .help = "slowest spans kept for the report",
         .set = [&o](V v) { o.obs.latencyTopK = v.integer; }},
        {.flag = "--latency-report", .env = "HDPAT_LATENCY_REPORT",
         .valueName = "FILE", .help = "write the critical-path report",
         .set = [&o](V v) { o.obs.latencyReportPath = v.text; }},
        {.flag = "--backpressure", .env = "HDPAT_BACKPRESSURE",
         .kind = K::Bool, .help = "rank bounded structures by saturation",
         .set = [&o](V v) { o.obs.backpressure = v.on; }},
        {.flag = "--backpressure-window", .env = "HDPAT_BACKPRESSURE_WINDOW",
         .kind = K::Int, .hi = kTickMax, .valueName = "TICKS",
         .defaultText = "0 = totals", .help = "also keep per-window history",
         .set = [&o](V v) { o.obs.backpressureWindow = v.integer; }},
        {.flag = "--backpressure-report", .env = "HDPAT_BACKPRESSURE_REPORT",
         .valueName = "FILE", .help = "write the ranked bottleneck report",
         .set = [&o](V v) { o.obs.backpressureReportPath = v.text; }},
        {.flag = "--jobs", .env = "HDPAT_JOBS", .kind = K::Int, .lo = 1,
         .hi = 1024, .valueName = "N", .defaultText = "all cores",
         .help = "simulations at a time in a sweep (same results)",
         .set = [&o](V v) { o.jobs = v.integer; }, .inBenches = true},
        {.env = "HDPAT_TENANTS", .kind = K::Int, .lo = 1, .hi = 1u << 16,
         .valueName = "N", .defaultText = "1",
         .help = "address spaces (ASIDs) sharing the wafer",
         .set = [&o](V v) { o.tenancy.asidCount = v.integer; }},
        {.env = "HDPAT_SWITCH_RATE", .kind = K::Int, .hi = kU64Max,
         .valueName = "R", .defaultText = "0",
         .help = "Poisson context switches per million ticks",
         .set = [&o](V v) { o.tenancy.switchRatePerMTicks = v.integer; }},
        {.env = "HDPAT_CHURN_RATE", .kind = K::Int, .hi = kU64Max,
         .valueName = "R", .defaultText = "0",
         .help = "Poisson page shootdowns per million ticks",
         .set = [&o](V v) { o.tenancy.churnRatePerMTicks = v.integer; }},
        {.env = "HDPAT_TENANCY_SEED", .kind = K::Int, .lo = 1,
         .hi = kU64Max, .valueName = "S", .defaultText = "8276551",
         .help = "tenant-scheduler RNG seed",
         .set = [&o](V v) { o.tenancy.seed = v.integer; }},
        {.env = "HDPAT_BENCH_SCALE", .kind = K::Real, .valueName = "F",
         .defaultText = "1", .help = "multiply every default op count by F",
         .set = [&o](V v) { o.benchScale = v.real; }, .inBenches = true},
        {.env = "HDPAT_TENANT_CHURN_DIR", .valueName = "DIR",
         .defaultText = ".", .help = "where fig_tenant_churn writes dumps",
         .set = [&o](V v) { o.tenantChurnDir = v.text; }},
        // Read and checked by sim/log.cc: the sim layer cannot depend
        // on the driver.
        {.env = "HDPAT_LOG", .valueName = "quiet|info|debug",
         .defaultText = "quiet",
         .help = "log level (or 0|1|2); info adds the heartbeat"},
    };
}

RunOptions
parseEnvironment(const EnvLookup &lookup)
{
    RunOptions options;
    for (const OptionRow &row : runOptionRows(options)) {
        const char *text = row.env && row.set ? lookup(row.env) : nullptr;
        if (text && *text)
            row.set(parseValue(row, row.env, text));
    }
    return options;
}

const RunOptions &
envRunOptions()
{
    static const RunOptions options = orExit([] {
        return parseEnvironment(
            [](const char *name) { return std::getenv(name); });
    });
    return options;
}

std::vector<std::string>
parseArgs(int argc, char **argv, const std::vector<OptionRow> &rows,
          std::size_t maxPositional)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!arg.starts_with('-')) {
            if (positional.size() == maxPositional)
                throw OptionError("unexpected argument: " + std::string(arg));
            positional.emplace_back(arg);
            continue;
        }
        // "--flag=value" is "--flag value".
        const auto eq = arg.starts_with("--") ? arg.find('=') : arg.npos;
        const std::string_view name = arg.substr(0, eq);
        std::optional<std::string_view> value;
        if (eq != arg.npos)
            value = arg.substr(eq + 1);
        const auto row = std::find_if(
            rows.begin(), rows.end(),
            [&](const OptionRow &r) { return r.flag && name == r.flag; });
        if (row == rows.end())
            throw OptionError("unknown option: " + std::string(name));
        if (row->kind == OptionKind::Bool) {
            if (value)
                rejectOption(name, "no value", *value);
            value = "1";
        } else if (!value) {
            if (i + 1 >= argc)
                throw OptionError(std::string(name) + " needs a value");
            value = argv[++i];
        }
        const OptionValue parsed = parseValue(*row, name, *value);
        if (row->set)
            row->set(parsed);
    }
    return positional;
}

std::string
optionHelp(const std::vector<OptionRow> &rows)
{
    std::string out;
    for (const OptionRow &row : rows) {
        std::string entry = "  ";
        entry += row.flag ? row.flag : row.env;
        if (*row.valueName)
            entry.append(row.flag ? " " : "=").append(row.valueName);
        entry.resize(std::max(entry.size() + 1, kHelpIndent), ' ');
        out += entry + row.help + "\n";
        std::string notes;
        if (*row.defaultText)
            notes.append("default ").append(row.defaultText);
        if (row.flag && row.env)
            notes.append(notes.empty() ? "env " : "; env ").append(row.env);
        if (!notes.empty())
            out += std::string(kHelpIndent, ' ') + notes + "\n";
    }
    return out;
}

} // namespace hdpat
