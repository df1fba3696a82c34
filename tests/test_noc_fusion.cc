/**
 * @file
 * Spatial observation must be a pure observer, and NoC delivery fusion
 * a pure host-side scheduling transform: a packet whose delivery
 * carries observer companions (auditor delivered-count, tracer
 * NetArrive record) is delivered by one event that runs them and then
 * the arrival callback, so the companions add no scheduled event and
 * change no simulated result.
 *
 * The contract, tested here end to end through runOnce():
 *   - without other observers, a spatial run matches the plain run in
 *     every simulated metric;
 *   - with the auditor attached, the same holds, and the audited run
 *     schedules exactly as many events as an unaudited one;
 *   - with spatial on, audited and audited + latency-attributed runs
 *     schedule exactly as many events as the plain spatial run.
 */

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver/runner.hh"
#include "driver/system.hh"
#include "obs/json_reader.hh"

namespace hdpat
{
namespace
{

/** A quiet, env-independent spec (ctest exports HDPAT_AUDIT=1; the
 *  fusion comparisons pick observers explicitly instead). */
RunSpec
baseSpec(const SystemConfig &cfg)
{
    RunSpec spec;
    spec.config = cfg;
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "SPMV";
    spec.opsPerGpm = 300;
    spec.obs = ObsOptions{};
    spec.obs.heartbeatInterval = 0;
    return spec;
}

/** Spatial heatmap window of the spatial-observed runs. */
constexpr std::int64_t kSpatialWindow = 50000;

/**
 * Run @p spec plain, or with spatial observation on, dumping metrics
 * to @p path.
 */
RunResult
runShape(RunSpec spec, bool spatial, const std::string &path)
{
    if (spatial)
        spec.obs.spatialWindow = kSpatialWindow;
    spec.obs.metricsJsonPath = path;
    return runOnce(spec);
}

/**
 * Flatten a parsed metrics document to dotted-path -> printed-value
 * rows, so two documents compare structurally with a key filter.
 */
void
flattenJson(const JsonValue &v, const std::string &prefix,
            std::vector<std::pair<std::string, std::string>> &out)
{
    switch (v.kind) {
      case JsonValue::Kind::Object:
        for (const auto &[key, child] : v.members)
            flattenJson(child, prefix + "/" + key, out);
        return;
      case JsonValue::Kind::Array:
        for (std::size_t i = 0; i < v.elements.size(); ++i)
            flattenJson(v.elements[i],
                        prefix + "/" + std::to_string(i), out);
        return;
      default: {
        std::ostringstream os;
        os.precision(17);
        if (v.isNumber())
            os << v.number;
        else if (v.isString())
            os << v.str;
        else if (v.kind == JsonValue::Kind::Bool)
            os << (v.boolean ? "true" : "false");
        else
            os << "null";
        out.emplace_back(prefix, os.str());
      }
    }
}

/** The simulated metrics: every row but the engine.* load counters
 *  and the spatial observer's own section. */
std::vector<std::pair<std::string, std::string>>
simulatedRows(const std::string &json_path)
{
    const JsonValue doc = parseJsonFileOrDie(json_path);
    std::vector<std::pair<std::string, std::string>> rows;
    flattenJson(doc, "", rows);
    std::erase_if(rows, [](const auto &row) {
        return row.first.find("/engine.") != std::string::npos ||
               row.first.starts_with("/spatial/");
    });
    return rows;
}

std::uint64_t
eventsScheduled(const std::string &json_path)
{
    return parseJsonFileOrDie(json_path)
        .at("counters")
        .at("engine.events_scheduled")
        .asUint();
}

TEST(NocFusionDifferential, UnobservedRunsAreBitwiseIdentical)
{
    // Fig 14 shape (7x7 MI100 wafer) and Fig 22 shape (7x12 wafer):
    // with no other observer attached, spatial observation must not
    // change a single simulated number.
    for (const SystemConfig &cfg :
         {SystemConfig::mi100(), SystemConfig::mi100Wafer7x12()}) {
        const std::string dir = ::testing::TempDir();
        const std::string plain_path = dir + "plain-" + cfg.name + ".json";
        const std::string spatial_path =
            dir + "spatial-" + cfg.name + ".json";

        const RunResult plain = runShape(baseSpec(cfg), false, plain_path);
        const RunResult spatial =
            runShape(baseSpec(cfg), true, spatial_path);

        EXPECT_EQ(plain.totalTicks, spatial.totalTicks) << cfg.name;
        EXPECT_EQ(plain.opsTotal, spatial.opsTotal) << cfg.name;
        EXPECT_EQ(plain.noc.packets, spatial.noc.packets) << cfg.name;
        EXPECT_EQ(simulatedRows(plain_path), simulatedRows(spatial_path))
            << cfg.name << ": spatial observation must be a pure observer";
    }
}

TEST(NocFusionDifferential, AuditedRunsDifferOnlyInEngineLoad)
{
    const std::string dir = ::testing::TempDir();
    const RunSpec plain = baseSpec(SystemConfig::mi100());
    RunSpec audited = plain;
    audited.obs.audit = true;

    const std::string audited_path = dir + "audited.json";
    const std::string spatial_path = dir + "audited-spatial.json";
    const RunResult fused = runShape(audited, false, audited_path);
    const RunResult spatial = runShape(audited, true, spatial_path);

    // Every sim-visible number -- counters, gauges, summaries,
    // histograms, run metadata -- must match; only the engine.* load
    // counters (events scheduled, pending high-water) may move.
    EXPECT_EQ(simulatedRows(audited_path), simulatedRows(spatial_path));
    EXPECT_EQ(fused.auditRetireCensusHash, spatial.auditRetireCensusHash);

    // And the optimization must actually optimize: the auditor's
    // delivered-counts ride inside the arrival events, so the audited
    // run schedules exactly as many events as an unaudited one.
    const std::string plain_path = dir + "plain.json";
    runShape(plain, false, plain_path);
    EXPECT_EQ(eventsScheduled(audited_path), eventsScheduled(plain_path));
}

TEST(NocFusionDifferential, SpatialRunsFuseObserverCompanions)
{
    // Spatial observation leaves delivery fused: with heatmaps on, the
    // audited and the audited + latency-attributed (traced) runs fold
    // their delivery companions into the arrival events, so they
    // schedule exactly as many events as the plain spatial run.
    const std::string dir = ::testing::TempDir();
    const RunSpec plain = baseSpec(SystemConfig::mi100());
    RunSpec audited = plain;
    audited.obs.audit = true;
    RunSpec traced = audited;
    traced.obs.latency = true;

    const std::string plain_path = dir + "spatial-plain.json";
    const std::string audited_path = dir + "spatial-audited.json";
    const std::string traced_path = dir + "spatial-traced.json";
    const std::string unspatial_path = dir + "traced.json";
    runShape(plain, true, plain_path);
    runShape(audited, true, audited_path);
    runShape(traced, true, traced_path);
    runShape(traced, false, unspatial_path);

    EXPECT_EQ(eventsScheduled(audited_path), eventsScheduled(plain_path));
    EXPECT_EQ(eventsScheduled(traced_path), eventsScheduled(plain_path));
    EXPECT_EQ(simulatedRows(plain_path), simulatedRows(audited_path));
    // Latency attribution adds its own section, so the traced spatial
    // run is held against the traced run without heatmaps.
    EXPECT_EQ(simulatedRows(unspatial_path), simulatedRows(traced_path));
}

} // namespace
} // namespace hdpat
