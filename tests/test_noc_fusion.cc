/**
 * @file
 * NoC delivery fusion must be a pure host-side scheduling transform:
 * folding an arrival's observer companions (auditor delivered-count,
 * tracer NetArrive record) into the arrival event may change how many
 * events the engine schedules, but never any simulated result.
 *
 * Spatial observation forces the per-companion (per-hop) shape, which
 * is how these tests reach it. The contract, tested here end to end
 * through runOnce():
 *   - without other observers, a per-hop run matches the fused run in
 *     every simulated metric (there is nothing to fuse);
 *   - with the auditor attached, every sim-visible metric stays
 *     identical while the per-hop shape schedules the companion
 *     events that fusion folds away -- that saving is the whole point
 *     of the optimization;
 *   - attaching a spatial collector switches fusion off.
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

/** Spatial window that forces the per-hop shape. */
constexpr std::int64_t kSpatialWindow = 50000;

/**
 * Run @p spec fused, or per-hop (spatial observation on), dumping
 * metrics to @p path.
 */
RunResult
runShape(RunSpec spec, bool per_hop, const std::string &path)
{
    if (per_hop)
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
    // with no observer attached there are no companion events, so the
    // per-hop shape must not change a single simulated number.
    for (const SystemConfig &cfg :
         {SystemConfig::mi100(), SystemConfig::mi100Wafer7x12()}) {
        const std::string dir = ::testing::TempDir();
        const std::string fused_path =
            dir + "fusion-on-" + cfg.name + ".json";
        const std::string per_hop_path =
            dir + "fusion-off-" + cfg.name + ".json";

        const RunResult fused = runShape(baseSpec(cfg), false, fused_path);
        const RunResult per_hop =
            runShape(baseSpec(cfg), true, per_hop_path);

        EXPECT_EQ(fused.totalTicks, per_hop.totalTicks) << cfg.name;
        EXPECT_EQ(fused.opsTotal, per_hop.opsTotal) << cfg.name;
        EXPECT_EQ(fused.noc.packets, per_hop.noc.packets) << cfg.name;
        EXPECT_EQ(simulatedRows(fused_path), simulatedRows(per_hop_path))
            << cfg.name << ": unobserved runs must not depend on the "
            << "delivery shape";
    }
}

TEST(NocFusionDifferential, AuditedRunsDifferOnlyInEngineLoad)
{
    const std::string dir = ::testing::TempDir();
    const RunSpec plain = baseSpec(SystemConfig::mi100());
    RunSpec audited = plain;
    audited.obs.audit = true;

    const std::string fused_path = dir + "audited-fused.json";
    const std::string per_hop_path = dir + "audited-per-hop.json";
    const RunResult fused = runShape(audited, false, fused_path);
    const RunResult per_hop = runShape(audited, true, per_hop_path);

    // Every sim-visible number -- counters, gauges, summaries,
    // histograms, run metadata -- must match; only the engine.* load
    // counters (events scheduled, pending high-water) may move.
    EXPECT_EQ(simulatedRows(fused_path), simulatedRows(per_hop_path));
    EXPECT_EQ(fused.auditRetireCensusHash, per_hop.auditRetireCensusHash);

    // And the optimization must actually optimize. Fused, the
    // auditor's delivered-counts ride inside the arrival events, so
    // the audited run schedules exactly as many events as an unaudited
    // one; per-hop, each is an event of its own.
    const std::string plain_fused_path = dir + "plain-fused.json";
    const std::string plain_per_hop_path = dir + "plain-per-hop.json";
    runShape(plain, false, plain_fused_path);
    runShape(plain, true, plain_per_hop_path);
    EXPECT_EQ(eventsScheduled(fused_path),
              eventsScheduled(plain_fused_path));
    EXPECT_GT(eventsScheduled(per_hop_path),
              eventsScheduled(plain_per_hop_path));
}

TEST(NocFusionDifferential, SpatialObservationForcesUnfusedShape)
{
    System sys(SystemConfig::mi100(), TranslationPolicy::hdpat());
    EXPECT_TRUE(sys.network().fusionActive());
    sys.enableSpatial(kSpatialWindow, kSpatialWindow / 4);
    EXPECT_FALSE(sys.network().fusionActive());
}

} // namespace
} // namespace hdpat
