/**
 * @file
 * Workload stream cache: replayed tables must be bit-identical to
 * direct generation (including against a page table with real wafer
 * tile homes, which is the soundness claim behind building on a
 * scratch table), hits must share one build, the LRU bound must hold,
 * and a cached run must equal an uncached run end to end.
 */

#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/system_config.hh"
#include "config/translation_policy.hh"
#include "driver/runner.hh"
#include "driver/system.hh"
#include "mem/page_table.hh"
#include "obs/exporters.hh"
#include "noc/mesh_topology.hh"
#include "workloads/stream_cache.hh"
#include "workloads/suite.hh"

namespace hdpat
{
namespace
{

/**
 * For every Table II workload: generate streams the way System does --
 * against a page table whose pages are homed on real wafer tiles --
 * and compare with the cache's table, which was built on a scratch
 * page table with synthetic tile ids. Bit-identical streams prove the
 * addresses do not depend on page homes.
 */
TEST(StreamCacheTest, ReplayMatchesDirectGenerationForWholeSuite)
{
    const MeshTopology topo = MeshTopology::wafer(7, 7);
    const std::size_t num_gpms = topo.gpmTiles().size();
    constexpr std::size_t kOps = 400;
    constexpr std::uint64_t kSeed = 0x5eed;

    WorkloadStreamCache cache;
    for (const std::string &abbr : workloadAbbrs()) {
        SCOPED_TRACE(abbr);
        const auto table = cache.get(
            StreamKey{abbr, 1.0, kOps, kSeed, num_gpms, 12});
        ASSERT_EQ(table->numGpms(), num_gpms);

        GlobalPageTable pt(12);
        const auto workload = makeWorkload(abbr);
        workload->allocate(pt, topo.gpmTiles());
        for (std::size_t i = 0; i < num_gpms; ++i)
            ASSERT_EQ(table->gpm(i),
                      workload->streamFor(i, num_gpms, kOps, kSeed))
                << "gpm " << i;
    }
}

TEST(StreamCacheTest, HitsShareOneBuild)
{
    WorkloadStreamCache cache;
    const StreamKey key{"SPMV", 1.0, 100, 1, 8, 12};
    const auto a = cache.get(key);
    const auto b = cache.get(key);
    EXPECT_EQ(a.get(), b.get()); // Same immutable table.
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    StreamKey other = key;
    other.seed = 2;
    const auto c = cache.get(other);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.builds(), 2u);
}

TEST(StreamCacheTest, DistinctKeysAreDistinctStreams)
{
    // SPMV's zipf gather makes the stream seed-sensitive (MM's pure
    // sequential channels would not be).
    WorkloadStreamCache cache;
    const StreamKey base{"SPMV", 1.0, 200, 7, 8, 12};
    const auto table = cache.get(base);

    StreamKey scaled = base;
    scaled.footprintScale = 2.0;
    EXPECT_NE(cache.get(scaled)->gpm(0), table->gpm(0));

    StreamKey reseeded = base;
    reseeded.seed = 8;
    EXPECT_NE(cache.get(reseeded)->gpm(0), table->gpm(0));
}

TEST(StreamCacheTest, LruBoundEvictsOldest)
{
    WorkloadStreamCache cache(2);
    StreamKey key{"SPMV", 1.0, 50, 1, 4, 12};
    const auto first = cache.get(key); // Keeps the table alive.
    key.seed = 2;
    cache.get(key);
    key.seed = 3;
    cache.get(key);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.builds(), 3u);

    // The evicted (oldest) key rebuilds; the shared_ptr we held is
    // still valid and unchanged.
    key.seed = 1;
    const auto rebuilt = cache.get(key);
    EXPECT_EQ(cache.builds(), 4u);
    EXPECT_EQ(first->gpm(0), rebuilt->gpm(0));
}

TEST(StreamCacheTest, ConcurrentGetsBuildOnce)
{
    WorkloadStreamCache cache;
    const StreamKey key{"PR", 1.0, 150, 9, 8, 12};
    std::vector<std::shared_ptr<const StreamTable>> results(8);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < results.size(); ++t)
            threads.emplace_back(
                [&, t] { results[t] = cache.get(key); });
        for (std::thread &th : threads)
            th.join();
    }
    for (const auto &r : results)
        EXPECT_EQ(r.get(), results[0].get());
    EXPECT_EQ(cache.builds(), 1u);
    EXPECT_EQ(cache.hits(), 7u);
}

/**
 * One audited run of @p spec, its streams either generated in place by
 * System::loadWorkload or taken from a fresh stream cache.
 * Returns the result and the run's metrics JSON.
 */
std::pair<RunResult, std::string>
auditedRun(const RunSpec &spec, bool from_cache)
{
    System sys(spec.config, spec.policy);
    if (spec.tenancy.enabled())
        sys.enableTenancy(spec.tenancy);
    sys.enableAudit();
    const auto workload = makeWorkload(spec.workload, spec.footprintScale);
    if (from_cache) {
        WorkloadStreamCache cache;
        sys.loadWorkload(*workload, spec.opsPerGpm, spec.seed,
                         cache.get(StreamKey{
                             spec.workload, spec.footprintScale,
                             spec.opsPerGpm, spec.seed, sys.numGpms(),
                             spec.config.pageShift,
                             spec.tenancy.asidCount}));
    } else {
        sys.loadWorkload(*workload, spec.opsPerGpm, spec.seed);
    }
    RunResult result = sys.run();
    RunMetadata meta;
    meta.workload = result.workload;
    meta.policy = result.policy;
    meta.config = result.config;
    meta.seed = spec.seed;
    meta.totalTicks = result.totalTicks;
    std::ostringstream json;
    writeMetricsJson(json, sys.metrics(), meta);
    return {std::move(result), json.str()};
}

/** End to end: cached and uncached runs are the same simulation. */
TEST(StreamCacheTest, RunnerEquivalentWithAndWithoutCache)
{
    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "FFT";
    spec.opsPerGpm = 300;
    spec.tenancy = TenancySpec{};

    const auto [cached, cached_json] = auditedRun(spec, true);
    const auto [uncached, uncached_json] = auditedRun(spec, false);

    EXPECT_EQ(cached.totalTicks, uncached.totalTicks);
    EXPECT_EQ(cached.opsTotal, uncached.opsTotal);
    EXPECT_EQ(cached.gpmFinish, uncached.gpmFinish);
    EXPECT_EQ(cached.auditRetireCensusHash,
              uncached.auditRetireCensusHash);
    EXPECT_EQ(cached_json, uncached_json);
}

TEST(StreamCacheTest, AsidCountIsPartOfTheKey)
{
    // A 2-tenant run allocates the workload once per ASID, so the
    // workload's final buffer handles -- and thus the generated
    // streams -- can differ from the single-tenant build. The key must
    // keep the entries apart, and the 2-tenant table must match direct
    // generation that mirrors System::loadWorkload's per-ASID
    // allocation loop.
    const MeshTopology topo = MeshTopology::wafer(7, 7);
    const std::size_t num_gpms = topo.gpmTiles().size();
    constexpr std::size_t kOps = 300;
    constexpr std::uint64_t kSeed = 0x5eed;

    WorkloadStreamCache cache;
    StreamKey one{"SPMV", 1.0, kOps, kSeed, num_gpms, 12};
    StreamKey two = one;
    two.asidCount = 2;
    const auto table_one = cache.get(one);
    const auto table_two = cache.get(two);
    EXPECT_NE(table_one.get(), table_two.get());
    EXPECT_EQ(cache.builds(), 2u);

    GlobalPageTable pt(12);
    const auto workload = makeWorkload("SPMV");
    for (Asid asid = 0; asid < 2; ++asid) {
        pt.setActiveAsid(asid);
        workload->allocate(pt, topo.gpmTiles());
    }
    pt.setActiveAsid(0);
    for (std::size_t i = 0; i < num_gpms; ++i)
        ASSERT_EQ(table_two->gpm(i),
                  workload->streamFor(i, num_gpms, kOps, kSeed))
            << "gpm " << i;
}

/** Satellite of the tenancy PR: 2-tenant runs, cached vs uncached. */
TEST(StreamCacheTest, TwoTenantRunnerEquivalentWithAndWithoutCache)
{
    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "FFT";
    spec.opsPerGpm = 300;
    spec.tenancy = TenancySpec{};
    spec.tenancy.asidCount = 2;
    spec.tenancy.switchRatePerMTicks = 400;
    spec.tenancy.churnRatePerMTicks = 200;

    const auto [cached, cached_json] = auditedRun(spec, true);
    const auto [uncached, uncached_json] = auditedRun(spec, false);

    EXPECT_EQ(cached.totalTicks, uncached.totalTicks);
    EXPECT_EQ(cached.opsTotal, uncached.opsTotal);
    EXPECT_EQ(cached.gpmFinish, uncached.gpmFinish);
    EXPECT_EQ(cached.contextSwitches, uncached.contextSwitches);
    EXPECT_EQ(cached.pagesChurned, uncached.pagesChurned);
    EXPECT_EQ(cached.pageFaults, uncached.pageFaults);
    EXPECT_EQ(cached.auditRetireCensusHash,
              uncached.auditRetireCensusHash);
    EXPECT_EQ(cached_json, uncached_json);
}

/** The runner replays every run's streams from the shared cache. */
TEST(StreamCacheTest, RunnerAlwaysUsesSharedCache)
{
    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.policy = TranslationPolicy::baseline();
    spec.workload = "KM";
    spec.opsPerGpm = 50;
    spec.seed = 0x5ca1e;
    spec.obs = ObsOptions{};
    spec.obs.heartbeatInterval = 0;

    WorkloadStreamCache &shared = WorkloadStreamCache::shared();
    const std::uint64_t builds = shared.builds();
    const std::uint64_t hits = shared.hits();
    runOnce(spec);
    spec.policy = TranslationPolicy::hdpat();
    runOnce(spec);
    EXPECT_EQ(shared.builds() + shared.hits(), builds + hits + 2);
    EXPECT_GE(shared.hits(), hits + 1);
}

} // namespace
} // namespace hdpat
