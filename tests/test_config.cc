/**
 * @file
 * Unit tests for SystemConfig (Table I), the policy presets, and the
 * sensitivity-sweep registries.
 */

#include <gtest/gtest.h>

#include "config/gpu_presets.hh"
#include "config/system_config.hh"
#include "config/translation_policy.hh"

namespace hdpat
{
namespace
{

TEST(SystemConfigTest, TableOneDefaults)
{
    const SystemConfig cfg = SystemConfig::mi100();
    EXPECT_EQ(cfg.cusPerGpm, 32);
    EXPECT_EQ(cfg.l1Tlb.sets, 1u);
    EXPECT_EQ(cfg.l1Tlb.ways, 32u);
    EXPECT_EQ(cfg.l1Tlb.latency, 4u);
    EXPECT_EQ(cfg.l2Tlb.sets, 64u);
    EXPECT_EQ(cfg.l2Tlb.ways, 32u);
    EXPECT_EQ(cfg.l2Tlb.mshrs, 32u);
    EXPECT_EQ(cfg.l2Tlb.latency, 32u);
    EXPECT_EQ(cfg.lastLevelTlb.entries(), 1024u); // 64-set, 16-way.
    EXPECT_EQ(cfg.gmmuWalkers, 8u);
    EXPECT_EQ(cfg.gmmuWalkLatency, 500u); // 100 x 5 levels.
    EXPECT_EQ(cfg.iommuWalkers, 16u);
    EXPECT_EQ(cfg.iommuWalkLatency, 500u);
    EXPECT_EQ(cfg.redirectionTableEntries, 1024u);
    EXPECT_EQ(cfg.noc.linkLatency, 32u);
    EXPECT_DOUBLE_EQ(cfg.noc.bytesPerTick, 768.0);
    EXPECT_EQ(cfg.pageBytes(), 4096u);
    EXPECT_EQ(cfg.numGpms(), 48u);
}

TEST(SystemConfigTest, PresetsDiffer)
{
    EXPECT_GT(SystemConfig::h100().l2CacheBytes,
              SystemConfig::mi100().l2CacheBytes);
    EXPECT_GT(SystemConfig::h200().hbmBytesPerTick,
              SystemConfig::h100().hbmBytesPerTick);
    EXPECT_GT(SystemConfig::mi300().cusPerGpm,
              SystemConfig::mi100().cusPerGpm);
}

TEST(SystemConfigTest, Wafer7x12)
{
    const SystemConfig cfg = SystemConfig::mi100Wafer7x12();
    EXPECT_EQ(cfg.numGpms(), 83u);
}

TEST(SystemConfigTest, Mcm4)
{
    const SystemConfig cfg = SystemConfig::mcm4();
    EXPECT_EQ(cfg.numGpms(), 4u);
}

TEST(SystemConfigTest, ValidateRejectsBadConfigs)
{
    SystemConfig cfg;
    cfg.iommuWalkers = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "walker");

    SystemConfig cfg2;
    cfg2.pageShift = 40;
    EXPECT_EXIT(cfg2.validate(), testing::ExitedWithCode(1), "page");
}

TEST(SystemConfigTest, AllPresetsValidate)
{
    for (const SystemConfig &cfg :
         {SystemConfig::mi100(), SystemConfig::mi200(),
          SystemConfig::mi300(), SystemConfig::h100(),
          SystemConfig::h200(), SystemConfig::mi100Wafer7x12(),
          SystemConfig::mcm4()}) {
        EXPECT_TRUE(cfg.validationErrors().empty()) << cfg.name;
    }
}

TEST(SystemConfigTest, ValidationErrorsNameTheField)
{
    SystemConfig cfg;
    cfg.meshWidth = 0;
    cfg.pageShift = 11;
    cfg.issueWidth = 0;
    cfg.computeScale = -1.0;
    cfg.l2Tlb.sets = 0;
    cfg.l2Tlb.mshrs = 0;
    cfg.lastLevelTlb.ways = 0;
    const auto errors = cfg.validationErrors();
    const auto mentions = [&errors](const std::string &field) {
        for (const std::string &e : errors) {
            if (e.find(field) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(mentions("meshWidth"));
    EXPECT_TRUE(mentions("pageShift"));
    EXPECT_TRUE(mentions("issueWidth"));
    EXPECT_TRUE(mentions("computeScale"));
    EXPECT_TRUE(mentions("l2Tlb.sets"));
    EXPECT_TRUE(mentions("l2Tlb.mshrs"));
    EXPECT_TRUE(mentions("lastLevelTlb.ways"));
}

TEST(SystemConfigTest, DataCacheLineMustBePowerOfTwo)
{
    SystemConfig cfg;
    cfg.cacheLineBytes = 48;
    const auto errors = cfg.validationErrors();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("cacheLineBytes"), std::string::npos)
        << errors[0];
    cfg.cacheLineBytes = 0;
    EXPECT_EQ(cfg.validationErrors().size(), 1u);
}

TEST(SystemConfigTest, DataCacheWaysFitTheFillLane)
{
    SystemConfig cfg;
    cfg.l2CacheWays = 0;
    auto errors = cfg.validationErrors();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("l2CacheWays"), std::string::npos)
        << errors[0];
    cfg.l2CacheWays = 256;
    errors = cfg.validationErrors();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("l2CacheWays"), std::string::npos)
        << errors[0];
    cfg.l2CacheWays = 255;
    EXPECT_TRUE(cfg.validationErrors().empty());
}

TEST(SystemConfigTest, DataCacheNeedsOneSet)
{
    SystemConfig cfg;
    cfg.l2CacheBytes = 16 * 64 - 1; // One line short of a 16-way set.
    const auto errors = cfg.validationErrors();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("l2CacheBytes"), std::string::npos)
        << errors[0];
    cfg.l2CacheBytes = 16 * 64;
    EXPECT_TRUE(cfg.validationErrors().empty());
}

TEST(SystemConfigTest, SingleTileWaferIsRejected)
{
    SystemConfig cfg;
    cfg.meshWidth = 1;
    cfg.meshHeight = 1;
    const auto errors = cfg.validationErrors();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("no GPM"), std::string::npos)
        << errors[0];
}

TEST(SystemConfigTest, PageShiftBoundsAreInclusive)
{
    SystemConfig cfg;
    cfg.pageShift = 12;
    EXPECT_TRUE(cfg.validationErrors().empty());
    cfg.pageShift = 30;
    EXPECT_TRUE(cfg.validationErrors().empty());
    cfg.pageShift = 11;
    EXPECT_FALSE(cfg.validationErrors().empty());
    cfg.pageShift = 31;
    EXPECT_FALSE(cfg.validationErrors().empty());
}

TEST(SystemConfigTest, ZeroLastLevelMshrsStayLegal)
{
    // The Table I default (lastLevelTlb.mshrs = 0) means "no MSHR
    // bound" for the peer-filled level and must keep validating.
    const SystemConfig cfg = SystemConfig::mi100();
    ASSERT_EQ(cfg.lastLevelTlb.mshrs, 0u);
    EXPECT_TRUE(cfg.validationErrors().empty());
}

TEST(TranslationPolicyTest, ValidationCatchesDegenerateKnobs)
{
    TranslationPolicy p = TranslationPolicy::hdpat();
    EXPECT_TRUE(p.validationErrors().empty());
    p.numClusters = 0;
    p.concentricLayers = 0;
    p.prefetchDegree = 0;
    const auto errors = p.validationErrors();
    EXPECT_EQ(errors.size(), 3u);
}

TEST(GpuPresetsTest, GenerationSweepIsPaperOrder)
{
    const auto configs = gpuGenerationConfigs();
    ASSERT_EQ(configs.size(), 5u);
    EXPECT_EQ(configs[0].name, "MI100-7x7");
    EXPECT_EQ(configs[4].name, "H200-7x7");
}

TEST(GpuPresetsTest, PageSizeSweep)
{
    const auto sweep = pageSizeSweep();
    ASSERT_EQ(sweep.size(), 4u);
    EXPECT_EQ(sweep[0].pageShift, 12u);
    EXPECT_EQ(sweep[0].label, "4KB");
}

TEST(GpuPresetsTest, LookupByName)
{
    EXPECT_EQ(configByName("H100").name, "H100-7x7");
    EXPECT_EXIT(configByName("bogus"), testing::ExitedWithCode(1),
                "unknown");
}

TEST(TranslationPolicyTest, BaselineHasNothingEnabled)
{
    const TranslationPolicy p = TranslationPolicy::baseline();
    EXPECT_EQ(p.peerMode, PeerCachingMode::None);
    EXPECT_FALSE(p.redirectionTable);
    EXPECT_FALSE(p.prefetch);
    EXPECT_FALSE(p.pwQueueRevisit);
    EXPECT_FALSE(p.usesPeerCaching());
}

TEST(TranslationPolicyTest, HdpatEnablesAllMechanisms)
{
    const TranslationPolicy p = TranslationPolicy::hdpat();
    EXPECT_EQ(p.peerMode, PeerCachingMode::ClusterRotation);
    EXPECT_TRUE(p.redirectionTable);
    EXPECT_TRUE(p.prefetch);
    EXPECT_EQ(p.prefetchDegree, 4); // Paper's chosen granularity.
    EXPECT_TRUE(p.pwQueueRevisit);
    EXPECT_EQ(p.concentricLayers, 2); // Paper's default C.
}

TEST(TranslationPolicyTest, AblationPresetsAreIncremental)
{
    EXPECT_EQ(TranslationPolicy::clusterRotation().peerMode,
              PeerCachingMode::ClusterRotation);
    EXPECT_FALSE(TranslationPolicy::clusterRotation().redirectionTable);
    EXPECT_TRUE(TranslationPolicy::withRedirection().redirectionTable);
    EXPECT_FALSE(TranslationPolicy::withRedirection().prefetch);
    EXPECT_TRUE(TranslationPolicy::withPrefetch().prefetch);
    EXPECT_FALSE(TranslationPolicy::withPrefetch().redirectionTable);
}

TEST(TranslationPolicyTest, ComparisonBaselines)
{
    EXPECT_EQ(TranslationPolicy::transFw().walkMode,
              IommuWalkMode::ForwardToHome);
    EXPECT_TRUE(TranslationPolicy::valkyrie().neighborTlbProbe);
    EXPECT_TRUE(TranslationPolicy::barre().pwQueueRevisit);
    EXPECT_FALSE(TranslationPolicy::barre().usesPeerCaching());
}

TEST(TranslationPolicyTest, IommuTlbVariant)
{
    const TranslationPolicy p = TranslationPolicy::hdpatWithIommuTlb();
    EXPECT_TRUE(p.iommuTlbInsteadOfRt);
    EXPECT_FALSE(p.redirectionTable);
    EXPECT_TRUE(p.prefetch); // Everything else stays HDPAT.
}

} // namespace
} // namespace hdpat
