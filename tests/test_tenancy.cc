/**
 * @file
 * Multi-tenancy tests: TenancySpec validation, single-tenant
 * inertness (an inert spec must not perturb the simulation), the
 * install-time revalidation gate against the in-flight-walk/unmap
 * race, async shootdown protocol semantics, IOMMU fault-queue
 * conservation, and audit-green multi-tenant runs under both the
 * baseline and HDPAT policies.
 */

#include <gtest/gtest.h>

#include "driver/runner.hh"
#include "driver/system.hh"
#include "driver/tenancy.hh"
#include "obs/audit.hh"
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
    cfg.name = "tenancy-5x5";
    return cfg;
}

TenancySpec
churnSpec(std::uint32_t asids, std::uint64_t switch_rate,
          std::uint64_t churn_rate)
{
    TenancySpec spec;
    spec.asidCount = asids;
    spec.switchRatePerMTicks = switch_rate;
    spec.churnRatePerMTicks = churn_rate;
    return spec;
}

TEST(TenancySpecTest, ValidationCatchesBadSpecs)
{
    EXPECT_TRUE(TenancySpec{}.validationErrors().empty());
    EXPECT_TRUE(churnSpec(4, 500, 200).validationErrors().empty());
    // Churn without switching is legal even single-tenant: one tenant
    // freeing and re-touching its own pages.
    EXPECT_TRUE(churnSpec(1, 0, 300).validationErrors().empty());

    EXPECT_FALSE(churnSpec(0, 0, 0).validationErrors().empty());
    EXPECT_FALSE(churnSpec(1 << 17, 0, 0).validationErrors().empty());
    // Switching needs a second tenant to switch to.
    EXPECT_FALSE(churnSpec(1, 100, 0).validationErrors().empty());
}

TEST(TenancySpecTest, EnabledOnlyWhenAnyDimensionIsSet)
{
    EXPECT_FALSE(TenancySpec{}.enabled());
    EXPECT_FALSE(churnSpec(1, 0, 0).enabled());
    EXPECT_TRUE(churnSpec(2, 0, 0).enabled());
    EXPECT_TRUE(churnSpec(1, 0, 50).enabled());
    EXPECT_TRUE(churnSpec(2, 100, 0).enabled());
}

TEST(TenancyTest, InertSpecLeavesRunBitwiseIdentical)
{
    // The runner must skip enableTenancy entirely for a default spec,
    // so results (and the absence of tenancy metrics) are identical to
    // a run that predates the tenancy subsystem.
    const auto run = [](const TenancySpec &tenancy) {
        RunSpec spec;
        spec.config = smallConfig();
        spec.policy = TranslationPolicy::hdpat();
        spec.workload = "PR";
        spec.opsPerGpm = 600;
        spec.obs.audit = true;
        spec.tenancy = tenancy;
        return runOnce(spec);
    };
    const RunResult plain = run(TenancySpec{});
    const RunResult inert = run(churnSpec(1, 0, 0));

    EXPECT_EQ(plain.totalTicks, inert.totalTicks);
    EXPECT_EQ(plain.opsTotal, inert.opsTotal);
    EXPECT_EQ(plain.gpmFinish, inert.gpmFinish);
    EXPECT_EQ(plain.noc.packets, inert.noc.packets);
    EXPECT_EQ(plain.auditRetireCensusHash,
              inert.auditRetireCensusHash);
    EXPECT_EQ(inert.contextSwitches, 0u);
    EXPECT_EQ(inert.pagesChurned, 0u);
    EXPECT_EQ(inert.shootdownRounds, 0u);
    EXPECT_EQ(inert.pageFaults, 0u);
}

TEST(TenancyTest, MultiTenantChurnRunAuditsGreen)
{
    // The heavyweight end-to-end check: context switches + page churn
    // + shootdowns + faults, under the conservation auditor (which
    // panics on any violation, including the end-of-run stale-resident
    // sweep), across both policy families.
    for (const auto &pol :
         {TranslationPolicy::baseline(), TranslationPolicy::hdpat()}) {
        SCOPED_TRACE(pol.name);
        RunSpec spec;
        spec.config = smallConfig();
        spec.policy = pol;
        spec.workload = "PR";
        spec.opsPerGpm = 800;
        spec.obs.audit = true;
        spec.tenancy = churnSpec(3, 500, 300);
        const RunResult r = runOnce(spec);

        EXPECT_EQ(r.opsTotal, 800u * 24u);
        EXPECT_GT(r.contextSwitches, 0u);
        EXPECT_GT(r.pagesChurned, 0u);
        // Every churned page opened exactly one shootdown round, every
        // round closed, and every GPM tile acked each round once.
        EXPECT_EQ(r.shootdownRounds, r.pagesChurned);
        EXPECT_EQ(r.shootdownRounds, r.shootdownRoundsClosed);
        EXPECT_EQ(r.invalidationAcks,
                  r.shootdownRounds * r.gpmFinish.size());
        // A finished run implies a drained fault queue: an op blocked
        // on a not-present page cannot retire until its remap.
        EXPECT_EQ(r.pageFaults, r.faultsServiced);
    }
}

TEST(TenancyTest, ChurnedPagesFaultAndGetRemapped)
{
    // Single-tenant churn: the workload keeps re-touching pages the
    // scheduler unmaps, so the not-present fault path (bounded queue,
    // serial service, remap on last home) must carry real traffic.
    RunSpec spec;
    spec.config = smallConfig();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "PR";
    spec.opsPerGpm = 1000;
    spec.obs.audit = true;
    spec.tenancy = churnSpec(1, 0, 800);
    const RunResult r = runOnce(spec);

    EXPECT_EQ(r.opsTotal, 1000u * 24u);
    EXPECT_GT(r.pagesChurned, 0u);
    EXPECT_GT(r.pageFaults, 0u);
    EXPECT_EQ(r.pageFaults, r.faultsServiced);
    EXPECT_EQ(r.shootdownRounds, r.shootdownRoundsClosed);
}

class OnePageWorkload : public Workload
{
  public:
    OnePageWorkload() : Workload({"ONE", "one shared page", 1, 1 << 20})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        buffer_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t, std::size_t, std::size_t,
              std::uint64_t) const override
    {
        return {buffer_.baseVa};
    }

    const BufferHandle &buffer() const { return buffer_; }

  private:
    BufferHandle buffer_;
};

TEST(TenancyTest, StaleWalkResultIsNotInstalledAfterUnmap)
{
    // Regression for the in-flight-walk/unmap race: a walk samples the
    // PTE, the page is shot down, then the walk's result arrives. The
    // install gate must drop it -- re-installing would resurrect a
    // freed translation (the staleness oracle's core case).
    SystemConfig cfg = smallConfig();
    System sys(cfg, TranslationPolicy::hdpat());
    OnePageWorkload wl;
    sys.loadWorkload(wl, 0, 1);
    sys.run();

    const Vpn vpn = sys.pageTable().vpnOf(wl.buffer().baseVa);
    const Pte *pte = sys.pageTable().translate(vpn);
    ASSERT_NE(pte, nullptr);
    const Pfn stale_pfn = pte->pfn;

    // The shootdown lands while the (simulated) walk result is still
    // in flight.
    ASSERT_GT(sys.shootdown(vpn), 0u);

    // The late result arrives at a GPM that is not the home tile, via
    // the same entry point proactive pushes and chain fills use.
    Gpm &gpm = sys.gpm(0);
    const std::uint64_t blocked_before =
        gpm.stats().staleInstallsBlocked;
    gpm.receivePtePush(vpn, stale_pfn, /*prefetched=*/false);

    EXPECT_EQ(gpm.stats().staleInstallsBlocked, blocked_before + 1);
    EXPECT_FALSE(gpm.lastLevelTlb().peek(vpn).has_value());
    EXPECT_FALSE(gpm.cuckooFilter().contains(vpn));
}

TEST(TenancyTest, StalePfnIsRejectedAfterRemapFreshPfnInstalls)
{
    // PFNs are never reused, so after a remap the stale result is
    // distinguishable from the fresh one by PFN comparison alone.
    System sys(smallConfig(), TranslationPolicy::hdpat());
    OnePageWorkload wl;
    sys.loadWorkload(wl, 0, 1);
    sys.run();

    const Vpn vpn = sys.pageTable().vpnOf(wl.buffer().baseVa);
    const Pfn stale_pfn = sys.pageTable().translate(vpn)->pfn;
    sys.shootdown(vpn);
    const Pte *fresh = sys.pageTable().remap(vpn);
    ASSERT_NE(fresh, nullptr);
    ASSERT_NE(fresh->pfn, stale_pfn);

    Gpm &gpm = sys.gpm(0);
    gpm.receivePtePush(vpn, stale_pfn, false);
    EXPECT_FALSE(gpm.lastLevelTlb().peek(vpn).has_value());
    EXPECT_EQ(gpm.stats().staleInstallsBlocked, 1u);

    gpm.receivePtePush(vpn, fresh->pfn, false);
    const auto installed = gpm.lastLevelTlb().peek(vpn);
    ASSERT_TRUE(installed.has_value());
    EXPECT_EQ(*installed, fresh->pfn);
    EXPECT_EQ(gpm.stats().staleInstallsBlocked, 1u);
}

TEST(TenancyTest, ShootdownAsyncRefusesUnmappedAndOpenRounds)
{
    System sys(smallConfig(), TranslationPolicy::hdpat());
    OnePageWorkload wl;
    sys.loadWorkload(wl, 0, 1);
    sys.run();

    const Vpn vpn = sys.pageTable().vpnOf(wl.buffer().baseVa);
    ASSERT_FALSE(sys.shootdownInProgress(vpn));

    // First round opens (acks ride NoC events we never execute, so
    // the round stays deliberately open for the second probe).
    EXPECT_TRUE(sys.shootdownAsync(vpn));
    EXPECT_TRUE(sys.shootdownInProgress(vpn));
    EXPECT_EQ(sys.pageTable().translate(vpn), nullptr);

    // A second round while the first awaits acks must be refused --
    // and the key is unmapped now, which alone also refuses.
    EXPECT_FALSE(sys.shootdownAsync(vpn));

    // A never-mapped key is refused outright.
    EXPECT_FALSE(sys.shootdownAsync(0xdead0000));
}

TEST(TenancyTest, ContextSwitchRetagsOnlyNewIssues)
{
    // A context switch changes the key newly issued ops bind to;
    // ASID 0 keys are the identity (single-tenant layout).
    System sys(smallConfig(), TranslationPolicy::hdpat());
    OnePageWorkload wl;
    sys.loadWorkload(wl, 0, 1);

    Gpm &gpm = sys.gpm(0);
    EXPECT_EQ(gpm.activeAsid(), 0u);
    gpm.setActiveAsid(5);
    EXPECT_EQ(gpm.activeAsid(), 5u);

    const Vpn vpn = sys.pageTable().vpnOf(wl.buffer().baseVa);
    EXPECT_EQ(asidOfKey(asidKey(5, vpn)), 5u);
    EXPECT_EQ(vpnOfKey(asidKey(5, vpn)), vpn);
    EXPECT_EQ(asidKey(0, vpn), vpn);
}

TEST(TenancyTest, RunnerRejectsInvalidTenancySpec)
{
    RunSpec spec;
    spec.config = smallConfig();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "PR";
    spec.opsPerGpm = 100;
    spec.tenancy = churnSpec(1, 100, 0); // Switch with one tenant.
    EXPECT_FALSE(validationErrors(spec).empty());
}

TEST(TenancyTest, SchedulerCountersSurfaceInRunResult)
{
    // The directed/broadcast split plus skips must reconcile with the
    // total churn attempts the scheduler made.
    RunSpec spec;
    spec.config = smallConfig();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "SPMV";
    spec.opsPerGpm = 700;
    spec.obs.audit = true;
    spec.tenancy = churnSpec(2, 300, 400);
    const RunResult r = runOnce(spec);

    EXPECT_GT(r.pagesChurned, 0u);
    EXPECT_EQ(r.shootdownRounds, r.pagesChurned);
    EXPECT_EQ(r.shootdownRounds, r.shootdownRoundsClosed);
}

} // namespace
} // namespace hdpat
