/**
 * @file
 * Conservation auditor tests: injected faults (lost packet, double
 * retire, leaked MSHR, unbalanced TLB, undrained queue) must each be
 * caught with a diagnostic naming the culprit, a clean full-system
 * run must audit green, and turning the auditor on must not perturb
 * the simulation (bitwise-identical results).
 */

#include <gtest/gtest.h>

#include <string>

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
    cfg.name = "audit-5x5";
    return cfg;
}

std::string
joined(const Auditor::Report &report)
{
    std::string all;
    for (const std::string &v : report.violations)
        all += v + "\n";
    return all;
}

TEST(AuditorTest, CleanLedgerPasses)
{
    Auditor auditor;
    auditor.opIssued(3, 0x42, 100);
    auditor.packetSent(32);
    auditor.packetDelivered(32);
    auditor.mshrAllocated(3);
    auditor.mshrFreed(3);
    auditor.opRetired(3, 0x42, 500);

    const Auditor::Report report = auditor.finalize();
    EXPECT_TRUE(report.ok) << joined(report);
    EXPECT_TRUE(report.violations.empty());
    EXPECT_EQ(auditor.issued(), 1u);
    EXPECT_EQ(auditor.retired(), 1u);
    EXPECT_EQ(auditor.inFlight(), 0u);
}

TEST(AuditorTest, CatchesLostPacket)
{
    Auditor auditor;
    auditor.packetSent(32); // Control-plane packet never delivered.
    auditor.packetSent(64);
    auditor.packetDelivered(64);

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    EXPECT_NE(joined(report).find("control-plane"), std::string::npos)
        << joined(report);
    EXPECT_NE(joined(report).find("1 sent but 0 delivered"),
              std::string::npos)
        << joined(report);
}

TEST(AuditorTest, CatchesDoubleRetire)
{
    Auditor auditor;
    auditor.opIssued(7, 0xabc, 10);
    auditor.opRetired(7, 0xabc, 20);
    auditor.opRetired(7, 0xabc, 30); // Fault: retires twice.

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    const std::string all = joined(report);
    EXPECT_NE(all.find("retire without matching issue"),
              std::string::npos)
        << all;
    EXPECT_NE(all.find("tile 7"), std::string::npos) << all;
}

TEST(AuditorTest, CatchesStuckTranslationWithDiagnostic)
{
    Auditor auditor;
    auditor.opIssued(2, 0x1000, 40);
    auditor.opIssued(2, 0x1000, 45); // Two ops on the same page.
    auditor.opIssued(5, 0x2000, 50);
    auditor.opRetired(2, 0x1000, 90);

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    EXPECT_EQ(auditor.inFlight(), 2u);

    // The diagnostic names every stuck (tile, VPN) span and the
    // per-tile in-flight counts.
    EXPECT_NE(report.diagnostic.find("stuck spans: 2"),
              std::string::npos)
        << report.diagnostic;
    EXPECT_NE(report.diagnostic.find("tile 2 vpn 0x1000"),
              std::string::npos)
        << report.diagnostic;
    EXPECT_NE(report.diagnostic.find("tile 5 vpn 0x2000"),
              std::string::npos)
        << report.diagnostic;
    EXPECT_NE(report.diagnostic.find("t2=1"), std::string::npos)
        << report.diagnostic;
}

TEST(AuditorTest, CatchesMshrLeak)
{
    Auditor auditor;
    auditor.mshrAllocated(4);
    auditor.mshrAllocated(4);
    auditor.mshrFreed(4);

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    const std::string all = joined(report);
    EXPECT_NE(all.find("MSHR"), std::string::npos) << all;
    EXPECT_NE(all.find("tile 4"), std::string::npos) << all;
}

TEST(AuditorTest, CatchesTlbImbalance)
{
    Auditor auditor;
    auditor.tlbFilled(6);
    auditor.tlbFilled(6);
    auditor.tlbEvicted(6);
    // Occupancy probe claims zero resident entries, so one fill is
    // unaccounted for.
    auditor.setTlbOccupancyProbe(6, [] { return std::size_t{0}; });

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    EXPECT_NE(joined(report).find("TLB"), std::string::npos)
        << joined(report);
}

TEST(AuditorTest, CatchesUndrainedQueue)
{
    Auditor auditor;
    auditor.addQueueProbe("gpm.t1.stalled_remote",
                          [] { return std::size_t{3}; });

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    const std::string all = joined(report);
    EXPECT_NE(all.find("gpm.t1.stalled_remote"), std::string::npos)
        << all;
    EXPECT_NE(all.find("3"), std::string::npos) << all;
}

TEST(AuditorTest, ShootdownRoundClosesAfterExactlyOneAckPerTile)
{
    Auditor auditor;
    auditor.shootdownIssued(0x40, 3, 100);
    auditor.invalidationAcked(0x40, 1, 110);
    auditor.invalidationAcked(0x40, 2, 120);
    auditor.invalidationAcked(0x40, 3, 130);

    const Auditor::Report report = auditor.finalize();
    EXPECT_TRUE(report.ok) << joined(report);
    EXPECT_EQ(auditor.shootdownRounds(), 1u);
    EXPECT_EQ(auditor.shootdownRoundsClosed(), 1u);
    EXPECT_EQ(auditor.invalidationAcks(), 3u);

    // A closed round permits a new one for the same key.
    auditor.shootdownIssued(0x40, 1, 200);
    auditor.invalidationAcked(0x40, 1, 210);
    EXPECT_TRUE(auditor.finalize().ok);
    EXPECT_EQ(auditor.shootdownRoundsClosed(), 2u);
}

TEST(AuditorTest, CatchesDuplicateInvalidationAck)
{
    Auditor auditor;
    auditor.shootdownIssued(0x40, 2, 100);
    auditor.invalidationAcked(0x40, 1, 110);
    auditor.invalidationAcked(0x40, 1, 120); // Fault: same tile twice.

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    EXPECT_NE(joined(report).find("duplicate invalidation ack"),
              std::string::npos)
        << joined(report);
}

TEST(AuditorTest, CatchesAckWithoutOpenRound)
{
    Auditor auditor;
    auditor.invalidationAcked(0x50, 4, 100);

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    EXPECT_NE(joined(report).find("no open shootdown round"),
              std::string::npos)
        << joined(report);
}

TEST(AuditorTest, CatchesOverlappingShootdownRounds)
{
    Auditor auditor;
    auditor.shootdownIssued(0x60, 2, 100);
    auditor.shootdownIssued(0x60, 2, 150); // Fault: round still open.

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    EXPECT_NE(joined(report).find("still awaiting"), std::string::npos)
        << joined(report);
}

TEST(AuditorTest, CatchesRoundNeverClosed)
{
    Auditor auditor;
    auditor.shootdownIssued(0x70, 3, 100);
    auditor.invalidationAcked(0x70, 1, 110); // Two acks lost.

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    const std::string all = joined(report);
    EXPECT_NE(all.find("never closed"), std::string::npos) << all;
    EXPECT_NE(all.find("1 of 3 acks"), std::string::npos) << all;
    EXPECT_EQ(auditor.shootdownRoundsClosed(), 0u);
}

TEST(AuditorTest, NeverClosedRoundsReportInAscendingKeyOrder)
{
    // Two rounds left open, opened in descending and then in ascending
    // key order: either way the report lists them by ascending key,
    // independent of container iteration order.
    for (const bool descending : {true, false}) {
        Auditor auditor;
        const Vpn first = descending ? 0x90 : 0x80;
        const Vpn second = descending ? 0x80 : 0x90;
        auditor.shootdownIssued(first, 2, 100);
        auditor.shootdownIssued(second, 3, 110);
        auditor.invalidationAcked(first, 4, 120);

        const Auditor::Report report = auditor.finalize();
        ASSERT_FALSE(report.ok);
        ASSERT_EQ(report.violations.size(), 2u) << joined(report);
        EXPECT_NE(report.violations[0].find("vpn 0x80 never closed"),
                  std::string::npos)
            << "descending=" << descending << "\n" << joined(report);
        EXPECT_NE(report.violations[1].find("vpn 0x90 never closed"),
                  std::string::npos)
            << "descending=" << descending << "\n" << joined(report);
    }
}

TEST(AuditorTest, ZeroTargetRoundClosesImmediately)
{
    // An empty wafer (no holder tiles) is a degenerate but legal round.
    Auditor auditor;
    auditor.shootdownIssued(0x80, 0, 100);
    EXPECT_TRUE(auditor.finalize().ok);
    EXPECT_EQ(auditor.shootdownRoundsClosed(), 1u);
}

TEST(AuditorTest, CatchesStaleResidentTranslation)
{
    Auditor auditor;
    auditor.staleResident(6, 0x90, 0xabc);

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    const std::string all = joined(report);
    EXPECT_NE(all.find("stale TLB entry resident at tile 6"),
              std::string::npos)
        << all;
    EXPECT_NE(all.find("survived its shootdown"), std::string::npos)
        << all;
    EXPECT_EQ(auditor.staleResidents(), 1u);
}

TEST(AuditorTest, PpnOracleCatchesWrongTranslation)
{
    Auditor auditor;
    auditor.setReferenceTranslator([](Vpn vpn) -> std::optional<Pfn> {
        if (vpn == 0x30) // Unmapped: the oracle must abstain.
            return std::nullopt;
        return vpn + 0x1000;
    });

    auditor.pfnResolved(2, 0x10, 0x1010, 100); // Correct.
    auditor.pfnResolved(2, 0x30, 0xdead, 150); // Unmapped: no verdict.
    auditor.pfnResolved(5, 0x20, 0xbeef, 200); // Wrong.
    EXPECT_EQ(auditor.pfnChecks(), 3u);
    EXPECT_EQ(auditor.pfnMismatches(), 1u);

    const Auditor::Report report = auditor.finalize();
    ASSERT_FALSE(report.ok);
    const std::string all = joined(report);
    EXPECT_NE(all.find("wrong PPN installed at tile 5"),
              std::string::npos)
        << all;
    EXPECT_NE(all.find("vpn 0x20"), std::string::npos) << all;
}

TEST(AuditorTest, PpnOracleSilentWithoutReference)
{
    Auditor auditor;
    auditor.pfnResolved(1, 0x10, 0xdead, 50);
    EXPECT_EQ(auditor.pfnChecks(), 0u);
    EXPECT_TRUE(auditor.finalize().ok);
}

TEST(AuditorTest, RetireCensusHashIsOrderIndependent)
{
    // Same multiset of (tile, vpn) retires in two different orders,
    // including a repeated retire of the same page, must digest
    // identically; a different multiset must not.
    Auditor a;
    a.opIssued(1, 0x10, 0);
    a.opIssued(2, 0x20, 0);
    a.opIssued(1, 0x10, 0);
    a.opRetired(1, 0x10, 10);
    a.opRetired(2, 0x20, 20);
    a.opRetired(1, 0x10, 30);

    Auditor b;
    b.opIssued(2, 0x20, 0);
    b.opIssued(1, 0x10, 0);
    b.opIssued(1, 0x10, 0);
    b.opRetired(2, 0x20, 5);
    b.opRetired(1, 0x10, 15);
    b.opRetired(1, 0x10, 25);

    EXPECT_EQ(a.retireCensusHash(), b.retireCensusHash());
    EXPECT_NE(a.retireCensusHash(), 0u);

    Auditor c; // One fewer retire of (1, 0x10).
    c.opIssued(1, 0x10, 0);
    c.opIssued(2, 0x20, 0);
    c.opRetired(1, 0x10, 10);
    c.opRetired(2, 0x20, 20);
    EXPECT_NE(a.retireCensusHash(), c.retireCensusHash());

    // Swapping which tile retired a page is a routing bug the plain
    // issued/retired totals would miss; the census must see it.
    Auditor d;
    d.opIssued(1, 0x20, 0);
    d.opIssued(2, 0x10, 0);
    d.opIssued(1, 0x10, 0);
    d.opRetired(1, 0x20, 10);
    d.opRetired(2, 0x10, 20);
    d.opRetired(1, 0x10, 30);
    EXPECT_NE(a.retireCensusHash(), d.retireCensusHash());
}

TEST(AuditorSystemTest, FullRunAuditsGreen)
{
    System sys(smallConfig(), TranslationPolicy::hdpat());
    sys.enableAudit();
    auto wl = makeWorkload("SPMV");
    sys.loadWorkload(*wl, 1500, 42);
    sys.run(); // Panics internally on any violation.

    ASSERT_NE(sys.auditor(), nullptr);
    const Auditor::Report report = sys.auditor()->finalize();
    EXPECT_TRUE(report.ok) << joined(report);
    EXPECT_GT(sys.auditor()->issued(), 0u);
    EXPECT_EQ(sys.auditor()->issued(), sys.auditor()->retired());
    EXPECT_GT(
        sys.auditor()->packetsSent(Auditor::Plane::Control), 0u);
}

TEST(AuditorSystemTest, BaselinePolicyAuditsGreen)
{
    // The baseline policy exercises the IOMMU path (every remote
    // translation walks at the CPU tile).
    System sys(smallConfig(), TranslationPolicy::baseline());
    sys.enableAudit();
    auto wl = makeWorkload("MM");
    sys.loadWorkload(*wl, 1200, 7);
    sys.run();
    EXPECT_TRUE(sys.auditor()->finalize().ok);
}

TEST(AuditorSystemTest, TenantChurnDrainsMergedMshrs)
{
    // Churn aimed at hot pages: MSHRs holding ops merged onto a VPN
    // that gets invalidated mid-flight must drain (the ops re-fault
    // and retire), never leak. finalize() checks the per-tile MSHR
    // alloc/free balance, the shootdown-ack ledger, and the end-of-run
    // stale-resident sweep; run() panics on any of them.
    for (const auto &pol :
         {TranslationPolicy::baseline(), TranslationPolicy::hdpat()}) {
        SCOPED_TRACE(pol.name);
        System sys(smallConfig(), pol);
        TenancySpec tenancy;
        tenancy.asidCount = 2;
        tenancy.switchRatePerMTicks = 400;
        tenancy.churnRatePerMTicks = 600;
        sys.enableTenancy(tenancy);
        sys.enableAudit();
        auto wl = makeWorkload("PR");
        sys.loadWorkload(*wl, 1000, 11);
        const RunResult r = sys.run();

        ASSERT_NE(sys.auditor(), nullptr);
        const Auditor::Report report = sys.auditor()->finalize();
        EXPECT_TRUE(report.ok) << joined(report);
        EXPECT_EQ(sys.auditor()->issued(), sys.auditor()->retired());
        EXPECT_EQ(sys.auditor()->staleResidents(), 0u);
        EXPECT_GT(r.pagesChurned, 0u);
        EXPECT_EQ(sys.auditor()->shootdownRounds(),
                  sys.auditor()->shootdownRoundsClosed());
        // Exactly one ack per GPM tile per round, by construction of
        // the broadcast -- and by the ledger, which would have flagged
        // duplicates or strays live.
        EXPECT_EQ(sys.auditor()->invalidationAcks(),
                  sys.auditor()->shootdownRounds() * sys.numGpms());
    }
}

TEST(AuditorSystemTest, AuditDoesNotPerturbSimulation)
{
    const auto run = [](bool audit) {
        System sys(smallConfig(), TranslationPolicy::hdpat());
        if (audit)
            sys.enableAudit();
        auto wl = makeWorkload("PR");
        sys.loadWorkload(*wl, 1000, 99);
        return sys.run();
    };
    const RunResult with = run(true);
    const RunResult without = run(false);

    // Auditing must be pure observation: identical timing and counts.
    EXPECT_EQ(with.totalTicks, without.totalTicks);
    EXPECT_EQ(with.opsTotal, without.opsTotal);
    EXPECT_EQ(with.remoteOps, without.remoteOps);
    EXPECT_EQ(with.noc.packets, without.noc.packets);
    EXPECT_EQ(with.gpmFinish, without.gpmFinish);
}

TEST(AuditorSystemTest, RunnerHonorsAuditOption)
{
    RunSpec spec;
    spec.config = smallConfig();
    spec.policy = TranslationPolicy::hdpat();
    spec.workload = "SPMV";
    spec.opsPerGpm = 800;
    spec.obs = ObsOptions{};
    spec.obs.audit = true;
    const RunResult r = runOnce(spec); // Must not panic.
    EXPECT_GT(r.opsTotal, 0u);
}

} // namespace
} // namespace hdpat
