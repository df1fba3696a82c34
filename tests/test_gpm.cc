/**
 * @file
 * Component tests for the GPM: local translation hierarchy, remote
 * resolution, MSHR coalescing, and the peer-cache server side. Driven
 * through System with hand-built address lists.
 */

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "driver/system.hh"
#include "workloads/suite.hh"

namespace hdpat
{
namespace
{

/**
 * Workload with one shared buffer and per-GPM address lists produced
 * by a builder callback.
 */
class ListWorkload : public Workload
{
  public:
    using Builder = std::function<std::vector<Addr>(
        std::size_t gpm, std::size_t n, const BufferHandle &)>;

    ListWorkload(std::size_t bytes, Builder builder)
        : Workload({"TEST", "test workload", 1, bytes}),
          builder_(std::move(builder))
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        buffer_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t,
              std::uint64_t) const override
    {
        return builder_(gpm, n, buffer_);
    }

    const BufferHandle &buffer() const { return buffer_; }

  private:
    Builder builder_;
    BufferHandle buffer_;
};

SystemConfig
smallConfig()
{
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    cfg.name = "test-5x5";
    return cfg;
}

TEST(GpmTest, LocalOnlyStreamFinishesWithoutRemoteTraffic)
{
    ListWorkload wl(1u << 22, [](std::size_t gpm, std::size_t n,
                                 const BufferHandle &buf) {
        const SliceView slice = sliceOf(buf, gpm, n);
        std::vector<Addr> addrs;
        for (Addr a = 0; a < 4096; a += 64)
            addrs.push_back(slice.base + a);
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::baseline());
    sys.loadWorkload(wl, 0, 1);
    const RunResult r = sys.run();

    EXPECT_EQ(r.opsTotal, 24u * 64u);
    EXPECT_EQ(r.remoteOps, 0u);
    EXPECT_EQ(r.iommu.requestsReceived, 0u);
    for (const auto &[tile, tick] : r.gpmFinish)
        EXPECT_GT(tick, 0u);
}

/** ListWorkload with a single-op outstanding window (serialized ops). */
class SerialListWorkload : public ListWorkload
{
  public:
    SerialListWorkload(std::size_t bytes, Builder builder)
        : ListWorkload(bytes, std::move(builder))
    {
        info_.maxOutstanding = 1;
    }
};

TEST(GpmTest, TlbHierarchyFillsTopDown)
{
    // 64 serialized accesses to one local page: the first walks the
    // GMMU, every later access hits the L1 TLB.
    SerialListWorkload wl(1u << 22, [](std::size_t gpm, std::size_t n,
                                       const BufferHandle &buf) {
        const SliceView slice = sliceOf(buf, gpm, n);
        std::vector<Addr> addrs(64, slice.base);
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::baseline());
    sys.loadWorkload(wl, 0, 1);
    sys.run();

    const Gpm::Stats &s = sys.gpm(0).stats();
    EXPECT_EQ(s.opsCompleted, 64u);
    EXPECT_EQ(s.localWalks, 1u);
    EXPECT_EQ(s.l1TlbHits, 63u);
}

TEST(GpmTest, BurstToOnePageCoalescesInLocalWalk)
{
    // The same 64 accesses issued as a burst: all are in flight before
    // the first fill, so they coalesce on one GMMU walk instead of
    // hitting the L1 TLB.
    ListWorkload wl(1u << 22, [](std::size_t gpm, std::size_t n,
                                 const BufferHandle &buf) {
        const SliceView slice = sliceOf(buf, gpm, n);
        std::vector<Addr> addrs(64, slice.base);
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::baseline());
    sys.loadWorkload(wl, 0, 1);
    sys.run();

    const Gpm::Stats &s = sys.gpm(0).stats();
    EXPECT_EQ(s.opsCompleted, 64u);
    EXPECT_EQ(sys.gpm(0).gmmu().stats().walksCompleted, 1u);
}

TEST(GpmTest, RemotePageGoesThroughIommu)
{
    // GPM 0 accesses the very last page of the buffer (homed on the
    // last GPM); everyone else idles.
    ListWorkload wl(1u << 22, [](std::size_t gpm, std::size_t,
                                 const BufferHandle &buf) {
        std::vector<Addr> addrs;
        if (gpm == 0)
            addrs.push_back(buf.endVa() - 64);
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::baseline());
    sys.loadWorkload(wl, 0, 1);
    const RunResult r = sys.run();

    EXPECT_EQ(r.remoteOps, 1u);
    EXPECT_EQ(r.remoteResolutions, 1u);
    EXPECT_EQ(r.iommu.requestsReceived, 1u);
    EXPECT_EQ(r.sourceCounts[static_cast<std::size_t>(
                  TranslationSource::IommuWalk)],
              1u);
    // Cuckoo negative (guaranteed absent): no local walk wasted.
    EXPECT_EQ(sys.gpm(0).stats().cuckooFalsePositives, 0u);
}

TEST(GpmTest, ConcurrentRemoteMissesCoalesceInMshr)
{
    ListWorkload wl(1u << 22, [](std::size_t gpm, std::size_t,
                                 const BufferHandle &buf) {
        std::vector<Addr> addrs;
        if (gpm == 0) {
            // 16 accesses to distinct lines of one remote page,
            // issued back-to-back.
            for (Addr a = 0; a < 16 * 64; a += 64)
                addrs.push_back(buf.endVa() - 4096 + a);
        }
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::baseline());
    sys.loadWorkload(wl, 0, 1);
    const RunResult r = sys.run();

    EXPECT_EQ(r.remoteResolutions, 1u); // One translation fetch...
    EXPECT_EQ(r.iommu.walksCompleted, 1u);
    EXPECT_EQ(sys.gpm(0).stats().opsCompleted, 16u); // ...serves all.
}

TEST(GpmTest, SharedHotPageTriggersPushesAndPeerService)
{
    // Every GPM hammers the same (remote for most) page region under
    // full HDPAT: after the threshold walk the PTE is pushed to the
    // auxiliary tiles and later requesters are served without walks.
    ListWorkload wl(1u << 22, [](std::size_t, std::size_t,
                                 const BufferHandle &buf) {
        std::vector<Addr> addrs;
        for (int rep = 0; rep < 8; ++rep)
            for (Addr p = 0; p < 4; ++p)
                addrs.push_back(buf.baseVa + p * 4096 +
                                static_cast<Addr>(rep) * 64);
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::hdpat());
    sys.loadWorkload(wl, 0, 1);
    const RunResult r = sys.run();

    EXPECT_GT(r.iommu.pushesSent, 0u);
    EXPECT_GT(r.pushesReceivedTotal, 0u);
    const std::uint64_t offloaded =
        r.sourceCounts[static_cast<std::size_t>(
            TranslationSource::PeerCache)] +
        r.sourceCounts[static_cast<std::size_t>(
            TranslationSource::Redirect)] +
        r.sourceCounts[static_cast<std::size_t>(
            TranslationSource::ProactiveDelivery)];
    EXPECT_GT(offloaded, 0u);
    // Far fewer walks than remote resolutions.
    EXPECT_LT(r.iommu.walksCompleted, r.remoteResolutions);
}

TEST(GpmTest, ValkyrieProbesNeighbours)
{
    ListWorkload wl(1u << 22, [](std::size_t, std::size_t,
                                 const BufferHandle &buf) {
        // Everyone reads the same remote region: neighbours end up
        // holding each other's translations in their L2 TLBs.
        std::vector<Addr> addrs;
        for (Addr p = 0; p < 8; ++p)
            addrs.push_back(buf.baseVa + p * 4096);
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::valkyrie());
    sys.loadWorkload(wl, 0, 1);
    const RunResult r = sys.run();

    std::uint64_t probes = 0;
    for (std::size_t i = 0; i < sys.numGpms(); ++i)
        probes += sys.gpm(i).stats().neighborProbesReceived;
    EXPECT_GT(probes, 0u);
    (void)r;
}

TEST(GpmTest, TransFwServesFromHomeGmmu)
{
    ListWorkload wl(1u << 22, [](std::size_t gpm, std::size_t,
                                 const BufferHandle &buf) {
        std::vector<Addr> addrs;
        if (gpm == 0)
            addrs.push_back(buf.endVa() - 64);
        return addrs;
    });

    System sys(smallConfig(), TranslationPolicy::transFw());
    sys.loadWorkload(wl, 0, 1);
    const RunResult r = sys.run();

    EXPECT_EQ(r.sourceCounts[static_cast<std::size_t>(
                  TranslationSource::HomeGmmu)],
              1u);
    EXPECT_EQ(r.iommu.walksCompleted, 0u);
    EXPECT_EQ(r.iommu.delegationsSent, 1u);
    EXPECT_EQ(r.iommu.delegationReturns, 1u);
}

TEST(GpmTest, EmptyStreamFinishesImmediately)
{
    ListWorkload wl(1u << 22,
                    [](std::size_t, std::size_t, const BufferHandle &) {
                        return std::vector<Addr>{};
                    });
    System sys(smallConfig(), TranslationPolicy::baseline());
    sys.loadWorkload(wl, 0, 1);
    const RunResult r = sys.run();
    EXPECT_EQ(r.opsTotal, 0u);
    EXPECT_EQ(r.totalTicks, 0u);
    // Each of the 24 GPMs still runs its first issue event, which is
    // where it finds its stream empty.
    EXPECT_EQ(sys.engine().executedEvents(), 24u);
}

TEST(GpmTest, IssueRateBoundsThroughput)
{
    // 1000 local L1-hit ops at 0.5 ops/cycle cannot finish faster
    // than ~2000 cycles.
    ListWorkload wl(1u << 22, [](std::size_t gpm, std::size_t n,
                                 const BufferHandle &buf) {
        const SliceView slice = sliceOf(buf, gpm, n);
        std::vector<Addr> addrs(1000, slice.base);
        return addrs;
    });
    // Abuse the info override path via a derived instance.
    class SlowList : public ListWorkload
    {
      public:
        using ListWorkload::ListWorkload;
        // Expose a slow issue rate through info().
        void slow() { info_.opsPerCycle = 0.5; }
    };
    SlowList slow_wl(1u << 22, [](std::size_t gpm, std::size_t n,
                                  const BufferHandle &buf) {
        const SliceView slice = sliceOf(buf, gpm, n);
        std::vector<Addr> addrs(1000, slice.base);
        return addrs;
    });
    slow_wl.slow();

    System fast_sys(smallConfig(), TranslationPolicy::baseline());
    fast_sys.loadWorkload(wl, 0, 1);
    const RunResult fast = fast_sys.run();

    System slow_sys(smallConfig(), TranslationPolicy::baseline());
    slow_sys.loadWorkload(slow_wl, 0, 1);
    const RunResult slow = slow_sys.run();

    EXPECT_GE(slow.totalTicks, 2000u);
    EXPECT_LT(fast.totalTicks, slow.totalTicks);
}

} // namespace
} // namespace hdpat
