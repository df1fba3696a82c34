/**
 * @file
 * Stalled-op index tests. The GPM wakes ops parked behind a full
 * remote MSHR file by key (StalledOps) instead of rescanning the whole
 * parked queue on every resolution; the rescan stays the reference
 * semantics. Covered here:
 *
 *  - StalledOps against a literal FIFO-rescan model over random
 *    stall / fill / evict / resolve sequences: same woken ops in the
 *    same order, same parked population, same depart/re-arrive counts;
 *  - the O(1) bulk transitions (Resource::departAndReturn,
 *    MshrFile::rejectFull) against the per-op sequences they replace,
 *    window peaks included;
 *  - VpnSlotMap against std::unordered_map under churn;
 *  - audited stall-heavy full-system runs pinned to the values the
 *    rescan implementation produced (ticks, events, per-source counts,
 *    retire census, stalled-queue and MSHR backpressure counts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <iterator>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/system.hh"
#include "gpm/stalled_ops.hh"
#include "mem/mshr.hh"
#include "mem/vpn_slot_map.hh"
#include "obs/backpressure.hh"
#include "sim/rng.hh"
#include "workloads/suite.hh"

namespace hdpat
{
namespace
{

// --- VpnSlotMap ---------------------------------------------------

TEST(VpnSlotMapTest, MatchesUnorderedMapUnderChurn)
{
    VpnSlotMap map;
    std::unordered_map<Vpn, std::uint32_t> ref;
    Rng rng(11);
    for (int step = 0; step < 20000; ++step) {
        // A small key space forces long probe runs and many erases
        // from the middle of a run (the backward-shift path).
        const Vpn key = rng.uniformRange(0, 300) * 0x1000;
        if (rng.uniformInt(3) != 0 && ref.count(key) == 0) {
            const auto value = static_cast<std::uint32_t>(step);
            map.insert(key, value);
            ref[key] = value;
        } else {
            EXPECT_EQ(map.erase(key), ref.erase(key) == 1);
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    for (Vpn key = 0; key <= 300 * 0x1000; key += 0x1000) {
        const auto it = ref.find(key);
        EXPECT_EQ(map.find(key),
                  it == ref.end() ? VpnSlotMap::kNone : it->second);
    }
}

// --- StalledOps against the FIFO rescan ---------------------------

/**
 * A toy remote client: an L2 TLB (a bounded key set), a remote MSHR
 * file (in-flight keys, fixed capacity) and the parked ops, kept both
 * as the literal FIFO queue the rescan walks and in a StalledOps.
 */
class StallWorld
{
  public:
    explicit StallWorld(std::size_t capacity) : capacity_(capacity) {}

    /** An op misses the MSHR file at startRemote. */
    void
    arrive(Addr va, Vpn key)
    {
        if (inFlight_.count(key) != 0 ||
            inFlight_.size() < capacity_) {
            inFlight_.insert(key); // Merged or allocated.
            return;
        }
        queue_.push_back({va, key, 0});
        index_.push(va, key, [this](Vpn k) { return l2_.count(k) != 0; });
    }

    /** fillLocalHierarchy: the L2 TLB inserts @p key. */
    void
    fill(Vpn key)
    {
        l2_.insert(key);
        if (!index_.empty())
            index_.noteL2Insert(key);
    }

    void evict(Vpn key) { l2_.erase(key); }

    /** Resolve in-flight key @p key and check the wake exactly. */
    void
    resolve(Vpn key)
    {
        // Invariant 2: no parked key is in flight.
        EXPECT_FALSE(index_.contains(key));
        inFlight_.erase(key);
        fill(key);
        if (queue_.empty()) {
            EXPECT_TRUE(index_.empty());
            return;
        }

        // Reference: the rescan, on a copy of the MSHR file.
        std::set<Vpn> ref_in_flight = inFlight_;
        std::deque<StalledOps::Op> pending;
        pending.swap(queue_);
        std::vector<StalledOps::Op> ref_woken;
        std::uint64_t occupancy = pending.size();
        std::uint64_t high = 0;
        for (const StalledOps::Op &op : pending) {
            --occupancy; // depart
            if (l2_.count(op.key) != 0) { // L2 TLB hit
                ref_woken.push_back(op);
                continue;
            }
            if (ref_in_flight.count(op.key) != 0 ||
                ref_in_flight.size() < capacity_) { // merge / allocate
                ref_in_flight.insert(op.key);
                ref_woken.push_back(op);
                continue;
            }
            queue_.push_back(op); // re-arrive
            high = std::max(high, ++occupancy);
        }

        const StalledOps::WakeCount count = index_.wake(
            capacity_ - inFlight_.size(),
            [this](Vpn k) { return l2_.count(k) != 0; }, woken_);
        EXPECT_EQ(count.before, pending.size());
        EXPECT_EQ(count.remaining, queue_.size());
        EXPECT_EQ(count.high, high);
        ASSERT_EQ(woken_.size(), ref_woken.size());
        for (std::size_t i = 0; i < woken_.size(); ++i) {
            EXPECT_EQ(woken_[i].va, ref_woken[i].va);
            EXPECT_EQ(woken_[i].key, ref_woken[i].key);
        }
        EXPECT_EQ(index_.size(), queue_.size());

        // Replay the woken ops with the GPM's per-op body: none may
        // bounce, and the MSHR file must end where the rescan's did.
        for (const StalledOps::Op &op : woken_) {
            if (l2_.count(op.key) != 0)
                continue;
            ASSERT_TRUE(inFlight_.count(op.key) != 0 ||
                        inFlight_.size() < capacity_);
            inFlight_.insert(op.key);
        }
        EXPECT_EQ(inFlight_, ref_in_flight);
        // Invariant 1: parked ops imply a full MSHR file.
        if (!queue_.empty()) {
            EXPECT_EQ(inFlight_.size(), capacity_);
        }
    }

    const std::set<Vpn> &inFlight() const { return inFlight_; }
    std::size_t parked() const { return queue_.size(); }

  private:
    std::size_t capacity_;
    std::set<Vpn> l2_;
    std::set<Vpn> inFlight_;
    std::deque<StalledOps::Op> queue_;
    StalledOps index_;
    std::vector<StalledOps::Op> woken_;
};

TEST(StalledOpsTest, WakesExactlyWhatTheFifoRescanLetsThrough)
{
    for (std::size_t capacity : {1u, 2u, 3u}) {
        StallWorld world(capacity);
        Rng rng(100 + capacity);
        std::uint64_t max_parked = 0;
        for (Addr va = 1; va < 30000; ++va) {
            const Vpn key = rng.uniformRange(0, 24);
            switch (rng.uniformInt(10)) {
              case 0:
                world.fill(key);
                break;
              case 1:
              case 2:
                world.evict(key);
                break;
              case 3:
              case 4: {
                  const std::set<Vpn> &flying = world.inFlight();
                  if (!flying.empty()) {
                      auto it = flying.begin();
                      std::advance(it, rng.uniformInt(flying.size()));
                      world.resolve(*it);
                  }
                  break;
              }
              default:
                world.arrive(va, key);
                break;
            }
            max_parked = std::max<std::uint64_t>(max_parked,
                                                 world.parked());
            if (HasFatalFailure())
                return;
        }
        EXPECT_GT(max_parked, 10u) << "capacity " << capacity;
    }
}

TEST(StalledOpsTest, ResidentGroupsWakeWithoutAnMshrEntry)
{
    StalledOps ops;
    const auto none = [](Vpn) { return false; };
    ops.push(1, 10, none);
    ops.push(2, 20, none);
    ops.push(3, 10, none);
    ops.push(4, 30, none);
    ops.noteL2Insert(30); // Key 30 now hits the L2 TLB.
    std::vector<StalledOps::Op> out;

    // No free entry: only the resident group leaves.
    auto count =
        ops.wake(0, [](Vpn k) { return k == 30; }, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].va, 4u);
    EXPECT_EQ(count.before, 4u);
    EXPECT_EQ(count.remaining, 3u);
    EXPECT_EQ(count.high, 4u); // Woken op came after the first bounce.

    // One free entry: the oldest group allocates, its later op merges.
    count = ops.wake(1, none, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].va, 1u);
    EXPECT_EQ(out[1].va, 3u);
    EXPECT_EQ(count.remaining, 1u);
    // Op 1 is woken before the first bounce (op 2), so the rescan
    // re-parks op 2 at occupancy 2.
    EXPECT_EQ(count.high, 2u);
    EXPECT_TRUE(ops.contains(20));
    EXPECT_FALSE(ops.contains(10));
}

// --- Bulk transitions against their per-op sequences ---------------

void
expectSamePressure(const ResourcePressure &a, const ResourcePressure &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.departures, b.departures);
    EXPECT_EQ(a.rejections, b.rejections);
    EXPECT_EQ(a.occupancy, b.occupancy);
    EXPECT_EQ(a.peak, b.peak);
    EXPECT_EQ(a.occIntegral, b.occIntegral);
    EXPECT_EQ(a.atCapacityTicks, b.atCapacityTicks);
    EXPECT_EQ(a.sumArriveTicks, b.sumArriveTicks);
    EXPECT_EQ(a.sumDepartTicks, b.sumDepartTicks);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].occIntegral, b.windows[i].occIntegral)
            << "window " << i;
        EXPECT_EQ(a.windows[i].peak, b.windows[i].peak) << "window " << i;
        EXPECT_EQ(a.windows[i].atCapacityTicks,
                  b.windows[i].atCapacityTicks)
            << "window " << i;
    }
}

TEST(StallBulkTransitionTest, DepartAndReturnMatchesThePerOpRescan)
{
    // Each rescan: which of the parked ops bounce back (true) or leave
    // (false), in FIFO order. Ticks 100 and 300 open a fresh window, so
    // the re-arrival peak alone decides that window's peak.
    struct Rescan
    {
        Tick tick;
        std::vector<bool> bounces;
    };
    const std::vector<Rescan> rescans = {
        {37, {false, true, true, false, true}},
        {100, {true, false, true, true}},
        {150, {false, false, true}},
        {222, {true}},
        {300, {false}},
    };
    for (const Tick window : {Tick{0}, Tick{100}, Tick{7}}) {
        BackpressureCollector bp(window);
        Resource *loop = bp.add("loop", ResourceKind::Queue, 4);
        Resource *bulk = bp.add("bulk", ResourceKind::Queue, 4);
        Tick t = 0;
        for (const Rescan &r : rescans) {
            // Fresh stalls before each rescan.
            for (; t < r.tick; t += 13) {
                if (loop->occupancy() < r.bounces.size()) {
                    loop->arrive(t);
                    bulk->arrive(t);
                }
            }
            while (loop->occupancy() < r.bounces.size()) {
                loop->arrive(r.tick);
                bulk->arrive(r.tick);
            }
            std::uint64_t returning = 0, woken_before = 0;
            bool bounced = false;
            for (const bool b : r.bounces) {
                loop->depart(r.tick);
                if (b) {
                    loop->arrive(r.tick);
                    ++returning;
                    bounced = true;
                } else if (!bounced) {
                    ++woken_before;
                }
            }
            const std::uint64_t n = r.bounces.size();
            bulk->departAndReturn(r.tick, n, returning,
                                  returning ? n - woken_before : 0);
            loop->reject(returning);
            bulk->reject(returning);
        }
        const BackpressureSnapshot snap = bp.snapshot(400);
        ASSERT_EQ(snap.resources.size(), 2u);
        expectSamePressure(snap.resources[0], snap.resources[1]);
        EXPECT_EQ(snap.littleViolations, 0u);
    }
}

TEST(StallBulkTransitionTest, RejectFullMatchesRepeatedFullMisses)
{
    MshrFile loop(1);
    MshrFile bulk(1);
    std::uint64_t loop_rejects = 0, bulk_rejects = 0, bulk_calls = 0;
    loop.setPressureHook([&](MshrFile::PressureEvent ev, std::uint64_t n) {
        if (ev == MshrFile::PressureEvent::Reject)
            loop_rejects += n;
    });
    bulk.setPressureHook([&](MshrFile::PressureEvent ev, std::uint64_t n) {
        if (ev == MshrFile::PressureEvent::Reject) {
            bulk_rejects += n;
            ++bulk_calls;
        }
    });
    loop.registerMiss(1, [](Vpn, Pfn) {});
    bulk.registerMiss(1, [](Vpn, Pfn) {});
    for (Vpn v = 2; v < 7; ++v)
        EXPECT_EQ(loop.registerMiss(v, [](Vpn, Pfn) {}),
                  MshrFile::Outcome::Full);
    bulk.rejectFull(5);
    bulk.rejectFull(0); // Silent.
    EXPECT_EQ(loop.stats().fullRejections, bulk.stats().fullRejections);
    EXPECT_EQ(loop_rejects, 5u);
    EXPECT_EQ(bulk_rejects, 5u);
    EXPECT_EQ(bulk_calls, 1u);
}

// --- Audited stall-heavy runs, pinned -----------------------------

struct PinnedRun
{
    const char *name;
    TranslationPolicy policy;
    const char *workload;
    std::size_t mshrs;
    // Pinned from the FIFO-rescan implementation.
    Tick ticks;
    std::uint64_t events;
    std::array<std::uint64_t, kNumTranslationSources> sources;
    std::uint64_t census;
    // Summed over every GPM's stalled_remote queue: arrivals (==
    // departures: the rescan's re-probes), the highest peak, the
    // occupancy integral, and the sum of the per-window peaks.
    std::uint64_t stalledArrivals, stalledPeak, stalledIntegral,
        stalledWindowPeaks;
    // Summed over every GPM's remote_mshr: rejections.
    std::uint64_t mshrRejections;
};

class StallPinnedTest : public ::testing::TestWithParam<PinnedRun>
{
};

TEST_P(StallPinnedTest, MatchesTheRescanImplementation)
{
    const PinnedRun &pin = GetParam();
    SystemConfig cfg = SystemConfig::mi100();
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    cfg.l2Tlb.mshrs = pin.mshrs;
    System sys(cfg, pin.policy);
    sys.enableAudit();
    sys.enableBackpressure(20'000);
    const auto wl = makeWorkload(pin.workload, 1.0);
    sys.loadWorkload(*wl, 400, 0x5eed);
    const RunResult r = sys.run();

    EXPECT_EQ(r.totalTicks, pin.ticks);
    EXPECT_EQ(sys.engine().executedEvents(), pin.events);
    EXPECT_EQ(r.sourceCounts, pin.sources);
    EXPECT_EQ(r.auditRetireCensusHash, pin.census);
    EXPECT_EQ(r.backpressure.littleViolations, 0u);

    std::uint64_t arrivals = 0, departures = 0, peak = 0, integral = 0,
                  window_peaks = 0, rejections = 0;
    const auto endsWith = [](const std::string &s, const char *suffix) {
        const std::string t = suffix;
        return s.size() >= t.size() &&
               s.compare(s.size() - t.size(), t.size(), t) == 0;
    };
    for (const ResourcePressure &p : r.backpressure.resources) {
        if (endsWith(p.name, ".stalled_remote")) {
            arrivals += p.arrivals;
            departures += p.departures;
            peak = std::max(peak, p.peak);
            integral += p.occIntegral;
            for (const ResourceWindow &w : p.windows)
                window_peaks += w.peak;
        } else if (endsWith(p.name, ".remote_mshr")) {
            rejections += p.rejections;
        }
    }
    EXPECT_EQ(arrivals, pin.stalledArrivals);
    EXPECT_EQ(departures, pin.stalledArrivals);
    EXPECT_EQ(peak, pin.stalledPeak);
    EXPECT_EQ(integral, pin.stalledIntegral);
    EXPECT_EQ(window_peaks, pin.stalledWindowPeaks);
    EXPECT_EQ(rejections, pin.mshrRejections);
}

INSTANTIATE_TEST_SUITE_P(
    StallHeavy, StallPinnedTest,
    ::testing::Values(
        PinnedRun{"hdpat_spmv_mshr1", TranslationPolicy::hdpat(), "SPMV",
                  1, 56610, 57478, {79, 2, 457, 987, 0, 0, 0},
                  12037008827847072748ull, 94459, 131, 66278961, 4936,
                  94459},
        PinnedRun{"hdpat_pr_mshr2", TranslationPolicy::hdpat(), "PR", 2,
                  30722, 64743, {166, 4, 845, 837, 0, 0, 0},
                  12167057594245578543ull, 220516, 252, 80207603, 7173,
                  220516},
        // Takes the L2-TLB-hit wake 13 times: parked keys filled into
        // the L2 TLB by another path before the next resolution.
        PinnedRun{"route_pr_mshr1_l2_wake",
                  TranslationPolicy::routeCaching(), "PR", 1, 60527,
                  61690, {459, 0, 0, 1390, 0, 0, 0},
                  12167057594245578543ull, 224838, 255, 138958565, 10110,
                  224838}),
    [](const ::testing::TestParamInfo<PinnedRun> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace hdpat
