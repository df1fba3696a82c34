/**
 * @file
 * Unit tests for the discrete-event queue: ordering, same-tick FIFO,
 * structural integrity under randomized load, and the no-allocation
 * guarantee of the schedule/pop hot path. The shadow-queue test drives
 * the calendar queue beside a minimal (tick, schedule order) reference
 * and asserts identical pop order, which is the determinism contract
 * the calendar queue must uphold.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cuckoo_filter.hh"
#include "mem/page_walk_cache.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

/**
 * Program-wide allocation counter. Replacing the global allocation
 * functions is safe in this shared test binary: behaviour is
 * unchanged, every new is just counted. Tests snapshot the counter
 * around a region that must not allocate.
 */
std::atomic<std::uint64_t> g_heap_allocations{0};

void *
countedAlloc(std::size_t count)
{
    ++g_heap_allocations;
    if (void *p = std::malloc(count ? count : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t count)
{
    return countedAlloc(count);
}

void *
operator new[](std::size_t count)
{
    return countedAlloc(count);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace hdpat
{
namespace
{

TEST(EventQueueTest, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.nextTick(), kTickNever);
}

TEST(EventQueueTest, PopsInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });

    while (!q.empty()) {
        Tick when = 0;
        q.pop(when)();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });

    while (!q.empty()) {
        Tick when = 0;
        q.pop(when)();
        EXPECT_EQ(when, 5u);
    }
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NextTickTracksEarliest)
{
    EventQueue q;
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextTick(), 42u);
    q.schedule(7, [] {});
    EXPECT_EQ(q.nextTick(), 7u);

    Tick when = 0;
    q.pop(when);
    EXPECT_EQ(when, 7u);
    EXPECT_EQ(q.nextTick(), 42u);
}

TEST(EventQueueTest, ClearDiscardsEverything)
{
    EventQueue q;
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTick(), kTickNever);
}

TEST(EventQueueTest, ScheduledCountIsMonotonic)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.scheduledCount(), 10u);
    Tick when = 0;
    q.pop(when);
    EXPECT_EQ(q.scheduledCount(), 10u); // Pops do not decrement.
}

TEST(EventQueueTest, ClearKeepsLifetimeScheduledCount)
{
    EventQueue q;
    for (int i = 0; i < 3; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.scheduledCount(), 3u);

    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.scheduledCount(), 3u); // Lifetime total, not queue depth.

    q.schedule(9, [] {});
    EXPECT_EQ(q.scheduledCount(), 4u);
}

TEST(EventQueueTest, ClearKeepsPendingHighWater)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.pendingHighWater(), 5u);

    q.clear();
    EXPECT_EQ(q.pendingHighWater(), 5u); // Lifetime mark survives.

    q.schedule(1, [] {});
    EXPECT_EQ(q.pendingHighWater(), 5u); // Not reset by new traffic.
}

TEST(EventQueueTest, SameTickFifoHoldsAcrossClear)
{
    EventQueue q;
    q.schedule(1, [] {});
    q.clear();

    // A fresh epoch after clear() must still drain same-tick events in
    // schedule order.
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty()) {
        Tick when = 0;
        q.pop(when)();
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

/**
 * The hot path must be allocation-free: with the backing storage
 * pre-reserved, scheduling, popping, and invoking events -- including
 * ones with captures far beyond std::function's inline buffer -- may
 * not touch the heap. The far-future deltas push events through the
 * calendar queue's overflow heap as well as its wheel buckets.
 */
TEST(EventQueueTest, ScheduleAndPopDoNotAllocate)
{
    EventQueue q;
    q.reserve(256);
    int sink = 0;
    std::array<std::uint8_t, 96> payload{};
    payload[0] = 1;

    const std::uint64_t before = g_heap_allocations.load();
    for (int i = 0; i < 200; ++i) {
        q.schedule(static_cast<Tick>(i % 7), [&sink, payload] {
            sink += payload[0];
        });
        // A sprinkle of far-future events exercises the overflow tier.
        if (i % 10 == 0) {
            q.schedule(static_cast<Tick>(100000 + i),
                       [&sink, payload] { sink += payload[0]; });
        }
    }
    while (!q.empty()) {
        Tick when = 0;
        q.pop(when)();
    }
    const std::uint64_t after = g_heap_allocations.load();

    EXPECT_EQ(after, before);
    EXPECT_EQ(sink, 220);
}

/**
 * The SoA translation structures share the no-allocation contract:
 * after construction, every steady-state operation (lookups, inserts,
 * evictions, invalidations, batched probes, walk-latency queries,
 * fills) runs on the fixed lanes and may not touch the heap. This test
 * lives here because this translation unit owns the counting
 * operator new that the whole test binary links.
 */
TEST(SoaSubstrateAllocation, TlbSteadyStateDoesNotAllocate)
{
    Tlb tlb(64, 8);

    const std::uint64_t before = g_heap_allocations.load();
    std::uint64_t sink = 0;
    for (Vpn v = 0; v < 4096; ++v) {
        tlb.insert(v, v + 1, (v & 1) != 0, (v & 2) != 0);
        sink += tlb.lookup(v / 2).value_or(0);
        sink += tlb.peek(v).value_or(0);
        if (v % 7 == 0)
            tlb.invalidate(v / 3);
    }
    tlb.flush();
    const std::uint64_t after = g_heap_allocations.load();

    EXPECT_EQ(after, before);
    EXPECT_GT(sink, 0u);
}

TEST(SoaSubstrateAllocation, CuckooFilterSteadyStateDoesNotAllocate)
{
    CuckooFilter filter(1u << 12);

    const std::uint64_t before = g_heap_allocations.load();
    std::uint64_t sink = 0;
    for (Vpn v = 0; v < 4000; ++v) {
        filter.insert(v);
        sink += filter.contains(v) ? 1 : 0;
        if (v % 3 == 0)
            filter.erase(v / 2);
    }
    const std::uint64_t after = g_heap_allocations.load();

    EXPECT_EQ(after, before);
    EXPECT_GT(sink, 0u);
}

TEST(SoaSubstrateAllocation, PageWalkCacheSteadyStateDoesNotAllocate)
{
    PageWalkCache pwc(256);

    const std::uint64_t before = g_heap_allocations.load();
    Tick total = 0;
    for (Vpn v = 0; v < 2048; ++v) {
        pwc.prefetch(v);
        total += pwc.walkLatency(v);
        pwc.fill(v);
    }
    const std::uint64_t after = g_heap_allocations.load();

    EXPECT_EQ(after, before);
    EXPECT_GT(total, 0u);
}

TEST(EventQueueTest, PopOnEmptyPanics)
{
    EventQueue q;
    Tick when = 0;
    EXPECT_DEATH({ q.pop(when); }, "empty event queue");
}

/** Property: random interleavings drain in nondecreasing tick order. */
TEST(EventQueueTest, RandomizedDrainIsSorted)
{
    Rng rng(123);
    EventQueue q;
    std::vector<Tick> scheduled;
    for (int i = 0; i < 5000; ++i) {
        const Tick t = rng.uniformInt(1000);
        scheduled.push_back(t);
        q.schedule(t, [] {});
    }

    std::vector<Tick> drained;
    while (!q.empty()) {
        Tick when = 0;
        q.pop(when);
        drained.push_back(when);
    }
    ASSERT_EQ(drained.size(), scheduled.size());
    EXPECT_TRUE(std::is_sorted(drained.begin(), drained.end()));
    std::sort(scheduled.begin(), scheduled.end());
    EXPECT_EQ(drained, scheduled);
}

/** Interleaved push/pop keeps the ordering invariant. */
TEST(EventQueueTest, InterleavedPushPop)
{
    Rng rng(77);
    EventQueue q;
    Tick last_popped = 0;
    for (int round = 0; round < 2000; ++round) {
        if (q.empty() || rng.chance(0.6)) {
            // Never schedule before the last popped tick (engine rule).
            const Tick t = last_popped + rng.uniformInt(50);
            q.schedule(t, [] {});
        } else {
            Tick when = 0;
            q.pop(when);
            EXPECT_GE(when, last_popped);
            last_popped = when;
        }
    }
}

/**
 * Deltas straddling the wheel width (4096 ticks): one tick inside the
 * window, the first tick past it (overflow), and one further. All must
 * drain in tick order regardless of which tier they landed in.
 */
TEST(EventQueueTest, BucketWidthBoundaryTicks)
{
    EventQueue q;
    std::vector<Tick> expect;
    for (const Tick t : {Tick{4095}, Tick{4096}, Tick{4097}, Tick{0},
                         Tick{1}, Tick{8191}, Tick{8192}}) {
        q.schedule(t, [] {});
        expect.push_back(t);
    }
    std::sort(expect.begin(), expect.end());

    std::vector<Tick> drained;
    while (!q.empty()) {
        Tick when = 0;
        q.pop(when);
        drained.push_back(when);
    }
    EXPECT_EQ(drained, expect);
}

/**
 * Far-future "promotion" ordering: an event scheduled while its tick
 * was beyond the wheel horizon (overflow tier) must still fire before
 * a same-tick event scheduled later, once time has advanced enough
 * that the later schedule lands in a wheel bucket. This is the FIFO
 * tie the determinism contract hangs on.
 */
TEST(EventQueueTest, FarFutureOverflowKeepsFifoOnTies)
{
    EventQueue q;
    std::vector<int> order;
    constexpr Tick kFar = 10000; // Beyond the 4096-tick wheel at t=0.

    q.schedule(kFar, [&] { order.push_back(0); }); // Overflow tier.

    // March simulated time forward to within a wheel width of kFar.
    for (Tick t = 1000; t < kFar; t += 1000)
        q.schedule(t, [] {});
    Tick when = 0;
    while (q.size() > 1)
        q.pop(when)();
    // Now the same tick lands in a bucket; FIFO says it fires second.
    q.schedule(kFar, [&] { order.push_back(1); });
    q.schedule(kFar, [&] { order.push_back(2); });

    while (!q.empty())
        q.pop(when)();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(when, kFar);
}

/**
 * Shadow-queue differential: drive the calendar queue with an
 * engine-like schedule/pop script beside a reference ordered by
 * (tick, schedule index) and assert every pop matches the reference's
 * earliest entry exactly. Several delta profiles: the simulator's
 * short fixed deltas, wheel-boundary straddlers, and heavy same-tick
 * contention.
 */
TEST(EventQueueShadowTest, CalendarMatchesReferencePopOrder)
{
    const struct
    {
        std::uint64_t seed;
        Tick max_delta;
        double same_tick_bias;
    } profiles[] = {
        {11, 8, 0.5},     // Short fixed deltas (hop/pipeline latencies).
        {22, 6000, 0.0},  // Straddles the 4096-tick wheel width.
        {33, 1, 0.9},     // Same-tick pileups.
        {44, 100000, 0.2} // Mostly overflow-tier traffic.
    };

    for (const auto &p : profiles) {
        SCOPED_TRACE(p.seed);
        Rng rng(p.seed);
        EventQueue q;
        std::set<std::pair<Tick, std::uint64_t>> reference;
        std::uint64_t popped_id = 0;
        std::uint64_t next_id = 0;
        Tick now = 0;
        const auto popAndCheck = [&] {
            Tick when = 0;
            q.pop(when)();
            ASSERT_FALSE(reference.empty());
            const auto [ref_when, ref_id] = *reference.begin();
            reference.erase(reference.begin());
            ASSERT_EQ(when, ref_when);
            ASSERT_EQ(popped_id, ref_id);
            now = when;
        };
        for (int round = 0; round < 20000; ++round) {
            if (q.empty() || rng.chance(0.55)) {
                const Tick delta = rng.chance(p.same_tick_bias)
                                       ? 0
                                       : rng.uniformInt(p.max_delta);
                const std::uint64_t id = next_id++;
                q.schedule(now + delta,
                           [&popped_id, id] { popped_id = id; });
                reference.emplace(now + delta, id);
            } else {
                ASSERT_NO_FATAL_FAILURE(popAndCheck());
            }
        }
        while (!q.empty())
            ASSERT_NO_FATAL_FAILURE(popAndCheck());
        EXPECT_TRUE(reference.empty());
    }
}

} // namespace
} // namespace hdpat
