/**
 * @file
 * Unit tests for the simulation engine: time advance, relative
 * scheduling, bounded runs, reset, and observer bookkeeping.
 */

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hh"

namespace hdpat
{
namespace
{

TEST(EngineTest, TimeAdvancesWithEvents)
{
    Engine engine;
    EXPECT_EQ(engine.now(), 0u);

    Tick seen = 0;
    engine.scheduleAt(100, [&] { seen = engine.now(); });
    engine.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(engine.now(), 100u);
}

TEST(EngineTest, ScheduleInIsRelative)
{
    Engine engine;
    std::vector<Tick> ticks;
    engine.scheduleAt(10, [&] {
        engine.scheduleIn(5, [&] { ticks.push_back(engine.now()); });
    });
    engine.run();
    ASSERT_EQ(ticks.size(), 1u);
    EXPECT_EQ(ticks[0], 15u);
}

TEST(EngineTest, SchedulingNowFromEventWorks)
{
    Engine engine;
    int fired = 0;
    engine.scheduleAt(3, [&] {
        engine.scheduleIn(0, [&] { ++fired; });
    });
    engine.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(engine.now(), 3u);
}

TEST(EngineTest, SchedulingInThePastPanics)
{
    Engine engine;
    engine.scheduleAt(10, [] {});
    engine.run();
    EXPECT_DEATH(engine.scheduleAt(5, [] {}), "past");
}

TEST(EngineTest, RunUntilStopsAtLimit)
{
    Engine engine;
    int fired = 0;
    engine.scheduleAt(10, [&] { ++fired; });
    engine.scheduleAt(20, [&] { ++fired; });
    engine.scheduleAt(30, [&] { ++fired; });

    engine.runUntil(20);
    EXPECT_EQ(fired, 2); // Events exactly at the limit still run.
    EXPECT_EQ(engine.now(), 20u);
    EXPECT_EQ(engine.pendingEvents(), 1u);

    engine.run();
    EXPECT_EQ(fired, 3);
}

TEST(EngineTest, RunUntilAdvancesTimeWhenIdle)
{
    Engine engine;
    engine.runUntil(500);
    EXPECT_EQ(engine.now(), 500u);
}

TEST(EngineTest, StepReturnsFalseWhenEmpty)
{
    Engine engine;
    EXPECT_FALSE(engine.step());
    engine.scheduleAt(1, [] {});
    EXPECT_TRUE(engine.step());
    EXPECT_FALSE(engine.step());
}

TEST(EngineTest, ExecutedEventsCounts)
{
    Engine engine;
    for (int i = 0; i < 7; ++i)
        engine.scheduleAt(static_cast<Tick>(i), [] {});
    engine.run();
    EXPECT_EQ(engine.executedEvents(), 7u);
}

TEST(EngineTest, ResetRewindsEverything)
{
    Engine engine;
    engine.scheduleAt(10, [] {});
    engine.run();
    engine.scheduleAt(99, [] {});
    engine.reset();
    EXPECT_EQ(engine.now(), 0u);
    EXPECT_EQ(engine.pendingEvents(), 0u);
    EXPECT_EQ(engine.executedEvents(), 0u);
    // Scheduling at tick 0 must be legal again.
    int fired = 0;
    engine.scheduleAt(0, [&] { ++fired; });
    engine.run();
    EXPECT_EQ(fired, 1);
}

/** Cascading events model a pipeline: each stage schedules the next. */
TEST(EngineTest, CascadedEventsRunToCompletion)
{
    Engine engine;
    int depth = 0;
    std::function<void()> stage = [&] {
        if (++depth < 1000)
            engine.scheduleIn(1, stage);
    };
    engine.scheduleAt(0, stage);
    engine.run();
    EXPECT_EQ(depth, 1000);
    EXPECT_EQ(engine.now(), 999u);
}

/** A self-rescheduling observer never counts as "live work". */
TEST(EngineTest, ObserverBookkeepingUnchanged)
{
    Engine engine;
    int workload_runs = 0;
    int observer_runs = 0;
    // A heartbeat-style observer: reschedules itself while any
    // non-observer event is pending.
    std::function<void()> observer = [&] {
        engine.noteObserverFired();
        ++observer_runs;
        if (engine.hasNonObserverEvents()) {
            engine.noteObserverScheduled();
            engine.scheduleIn(10, [&] { observer(); });
        }
    };
    engine.noteObserverScheduled();
    engine.scheduleIn(10, [&] { observer(); });
    EXPECT_FALSE(engine.hasNonObserverEvents());

    engine.scheduleIn(35, [&] { ++workload_runs; });
    EXPECT_TRUE(engine.hasNonObserverEvents());

    engine.run();
    EXPECT_EQ(workload_runs, 1);
    // Fires at t=10, 20, 30 (workload pending), then at t=40 it sees
    // no live work and stops.
    EXPECT_EQ(observer_runs, 4);
    EXPECT_EQ(engine.nonObserverExecuted(), 1u);
    EXPECT_EQ(engine.now(), 40u);
}

/** The reserve estimate is visible and the high-water mark behaves. */
TEST(EngineTest, PendingHighWaterTracksPeak)
{
    Engine engine;
    engine.reserveEvents(64);
    for (int i = 0; i < 5; ++i)
        engine.scheduleIn(static_cast<Tick>(i + 1), [] {});
    EXPECT_EQ(engine.pendingEventsHighWater(), 5u);
    engine.run();
    EXPECT_EQ(engine.pendingEventsHighWater(), 5u);
    EXPECT_EQ(engine.scheduledEvents(), 5u);
    engine.reset();
    EXPECT_EQ(engine.pendingEventsHighWater(), 5u); // Lifetime mark.
    EXPECT_EQ(engine.scheduledEvents(), 5u);        // Lifetime count.
}

} // namespace
} // namespace hdpat
