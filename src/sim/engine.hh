/**
 * @file
 * The simulation engine: owns the event queue and the current tick.
 *
 * Components hold a reference to the Engine, query now(), and schedule
 * callbacks at relative or absolute times. One Engine corresponds to one
 * simulated system run.
 */

#ifndef HDPAT_SIM_ENGINE_HH
#define HDPAT_SIM_ENGINE_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace hdpat
{

class Profiler;

/**
 * Discrete-event simulation driver.
 *
 * Typical use:
 * @code
 *   Engine engine;
 *   engine.scheduleIn(10, [] { ... });
 *   engine.run();
 * @endcode
 */
class Engine
{
  public:
    /** Registers this engine as the tick source for log lines. */
    Engine();
    /** Unregisters (only if still the active log-tick source). */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn at absolute tick @p when (>= now()). */
    void scheduleAt(Tick when, EventFn fn);

    /** Schedule @p fn @p delay ticks from now. */
    void scheduleIn(Tick delay, EventFn fn)
    {
        scheduleAt(now() + delay, std::move(fn));
    }

    /**
     * Execute the earliest event.
     *
     * @return false when the queue was empty (nothing ran).
     */
    bool step();

    /** Run until the event queue drains. */
    void run();

    /**
     * Run until the queue drains or simulated time would pass @p limit.
     * Events scheduled exactly at @p limit still execute.
     */
    void runUntil(Tick limit);

    /** Pending event count. */
    std::size_t pendingEvents() const { return queue_.size(); }

    /** Total events executed so far. */
    std::uint64_t executedEvents() const { return executed_; }

    /** Total events ever scheduled (lifetime; survives reset). */
    std::uint64_t scheduledEvents() const
    {
        return queue_.scheduledCount();
    }

    /** Most events pending at once so far (lifetime high-water mark). */
    std::size_t pendingEventsHighWater() const
    {
        return queue_.pendingHighWater();
    }

    /**
     * Pre-size the event queue for @p n simultaneously pending events
     * so steady-state scheduling below that mark never allocates.
     * System::loadWorkload calls this with its audited high-water
     * estimate before the first event fires.
     */
    void reserveEvents(std::size_t n) { queue_.reserve(n); }

    /**
     * Observer-event bookkeeping. Self-rescheduling observers (the
     * heartbeat, the stall watchdog, the spatial sampler) must not
     * keep the run alive, and with several active at once "another
     * event is pending" stops being evidence of a live workload —
     * the other event may itself be an observer. Observers announce
     * each scheduled self-event, mark it when it fires, and consult
     * hasNonObserverEvents() before rescheduling.
     */
    void noteObserverScheduled() { ++observersPending_; }
    /** First statement of every observer event callback. */
    void noteObserverFired()
    {
        --observersPending_;
        ++observersExecuted_;
    }
    /** True while any pending event belongs to the simulation itself. */
    bool hasNonObserverEvents() const
    {
        return pendingEvents() > observersPending_;
    }
    /** Executed events that were not observer self-events. */
    std::uint64_t nonObserverExecuted() const
    {
        return executedEvents() - observersExecuted_;
    }

    /** Drop all pending events and rewind time to zero. */
    void reset();

    /**
     * Host self-profiler for event dispatch (null = off). Only the
     * profiler's header-inline hot path is used here, so hdpat_sim
     * gains no link dependency on hdpat_obs.
     */
    void setProfiler(Profiler *profiler) { profiler_ = profiler; }

  private:
    EventQueue queue_;
    Tick now_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t observersPending_ = 0;
    std::uint64_t observersExecuted_ = 0;
    Profiler *profiler_ = nullptr;
};

} // namespace hdpat

#endif // HDPAT_SIM_ENGINE_HH
