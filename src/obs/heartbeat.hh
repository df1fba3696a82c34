/**
 * @file
 * Run heartbeat: a periodic engine event that logs simulation progress
 * (simulated tick, event throughput, wall-clock rate, plus a
 * caller-supplied status line) at LogLevel::Info, so long sweeps are no
 * longer silent.
 *
 * The heartbeat reschedules itself only while other events remain in
 * the queue; when it fires with an otherwise-empty queue the run is
 * over and it stops, so it never keeps Engine::run() alive on its own.
 */

#ifndef HDPAT_OBS_HEARTBEAT_HH
#define HDPAT_OBS_HEARTBEAT_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/engine.hh"
#include "sim/types.hh"

namespace hdpat
{

class Heartbeat
{
  public:
    /** Returns one status line, e.g. "in-flight=33 iommu-backlog=4". */
    using StatusFn = std::function<std::string()>;

    /**
     * @param interval Ticks between beats (> 0).
     * @param status Optional extra status; may be null.
     */
    Heartbeat(Engine &engine, Tick interval, StatusFn status = nullptr);

    /** Schedule the first beat (idempotent while running). */
    void start();

    /** Stop after the current beat; pending event becomes a no-op. */
    void stop() { running_ = false; }

    bool running() const { return running_; }
    std::uint64_t beats() const { return beats_; }
    Tick interval() const { return interval_; }

  private:
    void fire();

    Engine &engine_;
    Tick interval_;
    StatusFn status_;
    bool running_ = false;
    std::uint64_t beats_ = 0;
    std::uint64_t lastExecuted_ = 0;
    Tick lastTick_ = 0;
    std::chrono::steady_clock::time_point lastWall_;
};

} // namespace hdpat

#endif // HDPAT_OBS_HEARTBEAT_HH
