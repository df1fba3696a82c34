/**
 * @file
 * Stall watchdog: detects livelock — the event queue keeps firing but
 * no memory operation retires for a full watch interval — and aborts
 * the run with a structured diagnostic instead of spinning forever.
 *
 * A genuine deadlock (empty event queue with unfinished GPMs) is
 * already caught by System::run(); the watchdog covers the complement,
 * where events ping-pong without forward progress (e.g. a retry loop
 * that re-stalls every time).
 *
 * The watchdog is a periodic engine event in the heartbeat's mould: it
 * reschedules itself only while simulation (non-observer) events
 * remain in the queue, so it never keeps Engine::run() alive — on its
 * own or together with the other observers (see
 * Engine::noteObserverScheduled).
 */

#ifndef HDPAT_OBS_WATCHDOG_HH
#define HDPAT_OBS_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/engine.hh"
#include "sim/types.hh"

namespace hdpat
{

class Watchdog
{
  public:
    /** Monotonic progress indicator (e.g. total ops retired). */
    using ProgressFn = std::function<std::uint64_t()>;
    /** Extra dump appended to the abort message (may be null). */
    using DiagnosticFn = std::function<std::string()>;
    /**
     * Invoked on a detected stall with the full message. The default
     * handler aborts via hdpat_fatal; tests substitute a recorder.
     */
    using StallHandler = std::function<void(const std::string &)>;

    /**
     * @param interval Simulated ticks between progress checks (> 0);
     *        a stall is flagged after one full interval without any
     *        progress while events kept executing.
     */
    Watchdog(Engine &engine, Tick interval, ProgressFn progress,
             DiagnosticFn diagnostic = nullptr);

    void setStallHandler(StallHandler handler);

    /** Schedule the first check (idempotent while running). */
    void start();

    /** Stop; the pending check becomes a no-op. */
    void stop() { running_ = false; }

    bool running() const { return running_; }
    /** True once a stall was detected (sticky). */
    bool triggered() const { return triggered_; }
    Tick interval() const { return interval_; }
    std::uint64_t checks() const { return checks_; }

  private:
    void fire();

    Engine &engine_;
    Tick interval_;
    ProgressFn progress_;
    DiagnosticFn diagnostic_;
    StallHandler handler_;
    bool running_ = false;
    bool triggered_ = false;
    std::uint64_t checks_ = 0;
    std::uint64_t lastProgress_ = 0;
    std::uint64_t lastExecuted_ = 0;
};

} // namespace hdpat

#endif // HDPAT_OBS_WATCHDOG_HH
