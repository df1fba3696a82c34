#include "obs/watchdog.hh"

#include <sstream>
#include <utility>

#include "sim/log.hh"

namespace hdpat
{

namespace
{

/**
 * Simulation events (observer self-events excluded) that must have
 * executed within one progress-free interval before it counts as a
 * livelock. A real retry storm fires hundreds per interval; a lone
 * straggler (one packet still in flight at the tail of a run) should
 * drain quietly.
 */
constexpr std::uint64_t kStallEventThreshold = 4;

} // namespace

Watchdog::Watchdog(Engine &engine, Tick interval, ProgressFn progress,
                   DiagnosticFn diagnostic)
    : engine_(engine), interval_(interval),
      progress_(std::move(progress)), diagnostic_(std::move(diagnostic))
{
    hdpat_fatal_if(interval_ == 0, "watchdog interval must be > 0");
    hdpat_fatal_if(!progress_, "watchdog needs a progress function");
    handler_ = [](const std::string &message) { hdpat_fatal(message); };
}

void
Watchdog::setStallHandler(StallHandler handler)
{
    if (handler)
        handler_ = std::move(handler);
}

void
Watchdog::start()
{
    if (running_)
        return;
    running_ = true;
    lastProgress_ = progress_();
    lastExecuted_ = engine_.nonObserverExecuted();
    engine_.noteObserverScheduled();
    engine_.scheduleIn(interval_, [this] { fire(); });
}

void
Watchdog::fire()
{
    engine_.noteObserverFired();
    if (!running_)
        return;

    // Only observer events left: the workload drained, the run is
    // winding down — nothing to watch.
    if (!engine_.hasNonObserverEvents()) {
        running_ = false;
        return;
    }
    ++checks_;

    const std::uint64_t progress = progress_();
    // Livelock = simulation events (not observer self-events) kept
    // firing this interval, yet nothing retired.
    const std::uint64_t executed = engine_.nonObserverExecuted();
    const bool events_fired =
        executed >= lastExecuted_ + kStallEventThreshold;
    if (progress == lastProgress_ && events_fired) {
        triggered_ = true;
        running_ = false;
        std::ostringstream os;
        os << "watchdog: no memop retired for " << interval_
           << " ticks (now=" << engine_.now() << ", "
           << (executed - lastExecuted_)
           << " events executed in the interval, progress stuck at "
           << progress << ")";
        if (diagnostic_)
            os << "\n" << diagnostic_();
        handler_(os.str());
        return;
    }

    lastProgress_ = progress;
    lastExecuted_ = executed;
    engine_.noteObserverScheduled();
    engine_.scheduleIn(interval_, [this] { fire(); });
}

} // namespace hdpat
