#include "obs/heartbeat.hh"

#include "sim/log.hh"

namespace hdpat
{

Heartbeat::Heartbeat(Engine &engine, Tick interval, StatusFn status)
    : engine_(engine), interval_(interval), status_(std::move(status))
{
    hdpat_panic_if(interval_ == 0, "heartbeat interval must be > 0");
}

void
Heartbeat::start()
{
    if (running_)
        return;
    running_ = true;
    lastExecuted_ = engine_.executedEvents();
    lastTick_ = engine_.now();
    lastWall_ = std::chrono::steady_clock::now();
    engine_.noteObserverScheduled();
    engine_.scheduleIn(interval_, [this] { fire(); });
}

void
Heartbeat::fire()
{
    engine_.noteObserverFired();
    if (!running_)
        return;

    // Only observer events (this one, the watchdog, the sampler) left
    // at beat time means the workload drained: stop, so observers
    // never keep the event loop alive — alone or among themselves.
    if (!engine_.hasNonObserverEvents()) {
        running_ = false;
        return;
    }

    ++beats_;
    const std::uint64_t executed = engine_.executedEvents();
    const Tick now = engine_.now();
    const auto wall = std::chrono::steady_clock::now();
    const double wall_s =
        std::chrono::duration<double>(wall - lastWall_).count();
    const std::uint64_t events = executed - lastExecuted_;
    const double events_per_s =
        wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
    const double events_per_ktick =
        now > lastTick_ ? static_cast<double>(events) * 1000.0 /
                              static_cast<double>(now - lastTick_)
                        : 0.0;

    hdpat_inform("heartbeat #"
                 << beats_ << ": tick=" << now << " events=" << executed
                 << " (+" << events << ", "
                 << static_cast<std::uint64_t>(events_per_s)
                 << "/s wall, " << static_cast<std::uint64_t>(
                        events_per_ktick)
                 << "/ktick) pending=" << engine_.pendingEvents()
                 << (status_ ? " " + status_() : std::string()));

    lastExecuted_ = executed;
    lastTick_ = now;
    lastWall_ = wall;
    engine_.noteObserverScheduled();
    engine_.scheduleIn(interval_, [this] { fire(); });
}

} // namespace hdpat
