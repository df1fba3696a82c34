#include "sim/engine.hh"

#include <utility>

// Header-only use (ProfScope): no hdpat_obs link dependency.
#include "obs/profiler.hh"
#include "sim/log.hh"

namespace hdpat
{

Engine::Engine()
{
    // The most recently constructed engine stamps log lines; with one
    // engine per simulated system this is "the" engine in practice.
    setActiveLogEngine(this);
}

Engine::~Engine()
{
    clearActiveLogEngine(this);
}

void
Engine::scheduleAt(Tick when, EventFn fn)
{
    hdpat_panic_if(when < now_,
                   "scheduling into the past: when=" << when
                       << " now=" << now_);
    queue_.schedule(when, std::move(fn));
}

bool
Engine::step()
{
    if (queue_.empty())
        return false;
    Tick when = 0;
    EventFn fn = queue_.pop(when);
    now_ = when;
    ++executed_;
    {
        const ProfScope prof(profiler_, ProfSection::EventDispatch);
        fn();
    }
    return true;
}

void
Engine::run()
{
    while (step()) {
    }
}

void
Engine::runUntil(Tick limit)
{
    while (!queue_.empty() && queue_.nextTick() <= limit)
        step();
    if (now_ < limit)
        now_ = limit;
}

void
Engine::reset()
{
    queue_.clear();
    now_ = 0;
    executed_ = 0;
    observersPending_ = 0;
    observersExecuted_ = 0;
}

} // namespace hdpat
