#include "gpm/gmmu.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"

namespace hdpat
{

Gmmu::Gmmu(Engine &engine, const GlobalPageTable &pt, TileId self,
           std::size_t walkers, Tick walk_latency,
           std::size_t pwc_entries)
    : engine_(engine), pt_(pt), self_(self), freeWalkers_(walkers),
      walkLatency_(walk_latency),
      pwc_(pwc_entries, 5, walk_latency / 5)
{
    hdpat_fatal_if(walkers == 0, "GMMU needs at least one walker");
}

void
Gmmu::requestWalk(Vpn vpn, WalkCallback cb, TileId trace_owner)
{
    ++stats_.walksRequested;
    queue_.push_back(
        Pending{vpn, std::move(cb), engine_.now(), trace_owner});
    if (bpQueue_) [[unlikely]]
        bpQueue_->arrive(engine_.now());
    tryStart();
}

void
Gmmu::tryStart()
{
    // Batched probe warm-up: prefetch the PWC sets of every walk this
    // round can dispatch (bounded by free walkers) before starting
    // them one by one. A prefetch changes no simulated state.
    if (pwc_.enabled()) {
        const std::size_t starts = std::min<std::size_t>(
            static_cast<std::size_t>(freeWalkers_), queue_.size());
        for (std::size_t i = 0; i < starts; ++i)
            pwc_.prefetch(queue_[i].vpn);
    }
    while (freeWalkers_ > 0 && !queue_.empty()) {
        Pending p = std::move(queue_.front());
        queue_.pop_front();
        --freeWalkers_;
        if (bpQueue_) [[unlikely]] {
            bpQueue_->depart(engine_.now());
            bpWalkers_->arrive(engine_.now());
        }
        stats_.queueWait.add(
            static_cast<double>(engine_.now() - p.enqueued));
        if (tracer_ && p.traceOwner != kInvalidTile) {
            tracer_->record(p.traceOwner, p.vpn, engine_.now(),
                            SpanEvent::GmmuWalkStart, self_);
        }
        const Tick latency = pwc_.enabled()
                                 ? pwc_.walkLatency(p.vpn)
                                 : walkLatency_;
        engine_.scheduleIn(latency, [this, p = std::move(p)] {
            ++freeWalkers_;
            if (bpWalkers_) [[unlikely]]
                bpWalkers_->depart(engine_.now());
            ++stats_.walksCompleted;
            const Pte *pte = pt_.translate(p.vpn);
            std::optional<Pfn> result;
            if (pte && pte->home == self_) {
                result = pte->pfn;
                ++stats_.localHits;
                pwc_.fill(p.vpn);
            } else {
                // The local page table only maps locally homed pages:
                // the walk was a cuckoo false positive (or a probe for
                // a page homed elsewhere).
                ++stats_.misses;
            }
            if (tracer_ && p.traceOwner != kInvalidTile) {
                tracer_->record(p.traceOwner, p.vpn, engine_.now(),
                                SpanEvent::GmmuWalkDone, self_,
                                result ? 1 : 0);
            }
            p.cb(p.vpn, result);
            tryStart();
        });
    }
}

void
Gmmu::registerMetrics(MetricRegistry &reg,
                      const std::string &prefix) const
{
    reg.addCounter(prefix + "walks_requested",
                   &stats_.walksRequested);
    reg.addCounter(prefix + "walks_completed",
                   &stats_.walksCompleted);
    reg.addCounter(prefix + "local_hits", &stats_.localHits);
    reg.addCounter(prefix + "misses", &stats_.misses);
    reg.addSummary(prefix + "queue_wait", &stats_.queueWait);
    reg.addGauge(prefix + "queue_depth", [this] {
        return static_cast<double>(queue_.size());
    });
}

} // namespace hdpat
