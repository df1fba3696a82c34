#include "noc/network.hh"

#include <algorithm>
#include <cmath>

#include "obs/audit.hh"
#include "obs/profiler.hh"
#include "obs/spatial.hh"
#include "sim/log.hh"

namespace hdpat
{

Network::Network(Engine &engine, const MeshTopology &topo,
                 NocParams params)
    : engine_(engine), topo_(topo), params_(params)
{
    hdpat_fatal_if(params_.bytesPerTick <= 0.0,
                   "NoC bandwidth must be positive");
    linkFree_.assign(static_cast<std::size_t>(topo_.numTiles()) * 4, 0);
}

std::vector<TileId>
Network::route(TileId src, TileId dst) const
{
    std::vector<TileId> path{src};
    walkXY(src, dst,
           [&](std::size_t, TileId next) { path.push_back(next); });
    return path;
}

Tick
Network::computeArrival(Tick now, TileId src, TileId dst,
                        std::size_t bytes)
{
    const ProfScope prof(profiler_, ProfSection::NocRouting);
    ++stats_.packets;
    stats_.totalBytes += bytes;

    if (src == dst)
        return now + params_.localLatency;

    // Fractional serialization: Table I links are 768 bytes/cycle, so
    // a small control packet occupies a link for well under a cycle.
    const double serialize =
        static_cast<double>(bytes) / params_.bytesPerTick;

    // Walk the XY route in place rather than materializing it: this
    // runs once per packet, and the route() vector allocation shows up
    // in whole-run profiles.
    std::uint64_t nhops = 0;
    double t = static_cast<double>(now);
    walkXY(src, dst, [&](std::size_t link, TileId) {
        const double depart = std::max(t, linkFree_[link]);
        stats_.linkWait.add(depart - t);
        if (spatial_) [[unlikely]]
            spatial_->linkTraversed(link, bytes, serialize, depart - t);
        if (!bpLinks_.empty()) [[unlikely]]
            bpLinks_[link]->linkTraversed(serialize, depart - t);
        linkFree_[link] = depart + serialize;
        t = depart + serialize + static_cast<double>(params_.linkLatency);
        ++nhops;
    });

    stats_.byteHops += bytes * nhops;
    stats_.totalHops += nhops;
    const Tick arrival = static_cast<Tick>(std::ceil(t));
    stats_.totalLatency += arrival - now;
    return arrival;
}

void
Network::send(TileId src, TileId dst, std::size_t bytes,
              EventFn on_arrive)
{
    const Tick arrive = computeArrival(engine_.now(), src, dst, bytes);
    if (auditor_) [[unlikely]] {
        auditor_->packetSent(bytes);
        scheduleFused(arrive, bytes, kFuseAudit, dst, kInvalidTile, 0,
                      std::move(on_arrive));
        return;
    }
    engine_.scheduleAt(arrive, std::move(on_arrive));
}

void
Network::sendTracedSlow(TileId src, TileId dst, std::size_t bytes,
                        EventFn on_arrive, TileId trace_owner,
                        Vpn trace_vpn)
{
    if (!tracer_->active(trace_owner, trace_vpn)) {
        send(src, dst, bytes, std::move(on_arrive));
        return;
    }
    tracer_->record(trace_owner, trace_vpn, engine_.now(),
                    SpanEvent::NetSend, src,
                    static_cast<std::uint64_t>(dst));
    const Tick arrive = computeArrival(engine_.now(), src, dst, bytes);
    std::uint8_t mode = kFuseTrace;
    if (auditor_) [[unlikely]] {
        auditor_->packetSent(bytes);
        mode |= kFuseAudit;
    }
    scheduleFused(arrive, bytes, mode, dst, trace_owner, trace_vpn,
                  std::move(on_arrive));
}

void
Network::scheduleFused(Tick arrive, std::size_t bytes, std::uint8_t mode,
                       TileId dst, TileId trace_owner, Vpn trace_vpn,
                       EventFn on_arrive)
{
    std::uint32_t slot;
    if (fuseFreeHead_ != kNoSlot) {
        slot = fuseFreeHead_;
        fuseFreeHead_ = fuseSlab_[slot].nextFree;
    } else {
        // Slab growth is the only allocation on this path; once the
        // in-flight high-water mark is reached, slots recycle through
        // the free list and steady state allocates nothing.
        slot = static_cast<std::uint32_t>(fuseSlab_.size());
        fuseSlab_.emplace_back();
    }
    PendingDelivery &p = fuseSlab_[slot];
    p.fn = std::move(on_arrive);
    p.bytes = bytes;
    p.arrive = arrive;
    p.dst = dst;
    p.traceOwner = trace_owner;
    p.traceVpn = trace_vpn;
    p.mode = mode;
    engine_.scheduleAt(arrive, [this, slot] { deliverFused(slot); });
}

void
Network::deliverFused(std::uint32_t slot)
{
    // Copy the payload out and release the slot before running any of
    // it: the arrival callback may send further packets, growing or
    // reusing the slab.
    PendingDelivery &p = fuseSlab_[slot];
    const std::size_t bytes = p.bytes;
    const Tick arrive = p.arrive;
    const TileId dst = p.dst;
    const TileId traceOwner = p.traceOwner;
    const Vpn traceVpn = p.traceVpn;
    const std::uint8_t mode = p.mode;
    EventFn fn = std::move(p.fn);
    p.nextFree = fuseFreeHead_;
    fuseFreeHead_ = slot;

    // Delivered count, then the NetArrive record, then the arrival
    // callback: observers see the arrival before anything it causes.
    if (mode & kFuseAudit)
        auditor_->packetDelivered(bytes);
    if (mode & kFuseTrace) {
        tracer_->record(traceOwner, traceVpn, arrive,
                        SpanEvent::NetArrive, dst,
                        static_cast<std::uint64_t>(dst));
    }
    fn();
}

void
Network::dataHop(TileId src, TileId dst, std::size_t bytes,
                 EventFn at_arrive)
{
    engine_.scheduleAt(computeArrival(engine_.now(), src, dst, bytes),
                       std::move(at_arrive));
}

void
Network::setBackpressure(BackpressureCollector &bp)
{
    // Link i leaves tile i / 4 in direction i % 4, named by the
    // initial of its SpatialCollector::dirName ("e", "w", "s", "n").
    bpLinks_.resize(linkFree_.size());
    for (std::size_t i = 0; i < bpLinks_.size(); ++i) {
        bpLinks_[i] = bp.add(
            "noc.link.t" + std::to_string(i / 4) + "." +
                SpatialCollector::dirName(static_cast<unsigned>(i % 4))[0],
            ResourceKind::Link, 0);
    }
}

void
Network::registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const
{
    reg.addCounter(prefix + "packets", &stats_.packets);
    reg.addCounter(prefix + "total_bytes", &stats_.totalBytes);
    reg.addCounter(prefix + "byte_hops", &stats_.byteHops);
    reg.addCounter(prefix + "total_hops", &stats_.totalHops);
    reg.addCounter(prefix + "total_latency", &stats_.totalLatency);
    reg.addSummary(prefix + "link_wait", &stats_.linkWait);
}

} // namespace hdpat
