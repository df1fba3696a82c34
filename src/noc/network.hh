/**
 * @file
 * Analytical mesh network with XY (dimension-ordered) routing.
 *
 * Each directed link has a busy-until time: a packet traversing a link
 * serializes (size / bandwidth) after the link frees, then pays the
 * fixed per-link latency (Table I: 768 GB/s, 32 cycles per link). This
 * captures geometry-dependent latency and link contention without
 * per-flit events, and accounts traffic in byte-hops for the overhead
 * numbers in §V-D.
 */

#ifndef HDPAT_NOC_NETWORK_HH
#define HDPAT_NOC_NETWORK_HH

#include <cstdint>
#include <vector>

#include "noc/mesh_topology.hh"
#include "obs/backpressure.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/engine.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hdpat
{

class Auditor;
class Profiler;
class SpatialCollector;

/** Timing/bandwidth parameters of the interposer mesh. */
struct NocParams
{
    /** Fixed traversal latency per link, in ticks. */
    Tick linkLatency = 32;
    /** Link bandwidth in bytes per tick (768 GB/s at 1 GHz). */
    double bytesPerTick = 768.0;
    /** Latency for a message whose source and destination coincide. */
    Tick localLatency = 1;
};

/** Conventional message sizes on the translation plane, in bytes. */
struct NocMessageBytes
{
    static constexpr std::size_t kTranslationRequest = 32;
    static constexpr std::size_t kTranslationResponse = 32;
    static constexpr std::size_t kProbeRequest = 32;
    static constexpr std::size_t kProbeResponse = 32;
    static constexpr std::size_t kPtePush = 32;
    static constexpr std::size_t kInvalidate = 32;
    static constexpr std::size_t kInvalidateAck = 32;
    static constexpr std::size_t kDataHeader = 16;
    static constexpr std::size_t kCacheLine = 64;
};

/**
 * The mesh interconnect. All inter-tile communication goes through
 * send(), which computes the arrival tick under current link occupancy
 * and schedules the delivery callback.
 */
class Network
{
  public:
    struct Stats
    {
        std::uint64_t packets = 0;
        std::uint64_t totalBytes = 0;
        /** Sum over packets of bytes * links traversed. */
        std::uint64_t byteHops = 0;
        std::uint64_t totalHops = 0;
        /** Accumulated per-packet in-network latency. */
        Tick totalLatency = 0;
        /** Per-link-traversal queueing delay (depart - ready). */
        SummaryStat linkWait;
    };

    Network(Engine &engine, const MeshTopology &topo,
            NocParams params = {});

    /**
     * Send @p bytes from @p src to @p dst; @p on_arrive runs at the
     * computed arrival tick.
     */
    void send(TileId src, TileId dst, std::size_t bytes,
              EventFn on_arrive);

    /**
     * Traced variant: when a span is live for (@p trace_owner,
     * @p trace_vpn), record NetSend at departure and NetArrive at
     * delivery against it. Identical timing to send(); with tracing
     * off the inline null test is the only extra cost.
     */
    void sendTraced(TileId src, TileId dst, std::size_t bytes,
                    EventFn on_arrive, TileId trace_owner,
                    Vpn trace_vpn)
    {
        if (!tracer_) [[likely]] {
            send(src, dst, bytes, std::move(on_arrive));
            return;
        }
        sendTracedSlow(src, dst, bytes, std::move(on_arrive),
                       trace_owner, trace_vpn);
    }

    /** Tracer for translation-plane messages (null = off). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Conservation auditor (null = off). With one attached, send()
     * counts the packet at departure and its delivery inside the
     * arrival event, right before the callback, so lost or duplicated
     * deliveries surface at finalize().
     */
    void setAuditor(Auditor *auditor) { auditor_ = auditor; }

    /** Per-link heatmap collector (null = off), fed by every link
     *  traversal computeArrival() walks; it never affects delivery. */
    void setSpatial(SpatialCollector *spatial) { spatial_ = spatial; }

    /** Host self-profiler for the routing path (null = off). */
    void setProfiler(Profiler *profiler) { profiler_ = profiler; }

    /**
     * Data-plane hop: schedule @p at_arrive at
     * computeArrival(now, src, dst, bytes). The zero-copy data path
     * uses this instead of send() because raw line movement carries no
     * conservation companions.
     */
    void dataHop(TileId src, TileId dst, std::size_t bytes,
                 EventFn at_arrive);

    /**
     * Register every directed link as an analytic backpressure
     * resource. Link occupancy is computed at send time in fractional
     * ticks (not observed via time-ordered transitions), so links
     * report busy/wait totals and are exempt from the transition
     * oracle; see obs/backpressure.hh.
     */
    void setBackpressure(BackpressureCollector &bp);

    /** Register NoC metrics under @p prefix (e.g. "noc."). */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

    /**
     * Pure timing variant: advance link state and return the arrival
     * tick without scheduling anything.
     */
    Tick computeArrival(Tick now, TileId src, TileId dst,
                        std::size_t bytes);

    /**
     * Enumerate the XY route from @p src to @p dst as a tile sequence
     * (inclusive of both endpoints). Exposed for the route-based
     * caching policy (§IV-B), which probes intermediate GPMs.
     */
    std::vector<TileId> route(TileId src, TileId dst) const;

    int hops(TileId src, TileId dst) const
    {
        return topo_.hopDistance(src, dst);
    }

    const MeshTopology &topology() const { return topo_; }
    const NocParams &params() const { return params_; }
    const Stats &stats() const { return stats_; }

  private:
    /**
     * Walk the XY route from @p src to @p dst, X first, then Y
     * (dimension-ordered routing), calling @p fn(link, next) once per
     * hop. @p link is the directed link taken, tile * 4 + direction
     * (direction names in SpatialCollector::dirName); @p next is the
     * tile it reaches.
     */
    template <typename Fn>
    void walkXY(TileId src, TileId dst, Fn &&fn) const
    {
        Coord cur = topo_.coordOf(src);
        const Coord goal = topo_.coordOf(dst);
        TileId tile = src;
        const auto hop = [&](unsigned dir) {
            const TileId next = cur.y * topo_.width() + cur.x;
            fn(static_cast<std::size_t>(tile) * 4 + dir, next);
            tile = next;
        };
        while (cur.x != goal.x) {
            const bool east = goal.x > cur.x;
            cur.x += east ? 1 : -1;
            hop(east ? 0u : 1u);
        }
        while (cur.y != goal.y) {
            const bool south = goal.y > cur.y;
            cur.y += south ? 1 : -1;
            hop(south ? 2u : 3u);
        }
    }

    /** Out-of-line body of sendTraced for the tracing-on case. */
    void sendTracedSlow(TileId src, TileId dst, std::size_t bytes,
                        EventFn on_arrive, TileId trace_owner,
                        Vpn trace_vpn);

    /**
     * Observer companions of a delivery: the auditor's delivered-count
     * and the tracer's NetArrive record. A packet with any is delivered
     * by ONE event that runs them and then the arrival callback
     * (scheduleFused); a packet with none by a plain scheduleAt.
     */
    static constexpr std::uint8_t kFuseAudit = 1;
    static constexpr std::uint8_t kFuseTrace = 2;

    /**
     * One in-flight fused delivery. The payload lives in a slab slot
     * (free-listed, so steady state never allocates) because the
     * arrival callback is itself an EventFn: capturing it inside the
     * fused event's lambda would nest EventFn storage and overflow
     * the inline capture budget. The scheduled lambda captures only
     * {Network*, slot index}.
     */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    struct PendingDelivery
    {
        EventFn fn;
        std::size_t bytes = 0;
        Tick arrive = 0;
        TileId dst = kInvalidTile;
        TileId traceOwner = kInvalidTile;
        Vpn traceVpn = 0;
        std::uint8_t mode = 0;
        std::uint32_t nextFree = kNoSlot;
    };

    /** Schedule one fused delivery event for @p on_arrive. */
    void scheduleFused(Tick arrive, std::size_t bytes, std::uint8_t mode,
                       TileId dst, TileId trace_owner, Vpn trace_vpn,
                       EventFn on_arrive);
    /** Run a fused delivery: companions, then the arrival callback. */
    void deliverFused(std::uint32_t slot);

    Engine &engine_;
    const MeshTopology &topo_;
    NocParams params_;
    Tracer *tracer_ = nullptr;
    Auditor *auditor_ = nullptr;
    SpatialCollector *spatial_ = nullptr;
    Profiler *profiler_ = nullptr;
    /** Busy-until time per directed link, in fractional ticks. */
    std::vector<double> linkFree_;
    /** Parallel to linkFree_; empty = backpressure off. */
    std::vector<Resource *> bpLinks_;
    /** In-flight fused deliveries, recycled through a free list. */
    std::vector<PendingDelivery> fuseSlab_;
    std::uint32_t fuseFreeHead_ = kNoSlot;
    Stats stats_;
};

} // namespace hdpat

#endif // HDPAT_NOC_NETWORK_HH
