/**
 * @file
 * Per-request translation tracing: each sampled memory operation's
 * lifecycle is recorded as a chain of typed span events (issue -> TLB
 * levels -> filter/probe/redirect/walk -> completion) with simulated
 * tick timestamps.
 *
 * Design constraints:
 *  - Off by default: components hold a `Tracer *` that is null unless
 *    tracing was requested, so the hot path pays one pointer test.
 *  - Bounded: records live in a ring buffer; when it wraps, the oldest
 *    records are overwritten (and counted as dropped).
 *  - Sampled: only 1-in-N issued operations open a span, so even long
 *    runs stay cheap and the exported trace stays loadable. The
 *    sampling decision is a pure hash of (owner tile, VPN, issue
 *    tick), never an arrival counter, so serial and runMany
 *    executions sample exactly the same spans.
 *
 * A span is keyed by (owner tile, VPN): the GPM that issued the memory
 * op owns the span, and every component that touches the request on its
 * way across the wafer (peer GPMs, the network, the IOMMU) records
 * events against that key, which all messages already carry.
 */

#ifndef HDPAT_OBS_TRACE_HH
#define HDPAT_OBS_TRACE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace hdpat
{

/** One step in a translation's lifecycle. */
enum class SpanEvent : std::uint8_t
{
    Issue = 0,           ///< Memory op issued; translation begins.
    L1TlbHit,            ///< Hit in the per-CU L1 TLB.
    L2TlbHit,            ///< Hit in the GPM-shared L2 TLB.
    CuckooNegative,      ///< Cuckoo filter ruled out the local path.
    LastLevelTlbHit,     ///< Hit in the last-level TLB (GMMU cache).
    LocalWalkStart,      ///< Local GMMU walk requested.
    LocalWalkHit,        ///< Local walk found the page (homed here).
    CuckooFalsePositive, ///< Local walk missed: filter false positive.
    RemoteStart,         ///< Remote resolution protocol launched.
    RemoteStalled,       ///< Remote MSHR full; op queued for retry.
    ProbeSent,           ///< Peer/neighbour probe sent (arg = target).
    ProbeHit,            ///< A probe answered hit (arg = responder).
    ProbeMiss,           ///< A probe answered miss (arg = responder).
    NetSend,             ///< Message handed to the NoC (arg = dest).
    NetArrive,           ///< Message delivered by the NoC (arg = dest).
    IommuArrive,         ///< Request entered the IOMMU pre-queue.
    IommuAdmit,          ///< Request left the pre-queue (admitted).
    IommuRedirect,       ///< Redirection-table hit (arg = aux tile).
    IommuTlbHit,         ///< Conventional IOMMU-TLB hit (Fig 19 mode).
    IommuWalkStart,      ///< IOMMU page-table walk began.
    IommuWalkDone,       ///< IOMMU page-table walk finished.
    IommuRespond,        ///< IOMMU sent the PFN response.
    RedirectArrive,      ///< Redirected request reached the aux GPM.
    RedirectHit,         ///< Aux GPM served the redirected request.
    RedirectBounce,      ///< Aux copy evicted; bounced to the IOMMU.
    DelegatedWalk,       ///< Trans-FW walk delegated (arg = home).
    GmmuWalkStart,       ///< A GMMU walker picked up the walk.
    GmmuWalkDone,        ///< GMMU walk finished (arg = 1 if mapped).
    Resolved,            ///< Remote PFN obtained (arg = source).
    DataAccess,          ///< Translation done; data access issued.
    Complete,            ///< Memory op completed; span closes.
};

constexpr std::size_t kNumSpanEvents =
    static_cast<std::size_t>(SpanEvent::Complete) + 1;

/** Printable name of a span event (stable; part of the trace schema). */
const char *spanEventName(SpanEvent ev);

/** One recorded span event. */
struct TraceRecord
{
    /** Span this record belongs to (1-based; 0 = invalid). */
    std::uint64_t span = 0;
    Tick tick = 0;
    Vpn vpn = 0;
    /** Event-specific argument (peer tile, TranslationSource, ...). */
    std::uint64_t arg = 0;
    /** GPM that issued the traced op (the span's owner). */
    TileId owner = kInvalidTile;
    /** Tile at which this event happened. */
    TileId at = kInvalidTile;
    SpanEvent event = SpanEvent::Issue;
};

/**
 * Observer of the live record stream. A sink sees every record the
 * tracer accepts — Issue through Complete, in simulation order —
 * before it lands in (and can later be evicted from) the ring, so
 * sinks are immune to ring wrap. The latency-attribution collector
 * (obs/latency.hh) is the canonical implementation.
 */
class SpanSink
{
  public:
    virtual ~SpanSink() = default;
    virtual void onRecord(const TraceRecord &rec) = 0;
};

class Tracer
{
  public:
    /**
     * @param capacity Ring-buffer size in records (> 0).
     * @param sample_n Open a span for 1 in @p sample_n issued ops
     *        (1 = every op; 0 is clamped to 1).
     */
    explicit Tracer(std::size_t capacity = 1u << 20,
                    std::uint64_t sample_n = 1);

    std::uint64_t sampleN() const { return sampleN_; }
    std::size_t capacity() const { return capacity_; }

    /**
     * Open a span for (owner, vpn) if this op is sampled and no span
     * with the same key is already live.
     * @return true when the op is now traced.
     */
    bool begin(TileId owner, Vpn vpn, Tick now);

    /**
     * Would an op keyed (owner, vpn) issued at @p now be sampled?
     * Pure function of its arguments and sampleN(): no tracer state
     * is read or written, which is the determinism contract satellite
     * runs (serial vs runMany) rely on.
     */
    bool sampled(TileId owner, Vpn vpn, Tick now) const;

    /**
     * Attach a record-stream observer (null = none). The sink is
     * notified synchronously for every accepted record, including
     * Issue and Complete.
     */
    void setSink(SpanSink *sink) { sink_ = sink; }

    /** Is a span live for this key? Cheap; safe to call per event. */
    bool active(TileId owner, Vpn vpn) const;

    /** Record one event against a live span (no-op when none). */
    void record(TileId owner, Vpn vpn, Tick now, SpanEvent ev,
                TileId at, std::uint64_t arg = 0);

    /** Record the Complete event and close the span. */
    void end(TileId owner, Vpn vpn, Tick now);

    std::uint64_t opsSeen() const { return opsSeen_; }
    std::uint64_t spansStarted() const { return spansStarted_; }
    std::uint64_t spansCompleted() const { return spansCompleted_; }
    /** Records overwritten by ring wrap-around. */
    std::uint64_t recordsDropped() const { return dropped_; }
    /** Records currently held. */
    std::size_t size() const;

    /** Visit held records, oldest first. */
    void forEachRecord(
        const std::function<void(const TraceRecord &)> &fn) const;

  private:
    struct Key
    {
        TileId owner;
        Vpn vpn;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            // Splitmix-style scramble; exact equality is still checked
            // by the map, this only spreads buckets.
            std::uint64_t x =
                k.vpn * 0x9e3779b97f4a7c15ull +
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(k.owner));
            x ^= x >> 31;
            return static_cast<std::size_t>(x);
        }
    };

    void push(const TraceRecord &rec);

    std::size_t capacity_;
    std::uint64_t sampleN_;
    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0;
    bool wrapped_ = false;

    std::unordered_map<Key, std::uint64_t, KeyHash> live_;
    std::uint64_t nextSpan_ = 1;
    std::uint64_t opsSeen_ = 0;
    std::uint64_t spansStarted_ = 0;
    std::uint64_t spansCompleted_ = 0;
    std::uint64_t dropped_ = 0;
    SpanSink *sink_ = nullptr;
};

} // namespace hdpat

#endif // HDPAT_OBS_TRACE_HH
