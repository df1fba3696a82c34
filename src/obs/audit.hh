/**
 * @file
 * Conservation auditor: checks lifecycle invariants of a run.
 *
 * Components feed the auditor through the same instrumentation points
 * the span tracer uses (issue/retire, NoC send/deliver, MSHR
 * alloc/free, last-level-TLB fill/evict). At run end finalize()
 * verifies:
 *
 *  - every issued memory operation retired exactly once (double
 *    retires and retires without a matching issue are flagged live);
 *  - NoC packets sent == packets delivered, per plane (control/data);
 *  - MSHR allocations == MSHR frees, per tile;
 *  - last-level TLB fills - evictions == final occupancy, per tile;
 *  - every registered end-of-run queue probe reads zero.
 *
 * On violation the auditor produces a structured diagnostic: the stuck
 * (tile, VPN) spans with their issue ticks, per-tile in-flight counts,
 * and the deepest queues — the same dump the stall watchdog attaches
 * to its abort message.
 *
 * Like the tracer, the auditor is opt-in: components hold an
 * `Auditor *` that is null unless auditing was requested, so the hot
 * path pays one pointer test when it is off.
 */

#ifndef HDPAT_OBS_AUDIT_HH
#define HDPAT_OBS_AUDIT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace hdpat
{

class Auditor
{
  public:
    /** NoC planes packets are conserved over, split by payload size. */
    enum class Plane : std::uint8_t { Control = 0, Data = 1 };
    static constexpr std::size_t kNumPlanes = 2;

    /** Control plane carries the 32-byte translation messages. */
    static Plane planeOf(std::size_t bytes)
    {
        return bytes <= 32 ? Plane::Control : Plane::Data;
    }
    static const char *planeName(Plane plane)
    {
        return plane == Plane::Control ? "control" : "data";
    }

    /** End-of-run verdict. */
    struct Report
    {
        bool ok = true;
        /** One line per violated invariant. */
        std::vector<std::string> violations;
        /** Structured dump (stuck spans, in-flight, deepest queues). */
        std::string diagnostic;
    };

    // ---- Lifecycle hooks (hot path; all O(1)) ------------------------
    void opIssued(TileId tile, Vpn vpn, Tick now);
    void opRetired(TileId tile, Vpn vpn, Tick now);

    /**
     * A translation resolved somewhere in the hierarchy and is about
     * to be installed at @p tile. When a reference translator is set
     * (see setReferenceTranslator), the PPN is checked against a
     * direct walk of the page table: a mismatch means some policy
     * path (peer probe, redirection, prefetch, delegation, ...)
     * delivered the wrong frame — the paper's core correctness
     * requirement, identical under every policy.
     */
    void pfnResolved(TileId tile, Vpn vpn, Pfn pfn, Tick now);

    /**
     * Install the reference VPN->PPN mapping (a direct page-table
     * walk). Returning nullopt means "unmapped" (e.g. after a
     * shootdown) and skips the check for that VPN.
     */
    void
    setReferenceTranslator(std::function<std::optional<Pfn>(Vpn)> ref)
    {
        reference_ = std::move(ref);
    }

    void packetSent(std::size_t bytes)
    {
        ++sent_[static_cast<std::size_t>(planeOf(bytes))];
    }
    void packetDelivered(std::size_t bytes)
    {
        ++delivered_[static_cast<std::size_t>(planeOf(bytes))];
    }

    void mshrAllocated(TileId tile) { ++mshr_[tile].allocated; }
    void mshrFreed(TileId tile) { ++mshr_[tile].freed; }

    void tlbFilled(TileId tile) { ++tlb_[tile].filled; }
    void tlbEvicted(TileId tile) { ++tlb_[tile].evicted; }

    // ---- Shootdown conservation (tenancy churn) ----------------------
    /**
     * A shootdown round opened for @p vpn, expecting one ack from each
     * of @p targets holder tiles. Overlapping rounds for the same key
     * are a protocol violation (the controller must serialize them).
     */
    void shootdownIssued(Vpn vpn, std::size_t targets, Tick now);

    /**
     * Tile @p tile acked the open round for @p vpn. Exactly one ack
     * per target per round: duplicates and acks without an open round
     * are flagged live. The round closes when all targets acked.
     */
    void invalidationAcked(Vpn vpn, TileId tile, Tick now);

    /**
     * End-of-run staleness sweep: a TLB at @p tile still holds
     * vpn -> pfn although the page table disavows it -- a stale
     * install survived its shootdown.
     */
    void staleResident(TileId tile, Vpn vpn, Pfn pfn);

    // ---- Probes read at finalize() -----------------------------------
    /**
     * Register a queue whose depth must be zero once the run drains.
     * Also feeds the "deepest queues" section of the diagnostic.
     */
    void addQueueProbe(std::string name,
                       std::function<std::size_t()> depth);

    /** Final occupancy of @p tile's audited (last-level) TLB. */
    void setTlbOccupancyProbe(TileId tile,
                              std::function<std::size_t()> occupancy);

    // ---- End of run ---------------------------------------------------
    /** Check every invariant; call after the event queue drains. */
    Report finalize() const;

    /**
     * The structured dump alone (stuck spans, per-tile in-flight
     * counts, deepest queues). Safe to call mid-run; the stall
     * watchdog uses it for its abort message.
     */
    std::string diagnostic() const;

    /**
     * Order-independent digest of the per-(tile, VPN) retire
     * multiplicities. Two runs of the same spec — serial or parallel,
     * any runMany ordering — must produce the same census hash; a
     * divergence means some page retired a different number of times.
     */
    std::uint64_t retireCensusHash() const;

    // ---- Introspection (tests) ---------------------------------------
    std::uint64_t issued() const { return issued_; }
    std::uint64_t retired() const { return retired_; }
    std::uint64_t inFlight() const { return inFlightTotal_; }
    std::uint64_t pfnChecks() const { return pfnChecks_; }
    std::uint64_t pfnMismatches() const { return pfnMismatches_; }
    std::uint64_t distinctRetiredPages() const
    {
        return retireCensus_.size();
    }
    std::uint64_t packetsSent(Plane p) const
    {
        return sent_[static_cast<std::size_t>(p)];
    }
    std::uint64_t packetsDelivered(Plane p) const
    {
        return delivered_[static_cast<std::size_t>(p)];
    }
    std::uint64_t shootdownRounds() const { return shootdownRounds_; }
    std::uint64_t shootdownRoundsClosed() const
    {
        return shootdownRoundsClosed_;
    }
    std::uint64_t invalidationAcks() const { return acksTotal_; }
    std::uint64_t staleResidents() const { return staleResidents_; }

  private:
    /** In-flight ops for one (tile, VPN); ops to one page can overlap. */
    struct Flight
    {
        std::uint32_t count = 0;
        Tick earliestIssue = 0;
    };
    struct Key
    {
        TileId tile;
        Vpn vpn;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            // Same splitmix-style scramble as the tracer's span key.
            std::uint64_t x =
                k.vpn * 0x9e3779b97f4a7c15ull +
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(k.tile));
            x ^= x >> 31;
            return static_cast<std::size_t>(x);
        }
    };
    struct MshrBalance
    {
        std::uint64_t allocated = 0;
        std::uint64_t freed = 0;
    };
    struct TlbBalance
    {
        std::uint64_t filled = 0;
        std::uint64_t evicted = 0;
    };
    struct QueueProbe
    {
        std::string name;
        std::function<std::size_t()> depth;
    };

    /** One in-flight shootdown round (acks still outstanding). */
    struct ShootdownRound
    {
        std::size_t targets = 0;
        std::vector<TileId> acked;
    };

    std::unordered_map<Key, Flight, KeyHash> inFlight_;
    /** Lifetime retire count per (tile, VPN), for the census hash. */
    std::unordered_map<Key, std::uint64_t, KeyHash> retireCensus_;
    std::uint64_t inFlightTotal_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t retired_ = 0;
    std::function<std::optional<Pfn>(Vpn)> reference_;
    std::uint64_t pfnChecks_ = 0;
    std::uint64_t pfnMismatches_ = 0;
    std::uint64_t sent_[kNumPlanes] = {0, 0};
    std::uint64_t delivered_[kNumPlanes] = {0, 0};
    // Ordered maps: violation and diagnostic text comes out in tile
    // order, deterministically.
    std::map<TileId, MshrBalance> mshr_;
    std::map<TileId, TlbBalance> tlb_;
    std::map<TileId, std::function<std::size_t()>> tlbOccupancy_;
    std::vector<QueueProbe> queues_;
    /**
     * Open shootdown rounds (key -> outstanding acks), ordered so
     * never-closed violations come out in ascending key order.
     */
    std::map<Vpn, ShootdownRound> openRounds_;
    std::uint64_t shootdownRounds_ = 0;
    std::uint64_t shootdownRoundsClosed_ = 0;
    std::uint64_t acksTotal_ = 0;
    std::uint64_t staleResidents_ = 0;
    /** Violations detected live (double retire, spurious retire). */
    std::vector<std::string> liveViolations_;
};

} // namespace hdpat

#endif // HDPAT_OBS_AUDIT_HH
