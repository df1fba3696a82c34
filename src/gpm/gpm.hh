/**
 * @file
 * A GPU Processing Module: the compute tile of the wafer (Fig 1(b)).
 *
 * Models, per GPM:
 *  - an issue engine aggregating the CUs (issue width + outstanding
 *    memory-operation window);
 *  - the translation hierarchy: L1 TLB -> shared L2 TLB -> cuckoo
 *    filter -> last-level TLB ("GMMU cache") -> GMMU walkers;
 *  - the remote-translation client implementing the active policy
 *    (baseline IOMMU, route-based / concentric / distributed /
 *    cluster+rotation peer caching, Valkyrie neighbour probing);
 *  - the auxiliary-cache server side: peer probes, redirected
 *    requests, proactive PTE pushes, Trans-FW delegated walks;
 *  - the data side: L2 data cache tag array + local HBM, with remote
 *    accesses riding the mesh to the home GPM's HBM.
 */

#ifndef HDPAT_GPM_GPM_HH
#define HDPAT_GPM_GPM_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "config/system_config.hh"
#include "config/translation_policy.hh"
#include "gpm/gmmu.hh"
#include "gpm/stalled_ops.hh"
#include "hdpat/cluster_map.hh"
#include "hdpat/concentric_layers.hh"
#include "iommu/iommu.hh"
#include "iommu/messages.hh"
#include "mem/cuckoo_filter.hh"
#include "mem/dram_model.hh"
#include "mem/mshr.hh"
#include "mem/set_assoc_cache.hh"
#include "mem/tlb.hh"
#include "noc/network.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/engine.hh"
#include "sim/stats.hh"

namespace hdpat
{

/** A hit/miss reply to a peer-cache or neighbour-TLB probe. */
struct ProbeReply
{
    Vpn vpn = 0;
    /** Matches the requester's per-VPN protocol epoch. */
    std::uint64_t epoch = 0;
    bool hit = false;
    Pfn pfn = kInvalidPfn;
    /** Classification when hit (peer / proactive / neighbour). */
    TranslationSource source = TranslationSource::PeerCache;
    /** Tile that answered (receives no fill; misses upstream do). */
    TileId responder = kInvalidTile;
};

/** A sequential probe travelling a chain of caching GPMs. */
struct ChainProbe
{
    Vpn vpn = 0;
    TileId requester = kInvalidTile;
    std::uint64_t epoch = 0;
    Tick issuedAt = 0;
    /** Tiles probed so far (they missed; candidates for fills). */
    std::vector<TileId> visited;
    /** Tiles still to probe, front first. */
    std::vector<TileId> remaining;
};

class Gpm : public PeerEndpoint
{
  public:
    struct Stats
    {
        // Issue engine.
        std::uint64_t opsIssued = 0;
        std::uint64_t opsCompleted = 0;

        // Local translation hierarchy.
        std::uint64_t l1TlbHits = 0;
        std::uint64_t l2TlbHits = 0;
        std::uint64_t cuckooNegatives = 0;
        std::uint64_t cuckooFalsePositives = 0;
        std::uint64_t llTlbHits = 0;
        std::uint64_t localWalks = 0;

        // Remote translation client.
        std::uint64_t remoteOps = 0;
        std::uint64_t remoteResolutions = 0;
        std::uint64_t remoteStalls = 0;
        std::array<std::uint64_t, kNumTranslationSources> sourceCounts{};
        SummaryStat remoteRtt;

        // Auxiliary server side.
        std::uint64_t probesReceived = 0;
        std::uint64_t probeHits = 0;
        std::uint64_t pushesReceived = 0;
        std::uint64_t redirectedReceived = 0;
        std::uint64_t redirectedHits = 0;
        std::uint64_t neighborProbesReceived = 0;
        std::uint64_t neighborProbeHits = 0;
        std::uint64_t delegatedWalks = 0;

        // Data side.
        std::uint64_t dataCacheHits = 0;
        std::uint64_t dataLocalAccesses = 0;
        std::uint64_t dataRemoteAccesses = 0;

        // Tenancy (all zero in single-tenant runs).
        /** Installs dropped because the PTE changed mid-flight. */
        std::uint64_t staleInstallsBlocked = 0;
        /** Shootdown invalidations delivered to this tile. */
        std::uint64_t invalidationsReceived = 0;

        Tick finishTick = 0;
        bool finished = false;
    };

    Gpm(TileId tile, Engine &engine, Network &net, GlobalPageTable &pt,
        const SystemConfig &cfg, const TranslationPolicy &pol);

    /** Wire up system-level structures (called once by System). */
    void connect(Iommu *iommu, const ConcentricLayers *layers,
                 const ClusterMap *cluster_map,
                 const DistributedGroups *groups,
                 const std::vector<Gpm *> *gpms_by_tile);

    /** Valkyrie: the neighbour GPM whose L2 TLB this GPM probes. */
    void setNeighborTarget(TileId neighbor) { neighborTile_ = neighbor; }

    /**
     * Pre-populate the cuckoo filter with the VPNs homed on this GPM
     * (the local page table always maps them), in order, as one
     * prefetched batch.
     */
    void seedLocalPages(std::span<const Vpn> vpns);

    /**
     * Assign this GPM's slice of the workload: the addresses it
     * issues, in order. The caller keeps @p ops alive until the run
     * ends.
     */
    void setWork(std::span<const Addr> ops);

    /**
     * Address space newly issued ops translate under (tenancy). Ops
     * already in flight keep the key they bound at issue time, so a
     * context switch never re-tags live requests. ASID 0 (the default)
     * tags keys to the identity.
     */
    void setActiveAsid(Asid asid) { activeAsid_ = asid; }
    Asid activeAsid() const { return activeAsid_; }

    /**
     * Override the issue engine for the loaded workload.
     *
     * @param ops_per_cycle Aggregate memory-op issue rate (compute
     *        intensity); <= 0 keeps the SystemConfig issue width.
     * @param max_outstanding Outstanding-op window; <= 0 keeps the
     *        SystemConfig default.
     */
    void setIssueParams(double ops_per_cycle, int max_outstanding);

    /** Callback fired once when this GPM drains its work. */
    void setOnFinished(std::function<void(TileId)> cb);

    /** Begin issuing (schedules the first issue event). */
    void start();

    /**
     * TLB shootdown of one page (§II-A: only needed when freeing
     * memory): drops every cached copy from the local hierarchy and
     * keeps the cuckoo filter consistent.
     * @return Number of TLB entries invalidated.
     */
    std::size_t shootdown(Vpn vpn);

    /**
     * Async shootdown protocol: an invalidation packet arrived over
     * the NoC (the controller sends the ack once this returns).
     */
    std::size_t receiveInvalidate(Vpn vpn)
    {
        ++stats_.invalidationsReceived;
        return shootdown(vpn);
    }

    /**
     * End-of-run staleness sweep (tenancy oracle): every translation
     * still resident in this GPM's TLBs must match the page table; an
     * entry that survived its page's shootdown is reported to
     * @p auditor as a violation.
     */
    void sweepResidentTranslations(Auditor &auditor) const;

    /**
     * Per-request span tracer (null = off). Forwarded to the GMMU;
     * sampled issue events open spans, every later stage records
     * against them.
     */
    void setTracer(Tracer *tracer);

    /**
     * Conservation auditor (null = off): audits op issue/retire, MSHR
     * alloc/free, and last-level TLB fill/evict balance, and registers
     * this GPM's queues as end-of-run drain probes.
     */
    void setAuditor(Auditor *auditor);

    /** Host self-profiler for the translation path (null = off). */
    void setProfiler(Profiler *profiler) { profiler_ = profiler; }

    /**
     * Register this GPM's bounded structures with the backpressure
     * collector (remote + local-walk MSHRs, stalled-remote queue,
     * LL-TLB residency, GMMU walk queue + walker pool).
     */
    void setBackpressure(BackpressureCollector &bp);

    /** Register this GPM's metrics under @p prefix (e.g. "gpm.t3."). */
    void registerMetrics(MetricRegistry &reg,
                         const std::string &prefix) const;

    /**
     * Register the tenancy-only counters. Split from registerMetrics
     * so single-tenant metric dumps stay byte-identical.
     */
    void registerTenancyMetrics(MetricRegistry &reg,
                                const std::string &prefix) const;

    TileId tile() const { return tile_; }
    bool finished() const { return stats_.finished; }
    Tick finishTick() const { return stats_.finishTick; }
    /** Memory ops currently in flight (issued, not yet completed). */
    int outstandingOps() const { return outstanding_; }
    const Stats &stats() const { return stats_; }

    DramModel &dram() { return dram_; }
    const Tlb &l2Tlb() const { return l2Tlb_; }
    const Tlb &lastLevelTlb() const { return llTlb_; }
    const CuckooFilter &cuckooFilter() const { return cuckoo_; }
    const Gmmu &gmmu() const { return gmmu_; }

    // ---- PeerEndpoint (messages from the IOMMU) ----------------------
    void receivePtePush(Vpn vpn, Pfn pfn, bool prefetched) override;
    void receiveRedirectedRequest(const RemoteRequest &req) override;
    void receiveTranslationResponse(Vpn vpn, Pfn pfn,
                                    TranslationSource source) override;
    void receiveDelegatedWalk(const RemoteRequest &req) override;

    // ---- Peer-to-peer handlers ---------------------------------------
    /** Concurrent cluster+rotation probe (§IV-D). */
    void receiveProbe(Vpn vpn, TileId requester, std::uint64_t epoch);
    /** Sequential chain probe (route-based / concentric / distributed). */
    void receiveChainProbe(ChainProbe probe);
    /** Valkyrie neighbour L2-TLB probe. */
    void receiveNeighborProbe(Vpn vpn, TileId requester,
                              std::uint64_t epoch);
    /** Reply to any probe this GPM sent. */
    void receiveProbeReply(const ProbeReply &reply);

  private:
    /** Remote-resolution protocol state for one in-flight VPN. */
    struct RemoteCtx
    {
        Tick startTick = 0;
        std::uint64_t epoch = 0;
        int probesOutstanding = 0;
        bool resolved = false;
        bool sentToIommu = false;
        /** Chain tiles eligible for a fill push on resolution. */
        std::vector<TileId> fillTargets;
    };

    // ---- Issue engine (gpm.cc) ---------------------------------------
    void tryIssue();
    void beginOp(Addr va, Vpn key);
    void completeOpAt(Tick when, Vpn vpn);
    /** The retire body (runs at the completion tick's event). */
    void completeOpNow(Vpn vpn);
    void checkFinished();

    /** Translation key (ASID-tagged VPN) an op issued now binds to. */
    Vpn keyOf(Addr va) const
    {
        return asidKey(activeAsid_, pt_.vpnOf(va));
    }

    /** Record a span event against this GPM's own span for @p vpn. */
    void trace(Vpn vpn, SpanEvent ev, std::uint64_t arg = 0)
    {
        if (tracer_) [[unlikely]]
            tracer_->record(tile_, vpn, engine_.now(), ev, tile_, arg);
    }

    // ---- Local translation path (gpm.cc) -----------------------------
    void translate(Addr va, Vpn key);
    void onLocalWalkDone(Addr va, Vpn vpn, std::optional<Pfn> pfn);
    void fillLocalHierarchy(Vpn vpn, Pfn pfn, bool remote);
    void insertLastLevel(Vpn vpn, Pfn pfn, bool remote, bool prefetched);

    /**
     * Install-time revalidation gate (tenancy): once any page was ever
     * unmapped, a resolution may only be cached if the page table
     * still maps @p vpn to @p pfn -- an in-flight walk that sampled a
     * PTE before an unmap must not re-install it after the shootdown.
     * Free when no unmap ever happened (the single-tenant fast path).
     */
    bool installAllowed(Vpn vpn, Pfn pfn);

    // ---- Data path (gpm.cc) ------------------------------------------
    void dataAccess(Addr va, Vpn key, Tick when);
    void dataAccessNow(Addr va, Vpn key);

    // ---- Remote client (translation_client.cc) -----------------------
    void startRemote(Addr va, Vpn key, Tick when);
    void launchRemoteProtocol(Vpn vpn);
    void launchClusterProbes(Vpn vpn, RemoteCtx &ctx);
    void launchChain(Vpn vpn, RemoteCtx &ctx, std::vector<TileId> chain,
                     bool fill_on_resolve = true);
    void launchNeighborProbe(Vpn vpn, RemoteCtx &ctx);
    void sendToIommu(Vpn vpn, Tick issued_at);
    void resolveRemote(Vpn vpn, Pfn pfn, TranslationSource source);
    /** Retry the parked ops the resolution of @p resolved lets through. */
    void wakeStalledRemote(Vpn resolved);

    /** Chain construction helpers. */
    std::vector<TileId> buildRouteChain() const;
    std::vector<TileId> buildConcentricChain() const;
    TileId nearestInLayerExcluding(int layer, TileId from,
                                   TileId exclude) const;

    /** Probe service shared by receiveProbe/receiveChainProbe. */
    void probeLookup(
        Vpn vpn,
        const std::function<void(Tick extra_latency, bool hit, Pfn pfn,
                                 bool prefetched)> &done,
        TileId trace_owner = kInvalidTile);

    void replyProbe(TileId to, const ProbeReply &reply,
                    Tick extra_latency);

    // ---- Members -------------------------------------------------------
    TileId tile_;
    Engine &engine_;
    Network &net_;
    GlobalPageTable &pt_;
    const SystemConfig &cfg_;
    TranslationPolicy pol_;

    Iommu *iommu_ = nullptr;
    Tracer *tracer_ = nullptr;
    Auditor *auditor_ = nullptr;
    Profiler *profiler_ = nullptr;
    const ConcentricLayers *layers_ = nullptr;
    const ClusterMap *clusterMap_ = nullptr;
    const DistributedGroups *groups_ = nullptr;
    const std::vector<Gpm *> *gpms_ = nullptr;
    TileId neighborTile_ = kInvalidTile;

    // Translation hierarchy.
    Tlb l1Tlb_;
    Tlb l2Tlb_;
    CuckooFilter cuckoo_;
    Tlb llTlb_;
    Gmmu gmmu_;

    // Data side.
    SetAssocCache dataCache_;
    DramModel dram_;

    /** Coalesces concurrent local walks of the same VPN (unbounded). */
    MshrFile localWalkMshr_{0};

    // Remote client state.
    MshrFile remoteMshr_;
    std::unordered_map<Vpn, RemoteCtx> remoteCtx_;
    /** Ops waiting for a free remote MSHR, with their issue-time keys. */
    StalledOps stalledRemote_;
    /** Scratch for wakeStalledRemote (kept to avoid reallocating). */
    std::vector<StalledOps::Op> wokenRemote_;
    /** L2 TLB inserts made by fillLocalHierarchy (stall invariant 3). */
    std::uint64_t l2Fills_ = 0;
    std::uint64_t epochCounter_ = 0;

    /** Address space newly issued ops bind to (0 = identity). */
    Asid activeAsid_ = 0;

    // Backpressure resources (null = off); the MSHR files report
    // through their own pressure hooks instead.
    Resource *bpStalledRemote_ = nullptr;
    Resource *bpLlTlb_ = nullptr;

    // Issue engine state.
    std::span<const Addr> ops_;
    /** Index of the next op to issue. */
    std::size_t next_ = 0;
    /** Set by the first draw past the end of ops_. */
    bool streamDone_ = false;
    int outstanding_ = 0;
    /** Memory-op issue rate (ops/cycle) and window for this run. */
    double issueRate_;
    int issueWindow_;
    /** Fractional time the next op may issue at. */
    double nextIssueTime_ = 0.0;
    bool issueScheduled_ = false;
    std::function<void(TileId)> onFinished_;

    Stats stats_;
};

} // namespace hdpat

#endif // HDPAT_GPM_GPM_HH
