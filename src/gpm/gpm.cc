#include "gpm/gpm.hh"

#include <utility>

#include "obs/audit.hh"
#include "obs/profiler.hh"
#include "sim/log.hh"

namespace hdpat
{

Gpm::Gpm(TileId tile, Engine &engine, Network &net, GlobalPageTable &pt,
         const SystemConfig &cfg, const TranslationPolicy &pol)
    : tile_(tile), engine_(engine), net_(net), pt_(pt), cfg_(cfg),
      pol_(pol),
      l1Tlb_(cfg.l1Tlb.sets, cfg.l1Tlb.ways),
      l2Tlb_(cfg.l2Tlb.sets, cfg.l2Tlb.ways),
      cuckoo_(cfg.cuckooCapacity, 12,
              0x1234abcdu ^ static_cast<std::uint64_t>(tile)),
      llTlb_(cfg.lastLevelTlb.sets, cfg.lastLevelTlb.ways),
      gmmu_(engine, pt, tile, cfg.gmmuWalkers, cfg.gmmuWalkLatency,
            cfg.gmmuPwcEntriesPerLevel),
      dataCache_(cfg.l2CacheBytes, cfg.l2CacheWays, cfg.cacheLineBytes),
      dram_(cfg.hbmLatency, cfg.hbmBytesPerTick),
      remoteMshr_(cfg.l2Tlb.mshrs),
      issueRate_(static_cast<double>(cfg.issueWidth)),
      issueWindow_(cfg.maxOutstandingOps)
{
}

void
Gpm::setIssueParams(double ops_per_cycle, int max_outstanding)
{
    if (ops_per_cycle > 0.0)
        issueRate_ = ops_per_cycle;
    if (max_outstanding > 0)
        issueWindow_ = max_outstanding;
}

void
Gpm::connect(Iommu *iommu, const ConcentricLayers *layers,
             const ClusterMap *cluster_map,
             const DistributedGroups *groups,
             const std::vector<Gpm *> *gpms_by_tile)
{
    iommu_ = iommu;
    layers_ = layers;
    clusterMap_ = cluster_map;
    groups_ = groups;
    gpms_ = gpms_by_tile;
}

void
Gpm::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    gmmu_.setTracer(tracer);
}

void
Gpm::setAuditor(Auditor *auditor)
{
    auditor_ = auditor;
    const std::string prefix = "gpm.t" + std::to_string(tile_) + ".";
    const TileId tile = tile_;
    const auto mshr_hook = [auditor, tile](bool allocated) {
        if (allocated)
            auditor->mshrAllocated(tile);
        else
            auditor->mshrFreed(tile);
    };
    remoteMshr_.setAuditHook(mshr_hook);
    localWalkMshr_.setAuditHook(mshr_hook);
    auditor->setTlbOccupancyProbe(
        tile_, [this] { return llTlb_.occupancy(); });
    auditor->addQueueProbe(prefix + "remote_mshr",
                           [this] { return remoteMshr_.occupancy(); });
    auditor->addQueueProbe(
        prefix + "local_walk_mshr",
        [this] { return localWalkMshr_.occupancy(); });
    auditor->addQueueProbe(prefix + "stalled_remote",
                           [this] { return stalledRemote_.size(); });
    auditor->addQueueProbe(prefix + "remote_ctx",
                           [this] { return remoteCtx_.size(); });
    auditor->addQueueProbe(prefix + "gmmu_queue",
                           [this] { return gmmu_.queueDepth(); });
}

void
Gpm::setBackpressure(BackpressureCollector &bp)
{
    const std::string prefix = "gpm.t" + std::to_string(tile_) + ".";
    const auto mshr_hook = [this](Resource *res) {
        return [this, res](MshrFile::PressureEvent ev, std::uint64_t n) {
            switch (ev) {
              case MshrFile::PressureEvent::Alloc:
                res->arrive(engine_.now());
                break;
              case MshrFile::PressureEvent::Free:
                res->depart(engine_.now());
                break;
              case MshrFile::PressureEvent::Reject:
                res->reject(n);
                break;
            }
        };
    };
    remoteMshr_.setPressureHook(mshr_hook(bp.add(
        prefix + "remote_mshr", ResourceKind::Mshr, cfg_.l2Tlb.mshrs)));
    localWalkMshr_.setPressureHook(mshr_hook(
        bp.add(prefix + "local_walk_mshr", ResourceKind::Mshr, 0)));
    bpStalledRemote_ =
        bp.add(prefix + "stalled_remote", ResourceKind::Queue, 0);
    bpLlTlb_ = bp.add(prefix + "ll_tlb", ResourceKind::Residency,
                      static_cast<std::uint64_t>(cfg_.lastLevelTlb.sets) *
                          cfg_.lastLevelTlb.ways);
    gmmu_.setBackpressure(
        bp.add(prefix + "gmmu.queue", ResourceKind::Queue, 0),
        bp.add(prefix + "gmmu.walkers", ResourceKind::Pool,
               cfg_.gmmuWalkers));
}

void
Gpm::registerMetrics(MetricRegistry &reg,
                     const std::string &prefix) const
{
    reg.addCounter(prefix + "ops_issued", &stats_.opsIssued);
    reg.addCounter(prefix + "ops_completed", &stats_.opsCompleted);
    reg.addCounter(prefix + "l1_tlb_hits", &stats_.l1TlbHits);
    reg.addCounter(prefix + "l2_tlb_hits", &stats_.l2TlbHits);
    reg.addCounter(prefix + "cuckoo_negatives",
                   &stats_.cuckooNegatives);
    reg.addCounter(prefix + "cuckoo_false_positives",
                   &stats_.cuckooFalsePositives);
    reg.addCounter(prefix + "ll_tlb_hits", &stats_.llTlbHits);
    reg.addCounter(prefix + "local_walks", &stats_.localWalks);
    reg.addCounter(prefix + "remote_ops", &stats_.remoteOps);
    reg.addCounter(prefix + "remote_resolutions",
                   &stats_.remoteResolutions);
    reg.addCounter(prefix + "remote_stalls", &stats_.remoteStalls);
    for (std::size_t i = 0; i < kNumTranslationSources; ++i) {
        reg.addCounter(
            prefix + "source." +
                translationSourceName(static_cast<TranslationSource>(i)),
            &stats_.sourceCounts[i]);
    }
    reg.addSummary(prefix + "remote_rtt", &stats_.remoteRtt);
    reg.addCounter(prefix + "probes_received", &stats_.probesReceived);
    reg.addCounter(prefix + "probe_hits", &stats_.probeHits);
    reg.addCounter(prefix + "pushes_received", &stats_.pushesReceived);
    reg.addCounter(prefix + "redirected_received",
                   &stats_.redirectedReceived);
    reg.addCounter(prefix + "redirected_hits", &stats_.redirectedHits);
    reg.addCounter(prefix + "neighbor_probes_received",
                   &stats_.neighborProbesReceived);
    reg.addCounter(prefix + "neighbor_probe_hits",
                   &stats_.neighborProbeHits);
    reg.addCounter(prefix + "delegated_walks", &stats_.delegatedWalks);
    reg.addCounter(prefix + "data_cache_hits", &stats_.dataCacheHits);
    reg.addCounter(prefix + "data_local_accesses",
                   &stats_.dataLocalAccesses);
    reg.addCounter(prefix + "data_remote_accesses",
                   &stats_.dataRemoteAccesses);
    gmmu_.registerMetrics(reg, prefix + "gmmu.");
}

void
Gpm::registerTenancyMetrics(MetricRegistry &reg,
                            const std::string &prefix) const
{
    reg.addCounter(prefix + "stale_installs_blocked",
                   &stats_.staleInstallsBlocked);
    reg.addCounter(prefix + "invalidations_received",
                   &stats_.invalidationsReceived);
}

std::size_t
Gpm::shootdown(Vpn vpn)
{
    std::size_t invalidated = 0;
    invalidated += l1Tlb_.invalidate(vpn).has_value();
    invalidated += l2Tlb_.invalidate(vpn).has_value();
    const auto ll_entry = llTlb_.invalidate(vpn);
    if (ll_entry) {
        ++invalidated;
        if (auditor_) [[unlikely]]
            auditor_->tlbEvicted(tile_);
        if (bpLlTlb_) [[unlikely]]
            bpLlTlb_->depart(engine_.now());
        if (ll_entry->remote)
            cuckoo_.erase(vpn);
    }
    // The permanent filter entry for a locally homed page goes too:
    // the page is being freed from the local page table. lastHomeOf,
    // not homeOf: the async shootdown unmaps before the invalidation
    // reaches this tile, and the filter entry must still come out.
    if (pt_.lastHomeOf(vpn) == tile_)
        cuckoo_.erase(vpn);
    return invalidated;
}

void
Gpm::sweepResidentTranslations(Auditor &auditor) const
{
    const auto check = [this, &auditor](Vpn vpn, Pfn pfn) {
        const Pte *pte = pt_.translate(vpn);
        if (!pte || pte->pfn != pfn)
            auditor.staleResident(tile_, vpn, pfn);
    };
    l1Tlb_.forEachValid(check);
    l2Tlb_.forEachValid(check);
    llTlb_.forEachValid(check);
}

void
Gpm::setWork(std::span<const Addr> ops)
{
    ops_ = ops;
}

void
Gpm::setOnFinished(std::function<void(TileId)> cb)
{
    onFinished_ = std::move(cb);
}

void
Gpm::seedLocalPages(std::span<const Vpn> vpns)
{
    // The cuckoo filter tracks everything translatable locally; local
    // pages are permanently present (paper §II-B).
    cuckoo_.insertBatch(vpns);
}

void
Gpm::start()
{
    if (!issueScheduled_) {
        issueScheduled_ = true;
        engine_.scheduleIn(0, [this] {
            issueScheduled_ = false;
            tryIssue();
        });
    }
}

// ---------------------------------------------------------------------
// Issue engine
// ---------------------------------------------------------------------

void
Gpm::tryIssue()
{
    if (streamDone_)
        return;

    const double now = static_cast<double>(engine_.now());
    // Idle slots are not banked: a window-full stall does not earn a
    // catch-up burst once completions arrive.
    if (nextIssueTime_ < now)
        nextIssueTime_ = now;

    // Issue every op whose slot falls within the current cycle. An op
    // only ever completes in a later event, so the window count below
    // covers every op issued here.
    while (outstanding_ < issueWindow_ && nextIssueTime_ < now + 1.0) {
        if (next_ == ops_.size()) {
            streamDone_ = true;
            break;
        }
        const Addr va = ops_[next_++];
        ++outstanding_;
        ++stats_.opsIssued;
        nextIssueTime_ += 1.0 / issueRate_;
        beginOp(va, keyOf(va));
    }
    if (streamDone_) {
        checkFinished();
        return;
    }

    // Out of this cycle's issue budget but the window has room:
    // continue when the next slot arrives. (A full window resumes
    // from completions instead.)
    if (outstanding_ < issueWindow_ && !issueScheduled_) {
        issueScheduled_ = true;
        const Tick wake = static_cast<Tick>(nextIssueTime_) + 1;
        engine_.scheduleAt(wake, [this] {
            issueScheduled_ = false;
            tryIssue();
        });
    }
}

void
Gpm::beginOp(Addr va, Vpn key)
{
    // The key is bound here, once, under the ASID active at issue
    // time; every later stage of the op (translation, remote protocol,
    // data access, retire) carries it unchanged, so a context switch
    // mid-flight never re-tags a live request.
    if (tracer_) [[unlikely]]
        tracer_->begin(tile_, key, engine_.now());
    if (auditor_) [[unlikely]]
        auditor_->opIssued(tile_, key, engine_.now());
    translate(va, key);
}

void
Gpm::completeOpAt(Tick when, Vpn vpn)
{
    engine_.scheduleAt(when, [this, vpn] { completeOpNow(vpn); });
}

void
Gpm::completeOpNow(Vpn vpn)
{
    hdpat_panic_if(outstanding_ <= 0, "op completion underflow");
    --outstanding_;
    ++stats_.opsCompleted;
    if (tracer_) [[unlikely]]
        tracer_->end(tile_, vpn, engine_.now());
    if (auditor_) [[unlikely]]
        auditor_->opRetired(tile_, vpn, engine_.now());
    tryIssue();
    checkFinished();
}

void
Gpm::checkFinished()
{
    if (streamDone_ && outstanding_ == 0 && !stats_.finished) {
        stats_.finished = true;
        stats_.finishTick = engine_.now();
        if (onFinished_)
            onFinished_(tile_);
    }
}

// ---------------------------------------------------------------------
// Local translation path (Fig 10(a))
// ---------------------------------------------------------------------

void
Gpm::translate(Addr va, Vpn key)
{
    const ProfScope prof(profiler_, ProfSection::Translate);
    const Vpn vpn = key;
    Tick t = engine_.now() + cfg_.l1Tlb.latency;

    if (l1Tlb_.lookup(vpn)) {
        ++stats_.l1TlbHits;
        trace(vpn, SpanEvent::L1TlbHit);
        dataAccess(va, vpn, t);
        return;
    }

    t += cfg_.l2Tlb.latency;
    if (auto pfn = l2Tlb_.lookup(vpn)) {
        ++stats_.l2TlbHits;
        trace(vpn, SpanEvent::L2TlbHit);
        l1Tlb_.insert(vpn, *pfn);
        dataAccess(va, vpn, t);
        return;
    }

    t += cfg_.cuckooLatency;
    if (!cuckoo_.contains(vpn)) {
        // Negative: guaranteed absent from the last-level TLB and the
        // local page table; go remote immediately.
        ++stats_.cuckooNegatives;
        trace(vpn, SpanEvent::CuckooNegative);
        startRemote(va, vpn, t);
        return;
    }

    t += cfg_.lastLevelTlb.latency;
    if (const TlbEntry *entry = llTlb_.lookupEntry(vpn)) {
        ++stats_.llTlbHits;
        trace(vpn, SpanEvent::LastLevelTlbHit);
        fillLocalHierarchy(vpn, entry->pfn, entry->remote);
        dataAccess(va, vpn, t);
        return;
    }

    // Walk the local page table; a miss there means the cuckoo filter
    // answered a false positive and the request continues remotely
    // (the "doubled latency" case of §II-B).
    engine_.scheduleAt(t, [this, va, vpn] {
        ++stats_.localWalks;
        trace(vpn, SpanEvent::LocalWalkStart);
        const auto outcome = localWalkMshr_.registerMiss(
            vpn, [this, va](Vpn v, Pfn pfn) {
                onLocalWalkDone(va, v,
                                pfn == kInvalidPfn
                                    ? std::nullopt
                                    : std::optional<Pfn>(pfn));
            });
        if (outcome == MshrFile::Outcome::Allocated) {
            gmmu_.requestWalk(
                vpn,
                [this](Vpn v, std::optional<Pfn> p) {
                    localWalkMshr_.resolve(v, p.value_or(kInvalidPfn));
                },
                tile_);
        }
    });
}

void
Gpm::onLocalWalkDone(Addr va, Vpn vpn, std::optional<Pfn> pfn)
{
    if (pfn) {
        trace(vpn, SpanEvent::LocalWalkHit);
        insertLastLevel(vpn, *pfn, /*remote=*/false,
                        /*prefetched=*/false);
        fillLocalHierarchy(vpn, *pfn, /*remote=*/false);
        dataAccess(va, vpn, engine_.now());
        return;
    }
    ++stats_.cuckooFalsePositives;
    trace(vpn, SpanEvent::CuckooFalsePositive);
    startRemote(va, vpn, engine_.now());
}

bool
Gpm::installAllowed(Vpn vpn, Pfn pfn)
{
    // No unmap ever happened: nothing can be stale, and the gate must
    // cost nothing (single-tenant runs stay bitwise identical).
    if (pt_.mutationEpoch() == 0) [[likely]]
        return true;
    const Pte *pte = pt_.translate(vpn);
    if (pte && pte->pfn == pfn)
        return true;
    ++stats_.staleInstallsBlocked;
    return false;
}

void
Gpm::fillLocalHierarchy(Vpn vpn, Pfn pfn, bool remote)
{
    // Every resolution path (local walk, peer probe, IOMMU response,
    // proactive push, delegated walk) funnels through here or through
    // insertLastLevel before the PPN becomes visible, so these two are
    // where the auditor checks it against the reference page walk --
    // and where stale results from walks that raced an unmap are
    // dropped instead of cached.
    if (!installAllowed(vpn, pfn))
        return;
    if (auditor_) [[unlikely]]
        auditor_->pfnResolved(tile_, vpn, pfn, engine_.now());
    l2Tlb_.insert(vpn, pfn, remote);
    ++l2Fills_;
    if (!stalledRemote_.empty())
        stalledRemote_.noteL2Insert(vpn);
    l1Tlb_.insert(vpn, pfn, remote);
}

void
Gpm::insertLastLevel(Vpn vpn, Pfn pfn, bool remote, bool prefetched)
{
    if (!installAllowed(vpn, pfn))
        return;
    if (auditor_) [[unlikely]]
        auditor_->pfnResolved(tile_, vpn, pfn, engine_.now());
    if (remote) {
        if (llTlb_.peek(vpn)) {
            // Refresh: the cuckoo filter already tracks this VPN.
            llTlb_.insert(vpn, pfn, true, prefetched);
            return;
        }
        const auto evicted = llTlb_.insert(vpn, pfn, true, prefetched);
        if (auditor_) [[unlikely]] {
            auditor_->tlbFilled(tile_);
            if (evicted)
                auditor_->tlbEvicted(tile_);
        }
        if (bpLlTlb_) [[unlikely]] {
            // Evict-then-fill, so a replacement never reads as a
            // transient occupancy above capacity.
            if (evicted)
                bpLlTlb_->depart(engine_.now());
            bpLlTlb_->arrive(engine_.now());
        }
        cuckoo_.insert(vpn);
        if (evicted && evicted->remote)
            cuckoo_.erase(evicted->vpn);
        return;
    }

    // A refresh of a resident entry neither fills nor evicts; the
    // audited fill count must only grow when a new entry appears.
    // peek() is side-effect-free, so widening the gate to the
    // backpressure observer leaves unobserved runs bitwise identical.
    const bool fresh = (auditor_ || bpLlTlb_) && !llTlb_.peek(vpn);
    const auto evicted = llTlb_.insert(vpn, pfn, false, false);
    if (auditor_) [[unlikely]] {
        if (fresh)
            auditor_->tlbFilled(tile_);
        if (evicted)
            auditor_->tlbEvicted(tile_);
    }
    if (bpLlTlb_) [[unlikely]] {
        if (evicted)
            bpLlTlb_->depart(engine_.now());
        if (fresh)
            bpLlTlb_->arrive(engine_.now());
    }
    // Locally homed pages stay in the cuckoo filter permanently (the
    // local page table still maps them); only cached remote PTEs are
    // removed on eviction.
    if (evicted && evicted->remote)
        cuckoo_.erase(evicted->vpn);
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

namespace
{

/**
 * The data-cache address of @p va under @p key. Tenants see the same
 * VA layout, so cache tags are scrambled by ASID to keep their working
 * sets from aliasing; XOR with zero (ASID 0) is the identity.
 */
Addr
dataCacheAddr(Addr va, Vpn key)
{
    return va ^ (static_cast<Addr>(asidOfKey(key)) << 48);
}

} // namespace

void
Gpm::dataAccess(Addr va, Vpn key, Tick when)
{
    // Start loading the set now: the access runs at least an L1 TLB
    // latency later, after other host events, by which time the tags
    // are in the host cache. A prefetch changes no simulated state.
    dataCache_.prefetchSet(dataCacheAddr(va, key));
    // Run the access at its start time: link and DRAM busy-until state
    // must only ever be advanced at the current tick, or one packet
    // reserved far in the future would stall every later sender.
    engine_.scheduleAt(when, [this, va, key] { dataAccessNow(va, key); });
}

void
Gpm::dataAccessNow(Addr va, Vpn key)
{
    const Tick now = engine_.now();
    const Vpn vpn = key;
    if (dataCache_.access(dataCacheAddr(va, key))) {
        ++stats_.dataCacheHits;
        trace(vpn, SpanEvent::DataAccess, tile_);
        completeOpAt(now + cfg_.dataHitLatency, vpn);
        return;
    }

    // lastHomeOf: an op whose page was unmapped mid-flight still
    // accesses the HBM that held the frame (equals homeOf for mapped
    // pages, so single-tenant behavior is unchanged).
    const TileId home = pt_.lastHomeOf(vpn);
    if (home == tile_ || home == kInvalidTile) {
        ++stats_.dataLocalAccesses;
        trace(vpn, SpanEvent::DataAccess, tile_);
        completeOpAt(dram_.access(now, cfg_.cacheLineBytes), vpn);
        return;
    }

    // Remote zero-copy access at cacheline granularity (§II-A):
    // request header to the home GPM, HBM access there, line back.
    // The return leg is computed in an event at the home side so link
    // state is never reserved at a future timestamp.
    ++stats_.dataRemoteAccesses;
    trace(vpn, SpanEvent::DataAccess, home);
    Gpm *home_gpm = (*gpms_)[static_cast<std::size_t>(home)];
    net_.dataHop(tile_, home, NocMessageBytes::kDataHeader,
                 [this, home, home_gpm, vpn] {
                     const Tick t_mem = home_gpm->dram().access(
                         engine_.now(), cfg_.cacheLineBytes);
                     engine_.scheduleAt(t_mem, [this, home, vpn] {
                         net_.dataHop(home, tile_,
                                      NocMessageBytes::kCacheLine +
                                          NocMessageBytes::kDataHeader,
                                      [this, vpn] { completeOpNow(vpn); });
                     });
                 });
}

} // namespace hdpat
