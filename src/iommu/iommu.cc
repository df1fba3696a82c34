#include "iommu/iommu.hh"

#include <algorithm>

#include "obs/audit.hh"
#include "obs/profiler.hh"
#include "sim/log.hh"

namespace hdpat
{

const char *
translationSourceName(TranslationSource src)
{
    switch (src) {
      case TranslationSource::PeerCache:
        return "peer-cache";
      case TranslationSource::Redirect:
        return "redirection";
      case TranslationSource::ProactiveDelivery:
        return "proactive-delivery";
      case TranslationSource::IommuWalk:
        return "iommu";
      case TranslationSource::IommuTlb:
        return "iommu-tlb";
      case TranslationSource::HomeGmmu:
        return "home-gmmu";
      case TranslationSource::NeighborTlb:
        return "neighbor-tlb";
    }
    return "unknown";
}

Iommu::Iommu(Engine &engine, Network &net, GlobalPageTable &pt,
             const SystemConfig &cfg, const TranslationPolicy &pol,
             TileId cpu_tile)
    : engine_(engine), net_(net), pt_(pt), cfg_(cfg), pol_(pol),
      cpuTile_(cpu_tile),
      pwc_(cfg.iommuPwcEntriesPerLevel, 5, cfg.iommuWalkLatency / 5),
      freeWalkers_(cfg.iommuWalkers),
      freeForwardContexts_(cfg.iommuForwardContexts)
{
    if (pol_.redirectionTable && !pol_.iommuTlbInsteadOfRt)
        rt_.emplace(cfg_.redirectionTableEntries);
    if (pol_.iommuTlbInsteadOfRt)
        tlb_.emplace(cfg_.iommuTlbEntries, cfg_.iommuTlbMshrs);
}

void
Iommu::setPeers(std::vector<PeerEndpoint *> peers)
{
    peers_ = std::move(peers);
}

void
Iommu::setAuditor(Auditor *auditor)
{
    auditor->addQueueProbe("iommu.ingress_queue",
                           [this] { return ingressQueue_.size(); });
    auditor->addQueueProbe("iommu.pw_queue",
                           [this] { return pwQueue_.size(); });
    auditor->addQueueProbe("iommu.fault_queue",
                           [this] { return faultQueue_.size(); });
}

void
Iommu::setBackpressure(BackpressureCollector &bp)
{
    // The ingress buffer's capacity is nominal: the config declares it
    // but admission never enforces it (requests accumulate while the
    // PW-queue or MSHRs stall), so its rejections stay 0 and its
    // saturation fraction reports how long the *declared* buffer
    // would have been full.
    bpIngress_ = bp.add("iommu.ingress", ResourceKind::Queue,
                        cfg_.iommuBufferCapacity);
    bpPwQueue_ = bp.add("iommu.pw_queue", ResourceKind::Queue,
                        cfg_.iommuPwQueueCapacity);
    bpWalkers_ = bp.add("iommu.walkers", ResourceKind::Pool,
                        cfg_.iommuWalkers);
    bpForward_ = bp.add("iommu.forward_contexts", ResourceKind::Pool,
                        cfg_.iommuForwardContexts);
    // Only when fault handling is live (tenancy): single-tenant
    // pressure reports keep their exact pre-tenancy resource list.
    if (faultHandler_)
        bpFaultQueue_ = bp.add("iommu.fault_queue", ResourceKind::Queue,
                               cfg_.iommuFaultQueueCapacity);
    if (tlb_) {
        bpTlbMshrs_ = bp.add("iommu.tlb_mshrs", ResourceKind::Mshr,
                             cfg_.iommuTlbMshrs);
        tlb_->mshrs().setPressureHook(
            [this](MshrFile::PressureEvent ev, std::uint64_t n) {
                switch (ev) {
                  case MshrFile::PressureEvent::Alloc:
                    bpTlbMshrs_->arrive(engine_.now());
                    break;
                  case MshrFile::PressureEvent::Free:
                    bpTlbMshrs_->depart(engine_.now());
                    break;
                  case MshrFile::PressureEvent::Reject:
                    bpTlbMshrs_->reject(n);
                    break;
                }
            });
    }
}

void
Iommu::registerMetrics(MetricRegistry &reg,
                       const std::string &prefix) const
{
    reg.addCounter(prefix + "requests_received",
                   &stats_.requestsReceived);
    reg.addCounter(prefix + "redirects_sent", &stats_.redirectsSent);
    reg.addCounter(prefix + "redirect_bounces",
                   &stats_.redirectBounces);
    reg.addCounter(prefix + "stale_redirects_skipped",
                   &stats_.staleRedirectsSkipped);
    reg.addCounter(prefix + "tlb_hits", &stats_.tlbHits);
    reg.addCounter(prefix + "mshr_merges", &stats_.mshrMerges);
    reg.addCounter(prefix + "ingress_stalls", &stats_.ingressStalls);
    reg.addCounter(prefix + "walks_started", &stats_.walksStarted);
    reg.addCounter(prefix + "walks_completed", &stats_.walksCompleted);
    reg.addCounter(prefix + "revisit_completions",
                   &stats_.revisitCompletions);
    reg.addCounter(prefix + "prefetched_ptes", &stats_.prefetchedPtes);
    reg.addCounter(prefix + "pushes_sent", &stats_.pushesSent);
    reg.addCounter(prefix + "responses_sent", &stats_.responsesSent);
    reg.addCounter(prefix + "delegations_sent",
                   &stats_.delegationsSent);
    reg.addCounter(prefix + "delegation_returns",
                   &stats_.delegationReturns);
    reg.addCounter(prefix + "max_buffer_depth",
                   &stats_.maxBufferDepth);
    reg.addSummary(prefix + "pre_queue_latency",
                   &stats_.preQueueLatency);
    reg.addSummary(prefix + "pw_queue_latency",
                   &stats_.pwQueueLatency);
    reg.addSummary(prefix + "walk_latency", &stats_.walkLatency);
    reg.addTimeSeries(prefix + "buffer_depth", &stats_.bufferDepth);
    reg.addTimeSeries(prefix + "served_per_window",
                      &stats_.servedPerWindow);
    reg.addGauge(prefix + "backlog", [this] {
        return static_cast<double>(backlog());
    });
    if (rt_) {
        const RedirectionTable::Stats &rt = rt_->stats();
        reg.addCounter(prefix + "rt.lookups", &rt.lookups);
        reg.addCounter(prefix + "rt.hits", &rt.hits);
        reg.addCounter(prefix + "rt.inserts", &rt.inserts);
        reg.addCounter(prefix + "rt.evictions", &rt.evictions);
        reg.addCounter(prefix + "rt.invalidations", &rt.invalidations);
    }
}

void
Iommu::registerTenancyMetrics(MetricRegistry &reg,
                              const std::string &prefix) const
{
    reg.addCounter(prefix + "page_faults", &stats_.pageFaults);
    reg.addCounter(prefix + "faults_serviced", &stats_.faultsServiced);
    reg.addCounter(prefix + "fault_retries", &stats_.faultRetries);
    reg.addCounter(prefix + "delegated_misses",
                   &stats_.delegatedMisses);
}

void
Iommu::receiveRequest(const RemoteRequest &req)
{
    ++stats_.requestsReceived;
    if (!req.allowRedirect)
        ++stats_.redirectBounces;
    if (stats_.captureTrace)
        stats_.trace.emplace_back(engine_.now(), req.vpn);
    trace(req, SpanEvent::IommuArrive);

    Pending p;
    p.req = req;
    p.arriveTick = engine_.now();
    ingressQueue_.push_back(std::move(p));
    if (bpIngress_) [[unlikely]]
        bpIngress_->arrive(engine_.now());
    sampleDepth();
    scheduleIngress(engine_.now());
}

void
Iommu::scheduleIngress(Tick when)
{
    if (ingressScheduled_)
        return;
    ingressScheduled_ = true;
    engine_.scheduleAt(std::max(when, engine_.now()), [this] {
        ingressScheduled_ = false;
        processIngress();
    });
}

void
Iommu::processIngress()
{
    const ProfScope prof(profiler_, ProfSection::IommuPipeline);
    int budget = cfg_.iommuIngressPerCycle;
    // Batched probe warm-up: prefetch the TLB sets of every request
    // this cycle's budget could admit. Non-architectural (no LRU or
    // stats), so an early admission stall leaves nothing stale.
    if (tlb_) {
        const std::size_t heads = std::min<std::size_t>(
            static_cast<std::size_t>(budget), ingressQueue_.size());
        for (std::size_t i = 0; i < heads; ++i)
            tlb_->prefetchSet(ingressQueue_[i].req.vpn);
    }
    while (budget > 0 && !ingressQueue_.empty()) {
        const Tick ready =
            ingressQueue_.front().arriveTick + cfg_.iommuIngressLatency;
        if (ready > engine_.now()) {
            scheduleIngress(ready);
            return;
        }
        if (admitHead() == Admit::Stall) {
            ++stats_.ingressStalls;
            return; // Retried when a PW slot or MSHR frees.
        }
        --budget;
    }
    if (!ingressQueue_.empty())
        scheduleIngress(engine_.now() + 1);
}

Iommu::Admit
Iommu::admitHead()
{
    Pending p = ingressQueue_.front();
    const Vpn vpn = p.req.vpn;
    const Tick now = engine_.now();

    // 1. Redirection table (Fig 12 steps 1-2).
    if (rt_ && p.req.allowRedirect) {
        if (auto aux = rt_->lookup(vpn)) {
            if (*aux != p.req.requester) {
                ++stats_.redirectsSent;
                trace(p.req, SpanEvent::IommuAdmit);
                trace(p.req, SpanEvent::IommuRedirect,
                      static_cast<std::uint64_t>(*aux));
                stats_.preQueueLatency.add(
                    static_cast<double>(now - p.arriveTick));
                PeerEndpoint *peer =
                    peers_[static_cast<std::size_t>(*aux)];
                hdpat_panic_if(!peer, "redirect to a non-GPM tile");
                RemoteRequest fwd = p.req;
                net_.sendTraced(cpuTile_, *aux,
                                NocMessageBytes::kTranslationRequest,
                                [peer, fwd] {
                                    peer->receiveRedirectedRequest(fwd);
                                },
                                fwd.requester, fwd.vpn);
                ingressQueue_.pop_front();
                if (bpIngress_) [[unlikely]]
                    bpIngress_->depart(now);
                recordServed();
                return Admit::Done;
            }
            // The requester itself is the registered holder but it
            // missed locally: the cached copy was evicted. Drop the
            // stale entry and fall through to a walk.
            rt_->invalidate(vpn);
            ++stats_.staleRedirectsSkipped;
        }
    }

    // 2. Conventional IOMMU TLB (Fig 19 sensitivity mode).
    if (tlb_) {
        if (auto pfn = tlb_->lookup(vpn)) {
            ++stats_.tlbHits;
            trace(p.req, SpanEvent::IommuAdmit);
            trace(p.req, SpanEvent::IommuTlbHit);
            stats_.preQueueLatency.add(
                static_cast<double>(now - p.arriveTick));
            respond(p.req, *pfn, TranslationSource::IommuTlb);
            ingressQueue_.pop_front();
            if (bpIngress_) [[unlikely]]
                bpIngress_->depart(now);
            recordServed();
            return Admit::Done;
        }
        if (tlb_->mshrs().inFlight(vpn)) {
            // Merge with the in-flight walk; served at its completion.
            const RemoteRequest req = p.req;
            tlb_->mshrs().registerMiss(
                vpn, [this, req](Vpn, Pfn pfn) {
                    respond(req, pfn, TranslationSource::IommuWalk);
                    recordServed();
                });
            ++stats_.mshrMerges;
            trace(p.req, SpanEvent::IommuAdmit);
            stats_.preQueueLatency.add(
                static_cast<double>(now - p.arriveTick));
            ingressQueue_.pop_front();
            if (bpIngress_) [[unlikely]]
                bpIngress_->depart(now);
            return Admit::Done;
        }
        if (tlb_->mshrs().full()) {
            // registerMiss is never reached here, so the MSHR file's
            // own pressure hook cannot see this bounce.
            if (bpTlbMshrs_) [[unlikely]]
                bpTlbMshrs_->reject();
            return Admit::Stall; // The paper's MSHR concurrency limit.
        }
    }

    // 3. PW-queue admission.
    if (pwQueue_.size() >= cfg_.iommuPwQueueCapacity) {
        if (bpPwQueue_) [[unlikely]]
            bpPwQueue_->reject();
        return Admit::Stall;
    }

    // Fuzz-found deadlock: never register a TLB MSHR for a walk that
    // will be delegated. In ForwardToHome mode the home GMMU replies
    // straight to the requester and this IOMMU only sees the
    // context-release, so the MSHR would never resolve -- the entry
    // leaks, later same-VPN requests merge onto the dead walk, and the
    // mesh deadlocks. Delegated concurrency is limited by forwarding
    // contexts instead; the TLB is filled when the result returns.
    if (tlb_ && pol_.walkMode == IommuWalkMode::Local) {
        const RemoteRequest req = p.req;
        tlb_->mshrs().registerMiss(vpn, [this, req](Vpn, Pfn pfn) {
            respond(req, pfn, TranslationSource::IommuWalk);
            recordServed();
        });
        p.viaMshr = true;
    }

    trace(p.req, SpanEvent::IommuAdmit);
    stats_.preQueueLatency.add(static_cast<double>(now - p.arriveTick));
    ingressQueue_.pop_front();
    if (bpIngress_) [[unlikely]]
        bpIngress_->depart(now);
    enqueueWalk(std::move(p));
    return Admit::Done;
}

void
Iommu::enqueueWalk(Pending p)
{
    p.pwEnqueueTick = engine_.now();
    pwQueue_.push_back(std::move(p));
    if (bpPwQueue_) [[unlikely]]
        bpPwQueue_->arrive(engine_.now());
    tryStartWalks();
}

void
Iommu::tryStartWalks()
{
    if (pol_.walkMode == IommuWalkMode::ForwardToHome) {
        // Trans-FW: delegate to the home GPM; a forwarding context is
        // held for the whole round trip.
        while (freeForwardContexts_ > 0 && !pwQueue_.empty()) {
            Pending p = std::move(pwQueue_.front());
            pwQueue_.pop_front();
            --freeForwardContexts_;
            if (bpPwQueue_) [[unlikely]] {
                bpPwQueue_->depart(engine_.now());
                bpForward_->arrive(engine_.now());
            }
            stats_.pwQueueLatency.add(
                static_cast<double>(engine_.now() - p.pwEnqueueTick));
            const TileId home = pt_.homeOf(p.req.vpn);
            if (home == kInvalidTile) {
                // Unmapped before delegation could start (tenant
                // churn): give the context back and fault instead;
                // the serviced fault re-enqueues the walk.
                ++freeForwardContexts_;
                if (bpPwQueue_) [[unlikely]]
                    bpForward_->depart(engine_.now());
                hdpat_panic_if(!faultHandler_,
                               "delegated walk for unmapped VPN "
                                   << p.req.vpn);
                ++stats_.pageFaults;
                enqueueFault(std::move(p));
                continue;
            }
            ++stats_.delegationsSent;
            trace(p.req, SpanEvent::DelegatedWalk,
                  static_cast<std::uint64_t>(home));
            PeerEndpoint *peer = peers_[static_cast<std::size_t>(home)];
            const RemoteRequest req = p.req;
            net_.sendTraced(cpuTile_, home,
                            NocMessageBytes::kTranslationRequest,
                            [peer, req] {
                                peer->receiveDelegatedWalk(req);
                            },
                            req.requester, req.vpn);
        }
        return;
    }

    while (freeWalkers_ > 0 && !pwQueue_.empty()) {
        Pending p = std::move(pwQueue_.front());
        pwQueue_.pop_front();
        --freeWalkers_;
        if (bpPwQueue_) [[unlikely]] {
            bpPwQueue_->depart(engine_.now());
            bpWalkers_->arrive(engine_.now());
        }
        stats_.pwQueueLatency.add(
            static_cast<double>(engine_.now() - p.pwEnqueueTick));
        ++stats_.walksStarted;
        trace(p.req, SpanEvent::IommuWalkStart);
        const Tick start = engine_.now();
        const Tick latency = pwc_.enabled()
                                 ? pwc_.walkLatency(p.req.vpn)
                                 : cfg_.iommuWalkLatency;
        engine_.scheduleIn(latency,
                           [this, p = std::move(p), start]() mutable {
                               completeWalk(std::move(p), start);
                           });
    }
}

void
Iommu::completeWalk(Pending p, Tick walk_start)
{
    const ProfScope prof(profiler_, ProfSection::IommuPipeline);
    ++freeWalkers_;
    if (bpWalkers_) [[unlikely]]
        bpWalkers_->depart(engine_.now());
    ++stats_.walksCompleted;
    stats_.walkLatency.add(
        static_cast<double>(engine_.now() - walk_start));
    trace(p.req, SpanEvent::IommuWalkDone);

    const Vpn vpn = p.req.vpn;
    Pte *pte = pt_.translateMutable(vpn);
    if (!pte) {
        // Not-present page (unmapped by tenant churn while the walk
        // was in flight). Without a fault handler this is still the
        // corruption it always was.
        hdpat_panic_if(!faultHandler_,
                       "IOMMU walk of unmapped VPN " << vpn);
        ++stats_.pageFaults;
        enqueueFault(std::move(p));
        sampleDepth();
        tryStartWalks();
        scheduleIngress(engine_.now() + 1);
        return;
    }
    finishWalk(std::move(p), pte);
}

void
Iommu::finishWalk(Pending p, Pte *pte)
{
    const Vpn vpn = p.req.vpn;
    pwc_.fill(vpn);
    ++pte->accessCount;
    const Pfn pfn = pte->pfn;

    if (p.viaMshr) {
        hdpat_panic_if(!tlb_, "viaMshr without an IOMMU TLB");
        tlb_->fill(vpn, pfn);
        tlb_->mshrs().resolve(vpn, pfn); // Responds to all waiters.
    } else {
        respond(p.req, pfn, TranslationSource::IommuWalk);
        recordServed();
    }

    // PW-queue revisit (Fig 12 step 6; also Barre's mechanism):
    // complete identical pending requests without extra walks.
    if (pol_.pwQueueRevisit && !pwQueue_.empty()) {
        auto it = pwQueue_.begin();
        while (it != pwQueue_.end()) {
            if (it->req.vpn == vpn) {
                stats_.pwQueueLatency.add(static_cast<double>(
                    engine_.now() - it->pwEnqueueTick));
                ++stats_.revisitCompletions;
                respond(it->req, pfn, TranslationSource::IommuWalk);
                recordServed();
                it = pwQueue_.erase(it);
                if (bpPwQueue_) [[unlikely]]
                    bpPwQueue_->depart(engine_.now());
            } else {
                ++it;
            }
        }
    }

    // Selective auxiliary push + redirection-table update (§IV-F).
    const bool cluster_push =
        clusterMap_ && pol_.peerMode == PeerCachingMode::ClusterRotation;
    if (cluster_push && pte->accessCount >= pol_.auxPushThreshold) {
        pushPte(vpn, pfn, /*prefetched=*/false);
        if (rt_)
            rt_->insert(vpn, clusterMap_->auxTileFor(vpn, 0));
    }

    // Proactive page-entry delivery (§IV-G): the walker also fetches
    // the next prefetchDegree-1 PTEs (they share a PTE cache line, so
    // no additional walk latency is charged).
    if (pol_.prefetch) {
        for (int d = 1; d < pol_.prefetchDegree; ++d) {
            const Vpn pv = vpn + static_cast<Vpn>(d);
            const Pte *ppte = pt_.translate(pv);
            if (!ppte)
                continue;
            ++stats_.prefetchedPtes;
            if (tlb_)
                tlb_->fill(pv, ppte->pfn);
            if (cluster_push) {
                pushPte(pv, ppte->pfn, /*prefetched=*/true);
                if (rt_)
                    rt_->insert(pv, clusterMap_->auxTileFor(pv, 0));
            }
        }
    }

    sampleDepth();
    tryStartWalks();
    // A walker and possibly PW slots freed: unblock a stalled ingress.
    scheduleIngress(engine_.now() + 1);
}

void
Iommu::respond(const RemoteRequest &req, Pfn pfn,
               TranslationSource source)
{
    ++stats_.responsesSent;
    trace(req, SpanEvent::IommuRespond,
          static_cast<std::uint64_t>(source));
    PeerEndpoint *peer = peers_[static_cast<std::size_t>(req.requester)];
    hdpat_panic_if(!peer, "response to a non-GPM tile");
    const Vpn vpn = req.vpn;
    net_.sendTraced(cpuTile_, req.requester,
                    NocMessageBytes::kTranslationResponse,
                    [peer, vpn, pfn, source] {
                        peer->receiveTranslationResponse(vpn, pfn,
                                                         source);
                    },
                    req.requester, vpn);
}

void
Iommu::pushPte(Vpn vpn, Pfn pfn, bool prefetched)
{
    for (int layer = 0; layer < clusterMap_->numLayers(); ++layer) {
        const TileId aux = clusterMap_->auxTileFor(vpn, layer);
        PeerEndpoint *peer = peers_[static_cast<std::size_t>(aux)];
        hdpat_panic_if(!peer, "PTE push to a non-GPM tile");
        ++stats_.pushesSent;
        net_.send(cpuTile_, aux, NocMessageBytes::kPtePush,
                  [peer, vpn, pfn, prefetched] {
                      peer->receivePtePush(vpn, pfn, prefetched);
                  });
    }
}

void
Iommu::receiveDelegatedResult(Vpn vpn)
{
    // The reply carries the translation back with it; let the Fig 19
    // TLB (when configured) cache it so later same-page requests hit
    // at the IOMMU instead of burning another forwarding context.
    if (tlb_) {
        if (const Pte *pte = pt_.translate(vpn))
            tlb_->fill(vpn, pte->pfn);
    }
    ++freeForwardContexts_;
    if (bpForward_) [[unlikely]]
        bpForward_->depart(engine_.now());
    ++stats_.delegationReturns;
    recordServed();
    sampleDepth();
    tryStartWalks();
    scheduleIngress(engine_.now() + 1);
}

void
Iommu::receiveDelegatedMiss(const RemoteRequest &req)
{
    // The home GPM could not walk the page (unmapped in flight by
    // tenant churn). Release the forwarding context like a normal
    // return -- but the request was NOT served: it goes through the
    // fault queue, and the serviced fault re-delegates the walk.
    ++freeForwardContexts_;
    if (bpForward_) [[unlikely]]
        bpForward_->depart(engine_.now());
    ++stats_.delegatedMisses;
    hdpat_panic_if(!faultHandler_,
                   "delegated walk missed at home GPM for VPN "
                       << req.vpn << " without a fault handler");
    ++stats_.pageFaults;
    Pending p;
    p.req = req;
    p.arriveTick = engine_.now();
    enqueueFault(std::move(p));
    tryStartWalks();
    scheduleIngress(engine_.now() + 1);
}

void
Iommu::enqueueFault(Pending p)
{
    if (faultQueue_.size() >= cfg_.iommuFaultQueueCapacity) {
        // Bounded and lossless: a full queue bounces the fault to a
        // timed retry, so saturation shows up as rejections and added
        // latency, never as a dropped (deadlocked) translation.
        ++stats_.faultRetries;
        if (bpFaultQueue_) [[unlikely]]
            bpFaultQueue_->reject();
        engine_.scheduleIn(cfg_.iommuFaultServiceTicks,
                           [this, p = std::move(p)]() mutable {
                               enqueueFault(std::move(p));
                           });
        return;
    }
    faultQueue_.push_back(std::move(p));
    if (bpFaultQueue_) [[unlikely]]
        bpFaultQueue_->arrive(engine_.now());
    scheduleFaultService();
}

void
Iommu::scheduleFaultService()
{
    if (faultServiceBusy_ || faultQueue_.empty())
        return;
    faultServiceBusy_ = true;
    engine_.scheduleIn(cfg_.iommuFaultServiceTicks,
                       [this] { serviceFault(); });
}

void
Iommu::serviceFault()
{
    const ProfScope prof(profiler_, ProfSection::IommuPipeline);
    faultServiceBusy_ = false;
    Pending p = std::move(faultQueue_.front());
    faultQueue_.pop_front();
    if (bpFaultQueue_) [[unlikely]]
        bpFaultQueue_->depart(engine_.now());
    ++stats_.faultsServiced;

    const Vpn vpn = p.req.vpn;
    // The handler re-establishes the mapping on the page's last home
    // (a no-op when a racing fault already did).
    faultHandler_(vpn);
    Pte *pte = pt_.translateMutable(vpn);
    hdpat_panic_if(!pte, "fault handler left VPN " << vpn
                                                   << " unmapped");
    if (pol_.walkMode == IommuWalkMode::ForwardToHome) {
        // Re-delegate now that the page exists; the home GPM replies
        // to the requester as usual.
        enqueueWalk(std::move(p));
    } else {
        finishWalk(std::move(p), pte);
    }
    scheduleFaultService();
}

void
Iommu::shootdown(Vpn vpn)
{
    if (rt_)
        rt_->invalidate(vpn);
    if (tlb_)
        tlb_->invalidate(vpn);
    // Latent invalidation-path bug: the page-walk cache kept serving
    // the shot-down page's upper levels, so a post-remap walk could
    // skip levels of a hierarchy that no longer exists.
    pwc_.invalidate(vpn);
}

void
Iommu::recordServed()
{
    stats_.servedPerWindow.add(engine_.now(), 1.0);
}

void
Iommu::sampleDepth()
{
    const std::size_t depth = backlog();
    stats_.bufferDepth.add(engine_.now(), static_cast<double>(depth));
    stats_.maxBufferDepth =
        std::max<std::uint64_t>(stats_.maxBufferDepth, depth);
}

} // namespace hdpat
