/**
 * @file
 * Gpm remote-translation machinery: the per-policy client protocols
 * (baseline, route-based, concentric, distributed, cluster+rotation,
 * Valkyrie neighbour probing) and the server-side handlers a GPM
 * exposes to its peers and the IOMMU.
 */

#include <algorithm>
#include <utility>

#include "gpm/gpm.hh"
#include "sim/log.hh"

namespace hdpat
{

// ---------------------------------------------------------------------
// Remote client: entry
// ---------------------------------------------------------------------

void
Gpm::startRemote(Addr va, Vpn key, Tick when)
{
    engine_.scheduleAt(when, [this, va, key] {
        ++stats_.remoteOps;
        const Vpn vpn = key;
        const auto outcome = remoteMshr_.registerMiss(
            vpn, [this, va](Vpn v, Pfn) {
                dataAccess(va, v, engine_.now());
            });
        switch (outcome) {
          case MshrFile::Outcome::Allocated:
            ++stats_.remoteResolutions;
            launchRemoteProtocol(vpn);
            break;
          case MshrFile::Outcome::Merged:
            break;
          case MshrFile::Outcome::Full:
            // The paper's MSHR concurrency limit: the op waits for a
            // free entry and retries when a resolution frees one.
            ++stats_.remoteStalls;
            trace(vpn, SpanEvent::RemoteStalled);
            stalledRemote_.push(va, key, [this](Vpn k) {
                return l2Tlb_.peek(k).has_value();
            });
            if (bpStalledRemote_) [[unlikely]]
                bpStalledRemote_->arrive(engine_.now());
            break;
        }
    });
}

void
Gpm::wakeStalledRemote(Vpn resolved)
{
    if (stalledRemote_.empty())
        return;
    // The model is a FIFO rescan: every parked op leaves the queue and
    // retries in stall order -- an L2 TLB hit completes it, otherwise
    // the MSHR file merges, allocates, or rejects it back into the
    // queue. StalledOps picks out exactly the ops that rescan lets
    // through, relying on three invariants:
    //  1. ops are parked only while the MSHR file is full, so (outside
    //     this function) a non-empty queue means a full file;
    //  2. no parked key is in flight in the MSHR file -- a parked op
    //     bounced because its key was not, and a key only starts
    //     flying here, where its whole group is let through;
    //  3. fillLocalHierarchy is the only L2 TLB insert, so its
    //     noteL2Insert hook sees every key that may now hit.
    hdpat_panic_if(stalledRemote_.contains(resolved),
                   "tile " << tile_ << ": parked ops on key " << resolved
                           << " were in flight in the remote MSHR file");
    hdpat_panic_if(l2Tlb_.stats().inserts != l2Fills_,
                   "tile " << tile_ << ": L2 TLB insert outside "
                           << "fillLocalHierarchy");
    // Parked ops imply a bounded file (capacity 0 never rejects).
    const StalledOps::WakeCount count = stalledRemote_.wake(
        remoteMshr_.capacity() - remoteMshr_.occupancy(),
        [this](Vpn k) { return l2Tlb_.peek(k).has_value(); },
        wokenRemote_);

    for (const StalledOps::Op &op : wokenRemote_) {
        const Addr va = op.va;
        const Vpn vpn = op.key;
        // A just-finished resolution may already cover this op.
        if (auto pfn = l2Tlb_.lookup(vpn)) {
            l1Tlb_.insert(vpn, *pfn, true);
            dataAccess(va, vpn, engine_.now());
            continue;
        }
        const auto outcome = remoteMshr_.registerMiss(
            vpn, [this, va](Vpn v, Pfn) {
                dataAccess(va, v, engine_.now());
            });
        hdpat_panic_if(outcome == MshrFile::Outcome::Full,
                       "tile " << tile_ << ": woken op on key " << vpn
                               << " bounced off a full MSHR file");
        if (outcome == MshrFile::Outcome::Allocated) {
            ++stats_.remoteResolutions;
            launchRemoteProtocol(vpn);
        }
    }

    // The ops left parked bounced in the rescan: account the bounces
    // and the queue's depart/re-arrive churn in bulk.
    remoteMshr_.rejectFull(count.remaining);
    if (bpStalledRemote_) [[unlikely]]
        bpStalledRemote_->departAndReturn(engine_.now(), count.before,
                                          count.remaining, count.high);
    hdpat_panic_if(!stalledRemote_.empty() && !remoteMshr_.full(),
                   "tile " << tile_ << ": " << stalledRemote_.size()
                           << " ops parked behind a remote MSHR file "
                           << "with free entries");
}

void
Gpm::launchRemoteProtocol(Vpn vpn)
{
    trace(vpn, SpanEvent::RemoteStart);
    RemoteCtx ctx;
    ctx.startTick = engine_.now();
    ctx.epoch = ++epochCounter_;

    if (pol_.neighborTlbProbe && neighborTile_ != kInvalidTile) {
        auto [it, inserted] = remoteCtx_.insert_or_assign(vpn, ctx);
        (void)inserted;
        launchNeighborProbe(vpn, it->second);
        return;
    }

    switch (pol_.peerMode) {
      case PeerCachingMode::None: {
          auto [it, ignored] = remoteCtx_.insert_or_assign(vpn, ctx);
          (void)ignored;
          it->second.sentToIommu = true;
          sendToIommu(vpn, ctx.startTick);
          break;
      }
      case PeerCachingMode::ClusterRotation: {
          auto [it, ignored] = remoteCtx_.insert_or_assign(vpn, ctx);
          (void)ignored;
          launchClusterProbes(vpn, it->second);
          break;
      }
      case PeerCachingMode::RouteBased: {
          auto [it, ignored] = remoteCtx_.insert_or_assign(vpn, ctx);
          (void)ignored;
          launchChain(vpn, it->second, buildRouteChain());
          break;
      }
      case PeerCachingMode::Concentric: {
          auto [it, ignored] = remoteCtx_.insert_or_assign(vpn, ctx);
          (void)ignored;
          launchChain(vpn, it->second, buildConcentricChain());
          break;
      }
      case PeerCachingMode::Distributed: {
          auto [it, ignored] = remoteCtx_.insert_or_assign(vpn, ctx);
          (void)ignored;
          std::vector<TileId> chain;
          const TileId peer = groups_->nearestGroupPeer(tile_);
          if (peer != kInvalidTile)
              chain.push_back(peer);
          launchChain(vpn, it->second, std::move(chain));
          break;
      }
    }
}

// ---------------------------------------------------------------------
// Cluster+rotation concurrent probes (§IV-D/E)
// ---------------------------------------------------------------------

void
Gpm::launchClusterProbes(Vpn vpn, RemoteCtx &ctx)
{
    hdpat_panic_if(!clusterMap_, "cluster probes without a map");

    // Requesters probe their own layer and everything inward;
    // peripheral GPMs probe all layers ("requests move inward").
    const int num_layers = clusterMap_->numLayers();
    int top_layer = num_layers - 1;
    if (layers_->isCachingTile(tile_))
        top_layer = layers_->layerOf(tile_);

    std::vector<TileId> targets;
    for (int layer = 0; layer <= top_layer; ++layer) {
        const TileId aux = clusterMap_->auxTileFor(vpn, layer);
        if (aux == tile_)
            continue;
        if (std::find(targets.begin(), targets.end(), aux) ==
            targets.end()) {
            targets.push_back(aux);
        }
    }

    if (targets.empty()) {
        ctx.sentToIommu = true;
        sendToIommu(vpn, ctx.startTick);
        return;
    }

    if (!pol_.concurrentProbes) {
        // Sequential alternative: chain outer -> inner -> IOMMU. The
        // IOMMU's pushes still populate the mapped tiles, so the
        // requester sends no fills of its own.
        std::vector<TileId> chain(targets.rbegin(), targets.rend());
        launchChain(vpn, ctx, std::move(chain),
                    /*fill_on_resolve=*/false);
        return;
    }

    ctx.probesOutstanding = static_cast<int>(targets.size());
    const std::uint64_t epoch = ctx.epoch;
    for (TileId target : targets) {
        Gpm *peer = (*gpms_)[static_cast<std::size_t>(target)];
        const TileId requester = tile_;
        trace(vpn, SpanEvent::ProbeSent, target);
        net_.sendTraced(tile_, target, NocMessageBytes::kProbeRequest,
                        [peer, vpn, requester, epoch] {
                            peer->receiveProbe(vpn, requester, epoch);
                        },
                        tile_, vpn);
    }
}

// ---------------------------------------------------------------------
// Sequential chains (route-based §IV-B, concentric §IV-C, distributed)
// ---------------------------------------------------------------------

void
Gpm::launchChain(Vpn vpn, RemoteCtx &ctx, std::vector<TileId> chain,
                 bool fill_on_resolve)
{
    if (chain.empty()) {
        ctx.sentToIommu = true;
        sendToIommu(vpn, ctx.startTick);
        return;
    }

    ctx.probesOutstanding = 1;
    if (fill_on_resolve)
        ctx.fillTargets = chain;

    ChainProbe probe;
    probe.vpn = vpn;
    probe.requester = tile_;
    probe.epoch = ctx.epoch;
    probe.issuedAt = ctx.startTick;
    const TileId first = chain.front();
    probe.remaining.assign(chain.begin() + 1, chain.end());

    Gpm *peer = (*gpms_)[static_cast<std::size_t>(first)];
    trace(vpn, SpanEvent::ProbeSent, first);
    net_.sendTraced(tile_, first, NocMessageBytes::kProbeRequest,
                    [peer, probe = std::move(probe)] {
                        peer->receiveChainProbe(probe);
                    },
                    tile_, vpn);
}

std::vector<TileId>
Gpm::buildRouteChain() const
{
    const TileId cpu = net_.topology().cpuTile();
    const std::vector<TileId> path = net_.route(tile_, cpu);
    std::vector<TileId> chain;
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        if (net_.topology().isGpm(path[i]))
            chain.push_back(path[i]);
    }
    return chain;
}

std::vector<TileId>
Gpm::buildConcentricChain() const
{
    std::vector<TileId> chain;
    const int num_layers = layers_->numLayers();
    if (num_layers == 0)
        return chain;

    int start_layer = num_layers - 1;
    if (layers_->isCachingTile(tile_))
        start_layer = layers_->layerOf(tile_);

    TileId current = tile_;
    for (int layer = start_layer; layer >= 0; --layer) {
        const TileId next =
            nearestInLayerExcluding(layer, current, tile_);
        if (next == kInvalidTile || next == current)
            continue;
        if (std::find(chain.begin(), chain.end(), next) != chain.end())
            continue;
        chain.push_back(next);
        current = next;
    }
    return chain;
}

TileId
Gpm::nearestInLayerExcluding(int layer, TileId from, TileId exclude) const
{
    const auto &tiles = layers_->layerTiles(layer);
    TileId best = kInvalidTile;
    int best_dist = 0;
    for (TileId t : tiles) {
        if (t == exclude)
            continue;
        const int d = net_.topology().hopDistance(from, t);
        if (best == kInvalidTile || d < best_dist ||
            (d == best_dist && t < best)) {
            best = t;
            best_dist = d;
        }
    }
    return best;
}

// ---------------------------------------------------------------------
// Valkyrie neighbour probe
// ---------------------------------------------------------------------

void
Gpm::launchNeighborProbe(Vpn vpn, RemoteCtx &ctx)
{
    ctx.probesOutstanding = 1;
    Gpm *peer = (*gpms_)[static_cast<std::size_t>(neighborTile_)];
    const TileId requester = tile_;
    const std::uint64_t epoch = ctx.epoch;
    trace(vpn, SpanEvent::ProbeSent, neighborTile_);
    net_.sendTraced(tile_, neighborTile_,
                    NocMessageBytes::kProbeRequest,
                    [peer, vpn, requester, epoch] {
                        peer->receiveNeighborProbe(vpn, requester, epoch);
                    },
                    tile_, vpn);
}

// ---------------------------------------------------------------------
// IOMMU interaction + resolution
// ---------------------------------------------------------------------

void
Gpm::sendToIommu(Vpn vpn, Tick issued_at)
{
    RemoteRequest req;
    req.vpn = vpn;
    req.requester = tile_;
    req.issuedAt = issued_at;
    Iommu *iommu = iommu_;
    net_.sendTraced(tile_, net_.topology().cpuTile(),
                    NocMessageBytes::kTranslationRequest,
                    [iommu, req] { iommu->receiveRequest(req); },
                    tile_, vpn);
}

void
Gpm::resolveRemote(Vpn vpn, Pfn pfn, TranslationSource source)
{
    ++stats_.sourceCounts[static_cast<std::size_t>(source)];
    trace(vpn, SpanEvent::Resolved,
          static_cast<std::uint64_t>(source));

    auto it = remoteCtx_.find(vpn);
    if (it != remoteCtx_.end()) {
        stats_.remoteRtt.add(
            static_cast<double>(engine_.now() - it->second.startTick));
        remoteCtx_.erase(it);
    }

    fillLocalHierarchy(vpn, pfn, /*remote=*/true);
    remoteMshr_.resolve(vpn, pfn);
    wakeStalledRemote(vpn);
}

void
Gpm::receiveProbeReply(const ProbeReply &reply)
{
    auto it = remoteCtx_.find(reply.vpn);
    if (it == remoteCtx_.end() || it->second.epoch != reply.epoch)
        return; // Stale reply from an already-resolved round.

    RemoteCtx &ctx = it->second;
    --ctx.probesOutstanding;
    trace(reply.vpn,
          reply.hit ? SpanEvent::ProbeHit : SpanEvent::ProbeMiss,
          reply.responder);

    if (reply.hit) {
        // Chain modes: push fills into the peers that missed before
        // the responder, so they can serve future requesters (§IV-B/C).
        if (!ctx.fillTargets.empty()) {
            const Vpn vpn = reply.vpn;
            const Pfn pfn = reply.pfn;
            for (TileId t : ctx.fillTargets) {
                if (t == reply.responder)
                    break;
                Gpm *peer = (*gpms_)[static_cast<std::size_t>(t)];
                net_.send(tile_, t, NocMessageBytes::kPtePush,
                          [peer, vpn, pfn] {
                              peer->receivePtePush(vpn, pfn, false);
                          });
            }
        }
        resolveRemote(reply.vpn, reply.pfn, reply.source);
        return;
    }

    if (ctx.probesOutstanding <= 0 && !ctx.sentToIommu) {
        ctx.sentToIommu = true;
        sendToIommu(reply.vpn, ctx.startTick);
    }
}

void
Gpm::receiveTranslationResponse(Vpn vpn, Pfn pfn,
                                TranslationSource source)
{
    auto it = remoteCtx_.find(vpn);
    if (it == remoteCtx_.end()) {
        // Late duplicate (e.g., a peer hit raced an IOMMU response).
        fillLocalHierarchy(vpn, pfn, /*remote=*/true);
        return;
    }

    // Chain modes: when the IOMMU resolved the request, every chained
    // peer missed; push fills to all of them.
    if (!it->second.fillTargets.empty() &&
        source != TranslationSource::PeerCache) {
        for (TileId t : it->second.fillTargets) {
            Gpm *peer = (*gpms_)[static_cast<std::size_t>(t)];
            net_.send(tile_, t, NocMessageBytes::kPtePush,
                      [peer, vpn, pfn] {
                          peer->receivePtePush(vpn, pfn, false);
                      });
        }
    }

    resolveRemote(vpn, pfn, source);
}

// ---------------------------------------------------------------------
// Server side: peer probes
// ---------------------------------------------------------------------

void
Gpm::probeLookup(
    Vpn vpn,
    const std::function<void(Tick, bool, Pfn, bool)> &done,
    TileId trace_owner)
{
    Tick latency = cfg_.cuckooLatency;
    if (!cuckoo_.contains(vpn)) {
        done(latency, false, kInvalidPfn, false);
        return;
    }

    latency += cfg_.lastLevelTlb.latency;
    if (const TlbEntry *entry = llTlb_.lookupEntry(vpn)) {
        done(latency, true, entry->pfn, entry->prefetched);
        return;
    }

    if (pt_.homeOf(vpn) == tile_) {
        // The probed page is homed here: the local page table has it.
        engine_.scheduleIn(latency, [this, vpn, done, trace_owner] {
            gmmu_.requestWalk(
                vpn,
                [this, done](Vpn v, std::optional<Pfn> pfn) {
                    if (pfn) {
                        insertLastLevel(v, *pfn, false, false);
                        done(0, true, *pfn, false);
                    } else {
                        done(0, false, kInvalidPfn, false);
                    }
                },
                trace_owner);
        });
        return;
    }

    // Cuckoo false positive for a remote, uncached page.
    done(latency, false, kInvalidPfn, false);
}

void
Gpm::replyProbe(TileId to, const ProbeReply &reply, Tick extra_latency)
{
    Gpm *peer = (*gpms_)[static_cast<std::size_t>(to)];
    auto do_send = [this, peer, to, reply] {
        net_.sendTraced(tile_, to, NocMessageBytes::kProbeResponse,
                        [peer, reply] { peer->receiveProbeReply(reply); },
                        to, reply.vpn);
    };
    if (extra_latency == 0) {
        do_send();
    } else {
        engine_.scheduleIn(extra_latency, std::move(do_send));
    }
}

void
Gpm::receiveProbe(Vpn vpn, TileId requester, std::uint64_t epoch)
{
    ++stats_.probesReceived;
    probeLookup(
        vpn,
        [this, vpn, requester, epoch](Tick lat, bool hit, Pfn pfn,
                                      bool prefetched) {
            if (hit)
                ++stats_.probeHits;
            ProbeReply reply;
            reply.vpn = vpn;
            reply.epoch = epoch;
            reply.hit = hit;
            reply.pfn = pfn;
            reply.source = prefetched
                               ? TranslationSource::ProactiveDelivery
                               : TranslationSource::PeerCache;
            reply.responder = tile_;
            replyProbe(requester, reply, lat);
        },
        requester);
}

void
Gpm::receiveChainProbe(ChainProbe probe)
{
    ++stats_.probesReceived;
    const Vpn probe_vpn = probe.vpn;
    const TileId probe_owner = probe.requester;
    probeLookup(
        probe_vpn,
        [this, probe = std::move(probe)](Tick lat, bool hit, Pfn pfn,
                                         bool prefetched) mutable {
        // Sequential schemes stop the request at every attempt:
        // store-and-forward plus shared-port arbitration (§IV-B).
        lat += cfg_.chainAttemptOverhead;
        if (hit) {
            ++stats_.probeHits;
            ProbeReply reply;
            reply.vpn = probe.vpn;
            reply.epoch = probe.epoch;
            reply.hit = true;
            reply.pfn = pfn;
            reply.source = prefetched
                               ? TranslationSource::ProactiveDelivery
                               : TranslationSource::PeerCache;
            reply.responder = tile_;
            replyProbe(probe.requester, reply, lat);
            return;
        }

        if (!probe.remaining.empty()) {
            // Forward inward to the next caching candidate.
            const TileId next = probe.remaining.front();
            probe.remaining.erase(probe.remaining.begin());
            probe.visited.push_back(tile_);
            Gpm *peer = (*gpms_)[static_cast<std::size_t>(next)];
            engine_.scheduleIn(lat, [this, next, peer,
                                     probe = std::move(probe)] {
                const TileId owner = probe.requester;
                const Vpn vpn = probe.vpn;
                net_.sendTraced(tile_, next,
                                NocMessageBytes::kProbeRequest,
                                [peer, probe = std::move(probe)] {
                                    peer->receiveChainProbe(probe);
                                },
                                owner, vpn);
            });
            return;
        }

        // Last caching candidate missed: forward to the IOMMU, which
        // responds to the original requester directly.
        RemoteRequest req;
        req.vpn = probe.vpn;
        req.requester = probe.requester;
        req.issuedAt = probe.issuedAt;
        Iommu *iommu = iommu_;
        engine_.scheduleIn(lat, [this, iommu, req] {
            net_.sendTraced(tile_, net_.topology().cpuTile(),
                            NocMessageBytes::kTranslationRequest,
                            [iommu, req] { iommu->receiveRequest(req); },
                            req.requester, req.vpn);
        });
        },
        probe_owner);
}

void
Gpm::receiveNeighborProbe(Vpn vpn, TileId requester, std::uint64_t epoch)
{
    ++stats_.neighborProbesReceived;
    std::optional<Pfn> pfn = l2Tlb_.peek(vpn);
    if (!pfn)
        pfn = llTlb_.peek(vpn);
    if (pfn)
        ++stats_.neighborProbeHits;

    ProbeReply reply;
    reply.vpn = vpn;
    reply.epoch = epoch;
    reply.hit = pfn.has_value();
    reply.pfn = pfn.value_or(kInvalidPfn);
    reply.source = TranslationSource::NeighborTlb;
    reply.responder = tile_;
    replyProbe(requester, reply, cfg_.l2Tlb.latency);
}

// ---------------------------------------------------------------------
// Server side: IOMMU-originated messages
// ---------------------------------------------------------------------

void
Gpm::receivePtePush(Vpn vpn, Pfn pfn, bool prefetched)
{
    ++stats_.pushesReceived;
    insertLastLevel(vpn, pfn, /*remote=*/true, prefetched);
}

void
Gpm::receiveRedirectedRequest(const RemoteRequest &req)
{
    ++stats_.redirectedReceived;
    if (tracer_) [[unlikely]]
        tracer_->record(req.requester, req.vpn, engine_.now(),
                        SpanEvent::RedirectArrive, tile_);
    probeLookup(
        req.vpn,
        [this, req](Tick lat, bool hit, Pfn pfn, bool prefetched) {
        if (hit) {
            ++stats_.redirectedHits;
            if (tracer_) [[unlikely]]
                tracer_->record(req.requester, req.vpn, engine_.now(),
                                SpanEvent::RedirectHit, tile_);
            Gpm *peer = (*gpms_)[static_cast<std::size_t>(req.requester)];
            const Vpn vpn = req.vpn;
            const TranslationSource source =
                prefetched ? TranslationSource::ProactiveDelivery
                           : TranslationSource::Redirect;
            engine_.scheduleIn(lat, [this, peer, req, vpn, pfn, source] {
                net_.sendTraced(tile_, req.requester,
                                NocMessageBytes::kTranslationResponse,
                                [peer, vpn, pfn, source] {
                                    peer->receiveTranslationResponse(
                                        vpn, pfn, source);
                                },
                                req.requester, vpn);
            });
            return;
        }

        // The cached copy was evicted: bounce back to the IOMMU with
        // redirection disabled so it walks this time.
        if (tracer_) [[unlikely]]
            tracer_->record(req.requester, req.vpn, engine_.now(),
                            SpanEvent::RedirectBounce, tile_);
        RemoteRequest bounce = req;
        bounce.allowRedirect = false;
        Iommu *iommu = iommu_;
        engine_.scheduleIn(lat, [this, iommu, bounce] {
            net_.sendTraced(tile_, net_.topology().cpuTile(),
                            NocMessageBytes::kTranslationRequest,
                            [iommu, bounce] {
                                iommu->receiveRequest(bounce);
                            },
                            bounce.requester, bounce.vpn);
        });
        },
        req.requester);
}

void
Gpm::receiveDelegatedWalk(const RemoteRequest &req)
{
    ++stats_.delegatedWalks;
    if (tracer_) [[unlikely]]
        tracer_->record(req.requester, req.vpn, engine_.now(),
                        SpanEvent::DelegatedWalk, tile_);
    gmmu_.requestWalk(
        req.vpn,
        [this, req](Vpn vpn, std::optional<Pfn> pfn) {
            if (!pfn) {
                // The page was unmapped while the delegation was in
                // flight (tenant churn): bounce to the IOMMU, which
                // releases the forwarding context and routes the
                // request through the fault queue.
                Iommu *iommu = iommu_;
                net_.sendTraced(tile_, net_.topology().cpuTile(),
                                NocMessageBytes::kTranslationResponse,
                                [iommu, req] {
                                    iommu->receiveDelegatedMiss(req);
                                },
                                req.requester, vpn);
                return;
            }
            insertLastLevel(vpn, *pfn, /*remote=*/false,
                            /*prefetched=*/false);

            // Short-circuit: reply straight to the requester...
            Gpm *peer =
                (*gpms_)[static_cast<std::size_t>(req.requester)];
            const Pfn value = *pfn;
            net_.sendTraced(tile_, req.requester,
                            NocMessageBytes::kTranslationResponse,
                            [peer, vpn, value] {
                                peer->receiveTranslationResponse(
                                    vpn, value,
                                    TranslationSource::HomeGmmu);
                            },
                            req.requester, vpn);

            // ...and release the IOMMU's forwarding context.
            Iommu *iommu = iommu_;
            net_.send(tile_, net_.topology().cpuTile(),
                      NocMessageBytes::kTranslationResponse,
                      [iommu, vpn] {
                          iommu->receiveDelegatedResult(vpn);
                      });
        },
        req.requester);
}

} // namespace hdpat
