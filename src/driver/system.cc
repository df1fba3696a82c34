#include "driver/system.hh"

#include <chrono>
#include <span>

#include "sim/log.hh"

namespace hdpat
{

MeshTopology
System::buildTopology(const SystemConfig &cfg,
                      const TranslationPolicy &pol)
{
    cfg.validate();
    const std::vector<std::string> pol_errors = pol.validationErrors();
    if (!pol_errors.empty()) {
        std::string msg = "invalid TranslationPolicy \"" + pol.name +
                          "\":";
        for (const std::string &e : pol_errors)
            msg += "\n  - " + e;
        hdpat_fatal(msg);
    }
    if (cfg.topology == TopologyKind::Mcm4)
        return MeshTopology::mcm4();
    return MeshTopology::wafer(cfg.meshWidth, cfg.meshHeight);
}

System::System(const SystemConfig &cfg, const TranslationPolicy &pol)
    : cfg_(cfg), pol_(pol), topo_(buildTopology(cfg, pol)),
      net_(engine_, topo_, cfg.noc), pt_(cfg.pageShift),
      layers_(topo_, pol.concentricLayers),
      clusterMap_(layers_, pol.numClusters, pol.rotation),
      groups_(layers_)
{
    hdpat_fatal_if(pol_.usesPeerCaching() && layers_.numLayers() == 0,
                   "policy '" << pol_.name
                              << "' needs concentric caching layers");

    iommu_ = std::make_unique<Iommu>(engine_, net_, pt_, cfg_, pol_,
                                     topo_.cpuTile());

    gpmByTile_.assign(static_cast<std::size_t>(topo_.numTiles()),
                      nullptr);
    for (TileId tile : topo_.gpmTiles()) {
        auto gpm = std::make_unique<Gpm>(tile, engine_, net_, pt_, cfg_,
                                         pol_);
        gpmByTile_[static_cast<std::size_t>(tile)] = gpm.get();
        gpms_.push_back(std::move(gpm));
    }

    std::vector<PeerEndpoint *> peers(
        static_cast<std::size_t>(topo_.numTiles()), nullptr);
    for (auto &gpm : gpms_)
        peers[static_cast<std::size_t>(gpm->tile())] = gpm.get();
    iommu_->setPeers(std::move(peers));
    iommu_->setClusterMap(&clusterMap_);

    for (auto &gpm : gpms_) {
        gpm->connect(iommu_.get(), &layers_, &clusterMap_, &groups_,
                     &gpmByTile_);
        if (pol_.neighborTlbProbe) {
            // Valkyrie: probe the nearest GPM (an orthogonal mesh
            // neighbour when one exists).
            const Coord c = topo_.coordOf(gpm->tile());
            TileId best = kInvalidTile;
            int best_dist = 0;
            for (TileId other : topo_.gpmTiles()) {
                if (other == gpm->tile())
                    continue;
                const int d = topo_.hopDistance(gpm->tile(), other);
                if (best == kInvalidTile || d < best_dist ||
                    (d == best_dist && other < best)) {
                    best = other;
                    best_dist = d;
                }
            }
            (void)c;
            gpm->setNeighborTarget(best);
        }
    }

    registerMetrics();
}

void
System::registerMetrics()
{
    // Per-component metrics under stable hierarchical prefixes.
    for (auto &gpm : gpms_) {
        gpm->registerMetrics(registry_,
                             "gpm.t" + std::to_string(gpm->tile()) +
                                 ".");
    }
    iommu_->registerMetrics(registry_, "iommu.");
    net_.registerMetrics(registry_, "noc.");

    // Wafer-wide aggregates over all GPMs; these are what RunResult
    // and the reports consume.
    const auto sum = [this](std::uint64_t Gpm::Stats::*field) {
        return MetricRegistry::CounterFn([this, field] {
            std::uint64_t total = 0;
            for (const auto &g : gpms_)
                total += g->stats().*field;
            return total;
        });
    };
    registry_.addCounter("gpm.ops_issued", sum(&Gpm::Stats::opsIssued));
    registry_.addCounter("gpm.ops_completed",
                         sum(&Gpm::Stats::opsCompleted));
    registry_.addCounter("gpm.l1_tlb_hits", sum(&Gpm::Stats::l1TlbHits));
    registry_.addCounter("gpm.l2_tlb_hits", sum(&Gpm::Stats::l2TlbHits));
    registry_.addCounter("gpm.ll_tlb_hits", sum(&Gpm::Stats::llTlbHits));
    registry_.addCounter("gpm.local_walks", sum(&Gpm::Stats::localWalks));
    registry_.addCounter("gpm.cuckoo_negatives",
                         sum(&Gpm::Stats::cuckooNegatives));
    registry_.addCounter("gpm.cuckoo_false_positives",
                         sum(&Gpm::Stats::cuckooFalsePositives));
    registry_.addCounter("gpm.remote_ops", sum(&Gpm::Stats::remoteOps));
    registry_.addCounter("gpm.remote_resolutions",
                         sum(&Gpm::Stats::remoteResolutions));
    registry_.addCounter("gpm.remote_stalls",
                         sum(&Gpm::Stats::remoteStalls));
    registry_.addCounter("gpm.probes_received",
                         sum(&Gpm::Stats::probesReceived));
    registry_.addCounter("gpm.probe_hits", sum(&Gpm::Stats::probeHits));
    registry_.addCounter("gpm.pushes_received",
                         sum(&Gpm::Stats::pushesReceived));
    for (std::size_t i = 0; i < kNumTranslationSources; ++i) {
        registry_.addCounter(
            std::string("translation.source.") +
                translationSourceName(static_cast<TranslationSource>(i)),
            MetricRegistry::CounterFn([this, i] {
                std::uint64_t total = 0;
                for (const auto &g : gpms_)
                    total += g->stats().sourceCounts[i];
                return total;
            }));
    }
    registry_.addSummary(
        "gpm.remote_rtt", MetricRegistry::SummaryFn([this] {
            SummaryStat merged;
            for (const auto &g : gpms_)
                merged.merge(g->stats().remoteRtt);
            return merged;
        }));

    // Event-engine load: lifetime schedule count and the most events
    // pending at once. The high-water gauge is what sizes
    // EventQueue::reserve() in loadWorkload -- exporting it makes the
    // estimate auditable from any metrics JSON.
    registry_.addCounter("engine.events_scheduled",
                         MetricRegistry::CounterFn([this] {
                             return engine_.scheduledEvents();
                         }));
    registry_.addGauge("engine.pending_events_hwm",
                       MetricRegistry::GaugeFn([this] {
                           return static_cast<double>(
                               engine_.pendingEventsHighWater());
                       }));
}

void
System::enableTracing(std::size_t capacity, std::uint64_t sample_n)
{
    tracer_ = std::make_unique<Tracer>(capacity, sample_n);
    net_.setTracer(tracer_.get());
    iommu_->setTracer(tracer_.get());
    for (auto &gpm : gpms_)
        gpm->setTracer(tracer_.get());
}

void
System::enableLatency(std::uint64_t sample_n, std::size_t top_k)
{
    if (!tracer_) {
        // Ring capacity 1: the collector consumes the record stream
        // through the sink, so the ring itself is never exported and
        // can stay minimal.
        enableTracing(1, sample_n);
    }
    latency_ =
        std::make_unique<LatencyCollector>(tracer_->sampleN(), top_k);
    tracer_->setSink(latency_.get());
}

void
System::enableHeartbeat(Tick interval)
{
    // The status lambda carries its own windowed-retire state so the
    // line shows throughput over the last beat, not just cumulative
    // progress: a mid-run stall reads as "retired +0 (0/s)" beats
    // before the watchdog would fire.
    heartbeat_ = std::make_unique<Heartbeat>(
        engine_, interval,
        [this, last_retired = std::uint64_t{0},
         last_wall = std::chrono::steady_clock::now()]() mutable {
            int in_flight = 0;
            std::uint64_t retired = 0;
            for (const auto &g : gpms_) {
                in_flight += g->outstandingOps();
                retired += g->stats().opsCompleted;
            }
            const auto wall = std::chrono::steady_clock::now();
            const double wall_s =
                std::chrono::duration<double>(wall - last_wall).count();
            const std::uint64_t delta = retired - last_retired;
            const std::uint64_t per_s =
                wall_s > 0.0 ? static_cast<std::uint64_t>(
                                   static_cast<double>(delta) / wall_s)
                             : 0;
            last_retired = retired;
            last_wall = wall;
            return "in-flight=" + std::to_string(in_flight) +
                   " iommu-backlog=" +
                   std::to_string(iommu_->backlog()) + " retired=" +
                   std::to_string(retired) + " (+" +
                   std::to_string(delta) + ", " +
                   std::to_string(per_s) + "/s wall)";
        });
}

void
System::enableAudit()
{
    auditor_ = std::make_unique<Auditor>();
    // Reference oracle: a direct walk of the global page table. Every
    // PPN any policy path installs must agree with it; nullopt (page
    // unmapped, e.g. by a shootdown) abstains.
    auditor_->setReferenceTranslator(
        [this](Vpn vpn) -> std::optional<Pfn> {
            const Pte *pte = pt_.translate(vpn);
            if (!pte)
                return std::nullopt;
            return pte->pfn;
        });
    net_.setAuditor(auditor_.get());
    iommu_->setAuditor(auditor_.get());
    for (auto &gpm : gpms_)
        gpm->setAuditor(auditor_.get());
}

void
System::enableWatchdog(Tick interval)
{
    watchdog_ = std::make_unique<Watchdog>(
        engine_, interval,
        [this] {
            std::uint64_t retired = 0;
            for (const auto &g : gpms_)
                retired += g->stats().opsCompleted;
            return retired;
        },
        [this]() -> std::string {
            if (auditor_)
                return auditor_->diagnostic();
            // No auditor attached: fall back to live queue depths.
            std::string dump = "in-flight per tile:";
            for (const auto &g : gpms_)
                dump += " t" + std::to_string(g->tile()) + "=" +
                        std::to_string(g->outstandingOps());
            dump += "\niommu backlog: " +
                    std::to_string(iommu_->backlog());
            return dump;
        });
}

void
System::enableSpatial(Tick window, Tick sample_interval)
{
    spatial_ = std::make_unique<SpatialCollector>(
        static_cast<std::size_t>(topo_.numTiles()), window);
    spatial_->setMesh(topo_.width(), topo_.height(), topo_.cpuTile());
    net_.setSpatial(spatial_.get());
    spatialSampler_ = std::make_unique<SpatialSampler>(
        engine_, sample_interval, [this](Tick now) {
            for (const auto &g : gpms_) {
                spatial_->sampleTile(
                    g->tile(), now,
                    static_cast<double>(g->outstandingOps()),
                    static_cast<double>(g->gmmu().queueDepth()));
            }
            spatial_->sampleIommu(
                now, static_cast<double>(iommu_->backlog()));
        });
}

void
System::enableProfiler()
{
    profiler_ = std::make_unique<Profiler>();
    engine_.setProfiler(profiler_.get());
    net_.setProfiler(profiler_.get());
    iommu_->setProfiler(profiler_.get());
    for (auto &gpm : gpms_)
        gpm->setProfiler(profiler_.get());
}

void
System::enableTenancy(const TenancySpec &spec)
{
    hdpat_fatal_if(loaded_,
                   "System::enableTenancy after loadWorkload: per-ASID "
                   "allocation needs the spec first");
    const std::vector<std::string> errors = spec.validationErrors();
    if (!errors.empty()) {
        std::string msg = "invalid TenancySpec:";
        for (const std::string &e : errors)
            msg += "\n  - " + e;
        hdpat_fatal(msg);
    }
    tenancySpec_ = spec;
    tenancy_ = std::make_unique<TenantScheduler>(*this, spec);

    // Not-present fault handler: the driver re-establishes the mapping
    // on the page's last home with a fresh PFN, and restores the home
    // GPM's permanent filter entry (a state operation, like the
    // original seeding -- the fault service delay models the cost).
    iommu_->setFaultHandler([this](Vpn vpn) {
        if (pt_.translate(vpn))
            return; // An earlier fault already re-established it.
        const Pte *pte = pt_.remap(vpn);
        hdpat_panic_if(!pte, "IOMMU fault for never-mapped key 0x"
                                 << std::hex << vpn);
        Gpm *home = gpmByTile_[static_cast<std::size_t>(pte->home)];
        if (home)
            home->seedLocalPages(std::span<const Vpn>(&vpn, 1));
    });

    // Tenancy-only counters, appended after the single-tenant set so
    // pre-existing dumps keep their exact key order.
    tenancy_->registerMetrics(registry_, "tenancy.");
    iommu_->registerTenancyMetrics(registry_, "iommu.");
    for (auto &gpm : gpms_) {
        gpm->registerTenancyMetrics(
            registry_, "gpm.t" + std::to_string(gpm->tile()) + ".");
    }
    const auto sum = [this](std::uint64_t Gpm::Stats::*field) {
        return MetricRegistry::CounterFn([this, field] {
            std::uint64_t total = 0;
            for (const auto &g : gpms_)
                total += g->stats().*field;
            return total;
        });
    };
    registry_.addCounter("gpm.stale_installs_blocked",
                         sum(&Gpm::Stats::staleInstallsBlocked));
    registry_.addCounter("gpm.invalidations_received",
                         sum(&Gpm::Stats::invalidationsReceived));
}

void
System::enableBackpressure(Tick window)
{
    backpressure_ = std::make_unique<BackpressureCollector>(window);
    net_.setBackpressure(*backpressure_);
    iommu_->setBackpressure(*backpressure_);
    for (auto &gpm : gpms_)
        gpm->setBackpressure(*backpressure_);
}

void
System::loadWorkload(Workload &workload, std::size_t ops_per_gpm,
                     std::uint64_t seed,
                     std::shared_ptr<const StreamTable> streams)
{
    const ProfScope prof(profiler_.get(), ProfSection::WorkloadGen);
    hdpat_fatal_if(loaded_, "System::loadWorkload called twice");
    if (streams) {
        hdpat_fatal_if(streams->numGpms() != gpms_.size(),
                       "stream table built for "
                           << streams->numGpms() << " GPMs, system has "
                           << gpms_.size());
        for (std::size_t i = 0; i < gpms_.size(); ++i)
            hdpat_fatal_if(streams->gpm(i).size() != ops_per_gpm,
                           "stream table column " << i << " holds "
                               << streams->gpm(i).size()
                               << " ops, loadWorkload asked for "
                               << ops_per_gpm);
    }
    loaded_ = true;
    workloadName_ = workload.info().abbr;

    // One identical allocation per tenant: every ASID's VPN cursor
    // starts at the same base, so the VA layout (and therefore the
    // address streams below) is shared across tenants, and only the
    // ASID tag in the key differs. ASID 0 is the identity.
    const std::uint32_t asids =
        tenancySpec_.asidCount > 0 ? tenancySpec_.asidCount : 1;
    for (std::uint32_t asid = 0; asid < asids; ++asid) {
        pt_.setActiveAsid(static_cast<Asid>(asid));
        workload.allocate(pt_, topo_.gpmTiles());
    }
    pt_.setActiveAsid(0);

    // Seed each GPM's cuckoo filter with its local pages, in the page
    // table's ascending key order: one pass into per-tile lists sized
    // up front.
    std::vector<std::vector<Vpn>> by_home(gpmByTile_.size());
    for (std::size_t tile = 0; tile < by_home.size(); ++tile)
        by_home[tile].reserve(pt_.pagesHomedOn(static_cast<TileId>(tile)));
    pt_.forEachPage([&by_home](Vpn vpn, const Pte &pte) {
        by_home[static_cast<std::size_t>(pte.home)].push_back(vpn);
    });
    for (auto &gpm : gpms_)
        gpm->seedLocalPages(by_home[static_cast<std::size_t>(gpm->tile())]);

    const double rate = workload.info().opsPerCycle * cfg_.computeScale;
    const int window = static_cast<int>(workload.info().maxOutstanding *
                                        cfg_.computeScale);
    streams_ = streams ? std::move(streams)
                       : StreamTable::generate(workload, gpms_.size(),
                                               ops_per_gpm, seed);
    for (std::size_t i = 0; i < gpms_.size(); ++i) {
        gpms_[i]->setWork(streams_->gpm(i));
        gpms_[i]->setIssueParams(rate, window);
    }

    // Pre-size the event queue for the audited steady state: each GPM
    // keeps up to its outstanding window in flight plus an issue
    // self-event, and every in-flight op contributes at most one
    // pending event (hop, pipeline stage, or completion) at a time.
    // The observers (heartbeat, watchdog, sampler) and IOMMU batching
    // ride in the slack. Suite-wide, the recorded
    // engine.pending_events_hwm gauge stays below this estimate, so
    // steady-state scheduling never allocates.
    const std::size_t per_gpm =
        static_cast<std::size_t>(std::max(window, 1)) + 2;
    engine_.reserveEvents(gpms_.size() * per_gpm + 64);
}

std::size_t
System::shootdown(Vpn vpn)
{
    std::size_t invalidated = 0;
    for (auto &gpm : gpms_)
        invalidated += gpm->shootdown(vpn);
    iommu_->shootdown(vpn);
    pt_.unmap(vpn);
    return invalidated;
}

bool
System::shootdownAsync(Vpn vpn)
{
    if (openShootdowns_.count(vpn) || !pt_.translate(vpn))
        return false;

    // Unmap first: from this tick no walk can observe the old PTE, so
    // the install gates reject every stale in-flight result while the
    // invalidations fan out. The IOMMU-side structures (redirection
    // table, Fig 19 TLB, page-walk caches) drop synchronously -- they
    // live on the CPU tile issuing the shootdown.
    pt_.unmap(vpn);
    iommu_->shootdown(vpn);

    // Cached copies can live on any tile (chain fills, proactive
    // pushes, neighbour probes), so correctness requires the full
    // broadcast; the redirection table at most names the one holder
    // the IOMMU knows about (the directed/broadcast split is counted
    // by the tenant scheduler).
    openShootdowns_[vpn] = gpms_.size();
    if (auditor_) {
        auditor_->shootdownIssued(vpn, gpms_.size(), engine_.now());
    }
    const TileId cpu = topo_.cpuTile();
    for (auto &g : gpms_) {
        Gpm *gpm = g.get();
        const TileId target = gpm->tile();
        net_.send(cpu, target, NocMessageBytes::kInvalidate,
                  [this, gpm, target, cpu, vpn] {
                      gpm->receiveInvalidate(vpn);
                      net_.send(
                          target, cpu, NocMessageBytes::kInvalidateAck,
                          [this, vpn, target] {
                              if (auditor_) {
                                  auditor_->invalidationAcked(
                                      vpn, target, engine_.now());
                              }
                              const auto it = openShootdowns_.find(vpn);
                              hdpat_panic_if(it == openShootdowns_.end(),
                                             "stray shootdown ack");
                              if (--it->second == 0)
                                  openShootdowns_.erase(it);
                          });
                  });
    }
    return true;
}

RunResult
System::run()
{
    hdpat_fatal_if(!loaded_, "System::run without a workload");

    for (auto &gpm : gpms_)
        gpm->start();
    if (tenancy_)
        tenancy_->start();
    if (heartbeat_)
        heartbeat_->start();
    if (watchdog_)
        watchdog_->start();
    if (spatialSampler_)
        spatialSampler_->start();

    const auto wall_start = std::chrono::steady_clock::now();
    engine_.run();
    if (profiler_) {
        profiler_->addWall(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_start)
                .count()));
    }

    if (heartbeat_)
        heartbeat_->stop();
    if (watchdog_)
        watchdog_->stop();
    if (spatialSampler_)
        spatialSampler_->stop();

    RunResult result;
    result.workload = workloadName_;
    result.policy = pol_.name;
    result.config = cfg_.name;

    for (auto &gpm : gpms_) {
        const Gpm::Stats &s = gpm->stats();
        hdpat_panic_if(!s.finished,
                       "GPM " << gpm->tile()
                              << " did not finish (deadlock?)");
        result.gpmFinish.emplace_back(gpm->tile(), s.finishTick);
        result.totalTicks = std::max(result.totalTicks, s.finishTick);
    }

    if (auditor_ && pt_.mutationEpoch() > 0) {
        // Staleness-oracle sweep: after the run drains, no TLB on the
        // wafer may still hold a translation the page table disavows
        // (the install gates + shootdown protocol must have caught
        // every stale copy). Free in single-tenant runs (epoch 0).
        for (auto &gpm : gpms_)
            gpm->sweepResidentTranslations(*auditor_);
        if (const IommuTlb *tlb = iommu_->iommuTlb()) {
            tlb->tlb().forEachValid([this](Vpn vpn, Pfn pfn) {
                const Pte *pte = pt_.translate(vpn);
                if (!pte || pte->pfn != pfn)
                    auditor_->staleResident(topo_.cpuTile(), vpn, pfn);
            });
        }
    }

    if (auditor_) {
        const Auditor::Report report = auditor_->finalize();
        if (!report.ok) {
            std::string msg = "conservation audit failed:";
            for (const std::string &v : report.violations)
                msg += "\n  " + v;
            msg += "\n" + report.diagnostic;
            hdpat_panic(msg);
        }
        result.auditIssued = auditor_->issued();
        result.auditRetired = auditor_->retired();
        result.auditPfnChecks = auditor_->pfnChecks();
        result.auditRetireCensusHash = auditor_->retireCensusHash();
    }

    if (spatial_) {
        // Per-tile summary so Fig 5 regenerates from the export alone.
        for (const auto &gpm : gpms_) {
            const Coord c = topo_.coordOf(gpm->tile());
            SpatialCollector::TileSummary summary;
            summary.x = c.x;
            summary.y = c.y;
            summary.ring = topo_.ringOf(gpm->tile());
            summary.isGpm = true;
            summary.finishTick = gpm->stats().finishTick;
            const SummaryStat &rtt = gpm->stats().remoteRtt;
            summary.rttCount = rtt.count();
            summary.rttMean = rtt.count() ? rtt.mean() : 0.0;
            spatial_->setTileSummary(gpm->tile(), summary);
        }
        const Coord cpu = topo_.coordOf(topo_.cpuTile());
        SpatialCollector::TileSummary summary;
        summary.x = cpu.x;
        summary.y = cpu.y;
        summary.ring = 0;
        summary.isCpu = true;
        spatial_->setTileSummary(topo_.cpuTile(), summary);
    }

    if (profiler_)
        result.profile = profiler_->snapshot();

    if (latency_)
        result.latency = latency_->snapshot();

    if (backpressure_) {
        // Snapshot at the engine's final tick: the last GPM finish can
        // precede trailing drain events (walk completions, deliveries)
        // whose transitions the integrals must cover.
        result.backpressure = backpressure_->snapshot(engine_.now());
    }

    // Aggregated GPM-side statistics come from the metric registry's
    // wafer-wide entries, so RunResult and every exporter read the
    // same snapshot.
    result.opsTotal = registry_.counterValue("gpm.ops_completed");
    result.l1TlbHits = registry_.counterValue("gpm.l1_tlb_hits");
    result.l2TlbHits = registry_.counterValue("gpm.l2_tlb_hits");
    result.llTlbHits = registry_.counterValue("gpm.ll_tlb_hits");
    result.localWalks = registry_.counterValue("gpm.local_walks");
    result.cuckooFalsePositives =
        registry_.counterValue("gpm.cuckoo_false_positives");
    result.remoteOps = registry_.counterValue("gpm.remote_ops");
    result.remoteResolutions =
        registry_.counterValue("gpm.remote_resolutions");
    for (std::size_t i = 0; i < kNumTranslationSources; ++i) {
        result.sourceCounts[i] = registry_.counterValue(
            std::string("translation.source.") +
            translationSourceName(static_cast<TranslationSource>(i)));
    }
    result.remoteRtt = registry_.summaryValue("gpm.remote_rtt");
    result.probesReceivedTotal =
        registry_.counterValue("gpm.probes_received");
    result.probeHitsTotal = registry_.counterValue("gpm.probe_hits");
    result.pushesReceivedTotal =
        registry_.counterValue("gpm.pushes_received");

    if (tenancy_) {
        result.contextSwitches = tenancy_->stats().contextSwitches;
        result.pagesChurned = tenancy_->stats().pagesChurned;
        result.staleInstallsBlocked =
            registry_.counterValue("gpm.stale_installs_blocked");
        result.pageFaults = iommu_->stats().pageFaults;
        result.faultsServiced = iommu_->stats().faultsServiced;
        if (auditor_) {
            result.shootdownRounds = auditor_->shootdownRounds();
            result.shootdownRoundsClosed =
                auditor_->shootdownRoundsClosed();
            result.invalidationAcks = auditor_->invalidationAcks();
        }
    }

    result.iommu = iommu_->stats();
    result.noc = net_.stats();
    return result;
}

} // namespace hdpat
