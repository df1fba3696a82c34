/**
 * @file
 * System: builds and wires a complete simulated wafer-scale GPU --
 * topology, network, page table, concentric layers, cluster map,
 * IOMMU, and one Gpm per tile -- loads a workload, runs the event loop
 * to completion, and collects a RunResult.
 *
 * This is the primary entry point of the library's public API:
 *
 * @code
 *   SystemConfig cfg = SystemConfig::mi100();
 *   TranslationPolicy pol = TranslationPolicy::hdpat();
 *   System sys(cfg, pol);
 *   auto wl = makeWorkload("SPMV");
 *   sys.loadWorkload(*wl, 20000, 42);
 *   RunResult r = sys.run();
 * @endcode
 */

#ifndef HDPAT_DRIVER_SYSTEM_HH
#define HDPAT_DRIVER_SYSTEM_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/system_config.hh"
#include "config/translation_policy.hh"
#include "driver/run_result.hh"
#include "driver/tenancy.hh"
#include "gpm/gpm.hh"
#include "hdpat/cluster_map.hh"
#include "hdpat/concentric_layers.hh"
#include "iommu/iommu.hh"
#include "mem/page_table.hh"
#include "noc/mesh_topology.hh"
#include "noc/network.hh"
#include "obs/audit.hh"
#include "obs/backpressure.hh"
#include "obs/heartbeat.hh"
#include "obs/latency.hh"
#include "obs/profiler.hh"
#include "obs/registry.hh"
#include "obs/spatial.hh"
#include "obs/trace.hh"
#include "obs/watchdog.hh"
#include "sim/engine.hh"
#include "workloads/stream_cache.hh"
#include "workloads/workload.hh"

namespace hdpat
{

class System
{
  public:
    System(const SystemConfig &cfg, const TranslationPolicy &pol);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Allocate @p workload's buffers and hand each GPM its column of
     * @p streams, a memoized table from the WorkloadStreamCache whose
     * columns must be @p ops_per_gpm long. A null table is generated
     * here from Workload::streamFor. The system holds the table until
     * it is destroyed: the GPMs issue straight from its columns, and a
     * cached table is safely shared with concurrent runs of the same
     * key.
     *
     * @param ops_per_gpm Memory operations each GPM executes.
     * @param seed RNG seed (per-GPM seeds are derived from it).
     */
    void loadWorkload(Workload &workload, std::size_t ops_per_gpm,
                      std::uint64_t seed,
                      std::shared_ptr<const StreamTable> streams = nullptr);

    /** Record the (tick, VPN) stream arriving at the IOMMU. */
    void setCaptureIommuTrace(bool on) { iommu_->setCaptureTrace(on); }

    /**
     * Enable end-to-end span tracing: 1 in @p sample_n issued ops is
     * followed across the wafer; records land in a ring of
     * @p capacity entries. Call before run().
     */
    void enableTracing(std::size_t capacity = 1u << 20,
                       std::uint64_t sample_n = 1);

    /**
     * Enable latency attribution: every sampled translation's span is
     * decomposed into per-stage durations (obs/latency.hh), with an
     * exact-quantile reservoir and the slowest-@p top_k spans kept
     * for the critical-path report. Rides the span tracer: when
     * enableTracing was already called, the tracer's sampling governs
     * and @p sample_n is ignored; otherwise a ring-less tracer is
     * created with @p sample_n (1 = exact mode). Call before run().
     */
    void enableLatency(std::uint64_t sample_n = 1,
                       std::size_t top_k = 8);

    /**
     * Log a progress heartbeat every @p interval simulated ticks while
     * run() executes (at LogLevel::Info).
     */
    void enableHeartbeat(Tick interval);

    /**
     * Enable the conservation auditor: every issued translation must
     * retire exactly once, NoC sends must balance deliveries, MSHR
     * allocations must balance frees, and LL-TLB fills must balance
     * evictions plus residency. run() finalizes the audit and panics
     * with a structured diagnostic on any violation. Call before run().
     */
    void enableAudit();

    /**
     * Enable the stall watchdog: if the engine keeps executing events
     * for @p interval simulated ticks without a single memop retiring,
     * abort with the auditor-style diagnostic (stuck spans, per-tile
     * in-flight counts, deepest queues). Call before run().
     */
    void enableWatchdog(Tick interval);

    /**
     * Enable spatial heatmap collection: per-link NoC traffic totals
     * plus per-tile outstanding-op / GMMU-queue time series sampled
     * every @p sample_interval ticks into @p window -tick buckets.
     * Call before run().
     */
    void enableSpatial(Tick window, Tick sample_interval);

    /**
     * Enable the host self-profiler: wall-clock totals per host-side
     * subsystem (event dispatch, translation, NoC routing, IOMMU
     * pipeline, workload generation, export). Call before run().
     */
    void enableProfiler();

    /**
     * Enable backpressure accounting: every bounded structure (walk
     * queues, MSHR tables, walker pools, LL-TLB residency, NoC links)
     * registers as a named resource with tick-weighted occupancy
     * integrals, peaks, and time-at-capacity, cross-checked by the
     * Little's-law oracle (obs/backpressure.hh). @p window > 0 also
     * keeps per-window histories for pressure-over-time plots. Call
     * before run(); bitwise-invisible when not called.
     */
    void enableBackpressure(Tick window = 0);

    /**
     * Enable multi-tenancy: the tenant scheduler (context switches +
     * page churn), the IOMMU's not-present fault handler (remap on the
     * page's last home), and the tenancy-only metrics. Must be called
     * before loadWorkload (per-ASID allocation) and before
     * enableBackpressure (the fault queue registers only once a fault
     * handler exists) and before metrics() (the tenancy rows join the
     * registry when it is built). Bitwise-invisible when never called.
     */
    void enableTenancy(const TenancySpec &spec);

    /** Run to completion and gather statistics. */
    RunResult run();

    /**
     * Free one page: broadcast a TLB shootdown to every GPM and the
     * IOMMU, then unmap the PTE. The paper (§II-A) treats shootdowns
     * as rare (memory free only) with negligible timing impact, so
     * this is modeled as a state operation.
     * @return Total cached copies invalidated across the wafer.
     */
    std::size_t shootdown(Vpn vpn);

    /**
     * Asynchronous shootdown (tenancy churn): unmap the PTE and the
     * IOMMU-side state now, then send an invalidation packet to every
     * GPM tile; each tile drops its cached copies on delivery and acks
     * back over the NoC. The auditor's shootdown ledger demands
     * exactly one ack per tile per round.
     * @return false when @p vpn is unmapped or a round is already open.
     */
    bool shootdownAsync(Vpn vpn);

    /** True while an async shootdown round for @p vpn awaits acks. */
    bool shootdownInProgress(Vpn vpn) const
    {
        return openShootdowns_.count(vpn) != 0;
    }

    // ---- Component access (tests, examples) ----------------------------
    Engine &engine() { return engine_; }
    Network &network() { return net_; }
    const MeshTopology &topology() const { return topo_; }
    GlobalPageTable &pageTable() { return pt_; }
    Iommu &iommu() { return *iommu_; }
    const ConcentricLayers &layers() const { return layers_; }
    const ClusterMap &clusterMap() const { return clusterMap_; }
    std::size_t numGpms() const { return gpms_.size(); }
    Gpm &gpm(std::size_t index) { return *gpms_[index]; }
    Gpm *gpmAtTile(TileId tile)
    {
        return gpmByTile_[static_cast<std::size_t>(tile)];
    }
    const SystemConfig &config() const { return cfg_; }
    const TranslationPolicy &policy() const { return pol_; }

    /**
     * Every metric this system can report, in registration order. The
     * registry is built on the first call; its rows read the live
     * component stats, so later calls see current values.
     */
    const MetricRegistry &metrics();
    /** The span tracer (null unless enableTracing was called). */
    const Tracer *tracer() const { return tracer_.get(); }
    /** Latency collector (null unless enableLatency was called). */
    const LatencyCollector *latency() const { return latency_.get(); }
    /** The conservation auditor (null unless enableAudit was called). */
    const Auditor *auditor() const { return auditor_.get(); }
    /** The stall watchdog (null unless enableWatchdog was called). */
    const Watchdog *watchdog() const { return watchdog_.get(); }
    /** Spatial collector (null unless enableSpatial was called). */
    const SpatialCollector *spatial() const { return spatial_.get(); }
    /** Host self-profiler (null unless enableProfiler was called). */
    const Profiler *profiler() const { return profiler_.get(); }
    /** Backpressure collector (null unless enableBackpressure). */
    const BackpressureCollector *backpressure() const
    {
        return backpressure_.get();
    }
    /** Mutable form: callers time their own sections (e.g. export). */
    Profiler *profiler() { return profiler_.get(); }
    /** Tenant scheduler (null unless enableTenancy was called). */
    const TenantScheduler *tenancy() const { return tenancy_.get(); }

  private:
    /**
     * Validate cfg + pol (fail fast with field-named errors, before
     * any member construction can crash on a degenerate value), then
     * build the mesh. Runs first in the member-init order because
     * topo_ is the first complex member.
     */
    static MeshTopology buildTopology(const SystemConfig &cfg,
                                      const TranslationPolicy &pol);

    /** Register every component's metrics (first metrics() call). */
    void registerMetrics();

    SystemConfig cfg_;
    TranslationPolicy pol_;

    Engine engine_;
    MeshTopology topo_;
    Network net_;
    GlobalPageTable pt_;
    ConcentricLayers layers_;
    ClusterMap clusterMap_;
    DistributedGroups groups_;
    std::unique_ptr<Iommu> iommu_;
    /** The loaded ops; declared before gpms_, which hold spans into it. */
    std::shared_ptr<const StreamTable> streams_;
    std::vector<std::unique_ptr<Gpm>> gpms_;
    std::vector<Gpm *> gpmByTile_;
    MetricRegistry registry_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<LatencyCollector> latency_;
    std::unique_ptr<Heartbeat> heartbeat_;
    std::unique_ptr<Auditor> auditor_;
    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<SpatialCollector> spatial_;
    std::unique_ptr<SpatialSampler> spatialSampler_;
    std::unique_ptr<Profiler> profiler_;
    std::unique_ptr<BackpressureCollector> backpressure_;
    std::unique_ptr<TenantScheduler> tenancy_;
    TenancySpec tenancySpec_;
    /** Open async shootdown rounds: key -> outstanding acks. */
    std::unordered_map<Vpn, std::size_t> openShootdowns_;
    std::string workloadName_ = "(none)";
    bool loaded_ = false;
};

} // namespace hdpat

#endif // HDPAT_DRIVER_SYSTEM_HH
