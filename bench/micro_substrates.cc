/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrates: they
 * bound per-event simulation cost (the numbers that determine how
 * large a wafer/workload the simulator can handle).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hdpat/cluster_map.hh"
#include "iommu/redirection_table.hh"
#include "mem/cuckoo_filter.hh"
#include "mem/page_table.hh"
#include "mem/set_assoc_cache.hh"
#include "mem/tlb.hh"
#include "noc/network.hh"
#include "sim/engine.hh"
#include "sim/rng.hh"

namespace hdpat
{
namespace
{

void
BM_EventQueueScheduleAndPop(benchmark::State &state)
{
    Engine engine;
    Rng rng(1);
    Tick horizon = 0;
    for (auto _ : state) {
        (void)_;
        horizon = engine.now();
        for (int i = 0; i < 64; ++i)
            engine.scheduleAt(horizon + rng.uniformInt(1000), [] {});
        for (int i = 0; i < 64; ++i)
            engine.step();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void
BM_CuckooFilterLookup(benchmark::State &state)
{
    CuckooFilter filter(1u << 17);
    for (Vpn v = 0; v < 100000; ++v)
        filter.insert(v);
    Vpn probe = 0;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(filter.contains(probe));
        probe = (probe + 7919) % 200000;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooFilterLookup);

void
BM_CuckooFilterInsertErase(benchmark::State &state)
{
    CuckooFilter filter(1u << 16);
    Vpn v = 0;
    for (auto _ : state) {
        (void)_;
        filter.insert(v);
        filter.erase(v);
        ++v;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooFilterInsertErase);

/**
 * Workload-load seeding on the 7x7 wafer: 48 empty filters of the
 * GPM's capacity, each given its ~1,800 homed pages, by an insert()
 * loop (batch:0) or one insertBatch() (batch:1). Both leave the same
 * filters; the gap is the overlapped bucket misses. The reset to empty
 * filters is timed with the seeding, as a System pays both: a lazy
 * table moves the cost of zeroing a line from the reset into its
 * first insert.
 */
void
BM_CuckooFilterSeed(benchmark::State &state)
{
    constexpr std::size_t kFilters = 48;
    constexpr std::size_t kPagesPerFilter = 1800;
    const bool batch = state.range(0) != 0;
    std::vector<std::vector<Vpn>> pages(kFilters);
    for (std::size_t f = 0; f < kFilters; ++f) {
        for (std::size_t p = 0; p < kPagesPerFilter; ++p)
            pages[f].push_back(0x100 + f * kPagesPerFilter + p);
    }
    const CuckooFilter empty(1u << 17);
    std::vector<CuckooFilter> filters(kFilters, empty);
    for (auto _ : state) {
        (void)_;
        for (CuckooFilter &filter : filters)
            filter = empty;
        for (std::size_t f = 0; f < kFilters; ++f) {
            if (batch) {
                filters[f].insertBatch(pages[f]);
            } else {
                for (Vpn vpn : pages[f])
                    filters[f].insert(vpn);
            }
        }
        benchmark::DoNotOptimize(filters.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kFilters *
                            kPagesPerFilter);
}
BENCHMARK(BM_CuckooFilterSeed)
    ->ArgName("batch")
    ->Arg(0)
    ->Arg(1);

/**
 * Lookups on dense filters: the 84 GPM filters of the 12x7 wafer at
 * their full capacity, each holding 20,000 random keys, which writes
 * ~91% of the 8,192 lines. Probes pick a random filter and a random
 * VPN from the key range, so nearly all are negatives that read both
 * buckets. Benchmark workloads seed only 1-2% of a filter; this is the
 * shape where the per-line written bitmap check is pure overhead.
 */
void
BM_CuckooFilterContainsDense(benchmark::State &state)
{
    constexpr std::size_t kFilters = 84;
    constexpr std::size_t kKeysPerFilter = 20000;
    constexpr std::uint64_t kKeyRange = std::uint64_t(1) << 30;
    constexpr std::size_t kProbes = std::size_t(1) << 16;
    Rng rng(0xc0ffee);
    std::vector<CuckooFilter> filters(kFilters, CuckooFilter(1u << 17));
    for (CuckooFilter &filter : filters)
        for (std::size_t k = 0; k < kKeysPerFilter; ++k)
            filter.insert(rng.uniformInt(kKeyRange));
    std::vector<std::pair<std::size_t, Vpn>> probes(kProbes);
    for (auto &[filter, vpn] : probes) {
        filter = rng.uniformInt(kFilters);
        vpn = rng.uniformInt(kKeyRange);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        (void)_;
        const auto &[filter, vpn] = probes[i];
        benchmark::DoNotOptimize(filters[filter].contains(vpn));
        i = (i + 1) % kProbes;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooFilterContainsDense);

void
BM_TlbLookup(benchmark::State &state)
{
    Tlb tlb(64, 32);
    for (Vpn v = 0; v < 2048; ++v)
        tlb.insert(v, v);
    Vpn probe = 0;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(tlb.lookup(probe));
        probe = (probe + 13) % 4096;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

/**
 * Wafer-shaped probe stream: 48 L2-sized TLBs (one per GPM tile of
 * the 7x7 wafer), probed round-robin the way a sweep's translation
 * traffic strides across tiles: the working-set shape the simulator
 * actually runs.
 */
void
BM_TlbProbeWafer(benchmark::State &state)
{
    std::vector<Tlb> tlbs;
    for (int t = 0; t < 48; ++t)
        tlbs.emplace_back(64, 32);
    for (Vpn v = 0; v < 2048; ++v)
        for (auto &tlb : tlbs)
            tlb.insert(v, v);
    Vpn probe = 0;
    std::size_t tile = 0;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(tlbs[tile].lookup(probe));
        tile = (tile + 1) % tlbs.size();
        probe = (probe + 13) % 4096;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbProbeWafer);

/**
 * Shootdown fan-out of the multi-tenant churn run: one broadcast
 * reaches the MI100-geometry TLB stack of each of the 48 GPMs of the
 * 7x7 wafer (L1 1x32, L2 64x32, last-level 64x16), and every TLB
 * invalidates the VPN. The TLBs are full and most invalidated VPNs
 * are absent, so the figure is mostly the miss probe of a full set.
 * A VPN that was present is put back, which keeps the hit share
 * steady. One item is one single-TLB invalidate.
 */
void
BM_TlbShootdownWafer(benchmark::State &state)
{
    constexpr std::size_t kGpms = 48;
    constexpr Vpn kResident = 4096;
    constexpr Vpn kSpace = 1u << 16;
    std::vector<Tlb> tlbs;
    tlbs.reserve(3 * kGpms);
    for (std::size_t g = 0; g < kGpms; ++g) {
        tlbs.emplace_back(1, 32);
        tlbs.emplace_back(64, 32);
        tlbs.emplace_back(64, 16);
    }
    for (Vpn v = 0; v < kResident; ++v)
        for (Tlb &tlb : tlbs)
            tlb.insert(v, v);
    Vpn vpn = 0;
    std::size_t next = 0;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        (void)_;
        Tlb &tlb = tlbs[next];
        const std::optional<TlbEntry> removed = tlb.invalidate(vpn);
        benchmark::DoNotOptimize(removed);
        if (removed) {
            ++hits;
            tlb.insert(vpn, vpn);
        }
        if (++next == tlbs.size()) {
            next = 0;
            vpn = (vpn + 7919) % kSpace;
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TlbShootdownWafer);

/**
 * Wafer-shaped data-cache stream: 84 MI100-geometry L2 data caches
 * (4 MB, 16-way; one per GPM tile of the 12x7 wafer) fed a seeded
 * random line stream round-robin, the way a long wafer run strides
 * across tiles. The line pool is twice one cache's capacity, so the
 * warmed caches both hit and evict; host ns per access is what the
 * tag store's footprint costs.
 */
void
BM_DataCacheWafer(benchmark::State &state)
{
    constexpr std::size_t kCaches = 84;
    constexpr std::size_t kBytes = 4u << 20;
    constexpr std::size_t kLine = 64;
    constexpr std::size_t kStream = 1u << 20;
    std::vector<SetAssocCache> caches;
    caches.reserve(kCaches);
    for (std::size_t c = 0; c < kCaches; ++c)
        caches.emplace_back(kBytes, 16, kLine);
    Rng rng(0x5eed);
    std::vector<Addr> stream(kStream);
    for (Addr &a : stream)
        a = rng.uniformInt(2 * kBytes / kLine) * kLine;
    const auto step = [&](std::size_t i) {
        return caches[i % kCaches].access(stream[i % kStream]);
    };
    // Warm every cache with two passes of its capacity.
    for (std::size_t i = 0; i < 2 * kCaches * (kBytes / kLine); ++i)
        step(i);
    std::size_t i = 0;
    std::uint64_t hits = 0;
    for (auto _ : state) {
        (void)_;
        hits += step(i++);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DataCacheWafer);

void
BM_RedirectionTableLookup(benchmark::State &state)
{
    RedirectionTable rt(1024);
    for (Vpn v = 0; v < 1024; ++v)
        rt.insert(v, static_cast<TileId>(v % 48));
    Vpn probe = 0;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(rt.lookup(probe));
        probe = (probe + 17) % 2048;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedirectionTableLookup);

void
BM_NetworkComputeArrival(benchmark::State &state)
{
    Engine engine;
    const MeshTopology topo = MeshTopology::wafer(7, 7);
    Network net(engine, topo, NocParams{});
    Rng rng(3);
    const auto &gpms = topo.gpmTiles();
    for (auto _ : state) {
        (void)_;
        const TileId a = gpms[rng.uniformInt(gpms.size())];
        const TileId b = gpms[rng.uniformInt(gpms.size())];
        benchmark::DoNotOptimize(net.computeArrival(0, a, b, 32));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkComputeArrival);

void
BM_ClusterMapAuxTile(benchmark::State &state)
{
    const MeshTopology topo = MeshTopology::wafer(7, 7);
    const ConcentricLayers layers(topo, 2);
    const ClusterMap map(layers, 4, true);
    Vpn vpn = 0;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(map.auxTileFor(vpn, 0));
        benchmark::DoNotOptimize(map.auxTileFor(vpn, 1));
        ++vpn;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterMapAuxTile);

void
BM_PageTableTranslate(benchmark::State &state)
{
    GlobalPageTable pt(12);
    const MeshTopology topo = MeshTopology::wafer(7, 7);
    pt.allocate((1u << 16) * pt.pageBytes(), topo.gpmTiles());
    Vpn probe = pt.vpnOf(0x100 << 12);
    Vpn v = probe;
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(pt.translate(v));
        v = probe + (v * 2654435761u) % (1u << 16);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableTranslate);

void
BM_ZipfSample(benchmark::State &state)
{
    Rng rng(9);
    ZipfSampler zipf(4096, 0.9);
    for (auto _ : state) {
        (void)_;
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

} // namespace
} // namespace hdpat

BENCHMARK_MAIN();
