#include "workloads/stream_cache.hh"

#include <algorithm>
#include <numeric>

#include "mem/page_table.hh"
#include "sim/log.hh"
#include "workloads/suite.hh"

namespace hdpat
{

std::size_t
StreamKeyHash::operator()(const StreamKey &k) const
{
    std::size_t h = std::hash<std::string>{}(k.abbr);
    const auto mix = [&h](std::size_t v) {
        // splitmix-style combine; the exact constants only need to
        // spread the handful of live keys.
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(std::hash<double>{}(k.footprintScale));
    mix(k.opsPerGpm);
    mix(static_cast<std::size_t>(k.seed));
    mix(k.numGpms);
    mix(k.pageShift);
    mix(k.asidCount);
    return h;
}

std::size_t
StreamTable::totalOps() const
{
    return std::accumulate(perGpm_.begin(), perGpm_.end(),
                           std::size_t{0},
                           [](std::size_t acc, const auto &v) {
                               return acc + v.size();
                           });
}

std::shared_ptr<const StreamTable>
StreamTable::generate(const Workload &workload, std::size_t num_gpms,
                      std::size_t ops_per_gpm, std::uint64_t seed)
{
    std::vector<std::vector<Addr>> per_gpm;
    per_gpm.reserve(num_gpms);
    for (std::size_t i = 0; i < num_gpms; ++i)
        per_gpm.push_back(
            workload.streamFor(i, num_gpms, ops_per_gpm, seed));
    return std::make_shared<const StreamTable>(std::move(per_gpm));
}

WorkloadStreamCache &
WorkloadStreamCache::shared()
{
    static WorkloadStreamCache cache;
    return cache;
}

std::shared_ptr<const StreamTable>
WorkloadStreamCache::buildTable(const StreamKey &key)
{
    // Scratch page table with synthetic tile ids: the bump allocator
    // hands out the same virtual ranges as the real system's (same
    // page shift, same allocation order), and generators never read
    // the homes, so the addresses are bit-identical.
    GlobalPageTable pt(key.pageShift);
    std::vector<TileId> fake_tiles(key.numGpms);
    std::iota(fake_tiles.begin(), fake_tiles.end(), TileId{0});

    const std::unique_ptr<Workload> workload =
        makeWorkload(key.abbr, key.footprintScale);
    // Mirror System::loadWorkload exactly: one allocate() pass per
    // ASID. Per-ASID bump cursors give every tenant the same virtual
    // layout, but the workload's recorded handles come from the *last*
    // pass, so the replication must match for byte-identity.
    const std::uint32_t asids = std::max<std::uint32_t>(1, key.asidCount);
    for (std::uint32_t asid = 0; asid < asids; ++asid) {
        pt.setActiveAsid(static_cast<Asid>(asid));
        workload->allocate(pt, fake_tiles);
    }
    pt.setActiveAsid(0);

    return StreamTable::generate(*workload, key.numGpms, key.opsPerGpm,
                                 key.seed);
}

std::shared_ptr<const StreamTable>
WorkloadStreamCache::get(const StreamKey &key)
{
    std::shared_ptr<Entry> entry;
    bool existed = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] =
            entries_.try_emplace(key, std::make_shared<Entry>());
        entry = it->second;
        entry->lastUse = ++useClock_;
        existed = !inserted;
    }

    // Build off the map mutex so distinct keys generate concurrently;
    // call_once publishes entry->table to every waiter.
    std::call_once(entry->built,
                   [&] { entry->table = buildTable(key); });

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (existed)
            ++hits_;
        else
            ++builds_;
        evictIfNeeded();
    }
    return entry->table;
}

void
WorkloadStreamCache::evictIfNeeded()
{
    // Caller holds mutex_. Evict least-recently-used entries; systems
    // still replaying an evicted table keep it alive via shared_ptr.
    while (entries_.size() > maxEntries_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second->lastUse < victim->second->lastUse)
                victim = it;
        }
        entries_.erase(victim);
    }
}

std::uint64_t
WorkloadStreamCache::builds() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return builds_;
}

std::uint64_t
WorkloadStreamCache::hits() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
WorkloadStreamCache::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
WorkloadStreamCache::clearForTest()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    builds_ = 0;
    hits_ = 0;
    useClock_ = 0;
}

} // namespace hdpat
