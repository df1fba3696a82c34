/**
 * @file
 * Memoized workload address streams.
 *
 * A fig-grid sweep runs the same (workload, footprintScale, ops, seed)
 * stream against several policies and configs, and the generators are
 * deterministic: the virtual addresses depend only on the allocation
 * order (a bump allocator) and the per-GPM RNG seeds -- never on which
 * tile a page is homed to. So the streams can be generated once,
 * materialized into immutable per-GPM address tables, and replayed for
 * every grid point that shares the key.
 *
 * The cache is shared across runMany/runSuiteGrid workers: the first
 * caller of a key builds the table (under a per-entry once_flag, off
 * the map mutex so unrelated keys build concurrently); later callers
 * -- and all replay reads -- are lock-free on the immutable table.
 *
 * Tables are built against a scratch GlobalPageTable with synthetic
 * tile ids, which is sound because workload allocate() implementations
 * use the tile span only as page-table homes (affecting Pte.home, not
 * the returned virtual ranges). The equivalence test in
 * tests/test_stream_cache.cc asserts replay == direct generation for
 * the whole suite.
 */

#ifndef HDPAT_WORKLOADS_STREAM_CACHE_HH
#define HDPAT_WORKLOADS_STREAM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace hdpat
{

class Workload;

/** Everything the generated addresses depend on. */
struct StreamKey
{
    std::string abbr;
    double footprintScale = 1.0;
    std::size_t opsPerGpm = 0;
    std::uint64_t seed = 0;
    std::size_t numGpms = 0;
    unsigned pageShift = 12;
    /**
     * Tenant dimension: the system allocates the workload once per
     * ASID, so the workload object's final buffer handles (and thus
     * the generated streams) are a function of the allocation *count*.
     * The tenancy Poisson rates (switch/churn) act at run time, after
     * generation, and deliberately stay out of the key.
     */
    std::uint32_t asidCount = 1;

    bool operator==(const StreamKey &) const = default;
};

struct StreamKeyHash
{
    std::size_t operator()(const StreamKey &k) const;
};

/** Immutable per-GPM address tables for one StreamKey. */
class StreamTable
{
  public:
    explicit StreamTable(std::vector<std::vector<Addr>> per_gpm)
        : perGpm_(std::move(per_gpm))
    {
    }

    /**
     * One Workload::streamFor column per GPM of an allocated
     * @p workload.
     */
    static std::shared_ptr<const StreamTable>
    generate(const Workload &workload, std::size_t num_gpms,
             std::size_t ops_per_gpm, std::uint64_t seed);

    std::size_t numGpms() const { return perGpm_.size(); }
    const std::vector<Addr> &gpm(std::size_t i) const
    {
        return perGpm_[i];
    }
    /** Total addresses across all GPMs (statistics). */
    std::size_t totalOps() const;

  private:
    std::vector<std::vector<Addr>> perGpm_;
};

/**
 * Process-wide keyed cache of StreamTables.
 *
 * get() returns a shared const table, building it on first use. A
 * small LRU bound keeps a pathological sweep (many distinct keys) from
 * pinning every stream it ever generated; entries still referenced by
 * running systems stay alive through their shared_ptr.
 */
class WorkloadStreamCache
{
  public:
    explicit WorkloadStreamCache(std::size_t max_entries = 32)
        : maxEntries_(max_entries)
    {
    }

    /** The cache shared by all runners in this process. */
    static WorkloadStreamCache &shared();

    /** Fetch or build the table for @p key. */
    std::shared_ptr<const StreamTable> get(const StreamKey &key);

    /** Tables built so far (misses; statistics/tests). */
    std::uint64_t builds() const;
    /** get() calls served from an existing table. */
    std::uint64_t hits() const;
    /** Entries currently resident. */
    std::size_t size() const;

    /** Drop all entries (tests). Running replays keep their tables. */
    void clearForTest();

  private:
    struct Entry
    {
        std::once_flag built;
        std::shared_ptr<const StreamTable> table;
        std::uint64_t lastUse = 0;
    };

    /** Generate the table for @p key (the once_flag body). */
    static std::shared_ptr<const StreamTable>
    buildTable(const StreamKey &key);

    void evictIfNeeded();

    mutable std::mutex mutex_;
    std::unordered_map<StreamKey, std::shared_ptr<Entry>, StreamKeyHash>
        entries_;
    std::size_t maxEntries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t builds_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace hdpat

#endif // HDPAT_WORKLOADS_STREAM_CACHE_HH
