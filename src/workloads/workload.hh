/**
 * @file
 * Workload framework: Table II benchmark descriptors, the Workload base
 * class, and the channel-combinator machinery used to compose each
 * benchmark's address stream.
 *
 * A workload allocates its buffers (block-partitioned across GPMs, as
 * the paper's driver model prescribes in §II-A) and then produces one
 * deterministic address vector per GPM, one virtual byte address per
 * memory operation. Streams are built from weighted "channels", each a
 * small generator modelling one access pattern of the kernel
 * (sequential slice walk, chunk-rotated remote stream, random gather,
 * hot-region loop, butterfly partner, large-stride scatter).
 */

#ifndef HDPAT_WORKLOADS_WORKLOAD_HH
#define HDPAT_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace hdpat
{

/** Static description of one benchmark (Table II row). */
struct WorkloadInfo
{
    std::string abbr;
    std::string name;
    std::size_t workgroups = 0;
    std::size_t footprintBytes = 0;
    /**
     * Aggregate memory operations a GPM issues per cycle -- the
     * compute-intensity knob (crypto/FMA-heavy kernels issue memory
     * ops slowly; streaming kernels issue at full width). 0 = use the
     * SystemConfig default.
     */
    double opsPerCycle = 0.0;
    /** Outstanding-op window override; 0 = SystemConfig default. */
    int maxOutstanding = 0;
};

/**
 * Base class for the 14 benchmark generators.
 *
 * Lifecycle: construct -> allocate(pt, gpms) once -> streamFor(...)
 * once per GPM. A Workload instance belongs to a single simulated run.
 */
class Workload
{
  public:
    explicit Workload(WorkloadInfo info) : info_(std::move(info)) {}
    virtual ~Workload() = default;

    const WorkloadInfo &info() const { return info_; }

    /** Allocate this workload's buffers into @p pt. */
    virtual void allocate(GlobalPageTable &pt,
                          std::span<const TileId> gpms) = 0;

    /**
     * Build GPM @p gpm_index's addresses, in issue order.
     *
     * @param gpm_index Index into the GPM list given to allocate().
     * @param num_gpms Total GPM count.
     * @param max_ops Stream length (memory operations).
     * @param seed Base RNG seed; implementations mix in gpm_index.
     */
    virtual std::vector<Addr>
    streamFor(std::size_t gpm_index, std::size_t num_gpms,
              std::size_t max_ops, std::uint64_t seed) const = 0;

  protected:
    WorkloadInfo info_;
};

/** One weighted generator inside an interleave(). */
struct Channel
{
    /** Produces the channel's next address. */
    std::function<Addr()> gen;
    /** Relative frequency (ops dealt round-robin by weight). */
    int weight = 1;
};

/**
 * Deterministic weighted interleave of channels: exactly @p max_ops
 * addresses. Channels are serviced in a repeating schedule
 * proportional to their weights, which keeps streams reproducible
 * without RNG in the scheduler itself.
 */
std::vector<Addr> interleave(std::vector<Channel> channels,
                             std::size_t max_ops);

// ---------------------------------------------------------------------
// Channel factories. Each returns a stateful generator closure.
// ---------------------------------------------------------------------

/**
 * Sequential walk of [base, base+bytes) with @p stride, wrapping
 * around (models iterative passes over a region).
 */
std::function<Addr()> seqChannel(Addr base, std::size_t bytes,
                                 std::size_t stride,
                                 std::size_t start_offset = 0);

/**
 * Workgroup-style chunk rotation: GPM @p gpm of @p num_gpms walks
 * chunks gpm, gpm+N, gpm+2N, ... of the buffer sequentially (stride
 * within a chunk), wrapping. Models round-robin tile/batch assignment,
 * which turns a block-partitioned buffer into a mostly-remote but
 * page-sequential stream -- the prefetch-friendly pattern of O4.
 */
std::function<Addr()> chunkRotateChannel(Addr base, std::size_t bytes,
                                         std::size_t chunk_bytes,
                                         std::size_t stride,
                                         std::size_t gpm,
                                         std::size_t num_gpms);

/**
 * Uniform random aligned accesses inside [base, base+bytes). With
 * @p dwell > 1, each sampled location is revisited that many times on
 * consecutive lines before resampling (hardware access coalescing).
 */
std::function<Addr()> randomChannel(Addr base, std::size_t bytes,
                                    std::size_t align,
                                    std::shared_ptr<Rng> rng,
                                    unsigned dwell = 1);

/**
 * Zipf-popular page gather over [base, base+bytes): power-law page
 * popularity with uniform offset inside the page (PageRank hubs,
 * SPMV's x vector under skewed column distributions). @p dwell
 * consecutive lines are touched per sampled page.
 */
std::function<Addr()> zipfChannel(Addr base, std::size_t bytes,
                                  double exponent, unsigned page_shift,
                                  std::shared_ptr<Rng> rng,
                                  unsigned dwell = 1);

/**
 * Hot-region loop with epochs: walks a @p region_bytes window
 * sequentially; after @p ops_per_epoch operations the window advances
 * by @p epoch_advance (Floyd-Warshall's row k, KMeans centroids with
 * epoch_advance = 0).
 */
std::function<Addr()> hotRegionChannel(Addr base, std::size_t bytes,
                                       std::size_t region_bytes,
                                       std::size_t stride,
                                       std::size_t ops_per_epoch,
                                       std::size_t epoch_advance);

/**
 * Butterfly partner access: element index walks the GPM's slice
 * sequentially; the generated address is the XOR-partner at the
 * current stage stride. Stage strides cycle through the schedule,
 * dwelling @p ops_per_stage on each (bitonic sort / FWT / FFT).
 */
std::function<Addr()> butterflyChannel(Addr base, std::size_t elems,
                                       std::size_t elem_bytes,
                                       std::size_t slice_begin,
                                       std::size_t slice_elems,
                                       std::vector<std::size_t> strides,
                                       std::size_t ops_per_stage,
                                       std::size_t start_stage = 0,
                                       std::size_t index_step = 1);

/**
 * Large-stride scatter: walks base + (k * stride) % bytes for
 * k = 0, 1, 2, ... with @p dwell coalesced line accesses at each
 * location (matrix-transpose column writes: a fresh page every few
 * accesses, reuse distance of a full pass).
 */
std::function<Addr()> stridedScatterChannel(Addr base, std::size_t bytes,
                                            std::size_t stride,
                                            std::size_t start_offset = 0,
                                            unsigned dwell = 1);

} // namespace hdpat

#endif // HDPAT_WORKLOADS_WORKLOAD_HH
