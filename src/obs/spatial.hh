/**
 * @file
 * Spatial heatmap collection: per-link NoC utilization and per-tile
 * occupancy/queue-depth time series, exported as the "spatial" section
 * of the metrics JSON (+ a CSV emitter) and consumed by the Fig 5
 * position-imbalance harness.
 *
 * Two data paths feed the collector:
 *
 *  - The network calls linkTraversed() for every link a packet
 *    crosses (guarded by the usual null-pointer test, so routing pays
 *    nothing when heatmaps are off).
 *  - A SpatialSampler engine event periodically snapshots per-tile
 *    queue depths/occupancy through a System-supplied callback, at
 *    the sampling window the caller chose.
 *
 * At run end System fills in the per-tile summary (position, ring,
 * finish tick, remote-translation RTT) so the exported section is
 * self-contained: Fig 5 regenerates from the JSON alone.
 */

#ifndef HDPAT_OBS_SPATIAL_HH
#define HDPAT_OBS_SPATIAL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/engine.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hdpat
{

class SpatialCollector
{
  public:
    /** Directed-link accumulators; index = tile * 4 + direction. */
    struct Link
    {
        std::uint64_t packets = 0;
        std::uint64_t bytes = 0;
        /** Ticks the link spent serializing payloads. */
        double busyTicks = 0.0;
        /** Ticks packets waited for the link to free. */
        double waitTicks = 0.0;
    };

    /** Windowed per-tile series fed by the sampler. */
    struct TileSeries
    {
        TimeSeries outstanding;
        TimeSeries gmmuQueue;
        explicit TileSeries(Tick window)
            : outstanding(window), gmmuQueue(window)
        {
        }
    };

    /** Filled by System at run end; keys the Fig 5 reconstruction. */
    struct TileSummary
    {
        int x = 0;
        int y = 0;
        int ring = 0;
        bool isGpm = false;
        bool isCpu = false;
        Tick finishTick = 0;
        double rttMean = 0.0;
        std::uint64_t rttCount = 0;
    };

    /** Name of link direction @p dir (link index % 4): the one table
     *  of the codes Network's XY walk emits (E=0, W=1, S=2, N=3). */
    static const char *dirName(unsigned dir);

    SpatialCollector(std::size_t num_tiles, Tick window);

    /** Mesh geometry stamped into the export header. */
    void setMesh(int width, int height, TileId cpu_tile);

    // ---- Hot path (network route walk) -------------------------------
    void linkTraversed(std::size_t link, std::size_t bytes, double busy,
                       double wait)
    {
        Link &l = links_[link];
        ++l.packets;
        l.bytes += bytes;
        l.busyTicks += busy;
        l.waitTicks += wait;
    }

    // ---- Sampler path -------------------------------------------------
    void sampleTile(TileId tile, Tick now, double outstanding,
                    double gmmu_queue);
    void sampleIommu(Tick now, double backlog)
    {
        iommuBacklog_.add(now, backlog);
    }

    // ---- End of run ----------------------------------------------------
    void setTileSummary(TileId tile, const TileSummary &summary)
    {
        summaries_[tile] = summary;
    }

    // ---- Accessors (export, tests) -------------------------------------
    Tick window() const { return window_; }
    std::size_t numTiles() const { return links_.size() / 4; }
    int meshWidth() const { return width_; }
    int meshHeight() const { return height_; }
    TileId cpuTile() const { return cpuTile_; }
    const std::vector<Link> &links() const { return links_; }
    const std::map<TileId, TileSeries> &tileSeries() const
    {
        return series_;
    }
    const std::map<TileId, TileSummary> &tileSummaries() const
    {
        return summaries_;
    }
    const TimeSeries &iommuBacklog() const { return iommuBacklog_; }

  private:
    Tick window_;
    int width_ = 0;
    int height_ = 0;
    TileId cpuTile_ = kInvalidTile;
    std::vector<Link> links_;
    std::map<TileId, TileSeries> series_;
    std::map<TileId, TileSummary> summaries_;
    TimeSeries iommuBacklog_;
};

/**
 * Periodic sampling event in the heartbeat's mould: fires the sample
 * callback every @p interval ticks while other events remain queued.
 */
class SpatialSampler
{
  public:
    using SampleFn = std::function<void(Tick now)>;

    SpatialSampler(Engine &engine, Tick interval, SampleFn sample);

    void start();
    void stop() { running_ = false; }
    bool running() const { return running_; }
    std::uint64_t samples() const { return samples_; }

  private:
    void fire();

    Engine &engine_;
    Tick interval_;
    SampleFn sample_;
    bool running_ = false;
    std::uint64_t samples_ = 0;
};

} // namespace hdpat

#endif // HDPAT_OBS_SPATIAL_HH
