#include "workloads/suite.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace hdpat
{

namespace
{

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;

std::size_t
scaled(std::size_t bytes, double scale)
{
    const double v = static_cast<double>(bytes) * scale;
    return std::max<std::size_t>(64 * kKiB, static_cast<std::size_t>(v));
}

std::shared_ptr<Rng>
gpmRng(std::uint64_t seed, std::size_t gpm)
{
    return std::make_shared<Rng>(seed ^
                                 (0x9e3779b97f4a7c15ull * (gpm + 1)));
}

} // namespace

SliceView
sliceOf(const BufferHandle &handle, std::size_t gpm, std::size_t num_gpms)
{
    hdpat_panic_if(num_gpms == 0, "sliceOf with zero GPMs");
    const std::size_t pages = handle.numPages;
    const std::size_t per = pages / num_gpms;
    const std::size_t rem = pages % num_gpms;
    const std::size_t start = gpm * per + std::min(gpm, rem);
    const std::size_t count = per + (gpm < rem ? 1 : 0);
    SliceView view;
    view.base = handle.baseVa + start * handle.pageBytes;
    view.bytes = count * handle.pageBytes;
    return view;
}


/**
 * Slice for a GPM, falling back to the whole buffer when the slice is
 * empty (huge-page configs can leave fewer pages than GPMs).
 */
SliceView
safeSlice(const BufferHandle &handle, std::size_t gpm, std::size_t n)
{
    SliceView view = sliceOf(handle, gpm, n);
    if (view.bytes == 0) {
        view.base = handle.baseVa;
        view.bytes = handle.numPages * handle.pageBytes;
    }
    return view;
}

// =====================================================================
// Streaming family: AES, RELU, FIR, SC, I2C, KM
// =====================================================================

/**
 * AES: iterative streaming over the state buffer plus random probes of
 * the shared T-box lookup table. The table is tiny and TLB-resident
 * after first touch, so every page triggers a single IOMMU request
 * (observation O3).
 */
class AesWorkload : public Workload
{
  public:
    explicit AesWorkload(double scale)
        : Workload({"AES", "Advanced Encryption Standard", 4096,
                    scaled(8 * kMiB, scale), 0.25, 64})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        state_ = pt.allocate(info_.footprintBytes, gpms);
        ttable_ = pt.allocate(256 * kKiB, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t seed) const override
    {
        const SliceView slice = safeSlice(state_, gpm, n);
        auto rng = gpmRng(seed, gpm);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(slice.base, slice.bytes, 64), 3});
        ch.push_back({randomChannel(ttable_.baseVa,
                                    ttable_.numPages * ttable_.pageBytes,
                                    64, rng),
                      1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle state_;
    BufferHandle ttable_;
};

/**
 * RELU: one streaming pass over huge in/out buffers. The access window
 * is shifted by 1/8 slice relative to the page homes (thread blocks do
 * not align perfectly with data blocks), so ~12% of pages are remote
 * and each triggers exactly one IOMMU request (O3).
 */
class ReluWorkload : public Workload
{
  public:
    explicit ReluWorkload(double scale)
        : Workload({"RELU", "Rectified Linear Unit", 1310720,
                    scaled(1280 * kMiB, scale), 4.0, 512})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        in_ = pt.allocate(info_.footprintBytes / 2, gpms);
        out_ = pt.allocate(info_.footprintBytes / 2, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        // Stride of 1 KiB samples four lines per page; the access
        // window ends 1/8 past the slice boundary, so ~12% of the
        // touched pages are remote and each is translated exactly once
        // (the single-IOMMU-request-per-page behaviour of O3).
        constexpr std::size_t kStride = 1024;
        auto window = [&](const BufferHandle &buf) {
            const std::size_t bytes = buf.numPages * buf.pageBytes;
            const std::size_t slice = bytes / n;
            const std::size_t coverage = (max_ops / 2) * kStride;
            const std::size_t end = (gpm + 1) * slice;
            const std::size_t start =
                end > coverage * 7 / 8 ? end - coverage * 7 / 8 : 0;
            return seqChannel(buf.baseVa, bytes, kStride, start);
        };
        std::vector<Channel> ch;
        ch.push_back({window(in_), 1});
        ch.push_back({window(out_), 1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle in_;
    BufferHandle out_;
};

/**
 * FIR: batches rotate across GPMs, so each GPM streams page-sequential
 * regions homed elsewhere (small stride, iterative) -- the
 * prefetch-friendly pattern behind FIR's Fig 18 gains -- plus a hot
 * shared coefficient page.
 */
class FirWorkload : public Workload
{
  public:
    explicit FirWorkload(double scale)
        : Workload({"FIR", "Finite Impulse Response Filter", 65536,
                    scaled(256 * kMiB, scale), 2.0, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        in_ = pt.allocate(info_.footprintBytes * 3 / 4, gpms);
        out_ = pt.allocate(info_.footprintBytes / 4, gpms);
        coeff_ = pt.allocate(64 * kKiB, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const SliceView out = safeSlice(out_, gpm, n);
        std::vector<Channel> ch;
        ch.push_back({chunkRotateChannel(in_.baseVa,
                                         in_.numPages * in_.pageBytes,
                                         64 * kKiB, 64, gpm, n),
                      4});
        ch.push_back({hotRegionChannel(coeff_.baseVa,
                                       coeff_.numPages * coeff_.pageBytes,
                                       4 * kKiB, 64, 1u << 20, 0),
                      1});
        ch.push_back({seqChannel(out.base, out.bytes, 64), 2});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle in_;
    BufferHandle out_;
    BufferHandle coeff_;
};

/**
 * SC: simple convolution. Chunk-rotated input tiles plus an
 * overlapping sliding window (adjacent output pixels re-read input
 * rows) and local output writes.
 */
class ScWorkload : public Workload
{
  public:
    explicit ScWorkload(double scale)
        : Workload({"SC", "Simple Convolution", 262465,
                    scaled(256 * kMiB, scale), 1.5, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        in_ = pt.allocate(info_.footprintBytes / 2, gpms);
        out_ = pt.allocate(info_.footprintBytes / 2, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const SliceView out = safeSlice(out_, gpm, n);
        const std::size_t in_bytes = in_.numPages * in_.pageBytes;
        std::vector<Channel> ch;
        ch.push_back({chunkRotateChannel(in_.baseVa, in_bytes, 64 * kKiB,
                                         64, gpm, n),
                      3});
        ch.push_back({hotRegionChannel(in_.baseVa, in_bytes, 64 * kKiB,
                                       64, 2048, 48 * kKiB),
                      1});
        ch.push_back({seqChannel(out.base, out.bytes, 64), 2});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle in_;
    BufferHandle out_;
};

/**
 * I2C: image-to-column conversion. Input patches overlap horizontally
 * (windows re-read recently translated pages) and batches rotate
 * across GPMs, yielding the strong spatial locality behind its 1.84x
 * prefetch gain.
 */
class I2cWorkload : public Workload
{
  public:
    explicit I2cWorkload(double scale)
        : Workload({"I2C", "Image to Column Conversion", 16384,
                    scaled(32 * kMiB, scale), 2.0, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        image_ = pt.allocate(info_.footprintBytes / 2, gpms);
        cols_ = pt.allocate(info_.footprintBytes / 2, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const SliceView cols = safeSlice(cols_, gpm, n);
        const std::size_t img_bytes = image_.numPages * image_.pageBytes;
        std::vector<Channel> ch;
        ch.push_back({chunkRotateChannel(image_.baseVa, img_bytes,
                                         32 * kKiB, 64, gpm, n),
                      3});
        ch.push_back({hotRegionChannel(image_.baseVa, img_bytes,
                                       64 * kKiB, 64, 2048, 16 * kKiB),
                      2});
        ch.push_back({seqChannel(cols.base, cols.bytes, 64), 2});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle image_;
    BufferHandle cols_;
};

/**
 * KM: KMeans. Streams local points while looping a small remote-hot
 * centroid table with a tiny stride every iteration -- the "iterative
 * access with a small stride" the paper credits for KM's prefetch and
 * redirection gains.
 */
class KmWorkload : public Workload
{
  public:
    explicit KmWorkload(double scale)
        : Workload({"KM", "KMeans", 32768, scaled(40 * kMiB, scale), 0.75, 128})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        points_ = pt.allocate(info_.footprintBytes, gpms);
        centroids_ = pt.allocate(256 * kKiB, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const SliceView pts = safeSlice(points_, gpm, n);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(pts.base, pts.bytes, 64), 3});
        ch.push_back({hotRegionChannel(
                          centroids_.baseVa,
                          centroids_.numPages * centroids_.pageBytes,
                          centroids_.numPages * centroids_.pageBytes, 64,
                          1u << 20, 0),
                      2});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle points_;
    BufferHandle centroids_;
};

// =====================================================================
// Butterfly family: BT, FWT, FFT
// =====================================================================

/** Shared butterfly-stride schedule builders. */
namespace butterfly
{

/**
 * Bitonic sort: stage k has substages k-1..0, so small strides
 * dominate the schedule and most partners stay inside the local slice
 * (BT's mostly-local behaviour in the paper).
 */
std::vector<std::size_t>
bitonicStrides(std::size_t elems)
{
    std::vector<std::size_t> strides;
    const auto log_n = static_cast<std::size_t>(std::log2(elems));
    for (std::size_t k = 1; k <= log_n; ++k) {
        for (std::size_t j = k; j-- > 0;)
            strides.push_back(std::size_t(1) << j);
    }
    return strides;
}

/** Walsh/FFT passes: one stride per pass, uniform across sizes. */
std::vector<std::size_t>
passStrides(std::size_t elems)
{
    std::vector<std::size_t> strides;
    for (std::size_t s = 1; s < elems; s <<= 1)
        strides.push_back(s);
    return strides;
}

} // namespace butterfly

/** BT: bitonic sort (16 MB, mostly-local partners, repeats). */
class BtWorkload : public Workload
{
  public:
    explicit BtWorkload(double scale)
        : Workload({"BT", "Bitonic Sort", 16384,
                    scaled(16 * kMiB, scale), 2.0, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        data_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const std::size_t elems =
            data_.numPages * data_.pageBytes / sizeof(std::uint32_t);
        const std::size_t slice_elems =
            std::max<std::size_t>(1, elems / n);
        const SliceView slice = safeSlice(data_, gpm, n);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(slice.base, slice.bytes, 64), 1});
        ch.push_back({butterflyChannel(data_.baseVa, elems, 4,
                                       gpm * slice_elems, slice_elems,
                                       butterfly::bitonicStrides(elems),
                                       256),
                      1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle data_;
};

/** FWT: Walsh transform (64 MB, uniform stride mix, repeats -- O3). */
class FwtWorkload : public Workload
{
  public:
    explicit FwtWorkload(double scale)
        : Workload({"FWT", "Fast Walsh Transform", 16384,
                    scaled(64 * kMiB, scale), 2.0, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        data_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const std::size_t elems =
            data_.numPages * data_.pageBytes / sizeof(std::uint32_t);
        const std::size_t slice_elems =
            std::max<std::size_t>(1, elems / n);
        const SliceView slice = safeSlice(data_, gpm, n);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(slice.base, slice.bytes, 64), 1});
        ch.push_back({butterflyChannel(data_.baseVa, elems, 4,
                                       gpm * slice_elems, slice_elems,
                                       butterfly::passStrides(elems),
                                       512),
                      2});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle data_;
};

/** FFT: butterflies over complex data plus a hot twiddle table. */
class FftWorkload : public Workload
{
  public:
    explicit FftWorkload(double scale)
        : Workload({"FFT", "Fast Fourier Transform", 32768,
                    scaled(256 * kMiB, scale), 1.5, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        data_ = pt.allocate(info_.footprintBytes, gpms);
        twiddle_ = pt.allocate(1 * kMiB, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const std::size_t elems =
            data_.numPages * data_.pageBytes / 8; // complex<float>
        const std::size_t slice_elems =
            std::max<std::size_t>(1, elems / n);
        const SliceView slice = safeSlice(data_, gpm, n);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(slice.base, slice.bytes, 64), 1});
        // Bit-reversal scheduling scatters the work-item order, so
        // partner pages are far less sequential than in FWT.
        ch.push_back({butterflyChannel(data_.baseVa, elems, 8,
                                       gpm * slice_elems, slice_elems,
                                       butterfly::passStrides(elems),
                                       256, /*start_stage=*/gpm,
                                       /*index_step=*/127),
                      2});
        ch.push_back(
            {hotRegionChannel(twiddle_.baseVa,
                              twiddle_.numPages * twiddle_.pageBytes,
                              twiddle_.numPages * twiddle_.pageBytes, 64,
                              1u << 20, 0),
             1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle data_;
    BufferHandle twiddle_;
};

// =====================================================================
// Linear algebra family: MM, MT, SPMV
// =====================================================================

/**
 * MM: tiled GEMM. A and C stream locally; B tiles rotate across GPMs
 * and are re-read by every GPM (cross-GPM reuse + within-tile
 * sequential pages).
 */
class MmWorkload : public Workload
{
  public:
    explicit MmWorkload(double scale)
        : Workload({"MM", "Matrix Multiplication", 16384,
                    scaled(256 * kMiB, scale), 1.0, 128})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        a_ = pt.allocate(info_.footprintBytes * 3 / 8, gpms);
        b_ = pt.allocate(info_.footprintBytes * 3 / 8, gpms);
        c_ = pt.allocate(info_.footprintBytes / 4, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const SliceView a = safeSlice(a_, gpm, n);
        const SliceView c = safeSlice(c_, gpm, n);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(a.base, a.bytes, 64), 2});
        ch.push_back({chunkRotateChannel(b_.baseVa,
                                         b_.numPages * b_.pageBytes,
                                         128 * kKiB, 64, gpm, n),
                      3});
        ch.push_back({seqChannel(c.base, c.bytes, 64), 1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle a_;
    BufferHandle b_;
    BufferHandle c_;
};

/**
 * MT: matrix transpose. Local row reads; column-major writes touch a
 * new page on every access and cycle the whole output buffer before
 * any reuse (the long-reuse-distance thrash case of the ablation).
 */
class MtWorkload : public Workload
{
  public:
    explicit MtWorkload(double scale)
        : Workload({"MT", "Matrix Transpose", 524288,
                    scaled(2048 * kMiB, scale), 4.0, 512})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        in_ = pt.allocate(info_.footprintBytes / 2, gpms);
        out_ = pt.allocate(info_.footprintBytes / 2, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const SliceView in = safeSlice(in_, gpm, n);
        const std::size_t out_bytes = out_.numPages * out_.pageBytes;
        // Square float matrix: row stride = sqrt(bytes/4) * 4 bytes.
        const auto dim = static_cast<std::size_t>(
            std::sqrt(static_cast<double>(out_bytes) / 4.0));
        const std::size_t row_bytes = std::max<std::size_t>(
            4 * kKiB, dim * 4);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(in.base, in.bytes, 64), 1});
        // Each GPM transposes its own row block: its column-major
        // writes are offset by (dim / n) rows. Offsets are page
        // aligned (a write burst stays inside one output page), so
        // sequential prefetch buys MT almost nothing -- the <10%
        // behaviour of Fig 18.
        const std::size_t row_block_bytes =
            (std::max<std::size_t>(64, dim * 4 / n) * gpm) &
            ~std::size_t(4095);
        ch.push_back({stridedScatterChannel(out_.baseVa, out_bytes,
                                            row_bytes, row_block_bytes,
                                            /*dwell=*/8),
                      1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle in_;
    BufferHandle out_;
};

/**
 * SPMV: CSR streams locally; the x-vector gather is a mildly skewed
 * random page access across the whole wafer -- the IOMMU-swamping
 * pattern behind Figs 3 and 4.
 */
class SpmvWorkload : public Workload
{
  public:
    explicit SpmvWorkload(double scale)
        : Workload({"SPMV", "Sparse Matrix-Vector Multiplication",
                    81920, scaled(120 * kMiB, scale), 1.5, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        vals_ = pt.allocate(info_.footprintBytes * 8 / 15, gpms);
        colidx_ = pt.allocate(info_.footprintBytes * 4 / 15, gpms);
        x_ = pt.allocate(info_.footprintBytes * 2 / 15, gpms);
        y_ = pt.allocate(info_.footprintBytes / 15, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t seed) const override
    {
        const SliceView vals = safeSlice(vals_, gpm, n);
        const SliceView cols = safeSlice(colidx_, gpm, n);
        const SliceView y = safeSlice(y_, gpm, n);
        auto rng = gpmRng(seed, gpm);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(vals.base, vals.bytes, 64), 2});
        ch.push_back({seqChannel(cols.base, cols.bytes, 64), 1});
        ch.push_back({zipfChannel(x_.baseVa,
                                  x_.numPages * x_.pageBytes, 0.6,
                                  12, rng, /*dwell=*/2),
                      2});
        ch.push_back({seqChannel(y.base, y.bytes, 64), 1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle vals_;
    BufferHandle colidx_;
    BufferHandle x_;
    BufferHandle y_;
};

// =====================================================================
// Graph / iterative family: PR, FWS
// =====================================================================

/**
 * PR: PageRank. Power-law gather of neighbour ranks: hub pages are
 * extremely hot across every GPM, which is why peer caching serves 65%
 * of PR's translations in the paper.
 */
class PrWorkload : public Workload
{
  public:
    explicit PrWorkload(double scale)
        : Workload({"PR", "PageRank", 524288, scaled(14 * kMiB, scale), 1.5, 256})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        // One rank array; the gather spans the whole footprint so the
        // hot set exceeds a single GPM's L2 TLB reach and translation
        // traffic persists at steady state.
        ranks_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t seed) const override
    {
        const SliceView own = safeSlice(ranks_, gpm, n);
        auto rng = gpmRng(seed, gpm);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(own.base, own.bytes, 64), 1});
        ch.push_back({zipfChannel(ranks_.baseVa,
                                  ranks_.numPages * ranks_.pageBytes,
                                  0.9, 12, rng, /*dwell=*/3),
                      3});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle ranks_;
};

/**
 * FWS: Floyd-Warshall. Every GPM re-reads the pivot row k (a hot
 * remote region that advances each iteration) and scans the pivot
 * column (large stride), alongside local block updates.
 */
class FwsWorkload : public Workload
{
  public:
    explicit FwsWorkload(double scale)
        : Workload({"FWS", "Floyd-Warshall Shortest Paths", 65536,
                    scaled(72 * kMiB, scale), 1.0, 128})
    {
    }

    void
    allocate(GlobalPageTable &pt, std::span<const TileId> gpms) override
    {
        dist_ = pt.allocate(info_.footprintBytes, gpms);
    }

    std::vector<Addr>
    streamFor(std::size_t gpm, std::size_t n, std::size_t max_ops,
              std::uint64_t) const override
    {
        const SliceView block = safeSlice(dist_, gpm, n);
        const std::size_t bytes = dist_.numPages * dist_.pageBytes;
        const auto dim = static_cast<std::size_t>(
            std::sqrt(static_cast<double>(bytes) / 4.0));
        const std::size_t row_bytes =
            std::max<std::size_t>(4 * kKiB, dim * 4);
        std::vector<Channel> ch;
        ch.push_back({seqChannel(block.base, block.bytes, 64), 2});
        ch.push_back({hotRegionChannel(dist_.baseVa, bytes, row_bytes,
                                       64, 512, row_bytes),
                      2});
        // Column-k elements inside this GPM's row block are local;
        // scan them with a row stride restricted to the block.
        ch.push_back({stridedScatterChannel(block.base, block.bytes,
                                            row_bytes, 0),
                      1});
        return interleave(std::move(ch), max_ops);
    }

  private:
    BufferHandle dist_;
};

// =====================================================================
// Factory
// =====================================================================

const std::vector<WorkloadInfo> &
workloadTable()
{
    static const std::vector<WorkloadInfo> table = [] {
        std::vector<WorkloadInfo> t;
        const char *abbrs[] = {"AES", "BT", "FWT", "FFT", "FIR",
                               "FWS", "I2C", "KM", "MM", "MT",
                               "PR", "RELU", "SC", "SPMV"};
        for (const char *abbr : abbrs)
            t.push_back(makeWorkload(abbr)->info());
        return t;
    }();
    return table;
}

std::vector<std::string>
workloadAbbrs()
{
    std::vector<std::string> out;
    for (const auto &info : workloadTable())
        out.push_back(info.abbr);
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &abbr, double footprint_scale)
{
    if (abbr == "AES")
        return std::make_unique<AesWorkload>(footprint_scale);
    if (abbr == "BT")
        return std::make_unique<BtWorkload>(footprint_scale);
    if (abbr == "FWT")
        return std::make_unique<FwtWorkload>(footprint_scale);
    if (abbr == "FFT")
        return std::make_unique<FftWorkload>(footprint_scale);
    if (abbr == "FIR")
        return std::make_unique<FirWorkload>(footprint_scale);
    if (abbr == "FWS")
        return std::make_unique<FwsWorkload>(footprint_scale);
    if (abbr == "I2C")
        return std::make_unique<I2cWorkload>(footprint_scale);
    if (abbr == "KM")
        return std::make_unique<KmWorkload>(footprint_scale);
    if (abbr == "MM")
        return std::make_unique<MmWorkload>(footprint_scale);
    if (abbr == "MT")
        return std::make_unique<MtWorkload>(footprint_scale);
    if (abbr == "PR")
        return std::make_unique<PrWorkload>(footprint_scale);
    if (abbr == "RELU")
        return std::make_unique<ReluWorkload>(footprint_scale);
    if (abbr == "SC")
        return std::make_unique<ScWorkload>(footprint_scale);
    if (abbr == "SPMV")
        return std::make_unique<SpmvWorkload>(footprint_scale);
    hdpat_fatal("unknown workload: " << abbr);
}

} // namespace hdpat
