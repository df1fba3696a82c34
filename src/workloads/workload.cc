#include "workloads/workload.hh"

#include <algorithm>

#include "sim/log.hh"

namespace hdpat
{

std::vector<Addr>
interleave(std::vector<Channel> channels, std::size_t max_ops)
{
    hdpat_fatal_if(channels.empty(), "stream needs at least one channel");
    std::vector<int> credits;
    credits.reserve(channels.size());
    for (const Channel &c : channels) {
        hdpat_fatal_if(c.weight <= 0, "channel weight must be positive");
        credits.push_back(c.weight);
    }

    // Round-robin by weight: serve the cursor channel until its credit
    // for this round is spent, then move on; refill when all are spent.
    std::vector<Addr> addrs;
    addrs.reserve(max_ops);
    std::size_t cursor = 0;
    while (addrs.size() < max_ops) {
        std::size_t scanned = 0;
        while (credits[cursor] == 0) {
            cursor = (cursor + 1) % channels.size();
            if (++scanned > channels.size()) {
                for (std::size_t i = 0; i < channels.size(); ++i)
                    credits[i] = channels[i].weight;
                scanned = 0;
            }
        }
        --credits[cursor];
        addrs.push_back(channels[cursor].gen());
    }
    return addrs;
}

std::function<Addr()>
seqChannel(Addr base, std::size_t bytes, std::size_t stride,
           std::size_t start_offset)
{
    hdpat_fatal_if(bytes == 0 || stride == 0, "bad seq channel");
    return [base, bytes, stride, pos = start_offset % bytes]() mutable {
        const Addr addr = base + pos;
        pos += stride;
        if (pos >= bytes)
            pos %= bytes;
        return addr;
    };
}

std::function<Addr()>
chunkRotateChannel(Addr base, std::size_t bytes, std::size_t chunk_bytes,
                   std::size_t stride, std::size_t gpm,
                   std::size_t num_gpms)
{
    hdpat_fatal_if(chunk_bytes == 0 || stride == 0 || num_gpms == 0,
                   "bad chunk-rotate channel");
    const std::size_t num_chunks =
        std::max<std::size_t>(1, bytes / chunk_bytes);
    return [base, bytes, chunk_bytes, stride, num_chunks, num_gpms,
            chunk = gpm % num_chunks, pos = std::size_t(0)]() mutable {
        const std::size_t chunk_base = chunk * chunk_bytes;
        const Addr addr = base + (chunk_base + pos) % bytes;
        pos += stride;
        if (pos >= chunk_bytes) {
            pos = 0;
            chunk = (chunk + num_gpms) % num_chunks;
        }
        return addr;
    };
}

std::function<Addr()>
randomChannel(Addr base, std::size_t bytes, std::size_t align,
              std::shared_ptr<Rng> rng, unsigned dwell)
{
    hdpat_fatal_if(bytes < align || align == 0, "bad random channel");
    hdpat_fatal_if(dwell == 0, "dwell must be >= 1");
    const std::size_t slots = bytes / align;
    return [base, bytes, align, slots, dwell, rng = std::move(rng),
            cur = Addr(0), left = unsigned(0)]() mutable {
        if (left == 0) {
            cur = rng->uniformInt(slots) * align;
            left = dwell;
        }
        const Addr addr = base + cur;
        cur = (cur + 64) % bytes;
        --left;
        return addr;
    };
}

std::function<Addr()>
zipfChannel(Addr base, std::size_t bytes, double exponent,
            unsigned page_shift, std::shared_ptr<Rng> rng,
            unsigned dwell)
{
    hdpat_fatal_if(dwell == 0, "dwell must be >= 1");
    const std::size_t pages =
        std::max<std::size_t>(1, bytes >> page_shift);
    auto zipf = std::make_shared<ZipfSampler>(pages, exponent);
    const std::size_t page_bytes = std::size_t(1) << page_shift;
    return [base, bytes, page_bytes, zipf, dwell, rng = std::move(rng),
            cur = Addr(0), left = unsigned(0)]() mutable {
        if (left == 0) {
            const std::size_t page = zipf->sample(*rng);
            const std::size_t offset =
                rng->uniformInt(page_bytes / 64) * 64;
            cur = page * page_bytes + offset;
            left = dwell;
        }
        const Addr addr = base + cur;
        // Dwell walks wrap inside the buffer, as in randomChannel: a
        // sample near the end of the last page must not step past it.
        cur = (cur + 64) % bytes;
        --left;
        return addr;
    };
}

std::function<Addr()>
hotRegionChannel(Addr base, std::size_t bytes, std::size_t region_bytes,
                 std::size_t stride, std::size_t ops_per_epoch,
                 std::size_t epoch_advance)
{
    hdpat_fatal_if(region_bytes == 0 || region_bytes > bytes,
                   "bad hot-region channel");
    hdpat_fatal_if(ops_per_epoch == 0, "hot region needs epoch length");
    return [base, bytes, region_bytes, stride, ops_per_epoch,
            epoch_advance, region_start = std::size_t(0),
            pos = std::size_t(0), ops = std::size_t(0)]() mutable {
        const Addr addr = base + (region_start + pos) % bytes;
        pos = (pos + stride) % region_bytes;
        if (++ops >= ops_per_epoch) {
            ops = 0;
            pos = 0;
            region_start = (region_start + epoch_advance) % bytes;
        }
        return addr;
    };
}

std::function<Addr()>
butterflyChannel(Addr base, std::size_t elems, std::size_t elem_bytes,
                 std::size_t slice_begin, std::size_t slice_elems,
                 std::vector<std::size_t> strides,
                 std::size_t ops_per_stage, std::size_t start_stage,
                 std::size_t index_step)
{
    hdpat_fatal_if(strides.empty(), "butterfly needs stage strides");
    hdpat_fatal_if(slice_elems == 0 || elems == 0, "empty butterfly");
    hdpat_fatal_if(index_step == 0, "butterfly index step must be > 0");
    return [base, elems, elem_bytes, slice_begin, slice_elems,
            strides = std::move(strides), ops_per_stage, index_step,
            i = std::size_t(0), stage = start_stage,
            ops = std::size_t(0)]() mutable {
        stage %= strides.size();
        const std::size_t self = slice_begin + (i % slice_elems);
        const std::size_t partner = (self ^ strides[stage]) % elems;
        i += index_step;
        if (++ops >= ops_per_stage) {
            ops = 0;
            stage = (stage + 1) % strides.size();
        }
        return base + partner * elem_bytes;
    };
}

std::function<Addr()>
stridedScatterChannel(Addr base, std::size_t bytes, std::size_t stride,
                      std::size_t start_offset, unsigned dwell)
{
    hdpat_fatal_if(bytes == 0 || stride == 0, "bad strided channel");
    hdpat_fatal_if(dwell == 0, "dwell must be >= 1");
    return [base, bytes, stride, dwell, pos = start_offset % bytes,
            sub = unsigned(0)]() mutable {
        const Addr addr = base + (pos + sub * 64) % bytes;
        if (++sub >= dwell) {
            sub = 0;
            // Offset by one cache line per wrap so successive passes
            // do not replay identical addresses forever.
            pos += stride;
            if (pos >= bytes)
                pos = (pos % bytes + 64) % bytes;
        }
        return addr;
    };
}

} // namespace hdpat
