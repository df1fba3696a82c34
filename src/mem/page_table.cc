#include "mem/page_table.hh"

#include "sim/log.hh"

namespace hdpat
{

GlobalPageTable::GlobalPageTable(unsigned page_shift)
    : pageShift_(page_shift)
{
    hdpat_fatal_if(page_shift < 10 || page_shift > 30,
                   "unreasonable page shift " << page_shift);
}

BufferHandle
GlobalPageTable::allocate(std::size_t bytes, std::span<const TileId> homes)
{
    hdpat_fatal_if(homes.empty(), "allocate() with no home GPMs");
    hdpat_fatal_if(bytes == 0, "allocate() of zero bytes");

    const std::size_t pages = (bytes + pageBytes() - 1) / pageBytes();
    // Each ASID bump-allocates its own VPN range from the same base, so
    // every tenant's buffers land at identical VAs; only the key tag differs.
    if (spaces_.size() <= activeAsid_)
        spaces_.resize(std::size_t{activeAsid_} + 1);
    std::vector<Pte> &space = spaces_[activeAsid_];
    const Vpn cursor = kFirstVpn + space.size();
    BufferHandle handle;
    handle.baseVa = baseOf(cursor);
    handle.numPages = pages;
    handle.pageBytes = pageBytes();
    hdpat_fatal_if(cursor + pages >= (Vpn{1} << kAsidShift),
                   "VPN range overflows the ASID tag field");

    // Grow once per call, to exactly the new size, so the fill loop
    // never reallocates. Workloads allocate a few buffers per address
    // space, so the copies stay cheap; doubling the capacity instead
    // raised mm-churn's peak RSS by 0.9-1.9 MB.
    const std::size_t needed = space.size() + pages;
    if (needed > space.capacity())
        space.reserve(needed);

    // Contiguous equal blocks per home; remainder spills round-robin
    // into the earliest homes, mirroring an even driver-side split.
    const std::size_t per_home = pages / homes.size();
    const std::size_t remainder = pages % homes.size();
    for (std::size_t h = 0; h < homes.size(); ++h) {
        const TileId home = homes[h];
        hdpat_fatal_if(home < 0, "negative home tile " << home);
        const std::size_t lane = static_cast<std::size_t>(home);
        if (homeCounts_.size() <= lane) {
            homeCounts_.resize(lane + 1, 0);
            nextPfn_.resize(lane + 1, 0);
        }
        const std::size_t block = per_home + (h < remainder ? 1 : 0);
        for (std::size_t i = 0; i < block; ++i)
            space.push_back(Pte{.pfn = nextPfn_[lane]++, .home = home});
        homeCounts_[lane] += block;
    }
    return handle;
}

const Pte *
GlobalPageTable::entry(Vpn key) const
{
    const Asid asid = asidOfKey(key);
    // Unsigned: a VPN below the first one wraps past every bound.
    const Vpn offset = vpnOfKey(key) - kFirstVpn;
    return asid < spaces_.size() && offset < spaces_[asid].size()
               ? &spaces_[asid][offset]
               : nullptr;
}

bool
GlobalPageTable::unmap(Vpn vpn)
{
    Pte *pte = translateMutable(vpn);
    if (!pte)
        return false;
    --homeCounts_[static_cast<std::size_t>(pte->home)];
    pte->pfn = kInvalidPfn;
    ++mutationEpoch_;
    return true;
}

const Pte *
GlobalPageTable::remap(Vpn vpn)
{
    Pte *pte = const_cast<Pte *>(entry(vpn));
    if (!pte || pte->pfn != kInvalidPfn)
        return nullptr;
    // Same home, fresh PFN: the per-home PFN lane only ever bumps, so
    // the remapped page's PFN is distinct from every PFN the key ever
    // had -- stale cached translations can be detected by comparison.
    const std::size_t lane = static_cast<std::size_t>(pte->home);
    *pte = Pte{.pfn = nextPfn_[lane]++, .home = pte->home};
    ++homeCounts_[lane];
    return pte;
}

TileId
GlobalPageTable::lastHomeOf(Vpn vpn) const
{
    const Pte *pte = entry(vpn);
    return pte ? pte->home : kInvalidTile;
}

const Pte *
GlobalPageTable::translate(Vpn vpn) const
{
    const Pte *pte = entry(vpn);
    return pte && pte->pfn != kInvalidPfn ? pte : nullptr;
}

Pte *
GlobalPageTable::translateMutable(Vpn vpn)
{
    return const_cast<Pte *>(translate(vpn));
}

TileId
GlobalPageTable::homeOf(Vpn vpn) const
{
    const Pte *pte = translate(vpn);
    return pte ? pte->home : kInvalidTile;
}

std::size_t
GlobalPageTable::pagesHomedOn(TileId tile) const
{
    const std::size_t lane = static_cast<std::size_t>(tile);
    return lane < homeCounts_.size() ? homeCounts_[lane] : 0;
}

} // namespace hdpat
