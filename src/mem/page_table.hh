/**
 * @file
 * The global page table (held by the CPU/IOMMU) and the block-contiguous
 * buffer partitioning the paper's driver model uses (§II-A: a 480-page
 * allocation on 48 GPMs puts pages 1-10 on GPM 1, 11-20 on GPM 2, ...).
 *
 * Each GPM's "local page table" is the subset of this table homed on
 * that GPM; the GMMU walks it, and the IOMMU walks the whole table.
 */

#ifndef HDPAT_MEM_PAGE_TABLE_HH
#define HDPAT_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "sim/types.hh"

namespace hdpat
{

/** One page-table entry. */
struct Pte
{
    Pfn pfn = kInvalidPfn;
    /** GPM whose HBM holds the physical page. */
    TileId home = kInvalidTile;
    /**
     * Translation access counter, tracked in otherwise-unused PTE bits
     * (paper §IV-F) and used by the IOMMU's selective auxiliary push.
     */
    std::uint32_t accessCount = 0;
};

/** A virtual buffer returned by GlobalPageTable::allocate(). */
struct BufferHandle
{
    Addr baseVa = 0;
    std::size_t numPages = 0;
    std::size_t pageBytes = 0;

    Addr endVa() const { return baseVa + numPages * pageBytes; }
};

/**
 * Global page table plus the buffer allocator that populates it.
 */
class GlobalPageTable
{
  public:
    /** @param page_shift log2(page size); 12 -> 4 KiB. */
    explicit GlobalPageTable(unsigned page_shift = 12);

    unsigned pageShift() const { return pageShift_; }
    std::size_t pageBytes() const { return std::size_t(1) << pageShift_; }

    Vpn vpnOf(Addr va) const { return va >> pageShift_; }
    Addr baseOf(Vpn vpn) const { return Addr(vpn) << pageShift_; }

    /**
     * Allocate a buffer of @p bytes, split across @p homes in contiguous
     * equal blocks (the last home absorbs the remainder). Mappings are
     * keyed under the active ASID (asidKey); the returned buffer's VAs
     * are raw (untagged), and each ASID's VPN cursor starts at the same
     * base, so every tenant sees an identical VA layout. May move the
     * active ASID's entries: PTE pointers from earlier lookups dangle.
     */
    BufferHandle allocate(std::size_t bytes, std::span<const TileId> homes);

    /**
     * Select the address space subsequent allocate() calls populate.
     * ASID 0 (the default) tags keys to the identity, so single-tenant
     * tables are bit-identical to untagged ones.
     */
    void setActiveAsid(Asid asid) { activeAsid_ = asid; }
    Asid activeAsid() const { return activeAsid_; }

    /**
     * Remove a mapping (memory free). The caller is responsible for
     * shooting down cached copies (System::shootdown does both). Bumps
     * the mutation epoch; the entry keeps the page's home so remap()
     * can re-establish the mapping on the same HBM.
     * @return true when the VPN was mapped.
     */
    bool unmap(Vpn vpn);

    /**
     * Re-establish a mapping removed by unmap(), on the same home GPM
     * with a fresh PFN (per-home PFNs are bump-allocated and never
     * reused, so a stale cached PFN can always be told apart from the
     * post-remap one -- PFN comparison is generation comparison).
     * @return the new PTE, or nullptr when @p vpn was never unmapped
     *         or is currently mapped.
     */
    const Pte *remap(Vpn vpn);

    /**
     * Home of @p vpn when mapped, else the home it had before its last
     * unmap (kInvalidTile when never mapped). Invalidation handlers use
     * this: the async shootdown unmaps first, so by the time a holder
     * tile processes the invalidation homeOf() already answers
     * kInvalidTile.
     */
    TileId lastHomeOf(Vpn vpn) const;

    /**
     * Count of unmap() calls ever. Zero means no mapping was ever
     * retired, so install paths can skip revalidation entirely -- the
     * single-tenant fast path.
     */
    std::uint64_t mutationEpoch() const { return mutationEpoch_; }

    /** Look up a mapping; nullptr when the VPN is unmapped. */
    const Pte *translate(Vpn vpn) const;

    /** Mutable access (IOMMU bumps accessCount). */
    Pte *translateMutable(Vpn vpn);

    /** Home GPM of a VPN, or kInvalidTile when unmapped. */
    TileId homeOf(Vpn vpn) const;

    /** Total mapped pages. */
    std::size_t size() const
    {
        return std::accumulate(homeCounts_.begin(), homeCounts_.end(),
                               std::size_t{0});
    }

    /** Number of pages homed on @p tile. */
    std::size_t pagesHomedOn(TileId tile) const;

    /**
     * Visit every mapping in ascending key order (ASID-major): the
     * order cuckoo filters are seeded and churn candidates drawn in.
     * @p fn is called as fn(Vpn key, const Pte &).
     */
    template <typename Fn>
    void forEachPage(Fn &&fn) const
    {
        for (Asid asid = 0; asid < spaces_.size(); ++asid) {
            const std::vector<Pte> &space = spaces_[asid];
            for (Vpn i = 0; i < space.size(); ++i) {
                if (space[i].pfn != kInvalidPfn)
                    fn(asidKey(asid, kFirstVpn + i), space[i]);
            }
        }
    }

  private:
    /** First VPN of every address space (the null page stays unmapped). */
    static constexpr Vpn kFirstVpn = 0x100;

    /** Entry of @p key, mapped or not; nullptr when never allocated. */
    const Pte *entry(Vpn key) const;

    unsigned pageShift_;
    /**
     * spaces_[asid][vpn - kFirstVpn]: VPNs are bump-allocated, so each
     * space's size is its cursor. An unmapped entry has pfn ==
     * kInvalidPfn and keeps its home for remap() and lastHomeOf().
     */
    std::vector<std::vector<Pte>> spaces_;
    /** ASID tagged into newly allocated keys (0 = identity). */
    Asid activeAsid_ = 0;
    /** Count of unmaps ever (0 = install gates may be skipped). */
    std::uint64_t mutationEpoch_ = 0;
    /**
     * Per-home lanes indexed by TileId (tiles are small dense ids):
     * pages homed there, and the next free PFN. allocate() bumps both
     * once per page, which made per-page hash-map probes a fixture of
     * the host profile.
     */
    std::vector<std::size_t> homeCounts_;
    std::vector<Pfn> nextPfn_;
};

} // namespace hdpat

#endif // HDPAT_MEM_PAGE_TABLE_HH
