/**
 * @file
 * VpnSlotMap: a flat open-addressing map from a translation key (VPN
 * or ASID-tagged VPN) to a 32-bit slot index.
 *
 * The hot bookkeeping tables that index per-key state living in a
 * slab (the GPM's stalled-op index, MSHR entries) need find / insert /
 * erase on every miss, and std::unordered_map pays a node allocation
 * per insert for that. This map keeps its cells in one power-of-two
 * array: Fibonacci hashing picks the home cell, collisions probe
 * linearly, and erase shifts the rest of the probe run back instead
 * of leaving tombstones, so lookups never slow down with churn. The
 * table doubles at half load and never shrinks; once grown, steady
 * state allocates nothing.
 */

#ifndef HDPAT_MEM_VPN_SLOT_MAP_HH
#define HDPAT_MEM_VPN_SLOT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace hdpat
{

class VpnSlotMap
{
  public:
    /** Returned by find() for an absent key; never a stored value. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** The value stored for @p key, or kNone. */
    std::uint32_t
    find(Vpn key) const
    {
        if (size_ == 0)
            return kNone;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Cell &c = cells_[i];
            if (c.value == kNone)
                return kNone;
            if (c.key == key)
                return c.value;
        }
    }

    /** Map @p key to @p value; @p key must be absent. */
    void
    insert(Vpn key, std::uint32_t value)
    {
        if (2 * (size_ + 1) > cells_.size())
            grow();
        place(key, value);
        ++size_;
    }

    /** Remove @p key. @return false if it was absent. */
    bool
    erase(Vpn key)
    {
        if (size_ == 0)
            return false;
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (cells_[i].value == kNone)
                return false;
            if (cells_[i].key == key)
                break;
        }
        // Backward-shift: pull every later cell of the probe run whose
        // home does not lie in (hole, j] into the hole.
        for (std::size_t j = (i + 1) & mask_; cells_[j].value != kNone;
             j = (j + 1) & mask_) {
            const std::size_t h = home(cells_[j].key);
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                cells_[i] = cells_[j];
                i = j;
            }
        }
        cells_[i].value = kNone;
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    struct Cell
    {
        Vpn key = 0;
        std::uint32_t value = kNone;
    };

    std::size_t
    home(Vpn key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    void
    place(Vpn key, std::uint32_t value)
    {
        std::size_t i = home(key);
        while (cells_[i].value != kNone)
            i = (i + 1) & mask_;
        cells_[i] = {key, value};
    }

    void
    grow()
    {
        std::vector<Cell> old = std::move(cells_);
        const std::size_t cap = old.empty() ? 16 : 2 * old.size();
        cells_.assign(cap, Cell{});
        mask_ = cap - 1;
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --shift_;
        for (const Cell &c : old)
            if (c.value != kNone)
                place(c.key, c.value);
    }

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace hdpat

#endif // HDPAT_MEM_VPN_SLOT_MAP_HH
