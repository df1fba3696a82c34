/**
 * @file
 * StalledOps: the index of remote ops parked behind a full remote MSHR
 * file, woken by translation key instead of by rescanning.
 *
 * A GPM's remote MSHR file bounds its concurrent remote resolutions
 * (§IV-F, Fig 19). An op that misses it while it is full parks here
 * and retries when a resolution frees an entry. The reference
 * semantics is a FIFO rescan -- on every resolution, retry every
 * parked op in stall order: an L2 TLB hit completes it, otherwise the
 * MSHR file merges it into an in-flight miss, allocates a fresh entry,
 * or rejects it again. Rescanning costs O(parked) per resolution even
 * though almost every retry bounces, so this index computes, exactly,
 * which ops that rescan would let through and returns only those, in
 * stall order, for the caller to replay with the same per-op body.
 *
 * Parked ops are grouped by key; groups are kept in first-stall order
 * and each op carries its stall sequence number. Given the caller's
 * invariants (see Gpm::wakeStalledRemote) a rescan treats every op of a
 * group alike, and lets through exactly
 *
 *  - the groups whose key is resident in the L2 TLB -- only *dirty*
 *    groups can be: a group is dirty when it was created while its key
 *    was resident, or when the L2 TLB inserted its key since the last
 *    wake (noteL2Insert);
 *  - the first free_slots other groups in first-stall order, whose
 *    first op allocates an MSHR entry and whose later ops merge.
 *
 * Everything else stays parked, keeping its sequence number.
 */

#ifndef HDPAT_GPM_STALLED_OPS_HH
#define HDPAT_GPM_STALLED_OPS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/vpn_slot_map.hh"
#include "sim/types.hh"

namespace hdpat
{


class StalledOps
{
  public:
    /** One parked op, as returned by wake(). */
    struct Op
    {
        Addr va = 0;
        Vpn key = 0;
        std::uint64_t seq = 0;
    };

    /** What one wake() did to the parked population. */
    struct WakeCount
    {
        /** Ops parked before the wake (the rescan's departures). */
        std::uint64_t before = 0;
        /** Ops still parked after it (the rescan's re-arrivals). */
        std::uint64_t remaining = 0;
        /**
         * Highest parked count the rescan reached right after
         * re-parking an op: @c before minus the woken ops that precede
         * the first op left parked (0 when none is left).
         */
        std::uint64_t high = 0;
    };

    /** Parked ops. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** True when some op with @p key is parked. */
    bool contains(Vpn key) const { return index_.find(key) != kNone; }

    /**
     * Park an op at the back of the stall order. @p resident is asked,
     * only when @p key starts a new group, whether the L2 TLB holds
     * @p key right now.
     */
    template <typename Resident>
    void
    push(Addr va, Vpn key, Resident &&resident)
    {
        std::uint32_t id = index_.find(key);
        if (id == kNone)
            id = openGroup(key, resident(key));
        append(group(id), va);
    }

    /** The L2 TLB just inserted @p key: its group, if any, is dirty. */
    void
    noteL2Insert(Vpn key)
    {
        const std::uint32_t id = index_.find(key);
        if (id == kNone)
            return;
        Group &g = group(id);
        if (!g.dirty) {
            g.dirty = true;
            dirty_.push_back(id);
        }
    }

    /**
     * Remove the ops a FIFO rescan would let through and append them
     * to @p out (cleared first) in stall order. @p resident reports
     * whether the L2 TLB holds a key; @p free_slots is the number of
     * MSHR entries the rescan could allocate.
     */
    template <typename Resident>
    WakeCount
    wake(std::size_t free_slots, Resident &&resident, std::vector<Op> &out)
    {
        out.clear();
        woken_.clear();
        for (const std::uint32_t id : dirty_) {
            Group &g = group(id);
            g.dirty = false;
            if (resident(g.key)) {
                g.woken = true;
                woken_.push_back(id);
            }
        }
        dirty_.clear();
        return drain(free_slots, out);
    }

  private:
    static constexpr std::uint32_t kNone = VpnSlotMap::kNone;

    /** A parked op; ops of one group form a singly linked list. */
    struct Node
    {
        Addr va = 0;
        std::uint64_t seq = 0;
        std::uint32_t next = kNone;
    };

    struct Group
    {
        Vpn key = 0;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
        /** Dirty: the key may be resident in the L2 TLB. */
        bool dirty = false;
        /** Picked by the wake in progress. */
        bool woken = false;
        /** Woken groups stay in groups_ until they reach the front. */
        bool live = false;
    };

    Group &group(std::uint32_t id) { return groups_[id - baseId_]; }

    std::uint32_t openGroup(Vpn key, bool resident);
    void append(Group &g, Addr va);

    /** Pick the allocating groups, then move every woken op to @p out. */
    WakeCount drain(std::size_t free_slots, std::vector<Op> &out);

    /** Groups in first-stall order; id = baseId_ + position. */
    std::vector<Group> groups_;
    std::uint32_t baseId_ = 0;
    /** Position of the first group that may still be live. */
    std::size_t front_ = 0;

    /** Key -> group id of every live group. */
    VpnSlotMap index_;
    std::vector<Node> nodes_;
    std::uint32_t freeNode_ = kNone;

    std::vector<std::uint32_t> dirty_;
    /** Scratch: ids of the groups the current wake lets through. */
    std::vector<std::uint32_t> woken_;

    std::uint64_t nextSeq_ = 0;
    std::size_t size_ = 0;
};

} // namespace hdpat

#endif // HDPAT_GPM_STALLED_OPS_HH
