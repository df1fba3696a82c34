#include "gpm/stalled_ops.hh"

#include <algorithm>
#include <limits>

namespace hdpat
{

std::uint32_t
StalledOps::openGroup(Vpn key, bool resident)
{
    const auto id =
        static_cast<std::uint32_t>(baseId_ + groups_.size());
    Group g;
    g.key = key;
    g.dirty = resident;
    g.live = true;
    groups_.push_back(g);
    if (resident)
        dirty_.push_back(id);
    index_.insert(key, id);
    return id;
}

void
StalledOps::append(Group &g, Addr va)
{
    std::uint32_t n = freeNode_;
    if (n != kNone) {
        freeNode_ = nodes_[n].next;
    } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[n] = {va, nextSeq_++, kNone};
    if (g.tail == kNone)
        g.head = n;
    else
        nodes_[g.tail].next = n;
    g.tail = n;
    ++size_;
}

StalledOps::WakeCount
StalledOps::drain(std::size_t free_slots, std::vector<Op> &out)
{
    WakeCount count;
    count.before = size_;

    // The rescan allocates for the first free_slots groups it reaches
    // that the L2 TLB cannot serve; the next such group is the first
    // to bounce, and its head is the first op left parked.
    std::uint64_t first_left = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t pos = front_; pos < groups_.size(); ++pos) {
        Group &g = groups_[pos];
        if (!g.live || g.woken)
            continue;
        if (free_slots == 0) {
            first_left = nodes_[g.head].seq;
            break;
        }
        --free_slots;
        g.woken = true;
        woken_.push_back(static_cast<std::uint32_t>(baseId_ + pos));
    }

    std::uint64_t woken_before_left = 0;
    for (const std::uint32_t id : woken_) {
        Group &g = group(id);
        for (std::uint32_t n = g.head; n != kNone;) {
            Node &node = nodes_[n];
            out.push_back({node.va, g.key, node.seq});
            woken_before_left += node.seq < first_left;
            const std::uint32_t next = node.next;
            node.next = freeNode_;
            freeNode_ = n;
            n = next;
        }
        g.live = false;
        g.woken = false;
        index_.erase(g.key);
    }
    // Each group's list is in stall order; interleave groups by seq.
    if (woken_.size() > 1) {
        std::sort(out.begin(), out.end(),
                  [](const Op &a, const Op &b) { return a.seq < b.seq; });
    }
    size_ -= out.size();
    count.remaining = size_;
    if (size_ != 0)
        count.high = count.before - woken_before_left;

    // Retire the dead prefix of the group order; compact once it is
    // at least half of the storage.
    while (front_ < groups_.size() && !groups_[front_].live)
        ++front_;
    if (front_ == groups_.size() ||
        (front_ >= 64 && 2 * front_ >= groups_.size())) {
        groups_.erase(groups_.begin(),
                      groups_.begin() + static_cast<std::ptrdiff_t>(front_));
        baseId_ += static_cast<std::uint32_t>(front_);
        front_ = 0;
    }
    return count;
}

} // namespace hdpat
