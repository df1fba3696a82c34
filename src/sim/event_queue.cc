#include "sim/event_queue.hh"

#include <bit>
#include <utility>

#include "sim/log.hh"

namespace hdpat
{

EventQueue::EventQueue()
    : bucketHead_(kNumBuckets, kNoSlot), bucketTail_(kNumBuckets, kNoSlot)
{
}

EventQueue::~EventQueue() = default;

void
EventQueue::schedule(Tick when, EventFn fn)
{
    hdpat_panic_if(when < lastPop_,
                   "scheduling into the queue's past: when="
                       << when << " last-popped=" << lastPop_);
    const std::uint32_t s = allocSlot();
    Slot &slot = slots_[s];
    slot.fn = std::move(fn);
    slot.when = when;
    slot.seq = nextSeq_++;
    slot.next = kNoSlot;

    if (when - lastPop_ < kNumBuckets) {
        const std::size_t b =
            static_cast<std::size_t>(when & kBucketMask);
        if (bucketHead_[b] == kNoSlot) {
            bucketHead_[b] = s;
            setBucketBit(b);
        } else {
            slots_[bucketTail_[b]].next = s;
        }
        bucketTail_[b] = s;
        ++calendarCount_;
    } else {
        overflow_.push_back(OverflowRef{when, slot.seq, s});
        overflowSiftUp(overflow_.size() - 1);
    }
    ++lifetimeScheduled_;
    ++size_;
    if (size_ > highWater_)
        highWater_ = size_;
}

Tick
EventQueue::nextTick() const
{
    if (size_ == 0)
        return kTickNever;
    Tick cal_tick = kTickNever;
    if (calendarCount_ > 0) {
        const std::size_t bucket = nextOccupiedBucket();
        cal_tick = slots_[bucketHead_[bucket]].when;
    }
    if (!overflow_.empty() && overflow_.front().when < cal_tick)
        return overflow_.front().when;
    return cal_tick;
}

EventFn
EventQueue::pop(Tick &when)
{
    hdpat_panic_if(size_ == 0, "pop() on an empty event queue");
    --size_;
    Tick cal_tick = kTickNever;
    std::size_t bucket = 0;
    if (calendarCount_ > 0) {
        bucket = nextOccupiedBucket();
        cal_tick = slots_[bucketHead_[bucket]].when;
    }

    std::uint32_t s;
    if (!overflow_.empty() && overflow_.front().when <= cal_tick) {
        // Tick tie goes to the overflow event: it was scheduled when
        // this tick was beyond the wheel's horizon, i.e. at an earlier
        // simulated time than any same-tick wheel event, so its seq is
        // provably smaller (see the header's determinism contract).
        s = overflow_.front().slot;
        overflow_.front() = overflow_.back();
        overflow_.pop_back();
        if (!overflow_.empty())
            overflowSiftDown(0);
    } else {
        s = bucketHead_[bucket];
        bucketHead_[bucket] = slots_[s].next;
        if (bucketHead_[bucket] == kNoSlot) {
            bucketTail_[bucket] = kNoSlot;
            clearBucketBit(bucket);
        }
        --calendarCount_;
    }

    Slot &slot = slots_[s];
    when = slot.when;
    lastPop_ = when;
    EventFn fn = std::move(slot.fn);
    slot.next = freeHead_;
    freeHead_ = s;
    return fn;
}

void
EventQueue::clear()
{
    // Destroy every pending callback now (captures may own resources),
    // then return the whole slab to the free list.
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
        for (std::uint32_t s = bucketHead_[b]; s != kNoSlot;
             s = slots_[s].next) {
            slots_[s].fn = EventFn();
        }
        bucketHead_[b] = kNoSlot;
        bucketTail_[b] = kNoSlot;
    }
    for (const OverflowRef &ref : overflow_)
        slots_[ref.slot].fn = EventFn();
    overflow_.clear();
    occupied_.fill(0);
    occupiedSummary_ = 0;
    calendarCount_ = 0;
    lastPop_ = 0;
    freeHead_ = kNoSlot;
    for (std::size_t i = slots_.size(); i-- > 0;) {
        slots_[i].next = freeHead_;
        freeHead_ = static_cast<std::uint32_t>(i);
    }
    size_ = 0;
    nextSeq_ = 0;
}

void
EventQueue::reserve(std::size_t n)
{
    if (slots_.size() < n)
        growSlab(n);
    overflow_.reserve(n);
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ == kNoSlot) {
        growSlab(slots_.empty() ? 64 : slots_.size() * 2);
    }
    const std::uint32_t s = freeHead_;
    freeHead_ = slots_[s].next;
    return s;
}

void
EventQueue::growSlab(std::size_t wanted)
{
    const std::size_t old = slots_.size();
    hdpat_panic_if(wanted > kNoSlot, "event slab exceeds index range");
    slots_.resize(wanted);
    // Chain the new slots onto the free list, lowest index on top so
    // fresh queues hand out slot 0 first (cache-friendly, and keeps
    // slab growth append-only in steady state).
    for (std::size_t i = wanted; i-- > old;) {
        slots_[i].next = freeHead_;
        freeHead_ = static_cast<std::uint32_t>(i);
    }
}

void
EventQueue::setBucketBit(std::size_t bucket)
{
    occupied_[bucket >> 6] |= std::uint64_t(1) << (bucket & 63);
    occupiedSummary_ |= std::uint64_t(1) << (bucket >> 6);
}

void
EventQueue::clearBucketBit(std::size_t bucket)
{
    occupied_[bucket >> 6] &= ~(std::uint64_t(1) << (bucket & 63));
    if (occupied_[bucket >> 6] == 0)
        occupiedSummary_ &= ~(std::uint64_t(1) << (bucket >> 6));
}

std::size_t
EventQueue::nextOccupiedBucket() const
{
    // Circular first-set-bit scan starting at the wheel's cursor. All
    // pending wheel ticks live in [lastPop_, lastPop_ + kNumBuckets),
    // so the first occupied bucket in circular order from the cursor
    // is the earliest calendar tick.
    const std::size_t start =
        static_cast<std::size_t>(lastPop_ & kBucketMask);
    const std::size_t w = start >> 6;
    const std::uint64_t head =
        occupied_[w] & (~std::uint64_t(0) << (start & 63));
    if (head)
        return (w << 6) | static_cast<std::size_t>(std::countr_zero(head));
    // Words strictly after the cursor's word, then wrap to the lowest
    // set word (whose bits, if it is the cursor's word again, are all
    // below the cursor -- the wrapped top of the window).
    std::uint64_t summary =
        w + 1 < occupied_.size()
            ? occupiedSummary_ & (~std::uint64_t(0) << (w + 1))
            : 0;
    if (!summary)
        summary = occupiedSummary_;
    const std::size_t w2 =
        static_cast<std::size_t>(std::countr_zero(summary));
    return (w2 << 6) |
           static_cast<std::size_t>(std::countr_zero(occupied_[w2]));
}

void
EventQueue::overflowSiftUp(std::size_t idx)
{
    while (idx > 0) {
        const std::size_t parent = (idx - 1) / 2;
        const OverflowRef &p = overflow_[parent];
        const OverflowRef &c = overflow_[idx];
        if (p.when < c.when || (p.when == c.when && p.seq < c.seq))
            break;
        std::swap(overflow_[parent], overflow_[idx]);
        idx = parent;
    }
}

void
EventQueue::overflowSiftDown(std::size_t idx)
{
    const std::size_t n = overflow_.size();
    const auto earlier = [this](std::size_t a, std::size_t b) {
        const OverflowRef &x = overflow_[a];
        const OverflowRef &y = overflow_[b];
        return x.when < y.when || (x.when == y.when && x.seq < y.seq);
    };
    while (true) {
        const std::size_t left = 2 * idx + 1;
        const std::size_t right = left + 1;
        std::size_t smallest = idx;
        if (left < n && earlier(left, smallest))
            smallest = left;
        if (right < n && earlier(right, smallest))
            smallest = right;
        if (smallest == idx)
            break;
        std::swap(overflow_[idx], overflow_[smallest]);
        idx = smallest;
    }
}

} // namespace hdpat
