/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are arbitrary callbacks scheduled at an absolute tick. Events
 * scheduled for the same tick execute in scheduling order (FIFO), which
 * keeps simulations deterministic for a fixed seed.
 *
 * The queue is a calendar: a bucketed timing wheel for near-future
 * events backed by an overflow min-heap for far-future ones. Nearly
 * every event the simulator schedules uses one of a handful of small
 * fixed deltas (NoC hop latency, TLB/IOMMU pipeline stages, HBM
 * latency), so schedule and pop are O(1) appends/removals on a per-tick
 * FIFO bucket. Callback storage lives in a stable slab of slots reused
 * through a free list -- the 136-byte EventFn payload is written once
 * and never moved by the ordering structure, and steady-state
 * scheduling performs no heap allocation.
 *
 * Determinism contract: pops come in nondecreasing (tick, seq) order
 * where seq is the schedule order, so same-tick events fire FIFO. The
 * calendar keeps this without merging structures because an overflow
 * event at tick T was necessarily scheduled at an earlier simulated
 * time than any bucket event at T (it was out of the wheel's horizon
 * then), hence always has the smaller seq -- popping overflow-first on
 * tick ties is exact.
 */

#ifndef HDPAT_SIM_EVENT_QUEUE_HH
#define HDPAT_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/types.hh"

namespace hdpat
{

/**
 * A (tick, sequence) ordered queue of events.
 *
 * The sequence number breaks ties so that same-tick events fire in the
 * order they were scheduled.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @pre when must not be in the past relative to the event currently
     *      executing; scheduling "now" is allowed.
     */
    void schedule(Tick when, EventFn fn);

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Tick of the earliest pending event; kTickNever when empty. */
    Tick nextTick() const;

    /**
     * Pop and return the earliest event.
     *
     * @pre !empty()
     * @param[out] when Receives the event's tick.
     * @return The event callback, moved out of the queue.
     */
    EventFn pop(Tick &when);

    /**
     * Discard all pending events. The same-tick tie-break sequence
     * restarts, but scheduledCount() keeps counting: it reports the
     * lifetime total, which a reset must not rewind. The pending
     * high-water mark survives too.
     */
    void clear();

    /**
     * Pre-size the backing storage (callback slab and overflow heap)
     * for @p n simultaneously pending events, so steady-state
     * scheduling below that mark never allocates.
     */
    void reserve(std::size_t n);

    /** Total number of events ever scheduled (statistics). */
    std::uint64_t scheduledCount() const { return lifetimeScheduled_; }

    /** Most events ever pending at once (lifetime; survives clear). */
    std::size_t pendingHighWater() const { return highWater_; }

  private:
    /** Wheel size in single-tick buckets; deltas below this are O(1). */
    static constexpr std::size_t kNumBuckets = 4096;
    static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /**
     * One pending event. Slots live in a slab indexed by the wheel and
     * the overflow heap; the EventFn is written at schedule and moved
     * out at pop, never relocated in between (slab growth aside).
     */
    struct Slot
    {
        EventFn fn;
        Tick when = 0;
        std::uint64_t seq = 0;
        /** Bucket FIFO chain / free-list link. */
        std::uint32_t next = kNoSlot;
    };

    /** Overflow heap entry: ordering fields only, payload in the slab. */
    struct OverflowRef
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    std::uint32_t allocSlot();
    void growSlab(std::size_t wanted);
    void setBucketBit(std::size_t bucket);
    void clearBucketBit(std::size_t bucket);
    /** First occupied bucket at or circularly after lastPop_. */
    std::size_t nextOccupiedBucket() const;
    void overflowSiftUp(std::size_t idx);
    void overflowSiftDown(std::size_t idx);

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
    std::vector<std::uint32_t> bucketHead_;
    std::vector<std::uint32_t> bucketTail_;
    /** One bit per bucket, plus a bit-per-word summary for the scan. */
    std::array<std::uint64_t, kNumBuckets / 64> occupied_{};
    std::uint64_t occupiedSummary_ = 0;
    std::vector<OverflowRef> overflow_;
    std::size_t calendarCount_ = 0;
    /**
     * Tick of the most recent pop: the wheel covers
     * [lastPop_, lastPop_ + kNumBuckets). All pending events are
     * >= lastPop_ (the engine never schedules into the past), so the
     * window maps injectively onto the buckets.
     */
    Tick lastPop_ = 0;

    std::size_t size_ = 0;
    std::size_t highWater_ = 0;
    /** Tie-break for same-tick FIFO order; restarts on clear(). */
    std::uint64_t nextSeq_ = 0;
    /** Lifetime schedule count; survives clear(). */
    std::uint64_t lifetimeScheduled_ = 0;
};

} // namespace hdpat

#endif // HDPAT_SIM_EVENT_QUEUE_HH
