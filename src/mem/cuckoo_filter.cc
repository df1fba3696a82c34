#include "mem/cuckoo_filter.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/log.hh"

namespace hdpat
{

namespace
{

/** Round up to the next power of two (minimum 1). */
std::size_t
nextPow2(std::size_t x)
{
    if (x <= 1)
        return 1;
    return std::size_t(1) << std::bit_width(x - 1);
}

// SWAR helpers over one 4-slot bucket: the four 16-bit fingerprints
// are exactly one 64-bit word, so membership / first-empty / first-
// match resolve with word ops instead of a slot loop.
constexpr std::uint64_t kLaneLsb = 0x0001000100010001ull;
constexpr std::uint64_t kLaneMsb = 0x8000800080008000ull;

std::uint64_t
loadBucket(const std::uint16_t *slots)
{
    std::uint64_t word;
    std::memcpy(&word, slots, sizeof(word));
    return word;
}

/**
 * MSB-per-lane mask of the 16-bit lanes of @p word that are zero.
 * Borrow propagation can set spurious bits only in lanes *above* the
 * lowest zero lane, so existence tests and lowest-lane extraction are
 * both exact.
 */
std::uint64_t
zeroLanes(std::uint64_t word)
{
    return (word - kLaneLsb) & ~word & kLaneMsb;
}

/** Lane index (0..3) of the lowest set MSB in a zeroLanes() mask. */
unsigned
lowestLane(std::uint64_t mask)
{
    return static_cast<unsigned>(std::countr_zero(mask)) / 16;
}

} // namespace

static_assert(CuckooFilter::kSlotsPerBucket == 4 &&
                  sizeof(std::uint16_t) * 4 == sizeof(std::uint64_t),
              "SWAR bucket ops assume a 4 x 16-bit = 64-bit bucket");

CuckooFilter::CuckooFilter(std::size_t capacity, unsigned fingerprint_bits,
                           std::uint64_t seed)
    : fpBits_(fingerprint_bits), seed_(seed), kickRng_(seed ^ 0xc0ffee)
{
    hdpat_fatal_if(fingerprint_bits == 0 || fingerprint_bits > 16,
                   "cuckoo fingerprint bits must be in [1, 16]");
    // Size for ~95% load: buckets = capacity / (4 * 0.95), power of two.
    const std::size_t wanted =
        static_cast<std::size_t>(static_cast<double>(capacity) /
                                 (kSlotsPerBucket * 0.95)) + 1;
    // Never fewer than two buckets: with a single bucket the alternate
    // index always equals the primary (x ^ h masked by 0 is 0), so the
    // two-choice invariant of partial-key cuckoo hashing breaks and
    // every relocation kick is futile. Only capacities <= 3 are
    // affected; any capacity >= 4 already sizes to >= 2 buckets.
    numBuckets_ = std::max<std::size_t>(2, nextPow2(wanted));
    // Uninitialized: only the bitmap, one bit per 64-byte line, is
    // zeroed (1 KB for the 512 KB table of a 1 << 17 filter).
    table_.reset(new Line[lineCount()]);
    written_.assign((lineCount() + 63) / 64, 0);
}

CuckooFilter::CuckooFilter(const CuckooFilter &other)
    : numBuckets_(other.numBuckets_), fpBits_(other.fpBits_),
      seed_(other.seed_), table_(new Line[other.lineCount()]),
      written_(other.written_), count_(other.count_),
      stats_(other.stats_), kickRng_(other.kickRng_)
{
    copyWrittenLines(other);
}

CuckooFilter &
CuckooFilter::operator=(const CuckooFilter &other)
{
    if (this == &other)
        return *this;
    // A moved-from filter has no table to reuse.
    if (!table_ || lineCount() != other.lineCount())
        table_.reset(new Line[other.lineCount()]);
    numBuckets_ = other.numBuckets_;
    fpBits_ = other.fpBits_;
    seed_ = other.seed_;
    written_ = other.written_;
    count_ = other.count_;
    stats_ = other.stats_;
    kickRng_ = other.kickRng_;
    copyWrittenLines(other);
    return *this;
}

void
CuckooFilter::copyWrittenLines(const CuckooFilter &other)
{
    for (std::size_t w = 0; w < other.written_.size(); ++w) {
        for (std::uint64_t bits = other.written_[w]; bits;
             bits &= bits - 1) {
            const std::size_t line =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            table_[line] = other.table_[line];
        }
    }
}

std::uint64_t
CuckooFilter::bucketWord(std::size_t bucket) const
{
    return written(bucket) ? loadBucket(bucketSlots(bucket)) : 0;
}

std::uint64_t
CuckooFilter::hash(std::uint64_t x) const
{
    // 64-bit mix (murmur3 finalizer) keyed by the seed.
    x ^= seed_;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

CuckooFilter::Fingerprint
CuckooFilter::fingerprintOf(Vpn vpn) const
{
    // 64-bit mask so the shift is safe for any fpBits_ in [1, 16]
    // (same mask value as the old 32-bit expression at every legal
    // width, so stored fingerprints are unchanged).
    const std::uint64_t h = hash(vpn * 0x9e3779b97f4a7c15ull + 1);
    Fingerprint fp = static_cast<Fingerprint>(
        h & ((std::uint64_t{1} << fpBits_) - 1));
    // Fingerprint 0 means "empty slot"; remap to 1. Two of the 2^bits
    // hash values now produce fingerprint 1, so *its* collision rate
    // doubles while every other fingerprint keeps the nominal rate --
    // negligible at the default 12 bits, and at 1 bit it simply means
    // every stored entry is fingerprint 1. The mapping is deliberately
    // kept bit-identical to the original; benchmark outputs depend on
    // the exact filter contents.
    return fp == 0 ? 1 : fp;
}

std::size_t
CuckooFilter::indexOf(Vpn vpn) const
{
    return static_cast<std::size_t>(hash(vpn)) & (numBuckets_ - 1);
}

std::size_t
CuckooFilter::altIndex(std::size_t idx, Fingerprint fp) const
{
    return (idx ^ static_cast<std::size_t>(hash(fp))) & (numBuckets_ - 1);
}

bool
CuckooFilter::bucketInsert(std::size_t bucket, Fingerprint fp)
{
    Fingerprint *slots = bucketSlots(bucket);
    if (!written(bucket)) {
        // First write to the line: zero all 64 bytes with one fixed-
        // size store, then mark it. Its buckets are all empty, so the
        // lowest empty lane is lane 0.
        const std::size_t line = bucket / kBucketsPerLine;
        table_[line] = Line{};
        written_[line / 64] |= std::uint64_t{1} << (line % 64);
        slots[0] = fp;
        return true;
    }
    const std::uint64_t empties = zeroLanes(loadBucket(slots));
    if (!empties)
        return false;
    // Lowest empty lane first: identical slot choice to the old
    // ascending scan, so table contents stay bit-for-bit the same.
    slots[lowestLane(empties)] = fp;
    return true;
}

bool
CuckooFilter::bucketErase(std::size_t bucket, Fingerprint fp)
{
    if (!written(bucket))
        return false;
    Fingerprint *slots = bucketSlots(bucket);
    const std::uint64_t matches = zeroLanes(
        loadBucket(slots) ^ (kLaneLsb * fp));
    if (!matches)
        return false;
    slots[lowestLane(matches)] = 0;
    return true;
}

bool
CuckooFilter::insert(Vpn vpn)
{
    return insertAt(indexOf(vpn), fingerprintOf(vpn));
}

void
CuckooFilter::insertBatch(std::span<const Vpn> vpns)
{
    // Primary buckets of the VPNs in flight: hashed once, when their
    // prefetch is issued, and read back when they insert.
    std::size_t primary[kPrefetchDistance] = {};
    const auto prefetch = [&](std::size_t k) {
        const std::size_t bucket = indexOf(vpns[k]);
        primary[k % kPrefetchDistance] = bucket;
        __builtin_prefetch(bucketSlots(bucket));
    };
    const std::size_t n = vpns.size();
    for (std::size_t k = 0; k < std::min(kPrefetchDistance, n); ++k)
        prefetch(k);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i1 = primary[k % kPrefetchDistance];
        if (k + kPrefetchDistance < n)
            prefetch(k + kPrefetchDistance);
        insertAt(i1, fingerprintOf(vpns[k]));
    }
}

bool
CuckooFilter::insertAt(std::size_t i1, Fingerprint fp)
{
    ++stats_.inserts;
    // The alternate bucket is pure in (i1, fp), so computing it only
    // once the primary is full changes nothing but the work done.
    if (bucketInsert(i1, fp)) {
        ++count_;
        return true;
    }
    const std::size_t i2 = altIndex(i1, fp);
    if (bucketInsert(i2, fp)) {
        ++count_;
        return true;
    }
    // Relocate: kick random victims between the two candidate buckets.
    // Every bucket a kick touches was just found full by bucketInsert,
    // so its line is written. The kick path is recorded so a failed
    // insert can be unwound: the old behavior of dropping the final
    // homeless victim silently removed an item the filter had accepted
    // (a false negative), left the requested key stored even though
    // insert() reported failure, and let a later erase() of that key
    // delete another entry's duplicate fingerprint. Unwinding touches
    // no RNG, so successful inserts and the kick sequence stay
    // bit-identical.
    std::size_t kickIdx[kMaxKicks];
    std::uint8_t kickSlot[kMaxKicks];
    std::size_t idx = kickRng_.chance(0.5) ? i1 : i2;
    for (unsigned kick = 0; kick < kMaxKicks; ++kick) {
        const unsigned victim =
            static_cast<unsigned>(kickRng_.uniformInt(kSlotsPerBucket));
        auto &slot = bucketSlots(idx)[victim];
        kickIdx[kick] = idx;
        kickSlot[kick] = static_cast<std::uint8_t>(victim);
        std::swap(fp, slot);
        idx = altIndex(idx, fp);
        if (bucketInsert(idx, fp)) {
            ++count_;
            return true;
        }
    }
    // Undo every displacement in reverse: the table ends exactly as it
    // was before the call, so failure means "not inserted", never
    // "someone else evicted".
    for (unsigned kick = kMaxKicks; kick-- > 0;) {
        auto &slot = bucketSlots(kickIdx[kick])[kickSlot[kick]];
        std::swap(fp, slot);
    }
    ++stats_.insertFailures;
    return false;
}

bool
CuckooFilter::erase(Vpn vpn)
{
    const Fingerprint fp = fingerprintOf(vpn);
    const std::size_t i1 = indexOf(vpn);
    if (bucketErase(i1, fp) || bucketErase(altIndex(i1, fp), fp)) {
        ++stats_.deletes;
        --count_;
        return true;
    }
    return false;
}

bool
CuckooFilter::contains(Vpn vpn) const
{
    ++stats_.lookups;
    const Fingerprint fp = fingerprintOf(vpn);
    const std::size_t i1 = indexOf(vpn);
    // An unwritten line reads 0, which matches no fingerprint.
    const std::uint64_t lanes = kLaneLsb * fp;
    const bool hit = zeroLanes(bucketWord(i1) ^ lanes) != 0 ||
                     zeroLanes(bucketWord(altIndex(i1, fp)) ^ lanes) != 0;
    if (hit)
        ++stats_.positives;
    return hit;
}

} // namespace hdpat
