#include "mem/tlb.hh"

#include <bit>
#include <cstring>

#include "sim/log.hh"

namespace hdpat
{

namespace
{

// SWAR helpers over eight fingerprint bytes (one 64-bit word).
constexpr std::uint64_t kByteLsb = 0x0101010101010101ull;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;

std::uint64_t
loadWord(const std::uint8_t *bytes)
{
    std::uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    return word;
}

/**
 * MSB-per-byte mask of the bytes of @p word that are zero. Unlike the
 * borrow trick of the cuckoo filter, no carry crosses a byte, so every
 * set bit is a true zero byte, not only the lowest one.
 */
std::uint64_t
zeroBytes(std::uint64_t word)
{
    return ~(((word & kLow7) + kLow7) | word | kLow7);
}

/** Byte index (0..7) of the lowest set MSB in a zeroBytes() mask. */
std::size_t
lowestByte(std::uint64_t mask)
{
    return static_cast<std::size_t>(std::countr_zero(mask)) / 8;
}

} // namespace

Tlb::Tlb(std::size_t num_sets, std::size_t num_ways)
    : numSets_(num_sets), numWays_(num_ways),
      stride_((num_ways + 7) / 8 * 8)
{
    hdpat_fatal_if(num_sets == 0 || num_ways == 0,
                   "TLB requires at least one set and one way");
    const std::size_t n = numSets_ * stride_;
    // Tag/payload/LRU/flag lanes stay uninitialized (guarded by the
    // fingerprint byte); only the fingerprint lane is zeroed, so
    // constructing a TLB costs one short memset instead of touching
    // every entry.
    fps_.reset(new std::uint8_t[n]());
    vpns_.reset(new Vpn[n]);
    pfns_.reset(new Pfn[n]);
    lru_.reset(new std::uint64_t[n]);
    flags_.reset(new std::uint8_t[n]);
}

Tlb::Probe
Tlb::probeOf(Vpn vpn) const
{
    // Mix bits so strided VPN streams do not all land in one set.
    std::uint64_t x = vpn;
    x ^= x >> 17;
    x *= 0xed5ad4bbull;
    // The fingerprint is the top of a second multiplicative mix: it
    // depends on every bit of x, so VPNs that share a set (the same
    // x % sets) still spread over all 128 fingerprints.
    const auto fp = static_cast<std::uint8_t>(
        0x80 | ((x * 0x9e3779b97f4a7c15ull) >> 57));
    return {static_cast<std::size_t>(x % numSets_) * stride_, fp};
}

std::size_t
Tlb::findSlot(Vpn vpn, const Probe &probe) const
{
    // Match the set's fingerprint bytes a word at a time; only the
    // matching ways read the tag lane. Empty and padding bytes are 0
    // and never match a fingerprint (its top bit is set), so every
    // candidate is a valid way. At most one valid way holds the VPN
    // (insert refreshes in place), so returning on the first tag
    // match is exact.
    const std::uint64_t want = kByteLsb * probe.fp;
    for (std::size_t w = 0; w < stride_; w += 8) {
        for (std::uint64_t m = zeroBytes(loadWord(&fps_[probe.base + w]) ^
                                         want);
             m != 0; m &= m - 1) {
            const std::size_t i = probe.base + w + lowestByte(m);
            if (vpns_[i] == vpn)
                return i;
        }
    }
    return kNone;
}

TlbEntry
Tlb::entryAt(std::size_t i) const
{
    TlbEntry e;
    e.vpn = vpns_[i];
    e.pfn = pfns_[i];
    e.remote = (flags_[i] & kRemote) != 0;
    e.prefetched = (flags_[i] & kPrefetched) != 0;
    return e;
}

std::optional<Pfn>
Tlb::lookup(Vpn vpn)
{
    ++stats_.lookups;
    const std::size_t i = findSlot(vpn);
    if (i == kNone)
        return std::nullopt;
    ++stats_.hits;
    lru_[i] = ++lruClock_;
    return pfns_[i];
}

const TlbEntry *
Tlb::lookupEntry(Vpn vpn)
{
    ++stats_.lookups;
    const std::size_t i = findSlot(vpn);
    if (i == kNone)
        return nullptr;
    ++stats_.hits;
    lru_[i] = ++lruClock_;
    scratch_ = entryAt(i);
    return &scratch_;
}

std::optional<Pfn>
Tlb::peek(Vpn vpn) const
{
    const std::size_t i = findSlot(vpn);
    if (i == kNone)
        return std::nullopt;
    return pfns_[i];
}

std::optional<TlbEntry>
Tlb::insert(Vpn vpn, Pfn pfn, bool remote, bool prefetched)
{
    ++stats_.inserts;
    const std::uint8_t newFlags =
        (remote ? kRemote : 0) | (prefetched ? kPrefetched : 0);
    const Probe probe = probeOf(vpn);
    if (const std::size_t i = findSlot(vpn, probe); i != kNone) {
        pfns_[i] = pfn;
        flags_[i] = newFlags;
        lru_[i] = ++lruClock_;
        return std::nullopt;
    }

    // Victim: the first empty way, else the strictly-least-recently
    // used way (ties keep the lowest way, as the AoS scan did). Padding
    // bytes follow every real way, so a first zero byte past the last
    // way means the set is full.
    std::size_t victim = kNone;
    for (std::size_t w = 0; w < stride_; w += 8) {
        if (const std::uint64_t m =
                zeroBytes(loadWord(&fps_[probe.base + w]))) {
            if (w + lowestByte(m) < numWays_)
                victim = probe.base + w + lowestByte(m);
            break;
        }
    }

    std::optional<TlbEntry> evicted;
    if (victim == kNone) {
        victim = probe.base;
        for (std::size_t i = probe.base + 1; i < probe.base + numWays_; ++i)
            if (lru_[i] < lru_[victim])
                victim = i;
        evicted = entryAt(victim);
        ++stats_.evictions;
    } else {
        ++occupancy_;
    }
    fps_[victim] = probe.fp;
    vpns_[victim] = vpn;
    pfns_[victim] = pfn;
    flags_[victim] = newFlags;
    lru_[victim] = ++lruClock_;
    return evicted;
}

std::optional<TlbEntry>
Tlb::invalidate(Vpn vpn)
{
    const std::size_t i = findSlot(vpn);
    if (i == kNone)
        return std::nullopt;
    TlbEntry copy = entryAt(i);
    fps_[i] = 0;
    --occupancy_;
    return copy;
}

void
Tlb::flush()
{
    std::memset(fps_.get(), 0, numSets_ * stride_);
    occupancy_ = 0;
}

} // namespace hdpat
