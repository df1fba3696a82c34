/**
 * @file
 * Unit + property tests for the cuckoo filter: the no-false-negative
 * guarantee HDPAT's translation path depends on (§II-B), deletion
 * support, and bounded false-positive rates.
 */

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cuckoo_filter.hh"
#include "sim/rng.hh"

namespace hdpat
{
namespace
{

TEST(CuckooFilterTest, InsertedItemsAreFound)
{
    CuckooFilter filter(1024);
    for (Vpn v = 100; v < 600; ++v)
        ASSERT_TRUE(filter.insert(v));
    for (Vpn v = 100; v < 600; ++v)
        EXPECT_TRUE(filter.contains(v)) << "vpn " << v;
    EXPECT_EQ(filter.size(), 500u);
}

TEST(CuckooFilterTest, EraseRemovesExactlyOneCopy)
{
    CuckooFilter filter(256);
    ASSERT_TRUE(filter.insert(42));
    ASSERT_TRUE(filter.insert(42));
    EXPECT_EQ(filter.size(), 2u);

    EXPECT_TRUE(filter.erase(42));
    EXPECT_TRUE(filter.contains(42)); // One copy remains.
    EXPECT_TRUE(filter.erase(42));
    EXPECT_EQ(filter.size(), 0u);
}

TEST(CuckooFilterTest, EraseMissingReturnsFalse)
{
    CuckooFilter filter(256);
    filter.insert(1);
    EXPECT_FALSE(filter.erase(999999));
    EXPECT_EQ(filter.size(), 1u);
}

TEST(CuckooFilterTest, FalsePositiveRateIsSmall)
{
    CuckooFilter filter(4096, 12);
    for (Vpn v = 0; v < 4000; ++v)
        ASSERT_TRUE(filter.insert(v));

    int false_positives = 0;
    const int probes = 100000;
    for (int i = 0; i < probes; ++i) {
        const Vpn v = 1000000 + static_cast<Vpn>(i);
        false_positives += filter.contains(v);
    }
    // 12-bit fingerprints, 4-slot buckets: expected rate ~2*4/2^12 < 1%.
    EXPECT_LT(static_cast<double>(false_positives) / probes, 0.01);
}

TEST(CuckooFilterTest, NoFalseNegativesUnderChurn)
{
    CuckooFilter filter(2048);
    Rng rng(55);
    std::vector<Vpn> present;
    for (int round = 0; round < 5000; ++round) {
        if (present.size() < 1500 && rng.chance(0.6)) {
            const Vpn v = rng.uniformInt(1u << 20);
            if (filter.insert(v))
                present.push_back(v);
        } else if (!present.empty()) {
            const std::size_t idx = rng.uniformInt(present.size());
            ASSERT_TRUE(filter.erase(present[idx]));
            present[idx] = present.back();
            present.pop_back();
        }
    }
    for (Vpn v : present)
        EXPECT_TRUE(filter.contains(v));
}

TEST(CuckooFilterTest, OverloadEventuallyFails)
{
    CuckooFilter filter(64);
    std::size_t inserted = 0;
    bool failed = false;
    for (Vpn v = 0; v < 100000 && !failed; ++v) {
        if (filter.insert(v))
            ++inserted;
        else
            failed = true;
    }
    EXPECT_TRUE(failed);
    EXPECT_GT(filter.stats().insertFailures, 0u);
    // Must still have achieved a healthy load before failing.
    EXPECT_GT(filter.loadFactor(), 0.7);
}

TEST(CuckooFilterTest, StatsAreTracked)
{
    CuckooFilter filter(128);
    filter.insert(5);
    filter.contains(5);
    filter.contains(6);
    filter.erase(5);
    EXPECT_EQ(filter.stats().inserts, 1u);
    EXPECT_EQ(filter.stats().lookups, 2u);
    EXPECT_GE(filter.stats().positives, 1u);
    EXPECT_EQ(filter.stats().deletes, 1u);
}

TEST(CuckooFilterTest, DeterministicAcrossInstances)
{
    CuckooFilter a(512, 12, 99), b(512, 12, 99);
    for (Vpn v = 0; v < 300; ++v) {
        EXPECT_EQ(a.insert(v), b.insert(v));
    }
    for (Vpn v = 0; v < 1000; ++v)
        EXPECT_EQ(a.contains(v), b.contains(v));
}

/** Whole-filter equality: slots, count and every statistic. */
void
expectSameState(const CuckooFilter &a, const CuckooFilter &b)
{
    ASSERT_EQ(a.slotCount(), b.slotCount());
    for (std::size_t bucket = 0;
         bucket < a.slotCount() / CuckooFilter::kSlotsPerBucket; ++bucket)
        ASSERT_EQ(a.bucketWord(bucket), b.bucketWord(bucket))
            << "bucket " << bucket;
    EXPECT_EQ(a.size(), b.size());
    EXPECT_TRUE(a.stats() == b.stats());
}

TEST(CuckooFilterTest, BatchInsertMatchesInsertLoop)
{
    // insertBatch() must leave exactly the filter an insert() loop
    // leaves, kick RNG included: the inserts that follow the batch
    // kick on both filters and must land identically. Capacity 64 and
    // the 2,000-into-1,024 case overflow (kicks and failed inserts);
    // 3 VPNs is shorter than the prefetch distance.
    struct Case
    {
        std::size_t capacity;
        std::size_t vpns;
        bool overloaded;
    };
    const Case cases[] = {
        {64, 400, true},   {1024, 2000, true},     {1024, 600, false},
        {4096, 3, false},  {1u << 17, 1800, false}, {0, 40, true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE("capacity " + std::to_string(c.capacity) + ", " +
                     std::to_string(c.vpns) + " vpns");
        Rng rng(c.capacity + c.vpns);
        std::vector<Vpn> vpns(c.vpns);
        for (Vpn &v : vpns)
            v = 0x100 + rng.uniformInt(1u << 20);

        CuckooFilter loop(c.capacity), batch(c.capacity);
        for (Vpn v : vpns)
            loop.insert(v);
        batch.insertBatch(vpns);
        expectSameState(loop, batch);
        EXPECT_EQ(loop.stats().insertFailures > 0, c.overloaded);

        for (Vpn v = 1u << 21; v < (1u << 21) + 64; ++v)
            ASSERT_EQ(loop.insert(v), batch.insert(v)) << "vpn " << v;
        expectSameState(loop, batch);
    }
}

/**
 * The table code before lazy lines: an eagerly zeroed flat slot vector
 * scanned slot by slot, with the filter's sizing, hashes and kick RNG.
 * Every slot, count and statistic of a CuckooFilter must match it.
 */
class ZeroedReference
{
  public:
    explicit ZeroedReference(std::size_t capacity)
    {
        const std::size_t wanted =
            static_cast<std::size_t>(static_cast<double>(capacity) /
                                     (kSlots * 0.95)) + 1;
        numBuckets_ = std::max<std::size_t>(2, std::bit_ceil(wanted));
        table_.assign(numBuckets_ * kSlots, 0);
    }

    bool insert(Vpn vpn)
    {
        ++stats_.inserts;
        std::uint16_t fp = fingerprintOf(vpn);
        const std::size_t i1 = indexOf(vpn);
        const std::size_t i2 = altIndex(i1, fp);
        if (bucketInsert(i1, fp) || bucketInsert(i2, fp)) {
            ++count_;
            return true;
        }
        std::vector<std::uint16_t *> path;
        std::size_t idx = kickRng_.chance(0.5) ? i1 : i2;
        for (unsigned kick = 0; kick < CuckooFilter::kMaxKicks; ++kick) {
            std::uint16_t &slot =
                table_[idx * kSlots + kickRng_.uniformInt(kSlots)];
            path.push_back(&slot);
            std::swap(fp, slot);
            idx = altIndex(idx, fp);
            if (bucketInsert(idx, fp)) {
                ++count_;
                return true;
            }
        }
        for (auto it = path.rbegin(); it != path.rend(); ++it)
            std::swap(fp, **it);
        ++stats_.insertFailures;
        return false;
    }

    bool erase(Vpn vpn)
    {
        const std::uint16_t fp = fingerprintOf(vpn);
        const std::size_t i1 = indexOf(vpn);
        for (std::size_t bucket : {i1, altIndex(i1, fp)}) {
            for (unsigned s = 0; s < kSlots; ++s) {
                if (table_[bucket * kSlots + s] == fp) {
                    table_[bucket * kSlots + s] = 0;
                    ++stats_.deletes;
                    --count_;
                    return true;
                }
            }
        }
        return false;
    }

    bool contains(Vpn vpn)
    {
        ++stats_.lookups;
        const std::uint16_t fp = fingerprintOf(vpn);
        const std::size_t i1 = indexOf(vpn);
        for (std::size_t bucket : {i1, altIndex(i1, fp)}) {
            for (unsigned s = 0; s < kSlots; ++s) {
                if (table_[bucket * kSlots + s] == fp) {
                    ++stats_.positives;
                    return true;
                }
            }
        }
        return false;
    }

    std::size_t numBuckets() const { return numBuckets_; }
    std::size_t size() const { return count_; }
    const CuckooFilter::Stats &stats() const { return stats_; }

    /** Bucket @p bucket in CuckooFilter::bucketWord's layout. */
    std::uint64_t bucketWord(std::size_t bucket) const
    {
        std::uint64_t word = 0;
        for (unsigned s = 0; s < kSlots; ++s)
            word |= std::uint64_t{table_[bucket * kSlots + s]} << (16 * s);
        return word;
    }

  private:
    static constexpr unsigned kSlots = CuckooFilter::kSlotsPerBucket;
    static constexpr std::uint64_t kSeed = 0x5bd1e995u;

    static std::uint64_t hash(std::uint64_t x)
    {
        x ^= kSeed;
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ull;
        x ^= x >> 33;
        return x;
    }

    static std::uint16_t fingerprintOf(Vpn vpn)
    {
        const auto fp = static_cast<std::uint16_t>(
            hash(vpn * 0x9e3779b97f4a7c15ull + 1) & 0xfff);
        return fp == 0 ? 1 : fp;
    }

    std::size_t indexOf(Vpn vpn) const
    {
        return static_cast<std::size_t>(hash(vpn)) & (numBuckets_ - 1);
    }

    std::size_t altIndex(std::size_t idx, std::uint16_t fp) const
    {
        return (idx ^ static_cast<std::size_t>(hash(fp))) &
               (numBuckets_ - 1);
    }

    /** Lowest empty slot, by ascending scan. */
    bool bucketInsert(std::size_t bucket, std::uint16_t fp)
    {
        for (unsigned s = 0; s < kSlots; ++s) {
            if (table_[bucket * kSlots + s] == 0) {
                table_[bucket * kSlots + s] = fp;
                return true;
            }
        }
        return false;
    }

    std::size_t numBuckets_ = 0;
    std::vector<std::uint16_t> table_;
    std::size_t count_ = 0;
    CuckooFilter::Stats stats_;
    Rng kickRng_{kSeed ^ 0xc0ffee};
};

/** Every bucket, the count and every statistic equal the reference's. */
void
expectMatches(const CuckooFilter &filter, const ZeroedReference &ref)
{
    ASSERT_EQ(filter.slotCount(),
              ref.numBuckets() * CuckooFilter::kSlotsPerBucket);
    for (std::size_t bucket = 0; bucket < ref.numBuckets(); ++bucket)
        ASSERT_EQ(filter.bucketWord(bucket), ref.bucketWord(bucket))
            << "bucket " << bucket;
    EXPECT_EQ(filter.size(), ref.size());
    EXPECT_TRUE(filter.stats() == ref.stats());
}

/**
 * @p ops random operations on @p filter and @p ref in lockstep, keys
 * drawn from [0x100, 0x100 + key_space): inserts (single and batched,
 * batches up to past twice the prefetch distance), erases and
 * lookups, @p insert_pct percent of them inserts. Small filters get a
 * whole-state check after every operation, large ones at the end.
 */
void
runMix(CuckooFilter &filter, ZeroedReference &ref, std::uint64_t seed,
       std::size_t ops, std::uint64_t key_space, std::uint64_t insert_pct)
{
    Rng rng(seed);
    const bool check_each = ref.numBuckets() <= 256;
    std::vector<Vpn> batch;
    for (std::size_t i = 0; i < ops; ++i) {
        const std::uint64_t roll = rng.uniformInt(100);
        const Vpn key = 0x100 + rng.uniformInt(key_space);
        if (roll < insert_pct / 10) {
            batch.resize(1 + rng.uniformInt(
                                 2 * CuckooFilter::kPrefetchDistance + 8));
            for (Vpn &v : batch)
                v = 0x100 + rng.uniformInt(key_space);
            filter.insertBatch(batch);
            for (Vpn v : batch)
                ref.insert(v);
        } else if (roll < insert_pct) {
            ASSERT_EQ(filter.insert(key), ref.insert(key)) << "op " << i;
        } else if (roll < insert_pct + (100 - insert_pct) / 2) {
            ASSERT_EQ(filter.erase(key), ref.erase(key)) << "op " << i;
        } else {
            ASSERT_EQ(filter.contains(key), ref.contains(key))
                << "op " << i;
        }
        ASSERT_EQ(filter.size(), ref.size()) << "op " << i;
        if (check_each) {
            ASSERT_NO_FATAL_FAILURE(expectMatches(filter, ref))
                << "op " << i;
        }
    }
    ASSERT_NO_FATAL_FAILURE(expectMatches(filter, ref));
}

TEST(CuckooFilterTest, LazyLinesMatchZeroedReference)
{
    // Capacities 0 and 3 (2 buckets) and 10 (4 buckets) live in one
    // partial line; 512 spans 32 lines; 1 << 17 is the GPM's 512 KB
    // table, kept sparse as a seeded GPM's is. The small filters
    // overload, so the kick path runs and unwinds failed inserts.
    for (const std::size_t capacity :
         {std::size_t{0}, std::size_t{3}, std::size_t{10},
          std::size_t{512}, std::size_t{1} << 17}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        const bool large = capacity > 512;
        const std::size_t ops = large ? 20000 : 1500;
        const std::uint64_t keys = large ? 1u << 16 : 2 * capacity + 32;

        CuckooFilter filter(capacity);
        ZeroedReference ref(capacity);
        ASSERT_NO_FATAL_FAILURE(expectMatches(filter, ref));
        ASSERT_NO_FATAL_FAILURE(
            runMix(filter, ref, capacity + 1, ops, keys, 60));
        if (!large) {
            EXPECT_GT(ref.stats().insertFailures, 0u);
        }

        // Copies of the partly written filter: constructed, assigned
        // over a same-size filter with other lines written, over a
        // different-size one, and over a moved-from one.
        CuckooFilter constructed(filter);
        CuckooFilter same_size(capacity);
        ZeroedReference scratch(capacity);
        ASSERT_NO_FATAL_FAILURE(
            runMix(same_size, scratch, capacity + 2, ops / 4, keys, 80));
        same_size = filter;
        CuckooFilter other_size(4 * capacity + 100);
        other_size.insert(0x42);
        other_size = filter;
        CuckooFilter moved_from(capacity);
        moved_from.insert(0x42);
        CuckooFilter thief(std::move(moved_from));
        moved_from = filter;

        // Each copy then carries on as the original does, kick RNG
        // included.
        for (CuckooFilter *copy :
             {&filter, &constructed, &same_size, &other_size, &moved_from}) {
            ZeroedReference copy_ref = ref;
            ASSERT_NO_FATAL_FAILURE(expectMatches(*copy, copy_ref));
            ASSERT_NO_FATAL_FAILURE(
                runMix(*copy, copy_ref, capacity + 3, ops / 5, keys, 50));
        }
    }
}

TEST(CuckooFilterTest, FreshFilterOverFreedFilterIsEmpty)
{
    // A filter built right after a filled one of the same size is
    // destroyed likely gets its memory back, stale fingerprints and
    // all: every old key must still read absent.
    for (const std::size_t capacity :
         {std::size_t{3}, std::size_t{512}, std::size_t{1} << 17}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        std::vector<Vpn> old_keys;
        {
            CuckooFilter full(capacity);
            for (Vpn v = 0x100; full.loadFactor() < 0.9; ++v) {
                if (full.insert(v))
                    old_keys.push_back(v);
                else
                    break;
            }
        }
        ASSERT_FALSE(old_keys.empty());
        CuckooFilter fresh(capacity);
        ZeroedReference ref(capacity);
        ASSERT_NO_FATAL_FAILURE(expectMatches(fresh, ref));
        for (Vpn v : old_keys) {
            ASSERT_FALSE(fresh.contains(v)) << "vpn " << v;
            ASSERT_FALSE(fresh.erase(v)) << "vpn " << v;
        }
        EXPECT_EQ(fresh.size(), 0u);
    }
}

TEST(CuckooFilterTest, BadFingerprintWidthIsFatal)
{
    EXPECT_EXIT(CuckooFilter(64, 0), testing::ExitedWithCode(1),
                "fingerprint");
    EXPECT_EXIT(CuckooFilter(64, 17), testing::ExitedWithCode(1),
                "fingerprint");
}

/** Parameterized: the no-false-negative property holds at any size. */
class CuckooSizeTest : public testing::TestWithParam<std::size_t>
{
};

TEST_P(CuckooSizeTest, FillToEightyPercentNoFalseNegatives)
{
    const std::size_t capacity = GetParam();
    CuckooFilter filter(capacity);
    const std::size_t n = capacity * 8 / 10;
    for (Vpn v = 0; v < n; ++v)
        ASSERT_TRUE(filter.insert(v * 7919 + 13));
    for (Vpn v = 0; v < n; ++v)
        EXPECT_TRUE(filter.contains(v * 7919 + 13));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CuckooSizeTest,
                         testing::Values(64, 256, 1024, 16384, 131072));

/** Parameterized: false-positive rate shrinks with fingerprint width. */
class CuckooFpBitsTest : public testing::TestWithParam<unsigned>
{
};

TEST_P(CuckooFpBitsTest, FalsePositiveRateBounded)
{
    const unsigned bits = GetParam();
    CuckooFilter filter(4096, bits);
    for (Vpn v = 0; v < 3000; ++v)
        filter.insert(v);
    int fp = 0;
    const int probes = 50000;
    for (int i = 0; i < probes; ++i)
        fp += filter.contains(500000 + static_cast<Vpn>(i));
    // Expected bound ~ 8 / 2^bits, with generous slack.
    const double bound = 3.0 * 8.0 / static_cast<double>(1u << bits);
    EXPECT_LT(static_cast<double>(fp) / probes, bound + 0.002)
        << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(FingerprintBits, CuckooFpBitsTest,
                         testing::Values(8u, 10u, 12u, 16u));

// ---- Fuzz-found extremes -------------------------------------------------

TEST(CuckooExtremesTest, TinyCapacitiesGetTwoBuckets)
{
    // Capacities 0..3 used to size down to a single bucket, where the
    // alternate index equals the primary for every key and relocation
    // kicks are futile. The floor of two buckets keeps the two-choice
    // invariant; everything >= 4 is sized as before.
    for (std::size_t capacity : {0u, 1u, 2u, 3u}) {
        CuckooFilter filter(capacity);
        EXPECT_EQ(filter.slotCount(),
                  2 * CuckooFilter::kSlotsPerBucket)
            << "capacity=" << capacity;
        EXPECT_EQ(filter.size(), 0u);
        EXPECT_FALSE(filter.contains(0x42));
    }
    EXPECT_EQ(CuckooFilter(4).slotCount(),
              2 * CuckooFilter::kSlotsPerBucket);
    // The default build (1 << 17 items) must be sized exactly as it
    // always was: 65536 buckets of 4 slots.
    EXPECT_EQ(CuckooFilter(std::size_t{1} << 17).slotCount(),
              std::size_t{65536} * CuckooFilter::kSlotsPerBucket);
}

TEST(CuckooExtremesTest, CapacityZeroStillRoundTrips)
{
    CuckooFilter filter(0);
    EXPECT_TRUE(filter.insert(0x1234));
    EXPECT_TRUE(filter.contains(0x1234));
    EXPECT_TRUE(filter.erase(0x1234));
    EXPECT_FALSE(filter.erase(0x1234));
    EXPECT_EQ(filter.size(), 0u);
}

TEST(CuckooExtremesTest, CapacityOneOverloadFailsCleanly)
{
    // 8 slots total; flooding far past that must eventually report
    // insert failure (never crash or loop), and every item the filter
    // accepted must still be found: a failed insert unwinds its kick
    // path, so no previously accepted item is ever displaced out.
    CuckooFilter filter(1);
    bool sawFailure = false;
    std::vector<Vpn> accepted;
    for (Vpn v = 1; v <= 64; ++v) {
        if (filter.insert(v))
            accepted.push_back(v);
        else
            sawFailure = true;
    }
    EXPECT_TRUE(sawFailure);
    EXPECT_LE(filter.size(), filter.slotCount());
    EXPECT_GT(filter.stats().insertFailures, 0u);
    for (Vpn v : accepted)
        EXPECT_TRUE(filter.contains(v)) << "vpn " << v;
}

TEST(CuckooExtremesTest, FailedInsertLeavesTableUnchanged)
{
    // Regression for the erase-path corruption chain: a failed insert
    // used to drop its final homeless kick victim (a false negative
    // for an accepted item) while leaving the requested key stored, so
    // a later erase() of the "rejected" key could delete another
    // entry's shared fingerprint. The kick path must now unwind to the
    // exact pre-call table.
    CuckooFilter a(1, 12, 7);
    CuckooFilter b(1, 12, 7); // Mirror, fed only the accepted items.
    std::vector<Vpn> accepted;
    Vpn rejected = 0;
    for (Vpn v = 1; v <= 4096 && rejected == 0; ++v) {
        if (a.insert(v))
            accepted.push_back(v);
        else
            rejected = v;
    }
    ASSERT_NE(rejected, 0u) << "overload never failed an insert";

    // Identical seed, identical successful-insert sequence: the
    // mirror never saw the failed insert, so if the undo restored the
    // table exactly, the two filters answer identically on every key.
    for (Vpn v : accepted)
        ASSERT_TRUE(b.insert(v));
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.size(), accepted.size());
    for (Vpn v = 1; v <= 4096; ++v)
        ASSERT_EQ(a.contains(v), b.contains(v)) << "vpn " << v;

    // Erasing the rejected key must behave exactly as on the mirror:
    // in particular it must not delete another entry's shared
    // fingerprint that the old code left behind for it.
    EXPECT_EQ(a.erase(rejected), b.erase(rejected));
    for (Vpn v : accepted)
        EXPECT_EQ(a.contains(v), b.contains(v)) << "post-erase " << v;
}

TEST(CuckooExtremesTest, OneBitFingerprintsDegradeToOccupancyCheck)
{
    // At 1 bit the fp==0 -> 1 remap makes every stored fingerprint 1:
    // the filter degenerates into "is either candidate bucket
    // non-empty?". Still no false negatives, and erase of a never-
    // inserted key can succeed only by design (shared fingerprints),
    // never crash.
    CuckooFilter filter(256, 1);
    for (Vpn v = 0; v < 100; ++v)
        ASSERT_TRUE(filter.insert(v));
    for (Vpn v = 0; v < 100; ++v)
        EXPECT_TRUE(filter.contains(v));
    // With 100 of 64+ buckets occupied, false positives are rampant --
    // that is the documented 1-bit bound, not a bug. Measure that the
    // rate is sane rather than asserting an exact value.
    int positives = 0;
    for (Vpn v = 1000; v < 2000; ++v)
        positives += filter.contains(v);
    EXPECT_GT(positives, 0);
}

TEST(CuckooExtremesTest, SixteenBitFingerprintsMaskCorrectly)
{
    // fpBits_=16 exercises the full uint16 range: inserts must
    // round-trip and the empty-slot sentinel (0) must never collide
    // with a stored fingerprint.
    CuckooFilter filter(4096, 16);
    for (Vpn v = 0; v < 3000; ++v)
        ASSERT_TRUE(filter.insert(v));
    for (Vpn v = 0; v < 3000; ++v)
        ASSERT_TRUE(filter.contains(v));
    for (Vpn v = 0; v < 3000; ++v)
        ASSERT_TRUE(filter.erase(v));
    EXPECT_EQ(filter.size(), 0u);
    for (Vpn v = 0; v < 3000; ++v)
        EXPECT_FALSE(filter.contains(v))
            << "residue after erase at vpn " << v;
}

TEST(CuckooExtremesTest, FingerprintOneBiasIsBoundedAndDocumented)
{
    // The fp==0 -> 1 remap doubles fingerprint 1's share of the key
    // space (2 of 2^bits hash values). Verify the doubled-but-bounded
    // claim empirically at 8 bits: a filter holding items should see a
    // false-positive rate under ~3x the nominal 8/2^bits bound even
    // with the bias folded in (the biased fingerprint is only one of
    // 255).
    CuckooFilter filter(4096, 8);
    for (Vpn v = 0; v < 3000; ++v)
        filter.insert(v);
    int fp = 0;
    const int probes = 50000;
    for (int i = 0; i < probes; ++i)
        fp += filter.contains(1000000 + static_cast<Vpn>(i));
    const double rate = static_cast<double>(fp) / probes;
    const double nominal = 8.0 / 256.0;
    EXPECT_LT(rate, 3.0 * nominal) << "rate=" << rate;
}

} // namespace
} // namespace hdpat
