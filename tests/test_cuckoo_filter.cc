/**
 * @file
 * Unit + property tests for the cuckoo filter: the no-false-negative
 * guarantee HDPAT's translation path depends on (§II-B), deletion
 * support, and bounded false-positive rates.
 */

#include <algorithm>
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
    EXPECT_TRUE(std::ranges::equal(a.slots(), b.slots()));
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
