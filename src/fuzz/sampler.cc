#include "fuzz/sampler.hh"

#include <initializer_list>

#include "workloads/suite.hh"

namespace hdpat
{

namespace
{

/** Pick one value from a short menu, uniformly. */
std::int64_t
pick(Rng &rng, std::initializer_list<std::int64_t> menu)
{
    const std::uint64_t i = rng.uniformInt(menu.size());
    return *(menu.begin() + i);
}

} // namespace

FuzzCase
sampleFuzzCase(Rng &rng)
{
    FuzzCase c;

    // Mesh: the full 1x1..12x12 grid, so odd (7x7), even (8x8), and
    // rectangular (7x12) centers -- and the invalid single tile --
    // all come up.
    c.meshWidth = static_cast<std::int64_t>(rng.uniformRange(1, 12));
    c.meshHeight = static_cast<std::int64_t>(rng.uniformRange(1, 12));

    // Page shift: mostly the supported 12..21 band, with a 10% probe
    // of the surrounding range to exercise both validation bounds.
    c.pageShift = rng.chance(0.1)
                      ? static_cast<std::int64_t>(rng.uniformRange(8, 34))
                      : static_cast<std::int64_t>(rng.uniformRange(12, 21));

    c.issueWidth = pick(rng, {0, 1, 1, 2, 4, 4, 8});
    c.maxOutstandingOps = pick(rng, {0, 1, 4, 64, 512, 512});

    // TLB geometry down to the degenerate corners. Zeroes are
    // (predictably) invalid; 1-set/1-way/1-mshr are the interesting
    // legal extremes.
    c.l1Sets = pick(rng, {0, 1, 1, 2, 4});
    c.l1Ways = pick(rng, {0, 1, 2, 8, 32, 32});
    c.l1Mshrs = pick(rng, {0, 1, 2, 4, 4});
    c.l2Sets = pick(rng, {0, 1, 2, 16, 64, 64});
    c.l2Ways = pick(rng, {0, 1, 2, 8, 32, 32});
    c.l2Mshrs = pick(rng, {0, 1, 2, 8, 32, 32});
    c.llSets = pick(rng, {0, 1, 2, 16, 64, 64});
    c.llWays = pick(rng, {0, 1, 2, 8, 16, 16});
    // llMshrs = 0 is the Table I default (peer fills bypass MSHRs).
    c.llMshrs = pick(rng, {0, 0, 1, 4, 16});
    c.cuckooCapacity = pick(rng, {0, 1, 4, 64, 1024, 1 << 17, 1 << 17});

    c.gmmuWalkers = pick(rng, {0, 1, 2, 8, 8});
    c.iommuWalkers = pick(rng, {0, 1, 2, 16, 16});
    c.iommuPwQueueCapacity = pick(rng, {0, 1, 4, 64, 64});
    c.iommuIngressPerCycle = pick(rng, {0, 1, 2, 2, 4});
    c.iommuTlbMshrs = pick(rng, {0, 1, 8, 8});

    // Policy: every peer mode, plus a rare out-of-range enum value
    // that must be caught by validation rather than fall through
    // every switch.
    c.peerMode = rng.chance(0.02)
                     ? 5
                     : static_cast<std::int64_t>(rng.uniformInt(5));
    c.redirectionTable = rng.chance(0.5);
    c.iommuTlbInsteadOfRt = rng.chance(0.25);
    c.prefetch = rng.chance(0.5);
    c.prefetchDegree = pick(rng, {0, 1, 2, 4, 4, 8});
    c.pwQueueRevisit = rng.chance(0.5);
    c.neighborTlbProbe = rng.chance(0.25);
    c.walkMode = rng.chance(0.2) ? 1 : 0;
    c.concentricLayers = pick(rng, {0, 1, 2, 2, 3, 6});
    c.numClusters = pick(rng, {0, 1, 2, 4, 4, 8});
    c.rotation = rng.chance(0.5);
    c.concurrentProbes = rng.chance(0.5);

    // Workload: the Table II suite, with a 3% bogus abbreviation to
    // keep the workload-name check honest.
    const auto &abbrs = workloadAbbrs();
    c.workload = rng.chance(0.03)
                     ? "BOGUS"
                     : abbrs[rng.uniformInt(abbrs.size())];

    // Short runs: the oracles care about correctness, not steady
    // state, and the differential re-runs every case three times.
    c.opsPerGpm = static_cast<std::int64_t>(rng.uniformRange(60, 320));
    c.seed = static_cast<std::int64_t>(rng.next() & 0x7fffffffffffffffull);

    // Tenancy: mostly single-tenant (the identity-preserving default)
    // with a multi-tenant minority that exercises context switches,
    // churn shootdowns, and the staleness oracle. A rare 0 probes the
    // asidCount validation bound.
    c.asidCount = pick(rng, {0, 1, 1, 1, 2, 2, 3, 4});
    if (c.asidCount > 1) {
        c.switchRatePerMTicks = pick(rng, {0, 50, 200, 1000});
        c.churnRatePerMTicks = pick(rng, {0, 20, 100, 500});
    } else {
        // Churn without multiple tenants is legal: one tenant's pages
        // still get unmapped and shot down.
        c.churnRatePerMTicks = pick(rng, {0, 0, 0, 100});
    }

    return c;
}

} // namespace hdpat
