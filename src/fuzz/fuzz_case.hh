/**
 * @file
 * FuzzCase: one point in the config × policy × workload space the
 * fuzzer explores. Serialisable to the key=value `.fuzzcase` corpus
 * format, convertible to a RunSpec, and printable as a paste-ready
 * C++ literal for bug reports.
 */

#ifndef HDPAT_FUZZ_FUZZ_CASE_HH
#define HDPAT_FUZZ_FUZZ_CASE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driver/runner.hh"

namespace hdpat
{

/**
 * Every knob the fuzzer turns, with the Table I / paper defaults.
 * Keep the field list in sync with forEachNumericField() in
 * fuzz_case.cc -- that single table drives serialise, parse, the
 * C++-literal printer, and the shrinker.
 */
struct FuzzCase
{
    // ---- Topology / SystemConfig ------------------------------------
    std::int64_t meshWidth = 7;
    std::int64_t meshHeight = 7;
    std::int64_t pageShift = 12;
    std::int64_t issueWidth = 4;
    std::int64_t maxOutstandingOps = 512;
    std::int64_t l1Sets = 1, l1Ways = 32, l1Mshrs = 4;
    std::int64_t l2Sets = 64, l2Ways = 32, l2Mshrs = 32;
    std::int64_t llSets = 64, llWays = 16, llMshrs = 0;
    std::int64_t cuckooCapacity = 1 << 17;
    std::int64_t gmmuWalkers = 8;
    std::int64_t iommuWalkers = 16;
    std::int64_t iommuPwQueueCapacity = 64;
    std::int64_t iommuIngressPerCycle = 2;
    std::int64_t iommuTlbMshrs = 8;

    // ---- TranslationPolicy ------------------------------------------
    /** PeerCachingMode as an integer (0..4); out-of-range is a bug
     *  the parser rejects, not a run the harness starts. */
    std::int64_t peerMode = 0;
    std::int64_t redirectionTable = 0;
    std::int64_t iommuTlbInsteadOfRt = 0;
    std::int64_t prefetch = 0;
    std::int64_t prefetchDegree = 4;
    std::int64_t pwQueueRevisit = 0;
    std::int64_t neighborTlbProbe = 0;
    /** IommuWalkMode as an integer (0..1). */
    std::int64_t walkMode = 0;
    std::int64_t concentricLayers = 2;
    std::int64_t numClusters = 4;
    std::int64_t rotation = 1;
    std::int64_t concurrentProbes = 1;

    // ---- Workload ----------------------------------------------------
    std::string workload = "SPMV";
    std::int64_t opsPerGpm = 200;
    std::int64_t seed = 0x5eed;

    // ---- Tenancy -----------------------------------------------------
    /** Address spaces multiplexed onto the wafer (1 = single-tenant,
     *  which keeps the case bitwise identical to the pre-tenancy
     *  simulator). */
    std::int64_t asidCount = 1;
    /** Poisson context-switch arrivals per million ticks (0 = never). */
    std::int64_t switchRatePerMTicks = 0;
    /** Poisson page unmap+shootdown arrivals per million ticks. */
    std::int64_t churnRatePerMTicks = 0;

    /** Build the RunSpec this case describes (audit left off; the
     *  harness decides observability). */
    RunSpec toSpec() const;

    /** key=value lines, one field per line, fixed order. */
    std::string serialize() const;

    /** Paste-ready C++ that reconstructs the case (only fields that
     *  differ from the defaults are emitted). */
    std::string toCppLiteral() const;

    bool operator==(const FuzzCase &other) const;
};

/** Numeric field names, in serialisation order (for the shrinker). */
const std::vector<std::string> &fuzzCaseFieldNames();

/** Pointer to the named numeric field, nullptr when unknown. */
std::int64_t *fuzzCaseField(FuzzCase &c, const std::string &name);

/** Value of the named numeric field (0 when unknown). */
std::int64_t fuzzCaseFieldValue(const FuzzCase &c,
                                const std::string &name);

/**
 * Parse the serialize() format. Unknown keys, malformed numbers, and
 * duplicate keys are errors: a corpus file that drifts from the field
 * table should fail loudly, not half-apply. The keys of retired
 * harness switches (heapEventQueue, nocFuse, domains) are accepted and
 * ignored, so reproducers written while they existed still load.
 * @param error Set to a one-line reason on failure.
 */
std::optional<FuzzCase> parseFuzzCase(const std::string &text,
                                      std::string *error = nullptr);

/** Load and parse one `.fuzzcase` file. */
std::optional<FuzzCase> loadFuzzCase(const std::string &path,
                                     std::string *error = nullptr);

} // namespace hdpat

#endif // HDPAT_FUZZ_FUZZ_CASE_HH
