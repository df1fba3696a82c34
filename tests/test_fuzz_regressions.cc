/**
 * @file
 * Fuzzing infrastructure tests, in two halves:
 *
 * 1. Unit coverage of the fuzz library: FuzzCase serialise/parse
 *    round-trips, corpus-format error handling, the paste-ready C++
 *    literal printer, sampler determinism, and the greedy shrinker.
 * 2. Corpus replay: every committed `.fuzzcase` under
 *    HDPAT_FUZZ_CORPUS_DIR (tests/fuzz_corpus/) runs through the real
 *    fork-isolated harness and must pass all oracles -- these are the
 *    minimal reproducers of bugs this repo has already fixed, so a
 *    regression flips the corresponding file red.
 */

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz_case.hh"
#include "fuzz/harness.hh"
#include "fuzz/sampler.hh"
#include "fuzz/shrinker.hh"
#include "sim/rng.hh"

namespace hdpat
{
namespace
{

TEST(FuzzCaseTest, SerializeParseRoundTrips)
{
    Rng rng(1234);
    for (int i = 0; i < 50; ++i) {
        const FuzzCase c = sampleFuzzCase(rng);
        std::string error;
        const auto parsed = parseFuzzCase(c.serialize(), &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        EXPECT_TRUE(*parsed == c) << c.serialize();
    }
}

TEST(FuzzCaseTest, ParseAcceptsCommentsAndDefaults)
{
    const auto c = parseFuzzCase("# a comment\n\nmeshWidth=3\n");
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->meshWidth, 3);
    EXPECT_EQ(c->meshHeight, FuzzCase{}.meshHeight); // Default kept.
}

TEST(FuzzCaseTest, ParseRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(parseFuzzCase("notakey\n", &error).has_value());
    EXPECT_NE(error.find("key=value"), std::string::npos) << error;

    EXPECT_FALSE(
        parseFuzzCase("bogusField=1\n", &error).has_value());
    EXPECT_NE(error.find("bogusField"), std::string::npos) << error;

    EXPECT_FALSE(
        parseFuzzCase("meshWidth=banana\n", &error).has_value());
    EXPECT_NE(error.find("meshWidth"), std::string::npos) << error;

    EXPECT_FALSE(parseFuzzCase("meshWidth=3\nmeshWidth=4\n", &error)
                     .has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(FuzzCaseTest, ParseIgnoresRetiredKeys)
{
    // Reproducers written while the event-queue, NoC-fusion, and
    // domain-parallel switches existed carry their keys; they must
    // still load, and mean exactly what the same text without them
    // means. Any other unknown key is still an error.
    const std::string base = "meshWidth=5\nseed=99\nworkload=PR\n";
    std::string error;
    const auto plain = parseFuzzCase(base, &error);
    ASSERT_TRUE(plain.has_value()) << error;
    const auto retired = parseFuzzCase(
        base + "heapEventQueue=1\nnocFuse=0\ndomains=4\n", &error);
    ASSERT_TRUE(retired.has_value()) << error;
    EXPECT_TRUE(*retired == *plain);

    EXPECT_FALSE(parseFuzzCase(base + "bogusKey=1\n", &error).has_value());
    EXPECT_NE(error.find("bogusKey"), std::string::npos) << error;
}

TEST(FuzzCaseTest, CppLiteralListsOnlyNonDefaults)
{
    EXPECT_EQ(FuzzCase{}.toCppLiteral(), "FuzzCase c;\n");

    FuzzCase c;
    c.meshWidth = 3;
    c.workload = "PR";
    const std::string lit = c.toCppLiteral();
    EXPECT_NE(lit.find("c.meshWidth = 3;"), std::string::npos) << lit;
    EXPECT_NE(lit.find("c.workload = \"PR\";"), std::string::npos)
        << lit;
    EXPECT_EQ(lit.find("meshHeight"), std::string::npos) << lit;
}

TEST(FuzzCaseTest, FieldTableCoversEveryNumericField)
{
    // Guards the field table against a new FuzzCase member that was
    // not added to forEachNumericField: serialisation must mention
    // every name the accessors know, and the accessors must resolve
    // every listed name.
    FuzzCase c;
    const std::string text = c.serialize();
    for (const std::string &name : fuzzCaseFieldNames()) {
        EXPECT_NE(text.find(name + "="), std::string::npos) << name;
        EXPECT_NE(fuzzCaseField(c, name), nullptr) << name;
    }
    EXPECT_EQ(fuzzCaseField(c, "noSuchField"), nullptr);
}

TEST(FuzzCaseTest, ToSpecClampsNegativesForUnsignedFields)
{
    FuzzCase c;
    c.l2Sets = -5;
    c.pageShift = -1;
    const RunSpec spec = c.toSpec();
    // Negative values must become the degenerate 0 (and then fail
    // validation), never wrap to a huge allocation.
    EXPECT_EQ(spec.config.l2Tlb.sets, 0u);
    EXPECT_EQ(spec.config.pageShift, 0u);
    EXPECT_FALSE(validationErrors(spec).empty());
}

TEST(FuzzSamplerTest, DeterministicGivenSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(sampleFuzzCase(a) == sampleFuzzCase(b));
}

TEST(FuzzSamplerTest, CoversTheConfigSpace)
{
    Rng rng(7);
    bool sawEvenMesh = false, sawRectangular = false;
    bool sawInvalid = false, sawValid = false;
    bool sawPeerMode[5] = {};
    for (int i = 0; i < 400; ++i) {
        const FuzzCase c = sampleFuzzCase(rng);
        sawEvenMesh |= c.meshWidth % 2 == 0 && c.meshWidth == c.meshHeight;
        sawRectangular |= c.meshWidth != c.meshHeight;
        if (c.peerMode >= 0 && c.peerMode < 5)
            sawPeerMode[c.peerMode] = true;
        const bool valid = validationErrors(c.toSpec()).empty();
        sawValid |= valid;
        sawInvalid |= !valid;
    }
    EXPECT_TRUE(sawEvenMesh);
    EXPECT_TRUE(sawRectangular);
    EXPECT_TRUE(sawValid);
    EXPECT_TRUE(sawInvalid);
    for (int m = 0; m < 5; ++m)
        EXPECT_TRUE(sawPeerMode[m]) << "peerMode " << m;
}

TEST(FuzzShrinkerTest, ReachesTheMinimalCase)
{
    // Synthetic failure: any case with a big mesh and prefetch on.
    // The shrinker must strip every other perturbation and walk the
    // failing fields down to the boundary.
    Rng rng(99);
    FuzzCase noisy = sampleFuzzCase(rng);
    noisy.meshWidth = 11;
    noisy.meshHeight = 9;
    noisy.prefetch = 1;
    const auto fails = [](const FuzzCase &c) {
        return c.meshWidth >= 9 && c.prefetch == 1;
    };
    ASSERT_TRUE(fails(noisy));

    std::size_t steps = 0;
    const FuzzCase shrunk = shrinkFuzzCase(noisy, fails, &steps);
    EXPECT_TRUE(fails(shrunk));
    EXPECT_GT(steps, 0u);
    EXPECT_EQ(shrunk.meshWidth, 9);       // Boundary, not 11.
    EXPECT_EQ(shrunk.prefetch, 1);        // Still required.
    EXPECT_EQ(shrunk.meshHeight, FuzzCase{}.meshHeight);
    EXPECT_EQ(shrunk.workload, FuzzCase{}.workload);
    // Every field not implicated in the failure is back at default.
    FuzzCase reference;
    reference.meshWidth = 9;
    reference.prefetch = 1;
    EXPECT_TRUE(shrunk == reference) << shrunk.toCppLiteral();
}

TEST(FuzzHarnessTest, PassesTheDefaultCase)
{
    FuzzCase c;
    c.opsPerGpm = 80; // Keep the three oracle runs quick.
    const FuzzOutcome outcome = runFuzzCase(c, 120);
    EXPECT_TRUE(outcome.ok()) << fuzzOutcomeKindName(outcome.kind)
                              << ": " << outcome.reason;
}

TEST(FuzzHarnessTest, PredictedInvalidCasePasses)
{
    FuzzCase c;
    c.meshWidth = 0; // Predictably invalid; fail-fast is the pass.
    const FuzzOutcome outcome = runFuzzCase(c, 120);
    EXPECT_TRUE(outcome.ok()) << fuzzOutcomeKindName(outcome.kind)
                              << ": " << outcome.reason;
}

// ---- Corpus replay -------------------------------------------------------

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> files;
    const std::filesystem::path dir = HDPAT_FUZZ_CORPUS_DIR;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".fuzzcase")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(FuzzCorpusTest, CorpusIsNonEmptyAndParses)
{
    const std::vector<std::string> files = corpusFiles();
    ASSERT_GE(files.size(), 3u)
        << "regression corpus missing from " << HDPAT_FUZZ_CORPUS_DIR;
    for (const std::string &path : files) {
        std::string error;
        EXPECT_TRUE(loadFuzzCase(path, &error).has_value())
            << path << ": " << error;
    }
}

TEST(FuzzCorpusTest, EveryReproducerReplaysGreen)
{
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        std::string error;
        const auto c = loadFuzzCase(path, &error);
        ASSERT_TRUE(c.has_value()) << path << ": " << error;
        const FuzzOutcome outcome = runFuzzCase(*c, 180);
        EXPECT_TRUE(outcome.ok())
            << fuzzOutcomeKindName(outcome.kind) << ": " << outcome.reason;
    }
}

} // namespace
} // namespace hdpat
