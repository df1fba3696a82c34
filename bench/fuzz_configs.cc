/**
 * @file
 * hdpat_fuzz: config-space fuzzing with differential oracles.
 *
 * Samples random SystemConfig x TranslationPolicy x workload points
 * (see src/fuzz/sampler.cc for the distribution), runs each in a
 * fork-isolated harness under the seven oracles listed in
 * src/fuzz/harness.hh (conservation audit, PPN reference, runMany
 * ordering differential, spatial transparency, latency conservation,
 * the backpressure Little's-law identity, and the tenancy staleness
 * oracle), then greedily shrinks any failure to a minimal reproducer
 * and writes it as a `.fuzzcase` file ready for tests/fuzz_corpus/.
 *
 * Usage: hdpat_fuzz [OPTION]... (--seed, --runs, --out, --timeout,
 * --replay FILE..., --multi-tenant; an unknown or malformed argument
 * prints the option list).
 *
 * Exit status: 0 when every case passed (or every replay passed),
 * 1 when any finding was produced or an argument was malformed.
 */

#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "driver/options.hh"
#include "fuzz/harness.hh"
#include "fuzz/sampler.hh"
#include "fuzz/shrinker.hh"
#include "sim/rng.hh"

namespace
{

using namespace hdpat;

struct Options
{
    std::uint64_t seed = 1;
    int runs = 200;
    std::string outDir = "fuzz-failures";
    unsigned timeoutSeconds = 60;
    std::vector<std::string> replays;
    /** Force every sampled case multi-tenant (staleness sweeps). */
    bool forceMultiTenant = false;
};

Options
parseOptions(int argc, char **argv)
{
    using K = OptionKind;
    using V = const OptionValue &;
    Options opt;
    const std::vector<OptionRow> rows = {
        {.flag = "--seed", .kind = K::Int,
         .hi = std::numeric_limits<std::uint64_t>::max(), .valueName = "N",
         .defaultText = "1", .help = "RNG seed for the sampler",
         .set = [&opt](V v) { opt.seed = v.integer; }},
        {.flag = "--runs", .kind = K::Int, .lo = 1, .hi = 1'000'000,
         .valueName = "N", .defaultText = "200", .help = "cases to sample",
         .set = [&opt](V v) { opt.runs = static_cast<int>(v.integer); }},
        {.flag = "--out", .valueName = "DIR", .defaultText = "fuzz-failures",
         .help = "where shrunk reproducers are written (created lazily)",
         .set = [&opt](V v) { opt.outDir = v.text; }},
        {.flag = "--timeout", .kind = K::Int, .hi = 86'400,
         .valueName = "SEC", .defaultText = "60; 0 = none",
         .help = "per-case wall-clock budget",
         .set = [&opt](V v) { opt.timeoutSeconds = v.integer; }},
        {.flag = "--replay", .valueName = "FILE",
         .help = "run a .fuzzcase file instead (repeatable)",
         .set = [&opt](V v) { opt.replays.push_back(v.text); }},
        {.flag = "--multi-tenant", .kind = K::Bool,
         .help = "make every sampled case multi-tenant (>= 2 ASIDs, "
                 "switch + churn): a directed staleness-oracle sweep",
         .set = [&opt](V) { opt.forceMultiTenant = true; }},
    };
    try {
        parseArgs(argc, argv, rows);
    } catch (const OptionError &e) {
        std::cerr << e.what() << "\nusage: " << argv[0]
                  << " [OPTION]...\n" << optionHelp(rows);
        std::exit(1);
    }
    return opt;
}

/** Apply --multi-tenant: single-tenant samples get tenants + churn. */
FuzzCase
withTenancyChoice(FuzzCase c, const Options &opt, Rng &rng)
{
    if (!opt.forceMultiTenant || c.asidCount > 1)
        return c;
    c.asidCount = 2 + static_cast<std::int64_t>(rng.uniformInt(3));
    c.switchRatePerMTicks = 200;
    if (c.churnRatePerMTicks == 0)
        c.churnRatePerMTicks = 100;
    return c;
}

/** Write one reproducer; returns the path ("" on failure). */
std::string
writeReproducer(const Options &opt, int index, const FuzzCase &c,
                const FuzzOutcome &outcome)
{
    ::mkdir(opt.outDir.c_str(), 0777); // Lazily; EEXIST is fine.
    const std::string path = opt.outDir + "/shrunk-" +
                             fuzzOutcomeKindName(outcome.kind) + "-" +
                             std::to_string(index) + ".fuzzcase";
    std::ofstream out(path);
    if (!out.good()) {
        std::cerr << "cannot write " << path << "\n";
        return "";
    }
    out << "# kind: " << fuzzOutcomeKindName(outcome.kind) << "\n";
    std::istringstream reason(outcome.reason);
    std::string line;
    while (std::getline(reason, line))
        out << "# " << line << "\n";
    out << c.serialize();
    return path;
}

void
reportFinding(const Options &opt, int index, const FuzzCase &found,
              const FuzzOutcome &outcome)
{
    std::cout << "\n=== FINDING #" << index << " ["
              << fuzzOutcomeKindName(outcome.kind) << "] ===\n"
              << outcome.reason << "\n"
              << "shrinking...\n";

    std::size_t trials = 0;
    const FuzzCase shrunk = shrinkFuzzCase(
        found,
        [&](const FuzzCase &candidate) {
            ++trials;
            return runFuzzCase(candidate, opt.timeoutSeconds).kind ==
                   outcome.kind;
        });
    const FuzzOutcome confirmed =
        runFuzzCase(shrunk, opt.timeoutSeconds);

    std::cout << "shrunk after " << trials
              << " trials; minimal reproducer (paste-ready):\n\n"
              << shrunk.toCppLiteral() << "\n"
              << "still fails as: "
              << fuzzOutcomeKindName(confirmed.kind) << "\n";
    const std::string path =
        writeReproducer(opt, index, shrunk, confirmed);
    if (!path.empty())
        std::cout << "reproducer written to " << path << "\n";
}

int
replayFiles(const Options &opt)
{
    int failures = 0;
    for (const std::string &path : opt.replays) {
        std::string error;
        const auto c = loadFuzzCase(path, &error);
        if (!c) {
            std::cerr << path << ": parse error: " << error << "\n";
            ++failures;
            continue;
        }
        const FuzzOutcome outcome = runFuzzCase(*c, opt.timeoutSeconds);
        std::cout << path << ": " << fuzzOutcomeKindName(outcome.kind)
                  << "\n";
        if (!outcome.ok()) {
            std::cout << outcome.reason << "\n";
            ++failures;
        }
    }
    return failures > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    if (!opt.replays.empty())
        return replayFiles(opt);

    std::cout << "hdpat_fuzz: " << opt.runs << " cases, seed "
              << opt.seed << ", oracles: validity-prediction + "
              << "conservation/PPN audit + runMany differential + "
              << "spatial transparency + latency conservation + "
              << "backpressure/Little's law + tenancy staleness"
              << (opt.forceMultiTenant ? " (all cases multi-tenant)"
                                       : "")
              << "\n";

    Rng rng(opt.seed);
    int findings = 0;
    for (int i = 0; i < opt.runs; ++i) {
        const FuzzCase c =
            withTenancyChoice(sampleFuzzCase(rng), opt, rng);
        const FuzzOutcome outcome = runFuzzCase(c, opt.timeoutSeconds);
        if (outcome.ok()) {
            if ((i + 1) % 20 == 0)
                std::cout << "  " << (i + 1) << "/" << opt.runs
                          << " cases, " << findings << " findings\n";
            continue;
        }
        ++findings;
        reportFinding(opt, findings, c, outcome);
    }

    std::cout << "\ndone: " << opt.runs << " cases, " << findings
              << " findings\n";
    return findings > 0 ? 1 : 0;
}
