/**
 * @file
 * hdpat_fuzz: config-space fuzzing with differential oracles.
 *
 * Samples random SystemConfig x TranslationPolicy x workload points
 * (see src/fuzz/sampler.cc for the distribution), runs each in a
 * fork-isolated harness under the seven oracles listed in
 * src/fuzz/harness.hh (conservation audit, PPN reference, runMany
 * ordering and NoC-fusion differentials, latency conservation, the
 * backpressure Little's-law identity, and the tenancy staleness
 * oracle), then greedily shrinks any
 * failure to a minimal reproducer and writes it as a `.fuzzcase`
 * file ready for tests/fuzz_corpus/.
 *
 * Usage:
 *   hdpat_fuzz [--seed N] [--runs N] [--out DIR] [--timeout SEC]
 *              [--multi-tenant] [--replay FILE]...
 *
 * Exit status: 0 when every case passed (or every replay passed),
 * 1 when any finding was produced.
 */

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--seed N] [--runs N] [--out DIR] [--timeout SEC]\n"
        << "       [--replay FILE]...\n"
        << "  --seed N       RNG seed for the sampler (default 1)\n"
        << "  --runs N       cases to sample (default 200)\n"
        << "  --out DIR      where shrunk reproducers are written\n"
        << "                 (default fuzz-failures; created lazily)\n"
        << "  --timeout SEC  per-case wall-clock budget (default 60)\n"
        << "  --replay FILE  run a .fuzzcase file instead of sampling\n"
        << "                 (repeatable; skips the random sweep)\n"
        << "  --multi-tenant force every sampled case multi-tenant\n"
        << "                 (>=2 ASIDs with switch + churn arrivals),\n"
        << "                 a directed sweep of the staleness oracle\n";
    std::exit(1);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed")
            opt.seed = std::strtoull(value(i), nullptr, 0);
        else if (arg == "--runs")
            opt.runs = std::atoi(value(i));
        else if (arg == "--out")
            opt.outDir = value(i);
        else if (arg == "--timeout")
            opt.timeoutSeconds =
                static_cast<unsigned>(std::atoi(value(i)));
        else if (arg == "--replay")
            opt.replays.emplace_back(value(i));
        else if (arg == "--multi-tenant")
            opt.forceMultiTenant = true;
        else
            usage(argv[0]);
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
    const Options opt = parseArgs(argc, argv);
    if (!opt.replays.empty())
        return replayFiles(opt);

    std::cout << "hdpat_fuzz: " << opt.runs << " cases, seed "
              << opt.seed << ", oracles: validity-prediction + "
              << "conservation/PPN audit + runMany differential + "
              << "NoC fusion differential + latency conservation + "
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
