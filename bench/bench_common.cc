#include "bench_common.hh"

#include <algorithm>
#include <cstdio>

namespace hdpat::bench
{

namespace
{

/** The bench-harness rows: --jobs and the op-count scale. */
std::vector<OptionRow>
benchRows(RunOptions &target)
{
    std::vector<OptionRow> rows = runOptionRows(target);
    std::erase_if(rows, [](const OptionRow &r) { return !r.inBenches; });
    return rows;
}

} // namespace

void
printBanner(const std::string &figure, const std::string &what,
            const std::string &paper_result)
{
    RunOptions unused;
    const std::vector<OptionRow> rows = benchRows(unused);
    const auto flagged = [](const OptionRow &r) { return r.flag; };
    const OptionRow &jobs = *std::find_if(rows.begin(), rows.end(), flagged);
    const OptionRow &scale =
        *std::find_if_not(rows.begin(), rows.end(), flagged);
    std::printf("==============================================================\n");
    std::printf("%s -- %s\n", figure.c_str(), what.c_str());
    std::printf("paper reports: %s\n", paper_result.c_str());
    std::printf("(scale op counts with %s or argv[1]; parallelize with %s "
                "N or %s)\n",
                scale.env, jobs.flag, jobs.env);
    std::printf("==============================================================\n\n");
}

std::size_t
benchOps(int argc, char **argv, double fraction)
{
    RunOptions options = envRunOptions();
    const std::size_t ops = orExit([&]() -> std::size_t {
        const auto args = parseArgs(argc, argv, benchRows(options), 1);
        return args.empty() ? 0 : parseOpsPerGpm(args[0]);
    });
    setDefaultJobs(options.jobs);
    if (ops > 0)
        return ops;
    const double scaled =
        static_cast<double>(defaultOpsPerGpm()) * fraction;
    return static_cast<std::size_t>(scaled < 500.0 ? 500.0 : scaled);
}

RunSpec
spec(const SystemConfig &cfg, const TranslationPolicy &pol,
     const std::string &workload, std::size_t ops, bool capture_trace)
{
    RunSpec s;
    s.config = cfg;
    s.policy = pol;
    s.workload = workload;
    s.opsPerGpm = ops;
    s.captureIommuTrace = capture_trace;
    return s;
}

RunResult
run(const SystemConfig &cfg, const TranslationPolicy &pol,
    const std::string &workload, std::size_t ops, bool capture_trace)
{
    return runOnce(spec(cfg, pol, workload, ops, capture_trace));
}

} // namespace hdpat::bench
