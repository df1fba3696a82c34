/**
 * @file
 * Shared plumbing for the per-figure bench harnesses: banner printing
 * (with the paper's reported result for comparison), op-count and
 * worker-count selection, and common sweep loops.
 *
 * Every harness runs its sweep grid through runMany()'s worker pool,
 * and every run honours the option table's environment variables
 * (driver/options.hh): metrics dumps, traces and the other observers
 * need no per-harness wiring. Multi-run harnesses write one file per
 * run (a "-<run_index>" suffix, see driver/parallel.hh).
 */

#ifndef HDPAT_BENCH_BENCH_COMMON_HH
#define HDPAT_BENCH_BENCH_COMMON_HH

#include <cstddef>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "driver/parallel.hh"
#include "driver/runner.hh"
#include "driver/table_printer.hh"
#include "workloads/suite.hh"

namespace hdpat::bench
{

/**
 * Print the figure banner: what the paper reports and how this harness
 * reproduces it. Every bench starts with this so the output is
 * self-describing.
 */
void printBanner(const std::string &figure, const std::string &what,
                 const std::string &paper_result);

/**
 * Ops per GPM for this harness: @p fraction of the global default
 * (scaled by benchScale()), overridable with the one positional
 * argument. Also applies the bench-harness flags of the option table
 * (`--jobs N`, via setDefaultJobs) so every harness gets the parallel
 * runner without per-bench wiring. A malformed argument exits 1.
 */
std::size_t benchOps(int argc, char **argv, double fraction = 1.0);

/** One RunSpec at the bench's op count (for runMany grids). */
RunSpec spec(const SystemConfig &cfg, const TranslationPolicy &pol,
             const std::string &workload, std::size_t ops,
             bool capture_trace = false);

/** Run one workload under one policy at the bench's op count. */
RunResult run(const SystemConfig &cfg, const TranslationPolicy &pol,
              const std::string &workload, std::size_t ops,
              bool capture_trace = false);

} // namespace hdpat::bench

#endif // HDPAT_BENCH_BENCH_COMMON_HH
