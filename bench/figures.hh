/**
 * @file
 * The figure table: one row per paper table, figure and design-space
 * ablation. A row gives the binary id, the banner (figure, what it
 * shows, and the paper's claim), the fraction of the default op count
 * it runs at, and either a declared grid or a body function.
 *
 * Declared grids go through two shared printers: per-workload
 * speedup columns with a G-MEAN row (Figs 2, 14, 15, 18, 19, 22 and
 * the pwc/probe ablations), or one G-MEAN row per variant (Figs 20,
 * 21 and the rotation/capacity/layer ablations). The remaining
 * figures keep their own bodies.
 *
 * Every figure binary is figure_main.cc compiled with its id, so the
 * banner, the op count (positional argument, HDPAT_BENCH_SCALE) and
 * `--jobs` are handled once, here. Every run honours the option
 * table's environment variables (driver/options.hh); multi-run
 * batches suffix per-run output files with "-<run_index>"
 * (driver/parallel.hh).
 */

#ifndef HDPAT_BENCH_FIGURES_HH
#define HDPAT_BENCH_FIGURES_HH

#include <string>

namespace hdpat::bench
{

/**
 * Print figure @p id's banner, read its op count and `--jobs` from
 * the arguments (a malformed argument exits 1), and reproduce it on
 * stdout. Returns the process exit status.
 */
int runFigure(const std::string &id, int argc, char **argv);

} // namespace hdpat::bench

#endif // HDPAT_BENCH_FIGURES_HH
