/**
 * @file
 * The main of every figure binary: bench/CMakeLists.txt compiles it
 * once per row of the figure table, with HDPAT_FIGURE_ID naming it.
 */

#include "figures.hh"

int
main(int argc, char **argv)
{
    return hdpat::bench::runFigure(HDPAT_FIGURE_ID, argc, argv);
}
