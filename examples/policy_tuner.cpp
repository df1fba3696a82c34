/**
 * @file
 * Policy tuner: sweep HDPAT's tunables (concentric layer count C,
 * prefetch degree, auxiliary push threshold) for one workload and
 * print the best configuration -- the kind of design-space exploration
 * §IV-C says is "tunable by drivers or firmware".
 *
 * Usage: policy_tuner [WORKLOAD] [OPS_PER_GPM]
 */

#include <iostream>
#include <string>
#include <vector>

#include "driver/parallel.hh"
#include "driver/options.hh"
#include "driver/runner.hh"
#include "driver/table_printer.hh"

using namespace hdpat;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "FIR";
    const std::size_t ops =
        argc > 2 ? orExit([&] { return parseOpsPerGpm(argv[2]); })
                 : 6000;

    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.workload = workload;
    spec.opsPerGpm = ops;

    // Baseline first, then the full 3x3x3 tunable grid -- one batch
    // for the worker pool.
    struct Point
    {
        int layers;
        int degree;
        unsigned threshold;
    };
    std::vector<Point> points;
    std::vector<RunSpec> specs;
    spec.policy = TranslationPolicy::baseline();
    specs.push_back(spec);
    for (int layers : {1, 2, 3}) {
        for (int degree : {1, 4, 8}) {
            for (unsigned threshold : {1u, 2u, 4u}) {
                TranslationPolicy pol = TranslationPolicy::hdpat();
                pol.concentricLayers = layers;
                pol.prefetchDegree = degree;
                pol.prefetch = degree > 1;
                pol.auxPushThreshold = threshold;
                spec.policy = pol;
                points.push_back({layers, degree, threshold});
                specs.push_back(spec);
            }
        }
    }
    const std::vector<RunResult> runs = runMany(std::move(specs));
    const RunResult &base = runs[0];

    std::cout << "HDPAT policy tuning for " << workload << " (baseline "
              << base.totalTicks << " cycles)\n\n";

    TablePrinter table({"C", "prefetch", "threshold", "cycles",
                        "speedup", "offload"});
    double best = 0.0;
    std::string best_desc;
    for (std::size_t p = 0; p < points.size(); ++p) {
        const Point &pt = points[p];
        const RunResult &r = runs[p + 1];
        const double speedup = speedupOver(base, r);
        table.addRow({std::to_string(pt.layers),
                      std::to_string(pt.degree),
                      std::to_string(pt.threshold),
                      std::to_string(r.totalTicks),
                      fmt(speedup) + "x",
                      fmtPct(r.offloadedFraction())});
        if (speedup > best) {
            best = speedup;
            best_desc = "C=" + std::to_string(pt.layers) +
                        " prefetch=" + std::to_string(pt.degree) +
                        " threshold=" + std::to_string(pt.threshold);
        }
    }
    table.print(std::cout);
    std::cout << "\nbest: " << best_desc << " (" << fmt(best) << "x)\n";
    return 0;
}
