/**
 * @file
 * Wafer sweep: how does HDPAT's benefit change with wafer size? Runs a
 * workload on progressively larger meshes (3x3 up to 7x12) under the
 * baseline and HDPAT, showing the centralized IOMMU bottleneck grow
 * with GPM count and HDPAT's advantage grow with it (the paper's
 * motivation in a single program).
 *
 * Usage: wafer_sweep [WORKLOAD] [OPS_PER_GPM]
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
    const std::string workload = argc > 1 ? argv[1] : "SPMV";
    const std::size_t ops =
        argc > 2 ? orExit([&] { return parseOpsPerGpm(argv[2]); })
                 : 6000;

    struct Mesh
    {
        int w, h;
    };
    const std::vector<Mesh> meshes = {
        {3, 3}, {5, 5}, {7, 7}, {9, 7}, {12, 7}};

    std::cout << "HDPAT wafer-size sweep: " << workload << ", " << ops
              << " ops per GPM\n\n";

    // One baseline + one HDPAT run per mesh, all on the worker pool.
    std::vector<SystemConfig> configs;
    std::vector<RunSpec> specs;
    for (const Mesh &mesh : meshes) {
        RunSpec spec;
        spec.config = SystemConfig::mi100();
        spec.config.meshWidth = mesh.w;
        spec.config.meshHeight = mesh.h;
        spec.config.name = std::to_string(mesh.w) + "x" +
                           std::to_string(mesh.h);
        spec.workload = workload;
        spec.opsPerGpm = ops;
        configs.push_back(spec.config);

        spec.policy = TranslationPolicy::baseline();
        specs.push_back(spec);
        spec.policy = TranslationPolicy::hdpat();
        specs.push_back(spec);
    }
    const std::vector<RunResult> runs = runMany(std::move(specs));

    TablePrinter table({"mesh", "GPMs", "baseline cyc", "hdpat cyc",
                        "speedup", "IOMMU offload"});
    for (std::size_t m = 0; m < meshes.size(); ++m) {
        const RunResult &base = runs[2 * m];
        const RunResult &hdpat = runs[2 * m + 1];
        table.addRow({configs[m].name,
                      std::to_string(configs[m].numGpms()),
                      std::to_string(base.totalTicks),
                      std::to_string(hdpat.totalTicks),
                      fmt(speedupOver(base, hdpat)) + "x",
                      fmtPct(hdpat.offloadedFraction())});
    }
    table.print(std::cout);
    return 0;
}
