/**
 * @file
 * Quickstart: simulate one workload (SPMV) on a 7x7 wafer-scale GPU
 * under the naive centralized baseline and under HDPAT, then print the
 * speedup and the translation-handling breakdown.
 *
 * Usage: quickstart [WORKLOAD] [OPS_PER_GPM]
 */

#include <iostream>
#include <string>

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
                 : 8000;

    std::cout << "HDPAT quickstart: " << workload << " on a 7x7 wafer ("
              << SystemConfig::mi100().numGpms() << " GPMs), " << ops
              << " memory ops per GPM\n\n";

    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.workload = workload;
    spec.opsPerGpm = ops;

    spec.policy = TranslationPolicy::baseline();
    RunSpec hdpat_spec = spec;
    hdpat_spec.policy = TranslationPolicy::hdpat();
    const std::vector<RunResult> runs =
        runMany({spec, hdpat_spec});
    const RunResult &base = runs[0];
    const RunResult &hdpat = runs[1];

    TablePrinter table({"metric", "baseline", "hdpat"});
    table.addRow({"cycles", std::to_string(base.totalTicks),
                  std::to_string(hdpat.totalTicks)});
    table.addRow({"remote translations",
                  std::to_string(base.remoteServed()),
                  std::to_string(hdpat.remoteServed())});
    table.addRow({"IOMMU walks",
                  std::to_string(base.iommu.walksCompleted),
                  std::to_string(hdpat.iommu.walksCompleted)});
    table.addRow({"mean remote RTT (cyc)", fmt(base.remoteRtt.mean(), 0),
                  fmt(hdpat.remoteRtt.mean(), 0)});
    table.addRow({"peer-cache share", "-",
                  fmtPct(hdpat.sourceFraction(
                      TranslationSource::PeerCache))});
    table.addRow({"redirection share", "-",
                  fmtPct(hdpat.sourceFraction(
                      TranslationSource::Redirect))});
    table.addRow({"proactive share", "-",
                  fmtPct(hdpat.sourceFraction(
                      TranslationSource::ProactiveDelivery))});
    table.addRow({"IOMMU share", "-",
                  fmtPct(hdpat.sourceFraction(
                      TranslationSource::IommuWalk))});
    table.print(std::cout);

    std::cout << "\nspeedup (baseline time / hdpat time): "
              << fmt(speedupOver(base, hdpat)) << "x\n";
    return 0;
}
