/**
 * @file
 * Workload explorer: characterise any Table II benchmark's address
 * translation behaviour on the baseline system -- TLB hit rates,
 * remote-translation volume, the IOMMU request trace's reuse and
 * spatial-locality statistics (the paper's O3/O4 methodology applied
 * to one workload).
 *
 * Usage: workload_explorer [WORKLOAD] [OPS_PER_GPM]
 */

#include <iostream>
#include <string>

#include "driver/options.hh"
#include "driver/runner.hh"
#include "driver/table_printer.hh"
#include "driver/trace_analysis.hh"

using namespace hdpat;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "PR";
    const std::size_t ops =
        argc > 2 ? orExit([&] { return parseOpsPerGpm(argv[2]); })
                 : 8000;

    RunSpec spec;
    spec.config = SystemConfig::mi100();
    spec.policy = TranslationPolicy::baseline();
    spec.workload = workload;
    spec.opsPerGpm = ops;
    spec.captureIommuTrace = true;
    const RunResult r = runOnce(spec);

    std::cout << "Workload " << workload << " on the baseline system ("
              << r.opsTotal << " ops total)\n\n";

    TablePrinter hier({"level", "hits", "share of ops"});
    const double total = static_cast<double>(r.opsTotal);
    hier.addRow({"L1 TLB", std::to_string(r.l1TlbHits),
                 fmtPct(r.l1TlbHits / total)});
    hier.addRow({"L2 TLB", std::to_string(r.l2TlbHits),
                 fmtPct(r.l2TlbHits / total)});
    hier.addRow({"last-level TLB", std::to_string(r.llTlbHits),
                 fmtPct(r.llTlbHits / total)});
    hier.addRow({"local page walk", std::to_string(r.localWalks),
                 fmtPct(r.localWalks / total)});
    hier.addRow({"remote (IOMMU path)", std::to_string(r.remoteOps),
                 fmtPct(r.remoteOps / total)});
    hier.print(std::cout);

    const IommuTrace &trace = r.iommu.trace;
    std::cout << "\nIOMMU request trace: " << trace.size()
              << " requests\n";
    if (trace.empty())
        return 0;

    const TranslationCountBuckets counts =
        analyzeTranslationCounts(trace);
    TablePrinter fig6({"translations per page", "pages", "fraction"});
    fig6.addRow({"1", std::to_string(counts.once),
                 fmtPct(counts.fraction(counts.once))});
    fig6.addRow({"2", std::to_string(counts.twice),
                 fmtPct(counts.fraction(counts.twice))});
    fig6.addRow({"3-10", std::to_string(counts.threeToTen),
                 fmtPct(counts.fraction(counts.threeToTen))});
    fig6.addRow({"11-100", std::to_string(counts.elevenToHundred),
                 fmtPct(counts.fraction(counts.elevenToHundred))});
    fig6.addRow({">100", std::to_string(counts.moreThanHundred),
                 fmtPct(counts.fraction(counts.moreThanHundred))});
    std::cout << '\n';
    fig6.print(std::cout);

    const auto spatial =
        spatialLocalityFractions(trace, {1, 2, 4, 8, 16});
    std::cout << "\nnext-request VPN proximity: <=1: "
              << fmtPct(spatial[0]) << "  <=2: " << fmtPct(spatial[1])
              << "  <=4: " << fmtPct(spatial[2])
              << "  <=8: " << fmtPct(spatial[3])
              << "  <=16: " << fmtPct(spatial[4]) << "\n";

    const Log2Histogram reuse = analyzeReuseDistance(trace);
    std::cout << "repeat translations: " << reuse.totalCount()
              << "  median reuse distance: " << reuse.quantile(0.5)
              << "  p90: " << reuse.quantile(0.9) << "\n";
    return 0;
}
