/**
 * @file
 * fig_tenant_churn: the multi-tenant serving regime. Sweeps tenant
 * count x context-switch rate at a fixed page-churn rate and reports
 * how much each policy degrades relative to its own single-tenant,
 * zero-churn run -- the regime where translation entries die young
 * (shot down or switched away) before their reuse pays back.
 *
 * Every cell's numbers come from the run's exported metrics JSON
 * (parsed back via the strict reader), not from in-process state, so
 * the figure doubles as an end-to-end check of the tenancy counters in
 * the export schema. The per-cell dumps are left on disk (under
 * HDPAT_TENANT_CHURN_DIR, default ".") for perf_snapshot.sh and
 * hdpat_diff.
 */

#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hh"
#include "obs/json_reader.hh"

using namespace hdpat;

namespace
{

struct Cell
{
    Tick totalTicks = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t pagesChurned = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t staleInstallsBlocked = 0;
};

/** Run one cell, export its metrics JSON, and read it back. */
Cell
runCell(const SystemConfig &cfg, const TranslationPolicy &pol,
        std::size_t ops, std::uint32_t tenants,
        std::uint64_t switch_rate, std::uint64_t churn_rate)
{
    std::ostringstream path;
    path << envRunOptions().tenantChurnDir << "/fig_tenant_churn."
         << pol.name << ".t" << tenants << ".s" << switch_rate << ".json";

    RunSpec spec = bench::spec(cfg, pol, "PR", ops);
    spec.tenancy = TenancySpec{};
    spec.tenancy.asidCount = tenants;
    spec.tenancy.switchRatePerMTicks = switch_rate;
    spec.tenancy.churnRatePerMTicks = churn_rate;
    spec.obs.metricsJsonPath = path.str();
    runOnce(spec);

    // The figure is built from the export, not the RunResult: the
    // JSON is the contract downstream tooling consumes.
    const JsonValue doc = parseJsonFileOrDie(path.str());
    const JsonValue &counters = doc.at("counters");
    const auto counter = [&counters](const char *name) {
        const JsonValue *v = counters.find(name);
        return v ? v->asUint() : 0;
    };
    Cell cell;
    cell.totalTicks = doc.at("run").at("total_ticks").asUint();
    cell.contextSwitches = counter("tenancy.context_switches");
    cell.pagesChurned = counter("tenancy.pages_churned");
    cell.pageFaults = counter("iommu.page_faults");
    cell.staleInstallsBlocked = counter("gpm.stale_installs_blocked");
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printBanner(
        "fig_tenant_churn", "tenant count x switch rate degradation",
        "not in the paper -- the ROADMAP's serving-regime extension: "
        "entries die young under churn, so distributed caching's "
        "advantage over the central IOMMU narrows");

    const std::size_t ops = bench::benchOps(argc, argv, 0.25);
    const SystemConfig cfg = SystemConfig::mi100();

    // Fixed churn: pages are unmapped and shot down throughout; the
    // swept dimension is how often the wafer changes address space.
    constexpr std::uint64_t kChurnRate = 100;
    const std::uint32_t tenant_counts[] = {2, 4, 8};
    const std::uint64_t switch_rates[] = {0, 200, 1000};

    const std::vector<TranslationPolicy> policies = {
        TranslationPolicy::baseline(), TranslationPolicy::hdpat()};

    for (const TranslationPolicy &pol : policies) {
        // The policy's own single-tenant, zero-churn reference.
        const Cell ref = runCell(cfg, pol, ops, 1, 0, 0);

        TablePrinter table({"tenants", "switch=0/Mt", "switch=200/Mt",
                            "switch=1000/Mt"});
        for (const std::uint32_t tenants : tenant_counts) {
            std::vector<std::string> row = {std::to_string(tenants)};
            for (const std::uint64_t rate : switch_rates) {
                const Cell cell =
                    runCell(cfg, pol, ops, tenants, rate, kChurnRate);
                const double slowdown =
                    static_cast<double>(cell.totalTicks) /
                    static_cast<double>(ref.totalTicks);
                std::ostringstream os;
                os << fmt(slowdown) << "x (" << cell.pagesChurned
                   << " churned, " << cell.pageFaults << " faults, "
                   << cell.staleInstallsBlocked << " stale blocked)";
                row.push_back(os.str());
            }
            table.addRow(row);
        }
        std::cout << "policy: " << pol.name << " (reference "
                  << ref.totalTicks << " ticks single-tenant; churn "
                  << kChurnRate << "/Mtick in every swept cell)\n";
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "cells are slowdown vs the same policy's "
                 "single-tenant run; dumps in "
              << envRunOptions().tenantChurnDir << "\n";
    return 0;
}
