/**
 * @file
 * perf_report: work with the "profile" and "latency" sections of
 * hdpat-metrics JSON dumps.
 *
 *   perf_report --extract METRICS.json
 *       Print the embedded profile object alone, for splicing into a
 *       committed BENCH_*.json baseline (perf_snapshot.sh does this).
 *
 *   perf_report --baseline BENCH_fig14.json METRICS.json
 *       Per-subsystem host-time table of the fresh run against the
 *       committed baseline's profile: total milliseconds, ns/call,
 *       and the delta in percent. Exits 0 regardless of the deltas --
 *       the tool reports, a human (or CI annotation) judges.
 *
 *   perf_report --extract-latency METRICS.json
 *       Compact per-stage digest of the "latency" section (counts,
 *       means, p99s, exact end-to-end quantiles), for splicing into
 *       committed baselines next to the profile.
 *
 *   perf_report --latency-diff BASE.json FRESH.json [MAX_PCT]
 *       Per-stage and end-to-end-quantile diff of two latency dumps
 *       (full metrics documents or compact digests, in any mix).
 *       With MAX_PCT, exits 1 on any regression beyond it -- latencies
 *       are simulated ticks, bit-deterministic across machines, so
 *       tight thresholds are meaningful (unlike host-time checks).
 *
 *   perf_report --latency-check METRICS.json
 *       Internal-consistency gate: the exact-quantile reservoir and
 *       the log2 histogram must agree within one bucket at
 *       p50/p95/p99/p999, and stage-conservation violations must be
 *       zero. CI runs this on every latency smoke run.
 *
 * All inputs go through the strict JSON reader, so a malformed or
 * truncated dump fails loudly rather than diffing garbage.
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "driver/table_printer.hh"
#include "obs/json_reader.hh"
#include "obs/latency.hh"
#include "obs/profiler.hh"

using namespace hdpat;

namespace
{

/** The "profile" object of @p doc; fatal when absent. */
const JsonValue &
profileOf(const JsonValue &doc, const std::string &what)
{
    const JsonValue *profile = doc.find("profile");
    if (!profile) {
        std::cerr << "error: " << what
                  << " has no \"profile\" section (run with the host "
                     "self-profiler on)\n";
        std::exit(1);
    }
    return *profile;
}

struct SectionTotals
{
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
};

SectionTotals
sectionOf(const JsonValue &profile, const char *name)
{
    SectionTotals totals;
    const JsonValue *section = profile.at("sections").find(name);
    if (section) {
        totals.calls = section->at("calls").asUint();
        totals.nanos = section->at("nanos").asUint();
    }
    return totals;
}

int
extract(const std::string &path)
{
    const JsonValue doc = parseJsonFileOrDie(path);
    const JsonValue &profile = profileOf(doc, path);

    // Re-emit compactly (one object, stable key order) rather than
    // echoing file bytes, so the output is valid regardless of the
    // source formatting.
    std::cout << "{\"runs\": " << profile.at("runs").asUint()
              << ", \"wall_nanos\": "
              << profile.at("wall_nanos").asUint()
              << ", \"sections\": {";
    bool first = true;
    for (std::size_t i = 0; i < kNumProfSections; ++i) {
        const char *name =
            profSectionName(static_cast<ProfSection>(i));
        const SectionTotals totals = sectionOf(profile, name);
        std::cout << (first ? "" : ", ") << '"' << name
                  << "\": {\"calls\": " << totals.calls
                  << ", \"nanos\": " << totals.nanos << '}';
        first = false;
    }
    std::cout << "}}\n";
    return 0;
}

int
diff(const std::string &baseline_path, const std::string &fresh_path)
{
    const JsonValue baseline_doc = parseJsonFileOrDie(baseline_path);
    const JsonValue fresh_doc = parseJsonFileOrDie(fresh_path);
    const JsonValue &base = profileOf(baseline_doc, baseline_path);
    const JsonValue &fresh = profileOf(fresh_doc, fresh_path);

    std::cout << "host self-profile: " << fresh_path << " vs baseline "
              << baseline_path << "\n";
    std::cout << "  baseline: " << base.at("runs").asUint()
              << " run(s), "
              << fmt(static_cast<double>(
                         base.at("wall_nanos").asUint()) /
                         1e6,
                     1)
              << " ms wall; fresh: " << fresh.at("runs").asUint()
              << " run(s), "
              << fmt(static_cast<double>(
                         fresh.at("wall_nanos").asUint()) /
                         1e6,
                     1)
              << " ms wall\n\n";

    TablePrinter table({"section", "baseline ms", "fresh ms", "delta",
                        "baseline ns/call", "fresh ns/call"});
    for (std::size_t i = 0; i < kNumProfSections; ++i) {
        const char *name =
            profSectionName(static_cast<ProfSection>(i));
        const SectionTotals b = sectionOf(base, name);
        const SectionTotals f = sectionOf(fresh, name);
        const double bms = static_cast<double>(b.nanos) / 1e6;
        const double fms = static_cast<double>(f.nanos) / 1e6;
        std::string delta = "-";
        if (b.nanos > 0)
            delta = fmtPct(fms / bms - 1.0);
        const auto per_call = [](const SectionTotals &s) {
            return s.calls ? fmt(static_cast<double>(s.nanos) /
                                     static_cast<double>(s.calls),
                                 0)
                           : std::string("-");
        };
        table.addRow({name, fmt(bms, 1), fmt(fms, 1), delta,
                      per_call(b), per_call(f)});
    }
    table.print(std::cout);
    return 0;
}

/**
 * CI gate: fail (exit 1) when @p section's fresh nanos-per-call
 * exceeds the baseline's by more than @p max_regress_pct percent.
 * Per-call time is the right unit for a noisy runner: it is
 * insensitive to how many events the fixed-seed run happens to
 * execute, and the threshold absorbs machine-to-machine variance.
 */
int
check(const char *section, const std::string &pct_text,
      const std::string &baseline_path, const std::string &fresh_path)
{
    const double max_regress_pct = std::stod(pct_text);
    const JsonValue baseline_doc = parseJsonFileOrDie(baseline_path);
    const JsonValue fresh_doc = parseJsonFileOrDie(fresh_path);
    const SectionTotals b =
        sectionOf(profileOf(baseline_doc, baseline_path), section);
    const SectionTotals f =
        sectionOf(profileOf(fresh_doc, fresh_path), section);
    if (b.calls == 0 || f.calls == 0) {
        std::cerr << "error: section \"" << section
                  << "\" missing or empty (baseline calls=" << b.calls
                  << ", fresh calls=" << f.calls << ")\n";
        return 1;
    }
    const double base_per_call =
        static_cast<double>(b.nanos) / static_cast<double>(b.calls);
    const double fresh_per_call =
        static_cast<double>(f.nanos) / static_cast<double>(f.calls);
    const double delta_pct =
        (fresh_per_call / base_per_call - 1.0) * 100.0;
    std::cout << section << ": baseline " << fmt(base_per_call, 0)
              << " ns/call (" << b.calls << " calls), fresh "
              << fmt(fresh_per_call, 0) << " ns/call (" << f.calls
              << " calls), delta " << fmt(delta_pct, 1)
              << "% (limit +" << fmt(max_regress_pct, 0) << "%)\n";
    if (delta_pct > max_regress_pct) {
        std::cerr << "error: " << section
                  << " regressed beyond the budget\n";
        return 1;
    }
    return 0;
}

/**
 * CI gate over an exported counter (e.g. engine.events_scheduled):
 * fail (exit 1) when the fresh value exceeds the baseline's by more
 * than @p max_regress_pct percent. Counters are simulated quantities,
 * deterministic for a fixed seed, so unlike host-time checks the
 * threshold only needs to absorb intentional model drift -- NoC
 * delivery companions run as events of their own (~20% more scheduled
 * events on the audited reference run) trip it immediately.
 *
 * The baseline may be a BENCH_*.json record carrying a "counters"
 * object (perf_snapshot.sh embeds one from an audited run) or a full
 * metrics dump; the fresh side is a metrics dump.
 */
int
counterCheck(const char *name, const std::string &pct_text,
             const std::string &baseline_path,
             const std::string &fresh_path)
{
    const double max_regress_pct = std::stod(pct_text);
    const auto counterOf = [&](const std::string &path) {
        const JsonValue doc = parseJsonFileOrDie(path);
        const JsonValue *counters = doc.find("counters");
        const JsonValue *value =
            counters ? counters->find(name) : nullptr;
        if (!value) {
            std::cerr << "error: " << path << " has no counter \""
                      << name << "\"\n";
            std::exit(1);
        }
        return value->asUint();
    };
    const std::uint64_t base = counterOf(baseline_path);
    const std::uint64_t fresh = counterOf(fresh_path);
    if (base == 0) {
        std::cerr << "error: baseline counter \"" << name
                  << "\" is zero; nothing to compare\n";
        return 1;
    }
    const double delta_pct = (static_cast<double>(fresh) /
                                  static_cast<double>(base) -
                              1.0) * 100.0;
    std::cout << name << ": baseline " << base << ", fresh " << fresh
              << ", delta " << fmt(delta_pct, 1) << "% (limit +"
              << fmt(max_regress_pct, 0) << "%)\n";
    if (delta_pct > max_regress_pct) {
        std::cerr << "error: " << name
                  << " regressed beyond the budget\n";
        return 1;
    }
    return 0;
}

// --- Latency-section tooling ------------------------------------------

/** One quantile's label and probability, in report order. */
struct QuantileSpec
{
    const char *name;
    double q;
};

constexpr QuantileSpec kQuantiles[] = {
    {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}};

/** Log2 bucket index holding @p value (matches Log2Histogram). */
std::size_t
bucketIndexOf(std::uint64_t value)
{
    if (value == 0)
        return 0;
    std::size_t idx = 0;
    while (value) {
        value >>= 1;
        ++idx;
    }
    return idx; // floor(log2(v)) + 1.
}

/** Histogram quantile recomputed from exported {low,high,count} rows. */
std::uint64_t
histQuantileOf(const JsonValue &hist, double q)
{
    const std::uint64_t total = hist.at("total").asUint();
    if (total == 0)
        return 0;
    const double target = q * static_cast<double>(total);
    double acc = 0.0;
    std::uint64_t last_high = 0;
    for (const JsonValue &bucket : hist.at("buckets").elements) {
        acc += static_cast<double>(bucket.at("count").asUint());
        last_high = bucket.at("high").asUint();
        if (acc >= target)
            return last_high;
    }
    return last_high;
}

/** Flat per-stage + end-to-end digest, shape-agnostic. */
struct LatencyDigest
{
    std::uint64_t spans = 0;
    std::uint64_t sampleN = 1;
    std::uint64_t conservationViolations = 0;
    struct Stage
    {
        std::uint64_t count = 0;
        double mean = 0.0;
        std::uint64_t p99 = 0;
    };
    Stage stages[kNumLatencyStages];
    double endToEndMean = 0.0;
    std::uint64_t quantiles[4] = {0, 0, 0, 0};
};

/**
 * The latency object of @p doc: either the document *is* a compact
 * digest, or it holds one (BENCH baselines) or a full section (metrics
 * dumps) under "latency". Fatal when absent.
 */
const JsonValue &
latencyOf(const JsonValue &doc, const std::string &what)
{
    if (const JsonValue *latency = doc.find("latency"))
        return *latency;
    if (doc.find("spans") && doc.find("stages"))
        return doc;
    std::cerr << "error: " << what
              << " has no \"latency\" section (run with latency "
                 "attribution on)\n";
    std::exit(1);
}

/** Parse either the full exporter shape or the compact digest. */
LatencyDigest
digestOf(const JsonValue &latency)
{
    LatencyDigest d;
    d.spans = latency.at("spans").asUint();
    if (const JsonValue *n = latency.find("sample_n"))
        d.sampleN = n->asUint();
    if (const JsonValue *v = latency.find("conservation_violations"))
        d.conservationViolations = v->asUint();

    const JsonValue &stages = latency.at("stages");
    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        const char *name =
            latencyStageName(static_cast<LatencyStage>(s));
        const JsonValue *stage = stages.find(name);
        if (!stage)
            continue;
        if (const JsonValue *summary = stage->find("summary")) {
            // Full exporter shape.
            d.stages[s].count = summary->at("count").asUint();
            d.stages[s].mean = summary->at("mean").asNumber();
            d.stages[s].p99 =
                histQuantileOf(stage->at("histogram"), 0.99);
        } else {
            d.stages[s].count = stage->at("count").asUint();
            d.stages[s].mean = stage->at("mean").asNumber();
            d.stages[s].p99 = stage->at("p99").asUint();
        }
    }

    const JsonValue &e2e = latency.at("end_to_end");
    if (const JsonValue *summary = e2e.find("summary")) {
        d.endToEndMean = summary->at("mean").asNumber();
        const JsonValue &quantiles = e2e.at("quantiles");
        for (std::size_t i = 0; i < 4; ++i)
            d.quantiles[i] = quantiles.at(kQuantiles[i].name).asUint();
    } else {
        d.endToEndMean = e2e.at("mean").asNumber();
        for (std::size_t i = 0; i < 4; ++i)
            d.quantiles[i] = e2e.at(kQuantiles[i].name).asUint();
    }
    return d;
}

int
extractLatency(const std::string &path)
{
    const JsonValue doc = parseJsonFileOrDie(path);
    const LatencyDigest d = digestOf(latencyOf(doc, path));

    std::cout << "{\"spans\": " << d.spans << ", \"sample_n\": "
              << d.sampleN << ", \"stages\": {";
    bool first = true;
    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        std::cout << (first ? "" : ", ") << '"'
                  << latencyStageName(static_cast<LatencyStage>(s))
                  << "\": {\"count\": " << d.stages[s].count
                  << ", \"mean\": " << d.stages[s].mean
                  << ", \"p99\": " << d.stages[s].p99 << '}';
        first = false;
    }
    std::cout << "}, \"end_to_end\": {\"mean\": " << d.endToEndMean;
    for (std::size_t i = 0; i < 4; ++i)
        std::cout << ", \"" << kQuantiles[i].name
                  << "\": " << d.quantiles[i];
    std::cout << "}}\n";
    return 0;
}

int
latencyDiff(const std::string &baseline_path,
            const std::string &fresh_path, const char *pct_text)
{
    const JsonValue baseline_doc = parseJsonFileOrDie(baseline_path);
    const JsonValue fresh_doc = parseJsonFileOrDie(fresh_path);
    const LatencyDigest base =
        digestOf(latencyOf(baseline_doc, baseline_path));
    const LatencyDigest fresh =
        digestOf(latencyOf(fresh_doc, fresh_path));
    const double max_regress_pct =
        pct_text ? std::stod(pct_text) : -1.0;

    std::cout << "latency anatomy: " << fresh_path << " vs baseline "
              << baseline_path << "\n  baseline: " << base.spans
              << " spans (sample 1/" << base.sampleN
              << "); fresh: " << fresh.spans << " spans (sample 1/"
              << fresh.sampleN << ")\n\n";

    bool regressed = false;
    // Relative deltas on sub-tick means are noise; only stages that
    // cost at least one tick on average can regress the gate.
    const auto gate = [&](double base_v, double fresh_v) {
        if (max_regress_pct < 0.0 || base_v < 1.0)
            return;
        if ((fresh_v / base_v - 1.0) * 100.0 > max_regress_pct)
            regressed = true;
    };

    TablePrinter table({"stage", "baseline mean", "fresh mean",
                        "delta", "baseline p99", "fresh p99"});
    for (std::size_t s = 0; s < kNumLatencyStages; ++s) {
        const LatencyDigest::Stage &b = base.stages[s];
        const LatencyDigest::Stage &f = fresh.stages[s];
        if (b.count == 0 && f.count == 0)
            continue;
        std::string delta = "-";
        if (b.mean > 0.0)
            delta = fmtPct(f.mean / b.mean - 1.0);
        gate(b.mean, f.mean);
        gate(static_cast<double>(b.p99), static_cast<double>(f.p99));
        table.addRow(
            {latencyStageName(static_cast<LatencyStage>(s)),
             fmt(b.mean, 1), fmt(f.mean, 1), delta,
             std::to_string(b.p99), std::to_string(f.p99)});
    }
    table.print(std::cout);

    TablePrinter e2e({"end-to-end", "baseline", "fresh", "delta"});
    const auto row = [&](const char *name, double b, double f) {
        std::string delta = "-";
        if (b > 0.0)
            delta = fmtPct(f / b - 1.0);
        gate(b, f);
        e2e.addRow({name, fmt(b, 1), fmt(f, 1), delta});
    };
    row("mean", base.endToEndMean, fresh.endToEndMean);
    for (std::size_t i = 0; i < 4; ++i)
        row(kQuantiles[i].name,
            static_cast<double>(base.quantiles[i]),
            static_cast<double>(fresh.quantiles[i]));
    std::cout << "\n";
    e2e.print(std::cout);

    if (regressed) {
        std::cerr << "error: latency regressed beyond +"
                  << fmt(max_regress_pct, 1) << "%\n";
        return 1;
    }
    return 0;
}

int
latencyCheck(const std::string &path)
{
    const JsonValue doc = parseJsonFileOrDie(path);
    const JsonValue &latency = latencyOf(doc, path);
    const JsonValue *e2e = latency.find("end_to_end");
    if (!e2e || !e2e->find("histogram")) {
        std::cerr << "error: " << path
                  << " is a compact digest; --latency-check needs the "
                     "full metrics dump\n";
        return 1;
    }
    if (latency.at("spans").asUint() == 0) {
        std::cerr << "error: " << path
                  << " holds zero spans; nothing to check\n";
        return 1;
    }
    int failures = 0;
    if (latency.at("conservation_violations").asUint() != 0) {
        std::cerr << "error: conservation_violations = "
                  << latency.at("conservation_violations").asUint()
                  << " (stage durations must sum to end-to-end)\n";
        ++failures;
    }
    const JsonValue &hist = e2e->at("histogram");
    const JsonValue &quantiles = e2e->at("quantiles");
    for (const QuantileSpec &spec : kQuantiles) {
        const std::uint64_t from_hist = histQuantileOf(hist, spec.q);
        const std::uint64_t exact =
            quantiles.at(spec.name).asUint();
        const std::size_t hist_bucket = bucketIndexOf(from_hist);
        const std::size_t exact_bucket = bucketIndexOf(exact);
        const std::size_t gap = hist_bucket > exact_bucket
                                    ? hist_bucket - exact_bucket
                                    : exact_bucket - hist_bucket;
        std::cout << spec.name << ": exact " << exact << " (bucket "
                  << exact_bucket << "), histogram " << from_hist
                  << " (bucket " << hist_bucket << ")\n";
        if (gap > 1) {
            std::cerr << "error: " << spec.name
                      << " reservoir and histogram disagree by "
                      << gap << " log2 buckets\n";
            ++failures;
        }
    }
    return failures ? 1 : 0;
}

void
usage()
{
    std::cerr
        << "usage: perf_report --extract METRICS.json\n"
           "       perf_report --baseline BENCH.json METRICS.json\n"
           "       perf_report --check SECTION MAX_PCT BENCH.json "
           "METRICS.json\n"
           "       perf_report --counter-check NAME MAX_PCT BENCH.json "
           "METRICS.json\n"
           "       perf_report --extract-latency METRICS.json\n"
           "       perf_report --latency-diff BASE.json FRESH.json "
           "[MAX_PCT]\n"
           "       perf_report --latency-check METRICS.json\n"
           "Reads the \"profile\" section the host self-profiler "
           "exports and the \"latency\" section latency attribution "
           "exports (hdpat_cli's option table lists both switches). "
           "--check exits nonzero when SECTION's "
           "ns/call regressed more than MAX_PCT percent vs the "
           "baseline; --counter-check does the same for an exported "
           "counter (e.g. engine.events_scheduled) against the "
           "baseline's embedded \"counters\" object; "
           "--latency-diff with MAX_PCT does the same for "
           "per-stage simulated ticks; --latency-check exits nonzero "
           "when the exact-quantile reservoir and the histogram "
           "disagree by more than one log2 bucket.\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--extract") == 0)
        return extract(argv[2]);
    if (argc == 4 && std::strcmp(argv[1], "--baseline") == 0)
        return diff(argv[2], argv[3]);
    if (argc == 6 && std::strcmp(argv[1], "--check") == 0)
        return check(argv[2], argv[3], argv[4], argv[5]);
    if (argc == 6 && std::strcmp(argv[1], "--counter-check") == 0)
        return counterCheck(argv[2], argv[3], argv[4], argv[5]);
    if (argc == 3 && std::strcmp(argv[1], "--extract-latency") == 0)
        return extractLatency(argv[2]);
    if ((argc == 4 || argc == 5) &&
        std::strcmp(argv[1], "--latency-diff") == 0)
        return latencyDiff(argv[2], argv[3],
                           argc == 5 ? argv[4] : nullptr);
    if (argc == 3 && std::strcmp(argv[1], "--latency-check") == 0)
        return latencyCheck(argv[2]);
    usage();
    return 1;
}
