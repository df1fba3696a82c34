/**
 * @file
 * MetricRegistry: a named catalogue of everything a run can report.
 *
 * Components register counters (monotonic integers), gauges (point
 * doubles), summaries (SummaryStat), histograms (Log2Histogram), and
 * time series (TimeSeries) under hierarchical dotted names
 * ("iommu.walks_completed", "gpm.t5.l1_tlb_hits"). Registration stores
 * a *getter*, not a copy, so the registry imposes zero cost on the hot
 * path: values are read only when a snapshot is taken (JSON export).
 */

#ifndef HDPAT_OBS_REGISTRY_HH
#define HDPAT_OBS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "sim/stats.hh"

namespace hdpat
{

class MetricRegistry
{
  public:
    using CounterFn = std::function<std::uint64_t()>;
    using GaugeFn = std::function<double()>;
    using SummaryFn = std::function<SummaryStat()>;
    using HistogramFn = std::function<Log2Histogram()>;
    using TimeSeriesFn = std::function<const TimeSeries *()>;

    using Value = std::variant<CounterFn, GaugeFn, SummaryFn,
                               HistogramFn, TimeSeriesFn>;

    /** Register a counter via getter (panics on duplicate names). */
    void addCounter(const std::string &name, CounterFn fn);
    /** Register a counter that reads a live component field. */
    void addCounter(const std::string &name, const std::uint64_t *field);
    void addGauge(const std::string &name, GaugeFn fn);
    void addSummary(const std::string &name, SummaryFn fn);
    void addSummary(const std::string &name, const SummaryStat *stat);
    void addHistogram(const std::string &name, HistogramFn fn);
    void addHistogram(const std::string &name, const Log2Histogram *h);
    void addTimeSeries(const std::string &name, const TimeSeries *ts);

    bool has(const std::string &name) const;
    std::size_t size() const { return entries_.size(); }

    /** Read a registered counter (panics when absent or mistyped). */
    std::uint64_t counterValue(const std::string &name) const;
    double gaugeValue(const std::string &name) const;
    SummaryStat summaryValue(const std::string &name) const;

    /** Visit all metrics in registration order. */
    void forEach(const std::function<void(const std::string &name,
                                          const Value &value)> &fn) const;

  private:
    struct Entry
    {
        std::string name;
        Value value;
    };

    const Value &at(const std::string &name) const;
    void add(const std::string &name, Value value);

    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace hdpat

#endif // HDPAT_OBS_REGISTRY_HH
