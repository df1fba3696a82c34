/**
 * @file
 * google-benchmark of the calendar EventQueue at the delta mixes the
 * simulator actually generates:
 *
 *  - hot mix: the handful of short fixed deltas that dominate event
 *    traffic (NoC hop latency, TLB/IOMMU pipeline stages, HBM
 *    latency), with same-tick pileups,
 *  - deep steady state: schedule/pop churn against a large pending
 *    population,
 *  - far future: observer-style deltas beyond the wheel width, the
 *    overflow tier.
 *
 * Each benchmark reports items/s where an item is one schedule+pop
 * pair. perf_snapshot.sh records the suite into BENCH_micro.json.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace hdpat
{
namespace
{

/** The simulator's short fixed deltas, weighted toward NoC hops. */
constexpr std::array<Tick, 8> kHotDeltas = {1, 1, 2, 3, 4, 12, 40, 160};

/**
 * Hot mix at a modest pending population: schedule a burst with the
 * fixed short deltas (plus same-tick ties), then drain it, as the
 * engine does around each dispatched event.
 */
void
BM_EventQueueHotMix(benchmark::State &state)
{
    EventQueue q;
    q.reserve(1024);
    Rng rng(42);
    Tick now = 0;
    for (auto _ : state) {
        (void)_;
        for (int i = 0; i < 64; ++i) {
            const Tick delta = rng.chance(0.15)
                                   ? 0
                                   : kHotDeltas[rng.uniformInt(
                                         kHotDeltas.size())];
            q.schedule(now + delta, [] {});
        }
        for (int i = 0; i < 64; ++i) {
            q.pop(now)();
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueHotMix);

/**
 * Steady-state churn against a deep pending population (the wafer at
 * full tilt: every GPM's outstanding window in flight). One schedule
 * + one pop per item keeps the population constant.
 */
void
BM_EventQueueDeepSteadyState(benchmark::State &state)
{
    const std::size_t population =
        static_cast<std::size_t>(state.range(0));
    EventQueue q;
    q.reserve(population + 64);
    Rng rng(7);
    Tick now = 0;
    for (std::size_t i = 0; i < population; ++i)
        q.schedule(now + kHotDeltas[rng.uniformInt(kHotDeltas.size())],
                   [] {});
    for (auto _ : state) {
        (void)_;
        q.pop(now)();
        q.schedule(now + kHotDeltas[rng.uniformInt(kHotDeltas.size())],
                   [] {});
    }
    state.SetItemsProcessed(state.iterations());
    q.clear();
}
BENCHMARK(BM_EventQueueDeepSteadyState)->Arg(4096)->Arg(32768);

/**
 * Far-future traffic: observer-style deltas beyond the 4096-tick
 * wheel, so every event rides the overflow min-heap -- the calendar
 * queue's worst case.
 */
void
BM_EventQueueFarFuture(benchmark::State &state)
{
    EventQueue q;
    q.reserve(1024);
    Rng rng(99);
    Tick now = 0;
    for (auto _ : state) {
        (void)_;
        for (int i = 0; i < 64; ++i)
            q.schedule(now + 5000 + rng.uniformInt(2'000'000), [] {});
        for (int i = 0; i < 64; ++i)
            q.pop(now)();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueFarFuture);

} // namespace
} // namespace hdpat

BENCHMARK_MAIN();
