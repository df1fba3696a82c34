/**
 * @file
 * Host self-profiler: scoped RAII wall-clock timers over the
 * simulator's own hot paths (event dispatch, translation lookups, NoC
 * routing, the IOMMU pipeline, workload generation, export writing),
 * aggregated per run and exported as the "profile" section of the
 * metrics JSON.
 *
 * Same null-pointer pattern as the tracer: components hold a
 * `Profiler *` that is null unless profiling was requested, and
 * ProfScope's constructor/destructor test it once each. Sections are
 * *inclusive* — NoC routing time counted inside an event also counts
 * toward event dispatch — so per-section numbers answer "where does
 * wall-clock go" rather than summing to 100%.
 *
 * The hot-path members (ProfScope, Profiler::add) are header-only on
 * purpose: sim/engine.cc instruments event dispatch with them without
 * creating a link dependency from hdpat_sim onto hdpat_obs.
 */

#ifndef HDPAT_OBS_PROFILER_HH
#define HDPAT_OBS_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace hdpat
{

/** One instrumented host code path. */
enum class ProfSection : std::uint8_t
{
    EventDispatch = 0, ///< Engine::step callback execution.
    Translate,         ///< GPM TLB/filter lookup chain.
    NocRouting,        ///< Network::computeArrival route walk.
    IommuPipeline,     ///< IOMMU ingress + walk completion.
    WorkloadGen,       ///< Workload allocation + stream setup.
    Export,            ///< Metrics/trace/spatial export writing.
};

constexpr std::size_t kNumProfSections =
    static_cast<std::size_t>(ProfSection::Export) + 1;

/** Printable name of a profiled section (part of the JSON schema). */
const char *profSectionName(ProfSection section);

/** Aggregated result of one run's profiling (mergeable across runs). */
struct ProfileSnapshot
{
    struct Section
    {
        std::uint64_t calls = 0;
        std::uint64_t nanos = 0;
    };
    std::array<Section, kNumProfSections> sections{};
    /** Wall-clock nanoseconds of the whole System::run(). */
    std::uint64_t wallNanos = 0;
    /** Runs merged into this snapshot (0 = profiling was off). */
    std::uint64_t runs = 0;

    bool empty() const { return runs == 0; }
    void merge(const ProfileSnapshot &other);
};

class Profiler
{
  public:
    /** Hot path: one array index + two adds. */
    void add(ProfSection section, std::uint64_t nanos)
    {
        auto &s =
            snapshot_.sections[static_cast<std::size_t>(section)];
        ++s.calls;
        s.nanos += nanos;
    }

    void addWall(std::uint64_t nanos) { snapshot_.wallNanos += nanos; }

    /** The aggregate so far, stamped as one run. */
    ProfileSnapshot snapshot() const
    {
        ProfileSnapshot copy = snapshot_;
        copy.runs = 1;
        return copy;
    }

  private:
    ProfileSnapshot snapshot_;
};

/**
 * RAII section timer. With a null profiler both ends are a single
 * pointer test; with one attached, two steady_clock reads.
 */
class ProfScope
{
  public:
    ProfScope(Profiler *profiler, ProfSection section)
        : profiler_(profiler), section_(section)
    {
        if (profiler_) [[unlikely]]
            start_ = std::chrono::steady_clock::now();
    }

    ~ProfScope()
    {
        if (profiler_) [[unlikely]] {
            const auto elapsed =
                std::chrono::steady_clock::now() - start_;
            profiler_->add(
                section_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(elapsed)
                        .count()));
        }
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    Profiler *profiler_;
    ProfSection section_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace hdpat

#endif // HDPAT_OBS_PROFILER_HH
