#include "driver/parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/log.hh"

namespace hdpat
{

namespace
{

/** setDefaultJobs() override; 0 = none. */
std::atomic<unsigned> g_jobs_override{0};

} // namespace

unsigned
defaultJobs()
{
    if (const unsigned override = g_jobs_override.load())
        return override;
    if (const unsigned env = envRunOptions().jobs)
        return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
setDefaultJobs(unsigned jobs)
{
    g_jobs_override.store(jobs);
}

std::string
withRunIndexSuffix(const std::string &path, std::size_t index)
{
    const std::string suffix = "-" + std::to_string(index);
    const auto slash = path.find_last_of('/');
    const auto dot = path.find_last_of('.');
    // Only a dot inside the last path component marks an extension.
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash) ||
        dot == (slash == std::string::npos ? 0 : slash + 1)) {
        return path + suffix;
    }
    return path.substr(0, dot) + suffix + path.substr(dot);
}

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

struct WorkerPool::Impl
{
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<std::function<void()>> tasks;
    std::vector<std::thread> threads;
    bool stopping = false;

    void workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        while (true) {
            wake.wait(lock,
                      [this] { return stopping || !tasks.empty(); });
            if (stopping && tasks.empty())
                return;
            std::function<void()> task = std::move(tasks.front());
            tasks.pop_front();
            lock.unlock();
            task();
            lock.lock();
        }
    }

    /** Grow to at least @p n threads. Caller must not hold the mutex. */
    void ensureThreads(unsigned n)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        while (threads.size() < n)
            threads.emplace_back([this] { workerLoop(); });
    }

    void submit(std::function<void()> task)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            tasks.push_back(std::move(task));
        }
        wake.notify_one();
    }
};

WorkerPool &
WorkerPool::shared()
{
    static WorkerPool pool;
    return pool;
}

WorkerPool::WorkerPool() : impl_(new Impl) {}

WorkerPool::~WorkerPool()
{
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->wake.notify_all();
    for (std::thread &t : impl_->threads)
        t.join();
    delete impl_;
}

unsigned
WorkerPool::threadCount() const
{
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    return static_cast<unsigned>(impl_->threads.size());
}

void
WorkerPool::parallelFor(std::size_t n, unsigned max_parallel,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (max_parallel < 1)
        max_parallel = 1;
    const unsigned drains = static_cast<unsigned>(
        std::min<std::size_t>(max_parallel, n));
    impl_->ensureThreads(drains);

    // Each drain task pulls indices from a shared counter until the
    // range is exhausted; `drains` of them bound the real parallelism.
    struct Batch
    {
        std::atomic<std::size_t> next{0};
        std::atomic<unsigned> remaining;
        std::mutex doneMutex;
        std::condition_variable done;
        std::exception_ptr error;
        std::mutex errorMutex;
    };
    Batch batch;
    batch.remaining = drains;

    auto drain = [&batch, &body, n] {
        for (std::size_t i = batch.next.fetch_add(1); i < n;
             i = batch.next.fetch_add(1)) {
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(
                    batch.errorMutex);
                if (!batch.error)
                    batch.error = std::current_exception();
            }
        }
        if (batch.remaining.fetch_sub(1) == 1) {
            const std::lock_guard<std::mutex> lock(batch.doneMutex);
            batch.done.notify_all();
        }
    };
    for (unsigned d = 0; d < drains; ++d)
        impl_->submit(drain);

    std::unique_lock<std::mutex> lock(batch.doneMutex);
    batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
    if (batch.error)
        std::rethrow_exception(batch.error);
}

// ---------------------------------------------------------------------
// runMany
// ---------------------------------------------------------------------

std::vector<RunResult>
runMany(std::vector<RunSpec> specs, unsigned jobs)
{
    // Suffix per-run output paths so a sweep sharing one destination
    // fans out to one file per run instead of overwriting. Any
    // multi-spec batch (serial included) gets it, so jobs=1 and jobs=N
    // name identical files.
    for (std::size_t i = 0; specs.size() > 1 && i < specs.size(); ++i) {
        for (std::string ObsOptions::*path :
             {&ObsOptions::metricsJsonPath, &ObsOptions::traceOutPath,
              &ObsOptions::spatialCsvPath, &ObsOptions::latencyReportPath,
              &ObsOptions::backpressureReportPath}) {
            std::string &p = specs[i].obs.*path;
            if (!p.empty())
                p = withRunIndexSuffix(p, i);
        }
    }

    std::vector<RunResult> results(specs.size());
    const unsigned effective = static_cast<unsigned>(
        std::min<std::size_t>(jobs > 0 ? jobs : defaultJobs(),
                              specs.size()));
    if (effective <= 1) {
        for (std::size_t i = 0; i < specs.size(); ++i)
            results[i] = runOnce(specs[i]);
        return results;
    }

    hdpat_debug("runMany: " << specs.size() << " runs on " << effective
                            << " workers");
    WorkerPool::shared().parallelFor(
        specs.size(), effective,
        [&](std::size_t i) { results[i] = runOnce(specs[i]); });
    return results;
}

ProfileSnapshot
mergedProfile(const std::vector<RunResult> &results)
{
    ProfileSnapshot merged;
    for (const RunResult &r : results)
        merged.merge(r.profile);
    return merged;
}

} // namespace hdpat
