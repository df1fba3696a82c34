#include "sim/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "sim/engine.hh"

namespace hdpat
{

namespace
{

/**
 * Engine whose now() stamps log lines (null = no tick prefix).
 * thread_local so that each worker thread running its own simulation
 * (driver/parallel.hh) stamps its lines with *its* engine's tick: a
 * process-wide pointer would race and stamp lines with whichever
 * engine registered last on any thread.
 */
thread_local const Engine *t_log_engine = nullptr;

/** Serializes emitLog so concurrent runs' lines never interleave. */
std::mutex g_log_mutex;

LogLevel
initialLevel()
{
    // Documented in the driver's option table, which this layer cannot
    // depend on.
    constexpr const char *kName = "HDPAT_LOG";
    const char *env = std::getenv(kName);
    const std::string value = env ? env : "";
    if (value.empty() || value == "quiet" || value == "0")
        return LogLevel::Quiet;
    if (value == "info" || value == "1")
        return LogLevel::Info;
    if (value == "debug" || value == "2")
        return LogLevel::Debug;
    std::fprintf(stderr,
                 "%s expects quiet, info or debug (or 0, 1, 2), got '%s'\n",
                 kName, env);
    std::exit(1);
}

std::atomic<LogLevel> &
levelStorage()
{
    static std::atomic<LogLevel> level{initialLevel()};
    return level;
}

} // namespace

LogLevel
logLevel()
{
    return levelStorage().load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    levelStorage().store(level, std::memory_order_relaxed);
}

void
setActiveLogEngine(const Engine *engine)
{
    t_log_engine = engine;
}

void
clearActiveLogEngine(const Engine *engine)
{
    if (t_log_engine == engine)
        t_log_engine = nullptr;
}

namespace detail
{

void
emitLog(const char *tag, const std::string &msg)
{
    const std::lock_guard<std::mutex> lock(g_log_mutex);
    if (t_log_engine) {
        std::fprintf(stderr, "[hdpat:%s @%llu] %s\n", tag,
                     static_cast<unsigned long long>(
                         t_log_engine->now()),
                     msg.c_str());
        return;
    }
    std::fprintf(stderr, "[hdpat:%s] %s\n", tag, msg.c_str());
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[hdpat:panic] %s:%d: %s\n", file, line,
                 msg.c_str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "[hdpat:fatal] %s:%d: %s\n", file, line,
                 msg.c_str());
    std::exit(1);
}

} // namespace detail

} // namespace hdpat
